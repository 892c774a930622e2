type join_strategy = [ `Hash | `Nested_loop | `Sort_merge ]

(* Sorted-array equi access path for the sort-merge strategy: right rows
   ordered by their key columns; per left key a binary search finds the
   matching run.  Rows with a NULL key column are excluded, as in the
   hash index (an SQL equi-condition cannot be true on NULL). *)
module Sorted_access = struct
  type t = { key_of : Tuple.t -> Tuple.t option; order : int array; keys : Tuple.t array }

  let build rows cols =
    let key_of row =
      let k = Array.map (fun c -> row.(c)) cols in
      if Array.exists Value.is_null k then None else Some k
    in
    let indexed =
      Array.to_list rows
      |> List.mapi (fun i row -> (i, key_of row))
      |> List.filter_map (fun (i, k) -> Option.map (fun k -> (i, k)) k)
      |> Array.of_list
    in
    Array.sort (fun (_, a) (_, b) -> Tuple.compare a b) indexed;
    {
      key_of;
      order = Array.map fst indexed;
      keys = Array.map snd indexed;
    }

  (* First position with key >= probe. *)
  let lower_bound t probe =
    let lo = ref 0 and hi = ref (Array.length t.keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Tuple.compare t.keys.(mid) probe < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let probe_iter t key f =
    if not (Array.exists Value.is_null key) then begin
      let i = ref (lower_bound t key) in
      while !i < Array.length t.keys && Tuple.compare t.keys.(!i) key = 0 do
        f t.order.(!i);
        incr i
      done
    end
end

let dummy_row : Tuple.t = [||]

(* ------------------------------------------------------------------ *)
(* Chunk kernels                                                        *)
(* ------------------------------------------------------------------ *)

(* The streaming operators are built as per-chunk kernels compiled once
   per plan node; the whole-relation entry points run the same kernel
   over the relation as a single chunk, so there is exactly one
   implementation of each operator's semantics. *)

let select_kernel schema pred =
  Expr.typecheck_bool [| schema |] pred;
  let p = Expr.compile schema pred in
  fun c ->
    let out = Vec.create ~capacity:(max 1 (Chunk.length c)) ~dummy:dummy_row () in
    Chunk.iter (fun row -> if Expr.is_true (p row) then Vec.push out row) c;
    Chunk.of_rows (Chunk.schema c) (Vec.to_array out)

let select pred rel =
  let k = select_kernel (Relation.schema rel) pred in
  Chunk.to_relation (k (Chunk.whole rel))

let select_source pred src =
  let k = select_kernel (Chunk.Source.schema src) pred in
  Chunk.Source.map k src

let map_kernel out_schema row_fn c =
  let buf = Chunk.buffer c and off = Chunk.offset c in
  Chunk.of_rows out_schema (Array.init (Chunk.length c) (fun i -> row_fn buf.(off + i)))

let project_kernel schema exprs =
  let out_attrs =
    List.map
      (fun (e, name) ->
        let ty = match Expr.infer [| schema |] e with Some ty -> ty | None -> Value.Tint in
        Schema.attr name ty)
      exprs
  in
  let out_schema = Schema.of_list out_attrs in
  let fns = Array.of_list (List.map (fun (e, _) -> Expr.compile schema e) exprs) in
  (out_schema, map_kernel out_schema (fun row -> Array.map (fun f -> f row) fns))

let project exprs rel =
  let _, k = project_kernel (Relation.schema rel) exprs in
  Chunk.to_relation (k (Chunk.whole rel))

let project_source exprs src =
  let out_schema, k = project_kernel (Chunk.Source.schema src) exprs in
  Chunk.Source.map ~schema:out_schema k src

let project_cols_kernel schema cols =
  let idxs =
    Array.of_list (List.map (fun (rel_q, name) -> Schema.find schema ?rel:rel_q name) cols)
  in
  let out_schema = Schema.project schema idxs in
  (out_schema, map_kernel out_schema (fun row -> Tuple.project row idxs))

(* Resumable distinct state: the seen-set behind DISTINCT, exposed so
   the spill path can freeze it at a budget and route overflow rows to
   disk. *)
module Distinct_acc = struct
  type t = { seen : (int, Tuple.t) Hashtbl.t; order : Tuple.t Vec.t }

  let create () = { seen = Hashtbl.create 64; order = Vec.create ~dummy:dummy_row () }

  let mem t row = List.exists (Tuple.equal row) (Hashtbl.find_all t.seen (Tuple.hash row))

  let add t row =
    let h = Tuple.hash row in
    if List.exists (Tuple.equal row) (Hashtbl.find_all t.seen h) then false
    else begin
      Hashtbl.add t.seen h row;
      Vec.push t.order row;
      true
    end

  let size t = Vec.length t.order

  let rows t = Vec.to_array t.order
end

let dedup_into iter_rows =
  let acc = Distinct_acc.create () in
  iter_rows (fun row -> ignore (Distinct_acc.add acc row));
  Distinct_acc.rows acc

let dedup_rows rows = dedup_into (fun f -> Array.iter f rows)

let project_cols ?(distinct = false) cols rel =
  let out_schema, k = project_cols_kernel (Relation.schema rel) cols in
  let rows = Chunk.to_rows (k (Chunk.whole rel)) in
  let rows = if distinct then dedup_rows rows else rows in
  Relation.create ~check:false out_schema rows

let project_cols_source cols src =
  let out_schema, k = project_cols_kernel (Chunk.Source.schema src) cols in
  Chunk.Source.map ~schema:out_schema k src

let distinct rel =
  Relation.create ~check:false (Relation.schema rel) (dedup_rows (Relation.rows rel))

let distinct_source src =
  let schema = Chunk.Source.schema src in
  Relation.create ~check:false schema
    (dedup_into (fun f -> Chunk.Source.iter (Chunk.iter f) src))

let rename_source alias src =
  let schema = Schema.rename_rel alias (Chunk.Source.schema src) in
  Chunk.Source.map ~schema (Chunk.with_schema schema) src

let add_rownum_kernel schema name =
  let out_schema = Schema.concat schema [| Schema.attr name Value.Tint |] in
  let seen = ref 0 in
  ( out_schema,
    fun c ->
      let buf = Chunk.buffer c and off = Chunk.offset c in
      let base = !seen in
      let rows =
        Array.init (Chunk.length c) (fun i ->
            Tuple.concat buf.(off + i) [| Value.Int (base + i) |])
      in
      seen := base + Chunk.length c;
      Chunk.of_rows out_schema rows )

let add_rownum name rel =
  let _, k = add_rownum_kernel (Relation.schema rel) name in
  Chunk.to_relation (k (Chunk.whole rel))

let add_rownum_source name src =
  let out_schema, k = add_rownum_kernel (Chunk.Source.schema src) name in
  Chunk.Source.map ~schema:out_schema k src

let product left right =
  let out_schema = Schema.concat (Relation.schema left) (Relation.schema right) in
  let out = Vec.create ~dummy:dummy_row () in
  Relation.iter
    (fun l -> Relation.iter (fun r -> Vec.push out (Tuple.concat l r)) right)
    left;
  Relation.create ~check:false out_schema (Vec.to_array out)

(* Shared driver for inner/outer/semi/anti joins.

   [emit] receives the left row and an iterator over matching right rows;
   it decides what to output.  The hash strategy builds an index on the
   right side over the equi-columns of the condition and evaluates only
   the residual per candidate. *)
let join_driver ?(strategy = `Hash) cond left right ~emit =
  let ls = Relation.schema left and rs = Relation.schema right in
  Expr.typecheck_bool [| ls; rs |] cond;
  let full = Expr.compile2 ~left:ls ~right:rs cond in
  let scan_matches l f =
    Relation.iter (fun r -> if Expr.is_true (full l r) then f r) right
  in
  let matches =
    match strategy with
    | `Nested_loop -> scan_matches
    | (`Hash | `Sort_merge) as strategy -> (
      let pairs, residual = Expr.split_equi ~left:ls ~right:rs cond in
      match pairs with
      | [] -> scan_matches
      | _ ->
        let lcols = Array.of_list (List.map fst pairs) in
        let rcols = Array.of_list (List.map snd pairs) in
        let rrows = Relation.rows right in
        let probe =
          match strategy with
          | `Hash ->
            let index = Index.build right rcols in
            Index.probe_iter index
          | `Sort_merge ->
            let access = Sorted_access.build rrows rcols in
            Sorted_access.probe_iter access
        in
        let test =
          match residual with
          | None -> fun _ _ -> true
          | Some res ->
            let f = Expr.compile2 ~left:ls ~right:rs res in
            fun l r -> Expr.is_true (f l r)
        in
        fun l f ->
          let key = Array.map (fun c -> l.(c)) lcols in
          probe key (fun ri ->
              let r = rrows.(ri) in
              if test l r then f r))
  in
  Relation.iter (fun l -> emit l (matches l)) left

let join ?strategy cond left right =
  let out_schema = Schema.concat (Relation.schema left) (Relation.schema right) in
  let out = Vec.create ~dummy:dummy_row () in
  join_driver ?strategy cond left right ~emit:(fun l iter ->
      iter (fun r -> Vec.push out (Tuple.concat l r)));
  Relation.create ~check:false out_schema (Vec.to_array out)

let left_outer_join ?strategy cond left right =
  let rs = Relation.schema right in
  let out_schema = Schema.concat (Relation.schema left) rs in
  let pad = Array.make (Schema.arity rs) Value.Null in
  let out = Vec.create ~dummy:dummy_row () in
  join_driver ?strategy cond left right ~emit:(fun l iter ->
      let matched = ref false in
      iter (fun r ->
          matched := true;
          Vec.push out (Tuple.concat l r));
      if not !matched then Vec.push out (Tuple.concat l pad));
  Relation.create ~check:false out_schema (Vec.to_array out)

exception Found

let has_match iter =
  try
    iter (fun _ -> raise Found);
    false
  with Found -> true

let semi_join ?strategy cond left right =
  let out = Vec.create ~dummy:dummy_row () in
  join_driver ?strategy cond left right ~emit:(fun l iter ->
      if has_match iter then Vec.push out l);
  Relation.create ~check:false (Relation.schema left) (Vec.to_array out)

let anti_join ?strategy cond left right =
  let out = Vec.create ~dummy:dummy_row () in
  join_driver ?strategy cond left right ~emit:(fun l iter ->
      if not (has_match iter) then Vec.push out l);
  Relation.create ~check:false (Relation.schema left) (Vec.to_array out)

module Group_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal

  let hash = Tuple.hash
end)

let agg_schema frames aggs =
  List.map (fun spec -> Schema.attr spec.Aggregate.name (Aggregate.output_ty frames spec)) aggs

(* Resumable grouping state: the hash table behind GROUP BY, exposed so
   the spill path can freeze the group set at a budget and route rows of
   unseen keys to disk. *)
module Group_acc = struct
  type t = {
    key_idxs : int array;
    out_schema : Schema.t;
    compiled : Aggregate.compiled list;
    groups : (Tuple.t * Aggregate.acc list) Group_table.t;
    order : Tuple.t Vec.t;
    ctx : Tuple.t array;
  }

  let create ~schema ~keys ~aggs =
    let key_idxs =
      Array.of_list (List.map (fun (rel_q, name) -> Schema.find schema ?rel:rel_q name) keys)
    in
    let key_schema = Schema.project schema key_idxs in
    let frames = [| schema |] in
    {
      key_idxs;
      out_schema = Schema.concat key_schema (Schema.of_list (agg_schema frames aggs));
      compiled = List.map (Aggregate.compile frames) aggs;
      groups = Group_table.create 64;
      order = Vec.create ~dummy:dummy_row ();
      ctx = [| Tuple.empty |];
    }

  let key_of t row = Tuple.project row t.key_idxs

  let mem_key t key = Group_table.mem t.groups key

  let size t = Vec.length t.order

  let update t accs row =
    t.ctx.(0) <- row;
    List.iter (fun acc -> Aggregate.step acc t.ctx) accs

  let step t row =
    let key = key_of t row in
    let accs =
      match Group_table.find_opt t.groups key with
      | Some (_, accs) -> accs
      | None ->
        let accs = List.map Aggregate.make t.compiled in
        Group_table.add t.groups key (key, accs);
        Vec.push t.order key;
        accs
    in
    update t accs row

  (* Update only an already-present group: [false] means the key is new
     and the row was not consumed — the spill path's overflow test. *)
  let step_existing t row =
    match Group_table.find_opt t.groups (key_of t row) with
    | Some (_, accs) ->
      update t accs row;
      true
    | None -> false

  let result t =
    let out = Vec.create ~dummy:dummy_row () in
    Vec.iter
      (fun key ->
        let _, accs = Group_table.find t.groups key in
        let agg_vals = Array.of_list (List.map Aggregate.value accs) in
        Vec.push out (Tuple.concat key agg_vals))
      t.order;
    Relation.create ~check:false t.out_schema (Vec.to_array out)
end

(* Grouping and full aggregation are pipeline breakers, but they consume
   their input a row at a time: the streamed variants fold chunks into
   the group hash table without ever materializing the input. *)
let group_by_core ~schema ~keys ~aggs iter_rows =
  let acc = Group_acc.create ~schema ~keys ~aggs in
  iter_rows (Group_acc.step acc);
  Group_acc.result acc

let group_by ~keys ~aggs rel =
  group_by_core ~schema:(Relation.schema rel) ~keys ~aggs (fun f -> Relation.iter f rel)

let group_by_source ~keys ~aggs src =
  group_by_core ~schema:(Chunk.Source.schema src) ~keys ~aggs (fun f ->
      Chunk.Source.iter (Chunk.iter f) src)

let aggregate_all_core ~schema aggs iter_rows =
  let frames = [| schema |] in
  let out_schema = Schema.of_list (agg_schema frames aggs) in
  let compiled = List.map (Aggregate.compile frames) aggs in
  let accs = List.map Aggregate.make compiled in
  let ctx = [| Tuple.empty |] in
  iter_rows (fun row ->
      ctx.(0) <- row;
      List.iter (fun acc -> Aggregate.step acc ctx) accs);
  let row = Array.of_list (List.map Aggregate.value accs) in
  Relation.create ~check:false out_schema [| row |]

let aggregate_all aggs rel =
  aggregate_all_core ~schema:(Relation.schema rel) aggs (fun f -> Relation.iter f rel)

let aggregate_all_source aggs src =
  aggregate_all_core ~schema:(Chunk.Source.schema src) aggs (fun f ->
      Chunk.Source.iter (Chunk.iter f) src)

let check_compatible_schemas name a b =
  if not (Schema.equal_names a b) then invalid_arg (name ^ ": incompatible schemas")

let check_compatible name a b =
  check_compatible_schemas name (Relation.schema a) (Relation.schema b)

let union_all a b =
  check_compatible "union_all" a b;
  Relation.create ~check:false (Relation.schema a)
    (Array.append (Relation.rows a) (Relation.rows b))

let union_all_source a b =
  check_compatible_schemas "union_all" (Chunk.Source.schema a) (Chunk.Source.schema b);
  Chunk.Source.concat a b

let union a b = distinct (union_all a b)

let diff_all a b =
  check_compatible "diff_all" a b;
  let budget = Group_table.create (max 16 (Relation.cardinality b)) in
  Relation.iter
    (fun row ->
      let _, n = Option.value ~default:(row, 0) (Group_table.find_opt budget row) in
      Group_table.replace budget row (row, n + 1))
    b;
  let out = Vec.create ~dummy:dummy_row () in
  Relation.iter
    (fun row ->
      match Group_table.find_opt budget row with
      | Some (_, n) when n > 0 -> Group_table.replace budget row (row, n - 1)
      | Some _ | None -> Vec.push out row)
    a;
  Relation.create ~check:false (Relation.schema a) (Vec.to_array out)

let diff a b =
  check_compatible "diff" a b;
  let right = Group_table.create (max 16 (Relation.cardinality b)) in
  Relation.iter (fun row -> Group_table.replace right row (row, 1)) b;
  distinct (Relation.filter (fun row -> not (Group_table.mem right row)) a)

let intersect a b =
  check_compatible "intersect" a b;
  let right = Group_table.create (max 16 (Relation.cardinality b)) in
  Relation.iter (fun row -> Group_table.replace right row (row, 1)) b;
  distinct (Relation.filter (fun row -> Group_table.mem right row) a)

let sort ~by rel =
  let schema = Relation.schema rel in
  let keys =
    List.map
      (fun ((rel_q, name), dir) -> (Schema.find schema ?rel:rel_q name, dir))
      by
  in
  let compare_rows a b =
    let rec loop = function
      | [] -> 0
      | (i, dir) :: rest ->
        let c = Value.compare a.(i) b.(i) in
        let c = match dir with `Asc -> c | `Desc -> -c in
        if c <> 0 then c else loop rest
    in
    loop keys
  in
  let rows = Array.copy (Relation.rows rel) in
  Array.stable_sort compare_rows rows;
  Relation.create ~check:false schema rows

let limit n rel =
  let rows = Relation.rows rel in
  let n = min n (Array.length rows) in
  Relation.create ~check:false (Relation.schema rel) (Array.sub rows 0 (max n 0))
