open Subql_relational

module Cluster = struct
  type t = { detail_schema : Schema.t; partitions : Relation.t array }

  let create ~sites ?(partition = `Round_robin) detail =
    if sites <= 0 then invalid_arg "Distributed.Cluster.create: sites must be positive";
    let schema = Relation.schema detail in
    let buckets = Array.init sites (fun _ -> Vec.create ~dummy:Tuple.empty ()) in
    (match partition with
    | `Round_robin ->
      Relation.iteri (fun i row -> Vec.push buckets.(i mod sites) row) detail
    | `Hash_on (rel, name) ->
      let pos = Schema.find schema ?rel name in
      Relation.iter
        (fun row ->
          let site =
            match row.(pos) with
            | Value.Null -> 0
            | v -> Value.hash v mod sites
          in
          Vec.push buckets.(abs site) row)
        detail);
    {
      detail_schema = schema;
      partitions =
        Array.map (fun b -> Relation.create ~check:false schema (Vec.to_array b)) buckets;
    }

  let sites t = Array.length t.partitions

  let site_rows t = Array.map Relation.cardinality t.partitions
end

type strategy = Ship_all | Ship_filtered | Partial_aggregates

let strategy_to_string = function
  | Ship_all -> "ship-all"
  | Ship_filtered -> "ship-filtered"
  | Partial_aggregates -> "partial-aggregates"

type report = {
  result : Relation.t;
  bytes_broadcast : int;
  bytes_collected : int;
  messages : int;
}

let total_bytes r = r.bytes_broadcast + r.bytes_collected

(* Estimated wire size of values/rows/relations. *)
let value_bytes = function
  | Value.Null -> 1
  | Value.Int _ -> 8
  | Value.Float _ -> 8
  | Value.Bool _ -> 1
  | Value.Str s -> 8 + String.length s

let row_bytes row = Array.fold_left (fun acc v -> acc + value_bytes v) 8 row

let relation_bytes rel = Relation.fold (fun acc row -> acc + row_bytes row) 0 rel

(* ------------------------------------------------------------------ *)
(* Partial aggregation: AVG decomposes into SUM + COUNT so per-site     *)
(* partial states merge exactly.                                        *)
(* ------------------------------------------------------------------ *)

type col_kind = Kcount | Ksum | Kmin | Kmax

(* Rewrite blocks so every aggregate column is mergeable, and record how
   to merge / reconstruct each original output column. *)
let decompose blocks =
  let shipped_blocks =
    List.map
      (fun b ->
        {
          b with
          Gmdj.aggs =
            List.concat_map
              (fun spec ->
                match spec.Aggregate.func with
                | Aggregate.Avg e ->
                  [
                    { Aggregate.func = Aggregate.Sum e; name = spec.Aggregate.name ^ "$sum" };
                    { Aggregate.func = Aggregate.Count e; name = spec.Aggregate.name ^ "$cnt" };
                  ]
                | Aggregate.Count_star | Aggregate.Count _ | Aggregate.Sum _
                | Aggregate.Min _ | Aggregate.Max _ ->
                  [ spec ]
                | Aggregate.First _ ->
                  (* No commutative partial state exists: FIRST depends
                     on detail arrival order across sites. *)
                  invalid_arg "Distributed: FIRST has no mergeable partial state")
              b.Gmdj.aggs;
        })
      blocks
  in
  let shipped_kinds =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun spec ->
            match spec.Aggregate.func with
            | Aggregate.Count_star | Aggregate.Count _ -> [ Kcount ]
            | Aggregate.Sum _ -> [ Ksum ]
            | Aggregate.Min _ -> [ Kmin ]
            | Aggregate.Max _ -> [ Kmax ]
            | Aggregate.Avg _ -> [ Ksum; Kcount ]
            | Aggregate.First _ ->
              invalid_arg "Distributed: FIRST has no mergeable partial state")
          b.Gmdj.aggs)
      blocks
  in
  (shipped_blocks, shipped_kinds)

let merge_value kind a b =
  match kind with
  | Kcount -> Value.add a b
  | Ksum -> (
    match Value.is_null a, Value.is_null b with
    | true, _ -> b
    | _, true -> a
    | false, false -> Value.add a b)
  | Kmin -> (
    match Value.is_null a, Value.is_null b with
    | true, _ -> b
    | _, true -> a
    | false, false -> if Value.compare a b <= 0 then a else b)
  | Kmax -> (
    match Value.is_null a, Value.is_null b with
    | true, _ -> b
    | _, true -> a
    | false, false -> if Value.compare a b >= 0 then a else b)

(* Merge the second partial GMDJ result into the first, columnwise over
   the aggregate suffix.  Rows align by position: partial results share
   the same base relation, and [Gmdj.eval] emits base order. *)
let merge_partials ~n_base_cols ~kinds a b =
  let arows = Relation.rows a and brows = Relation.rows b in
  Array.iteri
    (fun i arow ->
      let brow = brows.(i) in
      List.iteri
        (fun j kind ->
          let c = n_base_cols + j in
          arow.(c) <- merge_value kind arow.(c) brow.(c))
        kinds)
    arows;
  a

(* Reassemble the original output schema from the shipped columns
   (AVG = float sum / count, NULL on an empty range). *)
let reconstruct ~base ~detail_schema ~blocks merged =
  let out_schema =
    Gmdj.output_schema ~base:(Relation.schema base) ~detail:detail_schema blocks
  in
  let merged_schema = Relation.schema merged in
  let n_base_cols = Schema.arity (Relation.schema base) in
  let readers =
    List.concat_map
      (fun b ->
        List.map
          (fun spec ->
            match spec.Aggregate.func with
            | Aggregate.Avg _ ->
              let sum_i = Schema.find merged_schema (spec.Aggregate.name ^ "$sum") in
              let cnt_i = Schema.find merged_schema (spec.Aggregate.name ^ "$cnt") in
              fun (row : Tuple.t) ->
                (match row.(cnt_i) with
                | Value.Int 0 -> Value.Null
                | Value.Int n -> (
                  match row.(sum_i) with
                  | Value.Int s -> Value.Float (float_of_int s /. float_of_int n)
                  | Value.Float s -> Value.Float (s /. float_of_int n)
                  | v -> v)
                | v -> v)
            | Aggregate.Count_star | Aggregate.Count _ | Aggregate.Sum _ | Aggregate.Min _
            | Aggregate.Max _ | Aggregate.First _ ->
              let i = Schema.find merged_schema spec.Aggregate.name in
              fun row -> row.(i))
          b.Gmdj.aggs)
      blocks
  in
  let rows =
    Array.map
      (fun row ->
        let out = Array.make (Schema.arity out_schema) Value.Null in
        Array.blit row 0 out 0 n_base_cols;
        List.iteri (fun j read -> out.(n_base_cols + j) <- read row) readers;
        out)
      (Relation.rows merged)
  in
  Relation.create ~check:false out_schema rows

(* ------------------------------------------------------------------ *)
(* Strategies                                                           *)
(* ------------------------------------------------------------------ *)

let concat_partitions (cluster : Cluster.t) parts =
  let all = Vec.create ~dummy:Tuple.empty () in
  Array.iter (fun p -> Relation.iter (Vec.push all) p) parts;
  Relation.create ~check:false cluster.Cluster.detail_schema (Vec.to_array all)

(* Rows that fail every block's detail-local conjuncts cannot contribute
   to any aggregate and need not be shipped.  A block without detail-
   local conjuncts forces shipping everything. *)
let site_filter ~detail_schema blocks =
  let per_block =
    List.map
      (fun b ->
        let detail_only, _ =
          List.partition (Expr.refs_resolvable [| detail_schema |]) (Expr.conjuncts b.Gmdj.theta)
        in
        match detail_only with [] -> None | cs -> Some (Expr.conjoin cs))
      blocks
  in
  if List.exists Option.is_none per_block then None
  else Some (Expr.disjoin (List.filter_map Fun.id per_block))

(* Publish a coordinator run into the process registry: aggregate
   traffic as counters, the per-site shipped sizes as a histogram (so a
   skewed partitioning shows up as a wide spread, not just a sum). *)
let publish ~site_bytes report =
  let open Subql_obs in
  let c name = Metrics.counter Metrics.default ("distributed." ^ name) in
  Metrics.incr (c "executions");
  Metrics.incr ~by:report.bytes_broadcast (c "bytes_broadcast");
  Metrics.incr ~by:report.bytes_collected (c "bytes_collected");
  Metrics.incr ~by:report.messages (c "messages");
  let shipped =
    Metrics.histogram
      ~buckets:[ 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ]
      Metrics.default "distributed.site_shipped_bytes"
  in
  Array.iter (fun b -> Metrics.observe shipped (float_of_int b)) site_bytes

let execute ?(strategy = Partial_aggregates) (cluster : Cluster.t) ~base blocks =
  let sites = Cluster.sites cluster in
  Subql_obs.Trace.with_
    ~attrs:
      [ ("strategy", strategy_to_string strategy); ("sites", string_of_int sites) ]
    "distributed.execute"
  @@ fun () ->
  let report, site_bytes =
    match strategy with
    | Ship_all ->
      let site_bytes = Array.map relation_bytes cluster.Cluster.partitions in
      let shipped = concat_partitions cluster cluster.Cluster.partitions in
      ( {
          result = Gmdj.eval ~base ~detail:shipped blocks;
          bytes_broadcast = 0;
          bytes_collected = relation_bytes shipped;
          messages = sites;
        },
        site_bytes )
    | Ship_filtered ->
      let parts =
        match site_filter ~detail_schema:cluster.Cluster.detail_schema blocks with
        | None -> cluster.Cluster.partitions
        | Some pred -> Array.map (Ops.select pred) cluster.Cluster.partitions
      in
      let site_bytes = Array.map relation_bytes parts in
      let shipped = concat_partitions cluster parts in
      ( {
          result = Gmdj.eval ~base ~detail:shipped blocks;
          bytes_broadcast = 0;
          bytes_collected = relation_bytes shipped;
          messages = sites;
        },
        site_bytes )
    | Partial_aggregates ->
      let shipped_blocks, kinds = decompose blocks in
      let n_base_cols = Schema.arity (Relation.schema base) in
      let partials =
        Array.map
          (fun part -> Gmdj.eval ~base ~detail:part shipped_blocks)
          cluster.Cluster.partitions
      in
      let site_bytes = Array.map relation_bytes partials in
      let bytes_collected = Array.fold_left ( + ) 0 site_bytes in
      let merged =
        match Array.to_list partials with
        | [] -> assert false
        | first :: rest ->
          (* Copy before the in-place columnwise merge. *)
          let acc =
            Relation.create ~check:false (Relation.schema first)
              (Array.map Array.copy (Relation.rows first))
          in
          List.fold_left (fun acc p -> merge_partials ~n_base_cols ~kinds acc p) acc rest
      in
      ( {
          result =
            reconstruct ~base ~detail_schema:cluster.Cluster.detail_schema ~blocks merged;
          bytes_broadcast = sites * relation_bytes base;
          bytes_collected;
          messages = 2 * sites;
        },
        site_bytes )
  in
  publish ~site_bytes report;
  report
