open Subql_relational
open Subql_gmdj

type config = {
  join_strategy : Ops.join_strategy;
  gmdj_strategy : Gmdj.strategy;
  domains : int;
  spill_budget_rows : int option;
}

let default_config =
  { join_strategy = `Hash; gmdj_strategy = `Hash; domains = 1; spill_budget_rows = None }

let unindexed_config = { default_config with join_strategy = `Nested_loop; gmdj_strategy = `Scan }

let schema catalog alg =
  Algebra.schema_of ~lookup:(fun name -> Relation.schema (Catalog.find catalog name)) alg

type source_provider = string -> Chunk.Source.t option

type exec_report = { chunks : int; peak_materialized_rows : int }

let children = function
  | Algebra.Table _ -> []
  | Algebra.Rename (_, x)
  | Algebra.Select (_, x)
  | Algebra.Project (_, x)
  | Algebra.Project_cols { input = x; _ }
  | Algebra.Project_rel (_, x)
  | Algebra.Add_rownum (_, x)
  | Algebra.Group_by { input = x; _ }
  | Algebra.Aggregate_all (_, x)
  | Algebra.Distinct x ->
    [ x ]
  | Algebra.Product (l, r)
  | Algebra.Join { left = l; right = r; _ }
  | Algebra.Md { base = l; detail = r; _ }
  | Algebra.Md_completed { base = l; detail = r; _ }
  | Algebra.Union_all (l, r)
  | Algebra.Diff_all (l, r) ->
    [ l; r ]

let node_label alg =
  let exprs es = String.concat ", " (List.map Expr.to_string es) in
  match alg with
  | Algebra.Table name -> "Table " ^ name
  | Algebra.Rename (a, _) -> "Rename " ^ a
  | Algebra.Select (e, _) -> "Select " ^ Expr.to_string e
  | Algebra.Project (ps, _) -> Printf.sprintf "Project [%s]" (exprs (List.map fst ps))
  | Algebra.Project_cols { distinct; _ } ->
    if distinct then "Project-distinct" else "Project-cols"
  | Algebra.Project_rel (aliases, _) -> "ProjectRel " ^ String.concat "," aliases
  | Algebra.Add_rownum (n, _) -> "AddRownum " ^ n
  | Algebra.Product _ -> "Product"
  | Algebra.Join { kind; cond; _ } ->
    let k =
      match kind with
      | Algebra.Inner -> "Join"
      | Algebra.Left_outer -> "LeftOuterJoin"
      | Algebra.Semi -> "SemiJoin"
      | Algebra.Anti -> "AntiJoin"
    in
    k ^ " " ^ Expr.to_string cond
  | Algebra.Group_by { keys; _ } ->
    Printf.sprintf "GroupBy [%s]"
      (String.concat ", " (List.map (function None, n -> n | Some r, n -> r ^ "." ^ n) keys))
  | Algebra.Aggregate_all _ -> "AggregateAll"
  | Algebra.Md { blocks; _ } -> Printf.sprintf "MD (%d blocks)" (List.length blocks)
  | Algebra.Md_completed { blocks; completion; _ } ->
    Printf.sprintf "MD-completed (%d blocks%s)" (List.length blocks)
      (if completion.Gmdj.maintain_aggregates then "" else ", aggregate-free")
  | Algebra.Union_all _ -> "UnionAll"
  | Algebra.Diff_all _ -> "DiffAll"
  | Algebra.Distinct _ -> "Distinct"

(* ------------------------------------------------------------------ *)
(* The shared executor skeleton                                         *)
(* ------------------------------------------------------------------ *)

(* Every public entry point is a thin wrapper over one skeleton: a
   single per-node [dispatch] (the only place operator semantics are
   chosen) driven either lazily ([run_stream] — operators exchange
   chunk streams, and only pipeline breakers materialize) or eagerly
   ([run_eager] — every node is materialized so per-operator hooks can
   observe cardinalities, timings and buffer-pool deltas).  Both
   drivers run [dispatch] over {!streamed} values; the eager one simply
   feeds it whole-relation sources, whose {!Chunk.Source.origin}
   shortcut keeps that path copy-free. *)

(* Memory accounting: rows the executor itself holds materialized (an
   operator's collected output, or an input buffered for a blocking
   operator).  Catalog relations, caller-provided overrides and storage
   pages are not counted — they exist regardless of how we execute. *)
type acct = {
  mutable live_rows : int;
  mutable peak_rows : int;
  mutable chunks : int;
}

let acct_create () = { live_rows = 0; peak_rows = 0; chunks = 0 }

let acct_alloc a n =
  a.live_rows <- a.live_rows + n;
  if a.live_rows > a.peak_rows then a.peak_rows <- a.live_rows

let acct_release a n = a.live_rows <- a.live_rows - n

(* Instrumentation hooks.  [on_node_start] fires when a node begins its
   own work (its inputs, under the eager driver, are already complete —
   so deltas snapshotted there are attributable to the node alone);
   [on_chunk] fires per chunk pulled out of a node; [on_node_done]
   folds the node's result and its children's annotations into this
   node's annotation. *)
type 'ann hooks = {
  on_node_start : Algebra.t -> unit;
  on_chunk : Algebra.t -> rows:int -> unit;
  on_node_done : Algebra.t -> Relation.t -> Gmdj.stats option -> 'ann list -> 'ann;
}

type ctx = {
  config : config;
  catalog : Catalog.t;
  sources : source_provider;
  override : Algebra.t -> Relation.t option;
  acct : acct;
  notify_chunk : Algebra.t -> rows:int -> unit;
}

(* A node's output: a chunk stream plus a thunk releasing whatever the
   subtree still holds materialized.  The consumer fires [release] once
   it no longer needs the rows (releases are idempotent). *)
type streamed = { src : Chunk.Source.t; release : unit -> unit }

let no_release () = ()

let once f =
  let fired = ref false in
  fun () ->
    if not !fired then begin
      fired := true;
      f ()
    end

let tap ctx alg src =
  Chunk.Source.tap
    (fun rows ->
      ctx.acct.chunks <- ctx.acct.chunks + 1;
      ctx.notify_chunk alg ~rows)
    src

(* Collect a stream into a relation, accounting the copy — unless the
   stream is an untouched whole-relation source, in which case the rows
   are whoever produced them's responsibility (already accounted if an
   operator emitted them, free if they came from the catalog). *)
let materialize ctx s =
  match Chunk.Source.origin s.src with
  | Some r ->
    Chunk.Source.close s.src;
    (r, s.release)
  | None ->
    let r = Chunk.Source.to_relation s.src in
    let n = Relation.cardinality r in
    acct_alloc ctx.acct n;
    ( r,
      once (fun () ->
          acct_release ctx.acct n;
          s.release ()) )

(* An operator's freshly materialized output, entering the accounting
   until the consumer releases it. *)
let emit ctx alg r =
  let n = Relation.cardinality r in
  acct_alloc ctx.acct n;
  {
    src = tap ctx alg (Chunk.Source.of_relation r);
    release = once (fun () -> acct_release ctx.acct n);
  }

(* Override results must fit where the node's output goes.  The lookup
   failing (unknown table, un-inferable subtree) falls back to the old
   caller's-contract behaviour. *)
let validate_override ctx alg r =
  let lookup name =
    match ctx.sources name with
    | Some s ->
      let sc = Chunk.Source.schema s in
      Chunk.Source.close s;
      sc
    | None -> Relation.schema (Catalog.find ctx.catalog name)
  in
  match (try Algebra.schema_diag ~lookup alg with _ -> Error (Diag.error ~code:"EVL000" "")) with
  | Error _ -> ()
  | Ok expected ->
    let got = Relation.schema r in
    if not (Schema.equal expected got) then
      raise
        (Diag.Fail
           (Diag.error ~code:"EVL001" ~subject:(node_label alg)
              (Format.asprintf
                 "override result schema %a does not match the node's inferred schema %a"
                 Schema.pp got Schema.pp expected)))

(* ------------------------------------------------------------------ *)
(* Pipeline-breaker execution modes                                     *)
(* ------------------------------------------------------------------ *)

(* A spilling breaker bounds its resident state at the configured budget
   and pushes the overflow through temp heap files; its resident
   high-water enters the accounting for the operator's lifetime, so
   [peak_materialized_rows] reports what was actually held rather than
   what a fully in-memory breaker would have needed. *)
let spill_outcome ctx (o : Subql_storage.Spill.outcome) =
  acct_alloc ctx.acct o.Subql_storage.Spill.resident_peak_rows;
  acct_release ctx.acct o.Subql_storage.Spill.resident_peak_rows;
  o.Subql_storage.Spill.result

(* DISTINCT / GROUP BY under the configured execution mode: spilling
   when a budget is set (resident hash state freezes at the budget,
   overflow goes through temp heap files), streaming otherwise. *)
let run_distinct ctx src =
  match ctx.config.spill_budget_rows with
  | Some budget -> spill_outcome ctx (Subql_storage.Spill.distinct ~budget src)
  | None -> Ops.distinct_source src

let run_group_by ctx ~keys ~aggs src =
  match ctx.config.spill_budget_rows with
  | Some budget -> spill_outcome ctx (Subql_storage.Spill.group_by ~budget ~keys ~aggs src)
  | None -> Ops.group_by_source ~keys ~aggs src

let gmdj_trace_attrs ~strategy ~blocks ~base ~completion =
  let base_attrs =
    [
      ( "strategy",
        match strategy with `Reference -> "scan" | `Scan -> "scan" | `Hash -> "hash" );
      ("blocks", string_of_int (List.length blocks));
      ("base_rows", string_of_int (Relation.cardinality base));
      ("detail", "streamed");
    ]
  in
  match completion with
  | None -> base_attrs
  | Some c ->
    base_attrs
    @ [
        ("kill_preds", string_of_int (List.length c.Gmdj.kill_when));
        ("require_preds", string_of_int (List.length c.Gmdj.require_fired));
      ]

(* The one per-node dispatch.  [child] yields each operand's streamed
   value, in [children] order.  Fully pipelined operators pass the
   stream through; blocking operators either consume the stream
   incrementally (Group_by, Distinct — bounded state, no input copy) or
   materialize inputs they must revisit (Join, Product, GMDJ base). *)
let dispatch ctx ?gmdj_stats ~(child : Algebra.t -> streamed) alg =
  match alg with
  | Algebra.Table name -> (
    match ctx.sources name with
    | Some src -> { src = tap ctx alg src; release = no_release }
    | None ->
      {
        src = tap ctx alg (Chunk.Source.of_relation (Catalog.find ctx.catalog name));
        release = no_release;
      })
  | Algebra.Rename (alias, x) -> (
    let c = child x in
    match Chunk.Source.origin c.src with
    | Some r ->
      (* Whole-relation input: rename the header only, keeping the
         origin shortcut (and the rows) intact. *)
      Chunk.Source.close c.src;
      {
        src = tap ctx alg (Chunk.Source.of_relation (Relation.rename alias r));
        release = c.release;
      }
    | None -> { src = tap ctx alg (Ops.rename_source alias c.src); release = c.release })
  | Algebra.Select (e, x) ->
    let c = child x in
    { src = tap ctx alg (Ops.select_source e c.src); release = c.release }
  | Algebra.Project (ps, x) ->
    let c = child x in
    { src = tap ctx alg (Ops.project_source ps c.src); release = c.release }
  | Algebra.Project_cols { cols; distinct; _ } ->
    let c = child (List.hd (children alg)) in
    if distinct then begin
      let r = run_distinct ctx (Ops.project_cols_source cols c.src) in
      c.release ();
      emit ctx alg r
    end
    else { src = tap ctx alg (Ops.project_cols_source cols c.src); release = c.release }
  | Algebra.Project_rel (aliases, x) ->
    let c = child x in
    let s = Chunk.Source.schema c.src in
    let cols =
      List.filter_map
        (fun a ->
          if List.mem a.Schema.rel aliases then Some (Some a.Schema.rel, a.Schema.name)
          else None)
        (Schema.to_list s)
    in
    { src = tap ctx alg (Ops.project_cols_source cols c.src); release = c.release }
  | Algebra.Add_rownum (name, x) ->
    let c = child x in
    { src = tap ctx alg (Ops.add_rownum_source name c.src); release = c.release }
  | Algebra.Product (l, r) ->
    let cl = child l and cr = child r in
    let lrel, lfree = materialize ctx cl in
    let rrel, rfree = materialize ctx cr in
    let out = Ops.product lrel rrel in
    lfree ();
    rfree ();
    emit ctx alg out
  | Algebra.Join { kind; cond; left; right } -> (
    let cl = child left and cr = child right in
    let strategy = ctx.config.join_strategy in
    match ctx.config.spill_budget_rows with
    | Some budget ->
      (* Grace hash join straight off the child streams: neither side is
         materialized here — Spill collects up to the budget and
         hash-partitions the rest to temp heap files. *)
      let kind =
        match kind with
        | Algebra.Inner -> `Inner
        | Algebra.Left_outer -> `Left_outer
        | Algebra.Semi -> `Semi
        | Algebra.Anti -> `Anti
      in
      let out =
        spill_outcome ctx
          (Subql_storage.Spill.join ~budget ~strategy ~kind ~cond ~left:cl.src
             ~right:cr.src ())
      in
      cl.release ();
      cr.release ();
      emit ctx alg out
    | None ->
      let lrel, lfree = materialize ctx cl in
      let rrel, rfree = materialize ctx cr in
      let out =
        match kind with
        | Algebra.Inner -> Ops.join ~strategy cond lrel rrel
        | Algebra.Left_outer -> Ops.left_outer_join ~strategy cond lrel rrel
        | Algebra.Semi -> Ops.semi_join ~strategy cond lrel rrel
        | Algebra.Anti -> Ops.anti_join ~strategy cond lrel rrel
      in
      lfree ();
      rfree ();
      emit ctx alg out)
  | Algebra.Group_by { keys; aggs; _ } ->
    let c = child (List.hd (children alg)) in
    let out = run_group_by ctx ~keys ~aggs c.src in
    c.release ();
    emit ctx alg out
  | Algebra.Aggregate_all (aggs, x) ->
    let c = child x in
    let out = Ops.aggregate_all_source aggs c.src in
    c.release ();
    emit ctx alg out
  | Algebra.Md { blocks; base = b; detail = d } -> (
    let cb = child b in
    let base, bfree = materialize ctx cb in
    let cd = child d in
    let strategy = ctx.config.gmdj_strategy in
    match Chunk.Source.origin cd.src with
    | Some detail ->
      (* Materialized detail: the classic evaluator (its own span and
         registry publication, including the `Reference strategy). *)
      Chunk.Source.close cd.src;
      let out = Gmdj.eval ~strategy ?stats:gmdj_stats ~base ~detail blocks in
      cd.release ();
      bfree ();
      emit ctx alg out
    | None ->
      (* Streamed detail: one pass over the chunk stream, |B|
         accumulators of state, never the detail in memory. *)
      let out =
        Subql_obs.Trace.with_
          ~attrs:(gmdj_trace_attrs ~strategy ~blocks ~base ~completion:None)
          "gmdj.eval"
          (fun () ->
            let acc = Gmdj.Fold.start ~strategy ?stats:gmdj_stats ~base
                ~detail:(Chunk.Source.schema cd.src) blocks
            in
            let acc =
              Chunk.Source.fold (fun acc c -> Gmdj.Fold.fold_detail c acc) acc cd.src
            in
            Gmdj.Fold.finish acc)
      in
      cd.release ();
      bfree ();
      emit ctx alg out)
  | Algebra.Md_completed { blocks; completion; base = b; detail = d } -> (
    let cb = child b in
    let base, bfree = materialize ctx cb in
    let cd = child d in
    let strategy = ctx.config.gmdj_strategy in
    match Chunk.Source.origin cd.src with
    | Some detail ->
      Chunk.Source.close cd.src;
      let out =
        Gmdj.eval_completed ~strategy ?stats:gmdj_stats ~completion ~base ~detail blocks
      in
      cd.release ();
      bfree ();
      emit ctx alg out
    | None ->
      let out =
        Subql_obs.Trace.with_
          ~attrs:(gmdj_trace_attrs ~strategy ~blocks ~base ~completion:(Some completion))
          "gmdj.eval_completed"
          (fun () ->
            let acc =
              ref
                (Gmdj.Fold_completed.start ~strategy ?stats:gmdj_stats ~completion ~base
                   ~detail:(Chunk.Source.schema cd.src) blocks)
            in
            (* Saturation turns the early scan exit into an early
               storage exit: stop pulling pages mid-stream. *)
            let rec pull () =
              if Gmdj.Fold_completed.saturated !acc then Chunk.Source.close cd.src
              else
                match Chunk.Source.next cd.src with
                | None -> ()
                | Some c ->
                  acc := Gmdj.Fold_completed.fold_detail c !acc;
                  pull ()
            in
            pull ();
            Gmdj.Fold_completed.finish !acc)
      in
      cd.release ();
      bfree ();
      emit ctx alg out)
  | Algebra.Union_all (l, r) ->
    let cl = child l and cr = child r in
    {
      src = tap ctx alg (Ops.union_all_source cl.src cr.src);
      release =
        once (fun () ->
            cl.release ();
            cr.release ());
    }
  | Algebra.Diff_all (l, r) ->
    let cl = child l and cr = child r in
    let lrel, lfree = materialize ctx cl in
    let rrel, rfree = materialize ctx cr in
    let out = Ops.diff_all lrel rrel in
    lfree ();
    rfree ();
    emit ctx alg out
  | Algebra.Distinct x ->
    let c = child x in
    let out = run_distinct ctx c.src in
    c.release ();
    emit ctx alg out

(* Lazy driver: the plan becomes a tree of chunk streams; work happens
   as the root is drained. *)
let rec run_stream ctx ?gmdj_stats alg =
  match ctx.override alg with
  | Some r ->
    validate_override ctx alg r;
    { src = tap ctx alg (Chunk.Source.of_relation r); release = no_release }
  | None -> dispatch ctx ?gmdj_stats ~child:(fun sub -> run_stream ctx ?gmdj_stats sub) alg

(* Eager driver: children are fully evaluated (and annotated) before
   the node runs, so hooks observe exact per-node deltas.  The node
   itself still goes through [dispatch], fed whole-relation sources. *)
let rec run_eager ctx hooks alg =
  match ctx.override alg with
  | Some r ->
    validate_override ctx alg r;
    hooks.on_node_start alg;
    (r, no_release, hooks.on_node_done alg r None [])
  | None ->
    let kid_results = List.map (fun k -> run_eager ctx hooks k) (children alg) in
    let gmdj_stats =
      match alg with
      | Algebra.Md _ | Algebra.Md_completed _ -> Some (Gmdj.fresh_stats ())
      | _ -> None
    in
    let pending = ref (List.map (fun (r, free, _) -> (r, free)) kid_results) in
    let child _sub =
      match !pending with
      | [] -> invalid_arg "Eval.run_eager: child arity mismatch"
      | (r, free) :: rest ->
        pending := rest;
        { src = Chunk.Source.of_relation r; release = free }
    in
    hooks.on_node_start alg;
    let result, free =
      Subql_obs.Trace.with_ (node_label alg) (fun () ->
          let s = dispatch ctx ?gmdj_stats ~child alg in
          let r, free = materialize ctx s in
          Subql_obs.Trace.add_attr "rows" (string_of_int (Relation.cardinality r));
          (r, free))
    in
    let ann =
      hooks.on_node_done alg result gmdj_stats (List.map (fun (_, _, a) -> a) kid_results)
    in
    (result, free, ann)

let publish_run ctx =
  let open Subql_obs in
  Metrics.(incr ~by:ctx.acct.chunks (counter default "eval.chunks"));
  Metrics.(
    set (gauge default "eval.peak_materialized_rows") (float_of_int ctx.acct.peak_rows))

let no_sources _ = None

let no_override _ = None

let silent_chunk _ ~rows:_ = ()

let make_ctx ?(sources = no_sources) ?(override = no_override)
    ?(notify_chunk = silent_chunk) ~config catalog =
  { config; catalog; sources; override; acct = acct_create (); notify_chunk }

(* ------------------------------------------------------------------ *)
(* Public entry points — thin wrappers over the two drivers            *)
(* ------------------------------------------------------------------ *)

let run_to_relation ctx ?gmdj_stats alg =
  let s = run_stream ctx ?gmdj_stats alg in
  let r, free = materialize ctx s in
  free ();
  publish_run ctx;
  r

let eval ?(config = default_config) ?gmdj_stats catalog alg =
  run_to_relation (make_ctx ~config catalog) ?gmdj_stats alg

let eval_with_overrides ?(config = default_config) ?gmdj_stats ~override catalog alg =
  run_to_relation (make_ctx ~override ~config catalog) ?gmdj_stats alg

let eval_exec ?(config = default_config) ?gmdj_stats ?sources catalog alg =
  let ctx = make_ctx ?sources ~config catalog in
  let r = run_to_relation ctx ?gmdj_stats alg in
  (r, { chunks = ctx.acct.chunks; peak_materialized_rows = ctx.acct.peak_rows })

(* ------------------------------------------------------------------ *)
(* Instrumented evaluation                                              *)
(* ------------------------------------------------------------------ *)

type trace = {
  label : string;
  out_rows : int;
  self_seconds : float;
  children : trace list;
}

(* EXPLAIN ANALYZE: every operator runs inside a trace span and yields a
   {!Subql_obs.Explain.node} carrying what actually happened.  Buffer-
   pool activity is attributed per operator by delta over the registry's
   "storage.buffer_pool.*" counters — children are evaluated before the
   snapshot, so a node only owns its own page traffic. *)

let gmdj_attrs (s : Gmdj.stats) =
  let base =
    [
      ("detail-scans", string_of_int s.Gmdj.detail_passes);
      ("detail-rows", string_of_int s.Gmdj.detail_scanned);
      ("theta-evals", string_of_int s.Gmdj.theta_evals);
    ]
  in
  let blocks =
    match s.Gmdj.block_updates with
    | [||] -> []
    | updates ->
      [
        ( "block-updates",
          String.concat "/" (Array.to_list (Array.map string_of_int updates)) );
      ]
  in
  base @ blocks @ if s.Gmdj.early_exit then [ ("early-exit", "true") ] else []

let eval_analyzed ?(config = default_config) ?(registry = Subql_obs.Metrics.default)
    catalog alg =
  let module M = Subql_obs.Metrics in
  let ops = M.counter registry "eval.operators" in
  let op_seconds = M.histogram registry "eval.operator_seconds" in
  let rows_out_total = M.counter registry "eval.rows_out" in
  let pool_hits () = M.counter_value_by_name registry "storage.buffer_pool.hits" in
  let pool_reads () = M.counter_value_by_name registry "storage.buffer_pool.page_reads" in
  let stack = ref [] in
  let hooks =
    {
      on_node_start =
        (fun _ -> stack := (Unix.gettimeofday (), pool_hits (), pool_reads ()) :: !stack);
      on_chunk = (fun _ ~rows:_ -> ());
      on_node_done =
        (fun alg result gmdj_stats kid_nodes ->
          let t0, hits0, reads0 =
            match !stack with
            | [] -> invalid_arg "Eval.eval_analyzed: unbalanced hooks"
            | x :: rest ->
              stack := rest;
              x
          in
          let elapsed_s = Unix.gettimeofday () -. t0 in
          let rows_out = Relation.cardinality result in
          M.incr ops;
          M.observe op_seconds elapsed_s;
          M.incr ~by:rows_out rows_out_total;
          {
            Subql_obs.Explain.label = node_label alg;
            rows_in =
              List.fold_left (fun acc n -> acc + n.Subql_obs.Explain.rows_out) 0 kid_nodes;
            rows_out;
            calls = 1;
            elapsed_s;
            pool_hits = pool_hits () - hits0;
            pool_reads = pool_reads () - reads0;
            attrs = (match gmdj_stats with Some s -> gmdj_attrs s | None -> []);
            children = kid_nodes;
          });
    }
  in
  let ctx = make_ctx ~config catalog in
  let result, free, node = run_eager ctx hooks alg in
  free ();
  publish_run ctx;
  (result, node)

let eval_traced ?config catalog alg =
  let result, analysis = eval_analyzed ?config catalog alg in
  let rec strip n =
    {
      label = n.Subql_obs.Explain.label;
      out_rows = n.Subql_obs.Explain.rows_out;
      self_seconds = n.Subql_obs.Explain.elapsed_s;
      children = List.map strip n.Subql_obs.Explain.children;
    }
  in
  (result, strip analysis)

let pp_trace ppf trace =
  let rec pp indent t =
    Format.fprintf ppf "%s%-60s %10d rows %9.3f ms@."
      (String.make indent ' ')
      (if String.length t.label > 60 then String.sub t.label 0 57 ^ "..." else t.label)
      t.out_rows (t.self_seconds *. 1000.0);
    List.iter (pp (indent + 2)) t.children
  in
  pp 0 trace
