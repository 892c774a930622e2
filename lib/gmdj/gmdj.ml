open Subql_relational

type block = { aggs : Aggregate.spec list; theta : Expr.t }

type strategy = [ `Reference | `Scan | `Hash ]

type stats = {
  mutable detail_scanned : int;
  mutable theta_evals : int;
  mutable early_exit : bool;
  mutable detail_passes : int;
  mutable block_updates : int array;
}

let fresh_stats () =
  {
    detail_scanned = 0;
    theta_evals = 0;
    early_exit = false;
    detail_passes = 0;
    block_updates = [||];
  }

let ensure_block_slots s n =
  let have = Array.length s.block_updates in
  if have < n then s.block_updates <- Array.append s.block_updates (Array.make (n - have) 0)

let strategy_name = function `Reference -> "reference" | `Scan -> "scan" | `Hash -> "hash"

(* Registry publication: the engine-wide counters under "gmdj.*" in
   {!Subql_obs.Metrics.default}. *)
let publish ?(evals = 1) ~owned ~passes0 ~rows0 ~thetas0 () =
  let open Subql_obs in
  let c name = Metrics.counter Metrics.default ("gmdj." ^ name) in
  Metrics.incr ~by:evals (c "evals");
  Metrics.incr ~by:(owned.detail_passes - passes0) (c "detail_passes");
  Metrics.incr ~by:(owned.detail_scanned - rows0) (c "detail_rows_scanned");
  Metrics.incr ~by:(owned.theta_evals - thetas0) (c "theta_evals")

(* Run [f] over an owned stats record (the caller's, or a private one so
   pass/row counting is always on), publishing the deltas. *)
let with_owned_stats ?attrs ~span stats f =
  let owned = match stats with Some s -> s | None -> fresh_stats () in
  let passes0 = owned.detail_passes
  and rows0 = owned.detail_scanned
  and thetas0 = owned.theta_evals in
  let result = Subql_obs.Trace.with_ ?attrs span (fun () -> f owned) in
  publish ~owned ~passes0 ~rows0 ~thetas0 ();
  result

let block aggs theta = { aggs; theta }

let pp_block ppf b =
  Format.fprintf ppf "[%a | %a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Aggregate.pp_spec)
    b.aggs Expr.pp b.theta

type completion = {
  kill_when : Expr.t list;
  require_fired : Expr.t list;
  maintain_aggregates : bool;
}

let pp_completion ppf c =
  let pp_list = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Expr.pp in
  Format.fprintf ppf "{kill: %a; require: %a; aggregates %s}" pp_list c.kill_when pp_list
    c.require_fired
    (if c.maintain_aggregates then "maintained" else "skipped")

let output_schema ~base ~detail blocks =
  let frames = [| base; detail |] in
  List.fold_left
    (fun acc b ->
      List.fold_left
        (fun s spec ->
          let name = Schema.fresh_name s spec.Aggregate.name in
          Schema.concat s [| Schema.attr name (Aggregate.output_ty frames spec) |])
        acc b.aggs)
    base blocks

(* ------------------------------------------------------------------ *)
(* θ-plans                                                              *)
(* ------------------------------------------------------------------ *)

(* A compiled plan for one θ-like condition over (base, detail):

   - [prefilter] holds the conjuncts that mention only detail attributes
     (the invariants of Rao & Ross): they are tested once per detail row
     instead of once per (base, detail) pair;
   - [probe] either iterates hash-bucket candidates (equi-conditions
     extracted, residual tested per candidate) or tests the remaining
     condition against every candidate the caller supplies. *)
type plan = {
  prefilter : (Tuple.t -> bool) option;
  probe : probe;
}

and probe =
  | Probe_hash of {
      key_of_detail : Tuple.t -> Tuple.t;
      index : Index.t;
      test : Tuple.t -> Tuple.t -> bool;
    }
  | Probe_all of { test : Tuple.t -> Tuple.t -> bool }

let make_pair_test ~stats ~bs ~ds expr =
  match expr with
  | None -> fun _ _ -> true
  | Some e ->
    let f = Expr.compile_frames [| bs; ds |] e in
    let ctx = [| Tuple.empty; Tuple.empty |] in
    let test b r =
      ctx.(0) <- b;
      ctx.(1) <- r;
      Expr.is_true (f ctx)
    in
    (match stats with
    | None -> test
    | Some s ->
      fun b r ->
        s.theta_evals <- s.theta_evals + 1;
        test b r)

let make_plan ~strategy ~stats ~bs ~ds ~base_rows theta =
  Expr.typecheck_bool [| bs; ds |] theta;
  let detail_only, correlated =
    List.partition (Expr.refs_resolvable [| ds |]) (Expr.conjuncts theta)
  in
  let prefilter =
    match detail_only with
    | [] -> None
    | conjs ->
      let f = Expr.compile ds (Expr.conjoin conjs) in
      Some
        (match stats with
        | None -> fun r -> Expr.is_true (f r)
        | Some s ->
          fun r ->
            s.theta_evals <- s.theta_evals + 1;
            Expr.is_true (f r))
  in
  let correlated_expr =
    match correlated with [] -> None | conjs -> Some (Expr.conjoin conjs)
  in
  let probe =
    match strategy, correlated_expr with
    | (`Scan | `Reference), _ | `Hash, None ->
      Probe_all { test = make_pair_test ~stats ~bs ~ds correlated_expr }
    | `Hash, Some expr -> (
      let pairs, residual = Expr.split_equi ~left:bs ~right:ds expr in
      match pairs with
      | [] -> Probe_all { test = make_pair_test ~stats ~bs ~ds correlated_expr }
      | _ ->
        let bcols = Array.of_list (List.map fst pairs) in
        let dcols = Array.of_list (List.map snd pairs) in
        let index = Index.build_rows base_rows bcols in
        Probe_hash
          {
            key_of_detail = (fun drow -> Array.map (fun c -> drow.(c)) dcols);
            index;
            test = make_pair_test ~stats ~bs ~ds residual;
          })
  in
  { prefilter; probe }

let prefilter_passes plan drow =
  match plan.prefilter with None -> true | Some f -> f drow

(* ------------------------------------------------------------------ *)
(* Accumulators                                                         *)
(* ------------------------------------------------------------------ *)

(* Accumulator matrix: accs.(bi).(block).(agg). *)
let make_accs ~bs ~ds ~n_base blocks =
  let frames = [| bs; ds |] in
  let compiled =
    Array.of_list
      (List.map (fun b -> Array.of_list (List.map (Aggregate.compile frames) b.aggs)) blocks)
  in
  Array.init n_base (fun _ -> Array.map (Array.map Aggregate.make) compiled)

let emit_row base_row accs_row =
  let agg_values =
    Array.concat (Array.to_list (Array.map (Array.map Aggregate.value) accs_row))
  in
  Tuple.concat base_row agg_values

(* ------------------------------------------------------------------ *)
(* Plain evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let reference_eval ~stats ~base ~detail blocks =
  let bs = Relation.schema base and ds = Relation.schema detail in
  let out_schema = output_schema ~base:bs ~detail:ds blocks in
  let frames = [| bs; ds |] in
  let blocks = Array.of_list blocks in
  ensure_block_slots stats (Array.length blocks);
  Array.iter (fun b -> Expr.typecheck_bool frames b.theta) blocks;
  let thetas = Array.map (fun b -> Expr.compile_frames frames b.theta) blocks in
  let compiled =
    Array.map (fun b -> Array.of_list (List.map (Aggregate.compile frames) b.aggs)) blocks
  in
  let ctx = [| Tuple.empty; Tuple.empty |] in
  let rows =
    Array.map
      (fun brow ->
        let accs_row = Array.map (Array.map Aggregate.make) compiled in
        Array.iteri
          (fun i theta ->
            (* One full detail pass per base tuple and block: the
               definition's cost, made visible in the stats. *)
            stats.detail_passes <- stats.detail_passes + 1;
            Relation.iter
              (fun drow ->
                stats.detail_scanned <- stats.detail_scanned + 1;
                stats.theta_evals <- stats.theta_evals + 1;
                ctx.(0) <- brow;
                ctx.(1) <- drow;
                if Expr.is_true (theta ctx) then begin
                  stats.block_updates.(i) <- stats.block_updates.(i) + 1;
                  Array.iter (fun acc -> Aggregate.step acc ctx) accs_row.(i)
                end)
              detail)
          thetas;
        emit_row brow accs_row)
      (Relation.rows base)
  in
  Relation.create ~check:false out_schema rows

(* Feed the detail rows in positions [lo, hi) into the accumulators;
   [apply] is {!Aggregate.step} for evaluation and insertions, and
   {!Aggregate.step_back} for deletion maintenance. *)
let accumulate_range ?(apply = Aggregate.step) ~plans ~accs ~base_rows ~detail_rows ~stats lo
    hi =
  let n_base = Array.length base_rows in
  ensure_block_slots stats (Array.length plans);
  let ctx = [| Tuple.empty; Tuple.empty |] in
  let update block_i drow bi =
    ctx.(0) <- base_rows.(bi);
    ctx.(1) <- drow;
    stats.block_updates.(block_i) <- stats.block_updates.(block_i) + 1;
    Array.iter (fun acc -> apply acc ctx) accs.(bi).(block_i)
  in
  for ri = lo to hi - 1 do
    let drow = detail_rows.(ri) in
    stats.detail_scanned <- stats.detail_scanned + 1;
    Array.iteri
      (fun block_i plan ->
        if prefilter_passes plan drow then
          match plan.probe with
          | Probe_hash { key_of_detail; index; test } ->
            Index.probe_iter index (key_of_detail drow) (fun bi ->
                if test base_rows.(bi) drow then update block_i drow bi)
          | Probe_all { test } ->
            for bi = 0 to n_base - 1 do
              if test base_rows.(bi) drow then update block_i drow bi
            done)
      plans
  done

(* ------------------------------------------------------------------ *)
(* The chunk-consuming fold core                                        *)
(* ------------------------------------------------------------------ *)

(* One in-flight `Scan`/`Hash` evaluation: compiled θ-plans plus the
   per-base-tuple accumulator matrix.  Detail rows arrive as chunks
   ([fold_feed]) — the whole-relation evaluators below feed a single
   chunk, the streaming executor and [Paged_gmdj] feed page-sized ones —
   so the detail side is never required to exist as one array and
   [stats.detail_passes] counts storage passes, not materializations.

   [theta_stats] controls the per-pair θ-evaluation counting (a closure
   wrapper on the hottest path, so it stays opt-in); [stats] is the
   always-on owned record for pass/row/accumulator counts. *)
type fold_state = {
  f_plans : plan array;
  f_accs : Aggregate.acc array array array;
  f_base_rows : Tuple.t array;
  f_out_schema : Schema.t;
  f_stats : stats;
}

let fold_start ~strategy ~theta_stats ~stats ~base ~detail_schema blocks =
  let bs = Relation.schema base and ds = detail_schema in
  let base_rows = Relation.rows base in
  let plans =
    Array.of_list
      (List.map
         (fun b -> make_plan ~strategy ~stats:theta_stats ~bs ~ds ~base_rows b.theta)
         blocks)
  in
  let accs = make_accs ~bs ~ds ~n_base:(Array.length base_rows) blocks in
  stats.detail_passes <- stats.detail_passes + 1;
  {
    f_plans = plans;
    f_accs = accs;
    f_base_rows = base_rows;
    f_out_schema = output_schema ~base:bs ~detail:ds blocks;
    f_stats = stats;
  }

let fold_feed st chunk =
  let lo = Chunk.offset chunk in
  accumulate_range ~plans:st.f_plans ~accs:st.f_accs ~base_rows:st.f_base_rows
    ~detail_rows:(Chunk.buffer chunk) ~stats:st.f_stats lo
    (lo + Chunk.length chunk)

let fold_finish st =
  Relation.create ~check:false st.f_out_schema
    (Array.mapi (fun bi brow -> emit_row brow st.f_accs.(bi)) st.f_base_rows)

let scan_eval ~strategy ~theta_stats ~stats ~base ~detail blocks =
  let st =
    fold_start ~strategy ~theta_stats ~stats ~base ~detail_schema:(Relation.schema detail)
      blocks
  in
  fold_feed st (Chunk.whole detail);
  fold_finish st

let dispatch ~strategy ~theta_stats ~stats ~base ~detail blocks =
  match strategy with
  | `Reference -> reference_eval ~stats ~base ~detail blocks
  | `Scan | `Hash -> scan_eval ~strategy ~theta_stats ~stats ~base ~detail blocks

let eval ?(strategy = `Hash) ?stats ~base ~detail blocks =
  with_owned_stats
    ~attrs:
      [
        ("strategy", strategy_name strategy);
        ("blocks", string_of_int (List.length blocks));
        ("base_rows", string_of_int (Relation.cardinality base));
        ("detail_rows", string_of_int (Relation.cardinality detail));
      ]
    ~span:"gmdj.eval" stats
    (fun owned -> dispatch ~strategy ~theta_stats:stats ~stats:owned ~base ~detail blocks)

let eval_segmented ?(strategy = `Hash) ?stats ~segment_size ~base ~detail blocks =
  if segment_size <= 0 then invalid_arg "Gmdj.eval_segmented: segment_size must be positive";
  let bs = Relation.schema base and ds = Relation.schema detail in
  let out_schema = output_schema ~base:bs ~detail:ds blocks in
  let base_rows = Relation.rows base in
  let n_base = Array.length base_rows in
  if n_base <= segment_size then eval ~strategy ?stats ~base ~detail blocks
  else
    with_owned_stats
      ~attrs:[ ("segment_size", string_of_int segment_size) ]
      ~span:"gmdj.eval_segmented" stats
    @@ fun owned ->
    let out = Vec.create ~capacity:n_base ~dummy:Tuple.empty () in
    let offset = ref 0 in
    while !offset < n_base do
      let len = min segment_size (n_base - !offset) in
      let segment =
        Relation.create ~check:false bs (Array.sub base_rows !offset len)
      in
      let partial =
        dispatch ~strategy ~theta_stats:stats ~stats:owned ~base:segment ~detail blocks
      in
      Relation.iter (Vec.push out) partial;
      offset := !offset + len
    done;
    Relation.create ~check:false out_schema (Vec.to_array out)

(* ------------------------------------------------------------------ *)
(* Completion-aware evaluation (Section 4.2)                            *)
(* ------------------------------------------------------------------ *)

exception Scan_done

(* Completion-aware fold state: the kill/require/block plans plus the
   per-base-tuple decision bookkeeping.  [c_saturated] means no further
   detail rows can change the answer — the feeder must stop pulling the
   detail stream (Thms 4.1–4.2's early scan exit, now an early *storage*
   exit for disk-resident details). *)
type completed_state = {
  c_out_schema : Schema.t;
  c_base_rows : Tuple.t array;
  c_accs : Aggregate.acc array array array;
  c_kill_plans : plan array;
  c_fired_plans : plan array;
  c_block_plans : plan array;
  c_alive : bool array;
  c_fired : bool array array;
  c_unfired : int array;
  c_settled : bool array;
  mutable c_n_settled : int;
  c_positive_settles : bool;
  c_early_exit_allowed : bool;
  mutable c_active : int array;
  mutable c_settled_at_compact : int;
  c_ctx : Tuple.t array;
  c_stats : stats;
  mutable c_saturated : bool;
}

let mark_early_exit st =
  st.c_stats.early_exit <- true;
  Subql_obs.Metrics.(incr (counter default "gmdj.early_exits"))

let completed_start ~strategy ~theta_stats ~stats ~completion ~base ~detail_schema blocks =
  let strategy = match strategy with `Reference -> `Scan | (`Scan | `Hash) as s -> s in
  ensure_block_slots stats (List.length blocks);
  let bs = Relation.schema base and ds = detail_schema in
  let out_schema = output_schema ~base:bs ~detail:ds blocks in
  let base_rows = Relation.rows base in
  let n_base = Array.length base_rows in
  let mk = make_plan ~strategy ~stats:theta_stats ~bs ~ds ~base_rows in
  let kill_plans = Array.of_list (List.map mk completion.kill_when) in
  let fired_plans = Array.of_list (List.map mk completion.require_fired) in
  let block_plans =
    if completion.maintain_aggregates then
      Array.of_list (List.map (fun b -> mk b.theta) blocks)
    else [||]
  in
  let n_fired_preds = Array.length fired_plans in
  let has_kills = Array.length kill_plans > 0 in
  let early_exit_allowed = not completion.maintain_aggregates in
  let st =
    {
      c_out_schema = out_schema;
      c_base_rows = base_rows;
      c_accs = make_accs ~bs ~ds ~n_base blocks;
      c_kill_plans = kill_plans;
      c_fired_plans = fired_plans;
      c_block_plans = block_plans;
      c_alive = Array.make n_base true;
      c_fired = Array.make_matrix (max n_fired_preds 1) n_base false;
      c_unfired = Array.make n_base n_fired_preds;
      (* A base tuple is settled — removable from the scan — once it is
         killed (Thm 4.2), or, when there are no kill predicates and the
         aggregates are not needed, once every require-fired predicate
         has fired for it (Thm 4.1). *)
      c_positive_settles = (not has_kills) && not completion.maintain_aggregates;
      c_settled = Array.make n_base false;
      c_n_settled = 0;
      (* Early termination is sound only when settled tuples account for
         the whole base: killed ones produce no output and positively-
         settled ones need no further updates. *)
      c_early_exit_allowed = early_exit_allowed;
      c_active = Array.init n_base (fun i -> i);
      c_settled_at_compact = 0;
      c_ctx = [| Tuple.empty; Tuple.empty |];
      c_stats = stats;
      c_saturated = false;
    }
  in
  if n_base = 0 then st.c_saturated <- true
  else if early_exit_allowed && (not has_kills) && n_fired_preds = 0 then begin
    (* Nothing can kill and nothing must fire: every base tuple is
       already decided without reading a single detail row. *)
    st.c_saturated <- true;
    mark_early_exit st
  end
  else stats.detail_passes <- stats.detail_passes + 1;
  st

let settle st bi =
  if not st.c_settled.(bi) then begin
    st.c_settled.(bi) <- true;
    st.c_n_settled <- st.c_n_settled + 1;
    if st.c_early_exit_allowed && st.c_n_settled >= Array.length st.c_base_rows then
      raise Scan_done
  end

(* The scan probes of Probe_all plans iterate an explicit active list;
   it is compacted whenever at least a quarter of it has settled, so a
   mostly-decided base stops costing per-pair work (the paper's
   "transferring the completed tuples to disk"). *)
let compact st =
  if
    Array.length st.c_active > 64
    && 4 * (st.c_n_settled - st.c_settled_at_compact) > Array.length st.c_active
  then begin
    st.c_active <-
      Array.of_seq (Seq.filter (fun bi -> not st.c_settled.(bi)) (Array.to_seq st.c_active));
    st.c_settled_at_compact <- st.c_n_settled
  end

let iterate_candidates st plan drow f =
  match plan.probe with
  | Probe_hash { key_of_detail; index; test } ->
    Index.probe_iter index (key_of_detail drow) (fun bi ->
        if (not st.c_settled.(bi)) && test st.c_base_rows.(bi) drow then f bi)
  | Probe_all { test } ->
    let a = st.c_active in
    for i = 0 to Array.length a - 1 do
      let bi = a.(i) in
      if (not st.c_settled.(bi)) && test st.c_base_rows.(bi) drow then f bi
    done

let completed_feed_row st drow =
  st.c_stats.detail_scanned <- st.c_stats.detail_scanned + 1;
  Array.iter
    (fun plan ->
      if prefilter_passes plan drow then
        iterate_candidates st plan drow (fun bi ->
            if st.c_alive.(bi) then begin
              st.c_alive.(bi) <- false;
              settle st bi
            end))
    st.c_kill_plans;
  Array.iteri
    (fun pi plan ->
      if prefilter_passes plan drow then
        iterate_candidates st plan drow (fun bi ->
            if st.c_alive.(bi) && not st.c_fired.(pi).(bi) then begin
              st.c_fired.(pi).(bi) <- true;
              st.c_unfired.(bi) <- st.c_unfired.(bi) - 1;
              if st.c_positive_settles && st.c_unfired.(bi) = 0 then settle st bi
            end))
    st.c_fired_plans;
  Array.iteri
    (fun block_i plan ->
      if prefilter_passes plan drow then
        iterate_candidates st plan drow (fun bi ->
            if st.c_alive.(bi) then begin
              st.c_ctx.(0) <- st.c_base_rows.(bi);
              st.c_ctx.(1) <- drow;
              st.c_stats.block_updates.(block_i) <- st.c_stats.block_updates.(block_i) + 1;
              Array.iter (fun acc -> Aggregate.step acc st.c_ctx) st.c_accs.(bi).(block_i)
            end))
    st.c_block_plans;
  compact st

let completed_feed st chunk =
  if not st.c_saturated then begin
    try Chunk.iter (completed_feed_row st) chunk
    with Scan_done ->
      st.c_saturated <- true;
      mark_early_exit st
  end

let completed_finish st =
  let out = Vec.create ~dummy:Tuple.empty () in
  Array.iteri
    (fun bi brow ->
      if st.c_alive.(bi) && st.c_unfired.(bi) = 0 then
        Vec.push out (emit_row brow st.c_accs.(bi)))
    st.c_base_rows;
  Relation.create ~check:false st.c_out_schema (Vec.to_array out)

let eval_completed ?(strategy = `Hash) ?stats ~completion ~base ~detail blocks =
  let strategy = match strategy with `Reference -> `Scan | (`Scan | `Hash) as s -> s in
  with_owned_stats
    ~attrs:
      [
        ("strategy", strategy_name strategy);
        ("blocks", string_of_int (List.length blocks));
        ("kill_preds", string_of_int (List.length completion.kill_when));
        ("require_preds", string_of_int (List.length completion.require_fired));
      ]
    ~span:"gmdj.eval_completed" stats
  @@ fun owned ->
  let st =
    completed_start ~strategy ~theta_stats:stats ~stats:owned ~completion ~base
      ~detail_schema:(Relation.schema detail) blocks
  in
  completed_feed st (Chunk.whole detail);
  completed_finish st

(* ------------------------------------------------------------------ *)
(* Public chunk-at-a-time evaluation                                    *)
(* ------------------------------------------------------------------ *)

(* The streaming counterparts of [eval] / [eval_completed]: the caller
   owns the detail scan and pushes chunks in, so the detail relation
   never has to exist in memory.  [start] snapshots the registry
   baselines and [finish] publishes the deltas — exactly one publication
   per evaluation, mirroring [with_owned_stats].  Callers that want a
   trace span open it around the whole start/feed/finish sequence. *)

module Fold = struct
  type acc = { st : fold_state; passes0 : int; rows0 : int; thetas0 : int }

  let start ?(strategy = `Hash) ?stats ~base ~detail blocks =
    let strategy = match strategy with `Reference -> `Scan | (`Scan | `Hash) as s -> s in
    let owned = match stats with Some s -> s | None -> fresh_stats () in
    let passes0 = owned.detail_passes
    and rows0 = owned.detail_scanned
    and thetas0 = owned.theta_evals in
    let st =
      fold_start ~strategy ~theta_stats:stats ~stats:owned ~base ~detail_schema:detail blocks
    in
    { st; passes0; rows0; thetas0 }

  let fold_detail chunk acc =
    fold_feed acc.st chunk;
    acc

  let finish acc =
    let r = fold_finish acc.st in
    publish ~owned:acc.st.f_stats ~passes0:acc.passes0 ~rows0:acc.rows0 ~thetas0:acc.thetas0
      ();
    r
end

module Fold_completed = struct
  type acc = { st : completed_state; passes0 : int; rows0 : int; thetas0 : int }

  let start ?(strategy = `Hash) ?stats ~completion ~base ~detail blocks =
    let strategy = match strategy with `Reference -> `Scan | (`Scan | `Hash) as s -> s in
    let owned = match stats with Some s -> s | None -> fresh_stats () in
    let passes0 = owned.detail_passes
    and rows0 = owned.detail_scanned
    and thetas0 = owned.theta_evals in
    let st =
      completed_start ~strategy ~theta_stats:stats ~stats:owned ~completion ~base
        ~detail_schema:detail blocks
    in
    { st; passes0; rows0; thetas0 }

  let saturated acc = acc.st.c_saturated

  let fold_detail chunk acc =
    completed_feed acc.st chunk;
    acc

  let finish acc =
    let r = completed_finish acc.st in
    publish ~owned:acc.st.c_stats ~passes0:acc.passes0 ~rows0:acc.rows0 ~thetas0:acc.thetas0
      ();
    r
end

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance                                         *)
(* ------------------------------------------------------------------ *)

module Maintain = struct
  (* Process-wide delta generation: every fold/retract of detail rows
     bumps it, so fingerprint-keyed result caches (Subql_mqo) can treat
     any maintained-view mutation as an invalidation epoch.  Maintained
     views change the effective detail content without going through the
     catalog, so the catalog's own generation cannot see them. *)
  let generation_counter = ref 0

  let generation () = !generation_counter

  type t = {
    out_schema : Schema.t;
    detail_schema : Schema.t;
    plans : plan array;
    accs : Aggregate.acc array array array;
    base_rows : Tuple.t array;
    has_minmax : bool;
    m_stats : stats;  (* lifetime counts over materialization + deltas *)
  }

  let has_minmax_agg blocks =
    List.exists
      (fun b ->
        List.exists
          (fun s ->
            match s.Aggregate.func with
            | Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _ -> true
            | Aggregate.Count_star | Aggregate.Count _ | Aggregate.Sum _ | Aggregate.Avg _
              ->
              false)
          b.aggs)
      blocks

  let create ?(strategy = `Hash) ~base ~detail blocks =
    let strategy = match strategy with `Reference -> `Scan | (`Scan | `Hash) as s -> s in
    let bs = Relation.schema base and ds = Relation.schema detail in
    let base_rows = Relation.rows base in
    let plans =
      Array.of_list
        (List.map (fun b -> make_plan ~strategy ~stats:None ~bs ~ds ~base_rows b.theta) blocks)
    in
    let accs = make_accs ~bs ~ds ~n_base:(Array.length base_rows) blocks in
    let detail_rows = Relation.rows detail in
    let m_stats = fresh_stats () in
    accumulate_range ~plans ~accs ~base_rows ~detail_rows ~stats:m_stats 0
      (Array.length detail_rows);
    {
      out_schema = output_schema ~base:bs ~detail:ds blocks;
      detail_schema = ds;
      plans;
      accs;
      base_rows;
      has_minmax = has_minmax_agg blocks;
      m_stats;
    }

  let check_delta t delta =
    if not (Schema.equal_names (Relation.schema delta) t.detail_schema) then
      invalid_arg "Gmdj.Maintain: delta schema does not match the detail schema"

  let insert_detail t delta =
    check_delta t delta;
    incr generation_counter;
    let detail_rows = Relation.rows delta in
    accumulate_range ~plans:t.plans ~accs:t.accs ~base_rows:t.base_rows ~detail_rows
      ~stats:t.m_stats 0 (Array.length detail_rows)

  let check_chunk_delta t chunk =
    if not (Schema.equal_names (Chunk.schema chunk) t.detail_schema) then
      invalid_arg "Gmdj.Maintain: delta schema does not match the detail schema"

  let insert_chunk t chunk =
    check_chunk_delta t chunk;
    incr generation_counter;
    let lo = Chunk.offset chunk in
    accumulate_range ~plans:t.plans ~accs:t.accs ~base_rows:t.base_rows
      ~detail_rows:(Chunk.buffer chunk) ~stats:t.m_stats lo (lo + Chunk.length chunk)

  let insert_source t source =
    let rows = ref 0 in
    Chunk.Source.iter
      (fun chunk ->
        rows := !rows + Chunk.length chunk;
        insert_chunk t chunk)
      source;
    !rows

  let stats t = t.m_stats

  let delete_detail t delta =
    check_delta t delta;
    if t.has_minmax then
      invalid_arg "Gmdj.Maintain: MIN/MAX views cannot be maintained under deletions";
    incr generation_counter;
    let detail_rows = Relation.rows delta in
    accumulate_range ~apply:Aggregate.step_back ~plans:t.plans ~accs:t.accs
      ~base_rows:t.base_rows ~detail_rows ~stats:t.m_stats 0 (Array.length detail_rows)

  let result t =
    Relation.create ~check:false t.out_schema
      (Array.mapi (fun bi brow -> emit_row brow t.accs.(bi)) t.base_rows)
end
