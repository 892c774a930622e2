open Subql_relational

type candidate = {
  label : string;
  plan : Algebra.t;
  estimate : Cost.estimate;
}

type provider = Catalog.t -> Subql_nested.Nested_ast.query -> Algebra.t option

let semijoin_provider : provider ref = ref (fun _ _ -> None)

let outerjoin_provider : provider ref = ref (fun _ _ -> None)

let set_unnest_providers ~semijoin ~outerjoin =
  semijoin_provider := semijoin;
  outerjoin_provider := outerjoin

type result_cache = {
  cache_lookup : Subql_nested.Nested_ast.query -> Relation.t option;
  cache_store :
    Subql_nested.Nested_ast.query -> cost:float -> Relation.t -> bool;
}

let result_cache : result_cache option ref = ref None

let set_result_cache hooks = result_cache := Some hooks

let clear_result_cache () = result_cache := None

(* --- Self-check gate -------------------------------------------------- *)

type plan_verifier =
  Catalog.t -> Subql_nested.Nested_ast.query -> label:string -> Algebra.t -> Diag.t list

let plan_verifier : plan_verifier option ref = ref None

let self_check = ref false

let set_plan_verifier f = plan_verifier := Some f

let clear_plan_verifier () = plan_verifier := None

let set_self_check on = self_check := on

let self_check_enabled () = !self_check

(* Drop candidates the verifier finds unsound.  Every candidate set
   contains the GMDJ reference translation, which is sound by
   construction, so an empty survivor set means the verifier itself
   disagrees with the translation — that is a bug worth failing loudly. *)
let gate catalog query plans =
  match !plan_verifier with
  | Some verify when !self_check ->
    let sound, unsound =
      List.partition
        (fun (label, plan) -> not (Diag.has_errors (verify catalog query ~label plan)))
        plans
    in
    List.iter
      (fun (label, _) ->
        Subql_obs.Metrics.incr
          (Subql_obs.Metrics.counter Subql_obs.Metrics.default
             ("planner.self_check.rejected." ^ label)))
      unsound;
    (match sound, unsound with
    | [], (label, plan) :: _ ->
      let diags = verify catalog query ~label plan in
      let d =
        match List.filter Diag.is_error diags with
        | d :: _ -> d
        | [] -> Diag.error ~code:"VER000" "planner self-check rejected every candidate"
      in
      raise (Diag.Fail d)
    | _ -> ());
    sound
  | _ -> plans

let candidates ?(config = Eval.default_config) catalog query =
  let stats = Cost.Stats.of_catalog catalog in
  let gmdj = Optimize.optimize (Transform.to_algebra query) in
  let maybe label plan =
    Option.map (fun p -> (label, p)) plan
  in
  let plans =
    List.filter_map Fun.id
      [
        Some ("gmdj", gmdj);
        maybe "semijoin-unnest" (!semijoin_provider catalog query);
        maybe "outerjoin-unnest" (!outerjoin_provider catalog query);
      ]
  in
  gate catalog query plans
  |> List.map (fun (label, plan) ->
         { label; plan; estimate = Cost.estimate stats ~config plan })
  |> List.sort (fun a b -> Float.compare a.estimate.Cost.cost b.estimate.Cost.cost)

let choose ?(config = Eval.default_config) catalog query =
  match candidates ~config catalog query with
  | best :: _ ->
    (* Report the winner's expected executor footprint next to its cost,
       so memory regressions surface in the same registry as q-errors. *)
    Subql_obs.Metrics.set
      (Subql_obs.Metrics.gauge Subql_obs.Metrics.default "planner.last_memory_height")
      (Cost.memory_height (Cost.Stats.of_catalog catalog) ~config best.plan);
    best
  | [] -> assert false (* the GMDJ plan is always present *)

(* --- Estimated-vs-actual feedback ---------------------------------- *)

type feedback = {
  candidate : candidate;
  actual_rows : int;
  q_error : float;
}

let q_error ~estimated ~actual =
  let est = Float.max 1. estimated and act = Float.max 1. (float_of_int actual) in
  Float.max (est /. act) (act /. est)

let q_error_hist () =
  Subql_obs.Metrics.histogram
    ~buckets:[ 1.; 1.5; 2.; 4.; 8.; 16.; 64.; 256.; 1024. ]
    Subql_obs.Metrics.default "planner.q_error"

let record_feedback fb =
  let open Subql_obs in
  let r = Metrics.default in
  Metrics.incr (Metrics.counter r "planner.runs");
  Metrics.incr (Metrics.counter r ("planner.chosen." ^ fb.candidate.label));
  Metrics.set (Metrics.gauge r "planner.last_estimated_rows") fb.candidate.estimate.Cost.rows;
  Metrics.set (Metrics.gauge r "planner.last_actual_rows") (float_of_int fb.actual_rows);
  Metrics.observe (q_error_hist ()) fb.q_error

let run_with_feedback ?config catalog query =
  let cached =
    match !result_cache with
    | Some hooks -> hooks.cache_lookup query
    | None -> None
  in
  match cached with
  | Some result ->
    (* A hit beats every plan: the result is already materialized, so it
       enters the race as a zero-cost candidate and trivially wins. *)
    let actual_rows = Relation.cardinality result in
    let candidate =
      {
        label = "cache";
        plan = Transform.to_algebra query;
        estimate = { Cost.rows = float_of_int actual_rows; cost = 0. };
      }
    in
    let fb = { candidate; actual_rows; q_error = 1. } in
    record_feedback fb;
    (result, fb)
  | None ->
    let best = choose ?config catalog query in
    let result = Eval.eval ?config catalog best.plan in
    let actual_rows = Relation.cardinality result in
    let fb =
      {
        candidate = best;
        actual_rows;
        q_error = q_error ~estimated:best.estimate.Cost.rows ~actual:actual_rows;
      }
    in
    record_feedback fb;
    (match !result_cache with
    | Some hooks ->
      ignore (hooks.cache_store query ~cost:best.estimate.Cost.cost result)
    | None -> ());
    (result, fb)

let validate ?config catalog query =
  List.map
    (fun cand ->
      let result = Eval.eval ?config catalog cand.plan in
      let actual_rows = Relation.cardinality result in
      let fb =
        {
          candidate = cand;
          actual_rows;
          q_error = q_error ~estimated:cand.estimate.Cost.rows ~actual:actual_rows;
        }
      in
      Subql_obs.Metrics.observe (q_error_hist ()) fb.q_error;
      fb)
    (candidates ?config catalog query)

let run ?config catalog query = fst (run_with_feedback ?config catalog query)
