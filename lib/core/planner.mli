(** Cost-based plan selection between the subquery evaluation
    strategies (the cost-based framework sketched in the paper's
    conclusion).

    For a nested query the planner enumerates the available complete
    plans — the optimized GMDJ translation, the classical semi-/anti-
    join unnesting when applicable, and the general outer-join
    expansion — estimates each with {!Cost}, and picks the cheapest.
    Every candidate computes the same result, so the choice only
    affects performance. *)

open Subql_relational

type candidate = {
  label : string;  (** "gmdj", "semijoin-unnest", or "outerjoin-unnest" *)
  plan : Algebra.t;
  estimate : Cost.estimate;
}

val candidates :
  ?config:Eval.config -> Catalog.t -> Subql_nested.Nested_ast.query -> candidate list
(** All available plans with their estimates, cheapest first.
    The unnesting candidates are produced lazily by callbacks registered
    with {!set_unnest_providers} (breaking the library cycle with
    [subql_unnest]); without providers only the GMDJ plan is offered. *)

val choose :
  ?config:Eval.config -> Catalog.t -> Subql_nested.Nested_ast.query -> candidate
(** The cheapest candidate. *)

type feedback = {
  candidate : candidate;  (** the plan that ran *)
  actual_rows : int;
  q_error : float;
      (** [max(est/actual, actual/est)] with both clamped to ≥ 1 — the
          standard cardinality-estimation error factor *)
}
(** Cost-model feedback: what the planner predicted vs what happened.
    Recorded into {!Subql_obs.Metrics.default} (["planner.runs"],
    ["planner.chosen.<label>"], ["planner.last_estimated_rows"],
    ["planner.last_actual_rows"], and the ["planner.q_error"]
    histogram) so estimation error is measurable across a workload. *)

val run_with_feedback :
  ?config:Eval.config ->
  Catalog.t ->
  Subql_nested.Nested_ast.query ->
  Relation.t * feedback
(** Choose, evaluate, and report estimated-vs-actual for the chosen
    plan. *)

val validate :
  ?config:Eval.config -> Catalog.t -> Subql_nested.Nested_ast.query -> feedback list
(** Run {e every} candidate and report per-candidate estimated-vs-actual
    rows (all candidates return the same relation, so this measures the
    estimator, not the plans).  Expensive — meant for cost-model
    calibration, not query serving. *)

val run :
  ?config:Eval.config -> Catalog.t -> Subql_nested.Nested_ast.query -> Relation.t
(** Choose and evaluate ([run_with_feedback] minus the report). *)

val set_unnest_providers :
  semijoin:(Catalog.t -> Subql_nested.Nested_ast.query -> Algebra.t option) ->
  outerjoin:(Catalog.t -> Subql_nested.Nested_ast.query -> Algebra.t option) ->
  unit
(** Called once by [Subql_unnest] at load time. *)

type result_cache = {
  cache_lookup : Subql_nested.Nested_ast.query -> Relation.t option;
  cache_store :
    Subql_nested.Nested_ast.query -> cost:float -> Relation.t -> bool;
}
(** The multi-query result cache, seen from the planner as two opaque
    callbacks (the fingerprinting and eviction policy live in
    [Subql_mqo], which sits above this library). *)

val set_result_cache : result_cache -> unit
(** Install a result cache: {!run_with_feedback} (and {!run}) first
    consult [cache_lookup] — a hit is reported as a zero-cost ["cache"]
    candidate and returned without planning — and on a miss offer the
    evaluated result to [cache_store] together with the chosen plan's
    estimated cost.  [Subql_mqo.Batch.install_planner_cache] is the
    intended caller. *)

val clear_result_cache : unit -> unit
(** Detach the cache; subsequent runs plan and evaluate normally. *)

type plan_verifier =
  Catalog.t -> Subql_nested.Nested_ast.query -> label:string -> Algebra.t -> Diag.t list
(** A plan soundness check: given the source query and a candidate plan,
    return diagnostics (errors mean "reject this plan").
    [Subql_analysis.Verify] registers one that re-runs schema and
    nullability inference over the candidate. *)

val set_plan_verifier : plan_verifier -> unit
(** Install the verifier used by the self-check gate. *)

val clear_plan_verifier : unit -> unit

val set_self_check : bool -> unit
(** Enable/disable the planner self-check gate (off by default).  When
    on and a verifier is installed, {!candidates} drops every candidate
    whose verification reports an error-severity diagnostic — counted in
    the ["planner.self_check.rejected.<label>"] metrics — and raises
    {!Diag.Fail} if no candidate survives (the GMDJ reference
    translation is sound by construction, so an empty survivor set is an
    analyzer/translator disagreement, not a user error). *)

val self_check_enabled : unit -> bool
