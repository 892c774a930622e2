(** The rewrite verifier: rewrites must preserve the inferred schema and
    may only {e narrow} nullability.

    Every plan rewrite in the repository — the {!Subql.Optimize} passes,
    the planner's alternative translations, and the cross-query GMDJ
    merges of [Subql_mqo.Share] — claims semantic equivalence.  This
    module checks the two static facts that equivalence implies:

    - [VER001] {e schema drift}: the output schema (bare names and
      types, positionally) changed;
    - [VER002] {e widened nullability}: a column the input proved
      non-NULL is only [Maybe_null] after the rewrite (the reverse —
      narrowing — is expected: e.g. completion turns a selection over a
      count column into a plan whose survivors are known non-NULL).

    The checks run in a {e self-check mode} wired through the hooks the
    core library exposes ({!Subql.Optimize.set_self_check},
    {!Subql.Planner.set_plan_verifier}), so the optimizer and planner
    gain the verification without the core depending on the analyzer. *)

open Subql_relational

val check_rewrite :
  Typing.env ->
  label:string ->
  before:Subql.Algebra.t ->
  after:Subql.Algebra.t ->
  Diag.t list
(** Verify one rewrite.  Sorted diagnostics; empty means verified.
    Besides [VER001]/[VER002], any error-severity diagnostic the
    {e rewritten} plan triggers that the original did not is reported
    (a rewrite must not manufacture ill-typed plans).  When the
    {e input} already fails to type, the rewrite is not judged. *)

val install_optimizer_check : Catalog.t -> unit
(** Register {!check_rewrite} with {!Subql.Optimize.set_self_check}:
    every subsequent [Optimize.optimize] call self-verifies and raises
    {!Diag.Fail} with the first error if the rewrite is unsound.
    The check is catalog-specific; plans over other catalogs pass
    through unverified. *)

val clear_optimizer_check : unit -> unit

val plan_verifier : Subql.Planner.plan_verifier
(** The planner-facing verdict for one candidate plan: the candidate's
    own error diagnostics, plus [VER001] if its schema disagrees with
    the reference GMDJ translation of the query. *)

val install_planner_gate : unit -> unit
(** [Planner.set_plan_verifier plan_verifier] + enable the planner
    self-check ({!Subql.Planner.candidates} will drop unsound
    candidates). *)

val clear_planner_gate : unit -> unit
