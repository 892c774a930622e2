(** The Generalized Multi-Dimensional Join operator (Def. 2.1).

    [MD(B, R, (l_1..l_m), (θ_1..θ_m))] extends every base tuple [b ∈ B]
    with the aggregates [l_i] computed over the range
    [RNG(b, R, θ_i) = {r ∈ R | θ_i(b, r)}].  The output has one row per
    base row (in base order) and one column per aggregate.

    Evaluation strategies:
    - [`Reference] — the definition, verbatim: one pass over the detail
      relation per base tuple and block.  Executable specification.
    - [`Scan] — a single scan of the detail relation, updating all base
      tuples' accumulators.  Cost: |R| scans × |B| predicate tests per
      block.
    - [`Hash] — single scan with the hash-index strategy of the paper's
      GMDJ engine: equi-conditions between base and detail attributes
      are extracted from each θ and used to hash-partition the base
      tuples; each detail tuple probes its candidates and evaluates only
      the residual predicate.

    Under [`Scan] and [`Hash], conjuncts of a θ that mention only detail
    attributes are hoisted and evaluated once per detail row (the
    invariant reuse of Rao & Ross), not once per pair.

    All strategies produce identical results. *)

open Subql_relational

type block = { aggs : Aggregate.spec list; theta : Expr.t }
(** One (l_i, θ_i) pair: aggregates over the detail rows matching θ_i.
    θ_i may reference attributes of both operands; references resolve in
    the detail schema first (qualify to disambiguate). *)

type strategy = [ `Reference | `Scan | `Hash ]

type stats = {
  mutable detail_scanned : int;  (** detail rows consumed *)
  mutable theta_evals : int;  (** residual/θ predicate evaluations *)
  mutable early_exit : bool;  (** scan stopped before the end *)
  mutable detail_passes : int;
      (** detail scans started: 1 per [`Scan]/[`Hash] evaluation, 1 per
          segment for {!eval_segmented}, |B| × blocks for [`Reference] —
          the Prop. 4.1 coalescing argument as a number *)
  mutable block_updates : int array;
      (** accumulator-update batches per block (grown on demand to the
          widest block list seen) *)
}

val fresh_stats : unit -> stats

(** Every evaluation also publishes its pass / scanned-row / θ-count
    deltas to the process registry ({!Subql_obs.Metrics.default}) under
    ["gmdj.evals"], ["gmdj.detail_passes"], ["gmdj.detail_rows_scanned"],
    ["gmdj.theta_evals"] and ["gmdj.early_exits"].  Per-pair θ counting
    stays opt-in (a [stats] record must be supplied) because it wraps
    the hottest predicate path; pass and row counts are always exact. *)

val block : Aggregate.spec list -> Expr.t -> block

val pp_block : Format.formatter -> block -> unit

val output_schema : base:Schema.t -> detail:Schema.t -> block list -> Schema.t
(** Base attributes followed by the aggregate columns (unqualified).
    Duplicate aggregate names are uniquified as in the paper's
    footnote 1. *)

val eval :
  ?strategy:strategy ->
  ?stats:stats ->
  base:Relation.t ->
  detail:Relation.t ->
  block list ->
  Relation.t

val eval_segmented :
  ?strategy:strategy ->
  ?stats:stats ->
  segment_size:int ->
  base:Relation.t ->
  detail:Relation.t ->
  block list ->
  Relation.t
(** Memory-bounded evaluation (the paper's Section 2.3 remark and the
    segmented evaluation behind SEGMENT-APPLY): the base-values relation
    is processed in segments of at most [segment_size] tuples, each with
    its own scan of the detail relation, so the in-memory base-result
    structure stays bounded.  The cost is well-defined:
    [⌈|B| / segment_size⌉] detail scans.  Results are identical to
    {!eval}, in base order.
    @raise Invalid_argument if [segment_size <= 0]. *)

(** {1 Base-tuple completion (Section 4.2)}

    [eval_completed] evaluates [σ[C](MD(B, R, blocks))] for selection
    conditions [C] that the optimizer reduced to completion rules:

    - a {e kill} predicate fires on [(b, r)] ⇒ [b] can never satisfy
      [C]; it is disqualified and ignored for the rest of the scan
      (Thm 4.2 — e.g. [cnt = 0] conjuncts, or the ALL-quantifier
      pattern [θ ∧ ¬(x φ y IS TRUE)]);
    - a {e require-fired} predicate must fire at least once for [b] to
      satisfy [C] (Thm 4.1 — [cnt > 0] conjuncts).

    When every base tuple is decided — killed, or all requirements fired
    while no kill predicates exist — the detail scan stops early.

    With [maintain_aggregates = false] (valid only when the enclosing
    projection discards the aggregate columns, Thm 4.1's [A ∩ l = ∅]),
    accumulators are not updated at all; the aggregate columns of the
    result then hold unspecified defaults and must be projected away. *)

type completion = {
  kill_when : Expr.t list;
  require_fired : Expr.t list;
  maintain_aggregates : bool;
}

val pp_completion : Format.formatter -> completion -> unit

val eval_completed :
  ?strategy:strategy ->
  ?stats:stats ->
  completion:completion ->
  base:Relation.t ->
  detail:Relation.t ->
  block list ->
  Relation.t
(** Returns only the surviving base rows, extended with the aggregate
    columns.  [`Reference] is treated as [`Scan]. *)

(** {1 Chunk-at-a-time evaluation}

    The streaming counterparts of {!eval} and {!eval_completed}: the
    caller owns the detail scan and pushes {!Subql_relational.Chunk.t}
    batches in, so the detail side never has to exist as one in-memory
    relation — it can be pulled straight off heap-file pages through a
    buffer pool.  One [start]/[finish] pair counts as one evaluation
    (one registry publication and, for [`Scan]/[`Hash], one
    [detail_passes] increment regardless of how many chunks arrive —
    the Prop. 4.1 accounting is per storage pass, not per batch). *)

module Fold : sig
  type acc

  val start :
    ?strategy:strategy ->
    ?stats:stats ->
    base:Relation.t ->
    detail:Schema.t ->
    block list ->
    acc
  (** Compile plans against the detail [schema] and allocate the
      accumulator matrix.  [`Reference] is treated as [`Scan]. *)

  val fold_detail : Chunk.t -> acc -> acc
  (** Accumulate one batch of detail rows into every base tuple's
      ranges.  Chunks may arrive in any number and size. *)

  val finish : acc -> Relation.t
  (** Emit the result (base order) and publish the registry deltas. *)
end

module Fold_completed : sig
  type acc

  val start :
    ?strategy:strategy ->
    ?stats:stats ->
    completion:completion ->
    base:Relation.t ->
    detail:Schema.t ->
    block list ->
    acc

  val saturated : acc -> bool
  (** No further detail rows can change the answer (every base tuple is
      decided, Thms 4.1–4.2).  The feeder should stop pulling — and
      close — the detail stream: with a paged detail source this turns
      the early {e scan} exit into an early {e storage} exit. *)

  val fold_detail : Chunk.t -> acc -> acc
  (** No-op once {!saturated}. *)

  val finish : acc -> Relation.t
  (** Surviving base rows, extended with the aggregate columns. *)
end

(** {1 Incremental view maintenance}

    Maintain a materialized GMDJ result under detail-relation deltas
    (the complex-aggregate-view maintenance of the authors' companion
    work).  The view keeps live accumulators per base tuple, so applying
    a delta costs one pass over the delta only.

    Preconditions: inserted rows must not already be counted twice, and
    deleted rows must actually be part of the accumulated content —
    standard multiset view-maintenance assumptions.  COUNT/SUM/AVG
    states retract exactly (including re-nullification when a range
    empties); MIN/MAX views reject deletions. *)
module Maintain : sig
  type t

  val generation : unit -> int
  (** A process-wide delta counter, bumped by every successful
      {!insert_detail} / {!delete_detail} on any view.  Maintained views
      mutate the effective detail content without touching the catalog,
      so fingerprint-keyed result caches ([Subql_mqo]) fold this into
      their invalidation epoch alongside {!Subql_relational.Catalog.generation}. *)

  val create :
    ?strategy:strategy -> base:Relation.t -> detail:Relation.t -> block list -> t
  (** Materialize [MD(base, detail, blocks)] with maintainable state. *)

  val insert_detail : t -> Relation.t -> unit
  (** Fold a batch of new detail rows into the view.
      @raise Invalid_argument if the delta schema differs. *)

  val delete_detail : t -> Relation.t -> unit
  (** Retract a batch of detail rows.
      @raise Invalid_argument for views with MIN/MAX aggregates. *)

  val insert_chunk : t -> Chunk.t -> unit
  (** {!insert_detail} for one chunk of detail rows — the streaming
      insertion primitive: only the chunk's window of its backing buffer
      is folded, nothing is copied.
      @raise Invalid_argument if the chunk schema differs. *)

  val insert_source : t -> Chunk.Source.t -> int
  (** Drain a chunk stream into the view, one {!insert_chunk} per chunk;
      returns the number of rows folded.  With a paged delta source
      (e.g. [Heap_file.source_range]) an appended batch is maintained
      without ever materializing it. *)

  val stats : t -> stats
  (** Lifetime accumulation counts for this view: the initial
      materialization plus every delta folded since.  [detail_scanned]
      deltas between two reads price a maintenance step in rows. *)

  val result : t -> Relation.t
  (** The current view contents, in base order — always equal to
      re-evaluating the GMDJ over the maintained detail state. *)
end
