(** Spill-to-disk pipeline breakers.

    The adaptive twins of the in-memory breakers (DISTINCT, GROUP BY,
    hash join): each accumulates hash state normally until it reaches a
    row [budget], then {e freezes} the resident state and routes
    overflow rows — hash-partitioned on the breaker's key — to temp heap
    files through the buffer pool, merging the partitions in a second
    pass.  A breaker over a detail-sized input thus degrades to I/O
    instead of OOM: resident rows stay bounded by the budget (plus
    batch-sized write buffers), and the overflow is accounted as disk.

    The freeze is sound because a row is only spilled when its key is
    absent from the resident state and equal keys always hash to the
    same partition, so the resident result and the per-partition results
    are key-disjoint and together complete.

    Temp files ([subql_spill*.heap] under [Filename.temp_dir_name]) are
    removed on completion {e and} on exception.  Spill volume is
    published to {!Subql_obs.Metrics.default} as [exec.spills] /
    [exec.spilled_rows] / [exec.spilled_bytes].  These operators run on
    the calling domain. *)

open Subql_relational

type outcome = {
  result : Relation.t;
  resident_peak_rows : int;
      (** High-water mark of rows the operator held resident: hash
          state, partition write buffers, and second-pass state. *)
  spilled_rows : int;  (** Rows routed through temp heap files. *)
  spilled_bytes : int;  (** Pages written × page size. *)
}

val default_partitions : int
(** Overflow fan-out when [partitions] is omitted ([8]). *)

val distinct : ?partitions:int -> budget:int -> Chunk.Source.t -> outcome
(** Streaming DISTINCT holding at most [budget] resident distinct rows;
    result order is first-seen for the resident prefix, then partition
    order.  @raise Invalid_argument if [budget <= 0]. *)

val group_by :
  ?partitions:int ->
  budget:int ->
  keys:(string option * string) list ->
  aggs:Aggregate.spec list ->
  Chunk.Source.t ->
  outcome
(** Streaming GROUP BY holding at most [budget] resident groups.  Rows
    of already-resident groups keep folding in place after the freeze;
    only rows of unseen keys spill, so hot groups never pay I/O.
    @raise Invalid_argument if [budget <= 0]. *)

type join_kind = [ `Inner | `Left_outer | `Semi | `Anti ]

val join :
  ?partitions:int ->
  budget:int ->
  strategy:Ops.join_strategy ->
  kind:join_kind ->
  cond:Expr.t ->
  left:Chunk.Source.t ->
  right:Chunk.Source.t ->
  unit ->
  outcome
(** Grace hash join: each side is collected up to [budget] rows, and on
    overflow both sides are hash-partitioned on the equi-key columns of
    [cond] ({!Subql_relational.Expr.split_equi}) and joined partition
    against partition with the ordinary in-memory operator (full
    condition re-checked, so residual conjuncts and NULL semantics are
    exactly those of {!Subql_relational.Ops.join} and friends).  When
    [cond] has no equi-conjunct the join cannot be partitioned and falls
    back to fully in-memory execution; [resident_peak_rows] then reports
    both input cardinalities.  @raise Invalid_argument if [budget <= 0]. *)
