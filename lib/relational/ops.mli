(** The relational operator suite.

    Every operator is a total function from relations to a relation.
    Join-like operators take a [strategy]: [`Hash] extracts equi-join
    pairs from the condition and probes a hash index (the "indexed"
    plans of the paper's experiments); [`Sort_merge] sorts the right
    side on the equi-keys and binary-searches per left row (the
    sort-merge plans the paper's DBMS fell back to); [`Nested_loop]
    compares every pair (the "no useful index" situation).  All produce
    identical results. *)

type join_strategy = [ `Hash | `Nested_loop | `Sort_merge ]

val select : Expr.t -> Relation.t -> Relation.t
(** Keep the rows on which the predicate is [true] (3VL truncation). *)

val project : (Expr.t * string) list -> Relation.t -> Relation.t
(** Computed projection; output attributes are unqualified. *)

val project_cols :
  ?distinct:bool -> (string option * string) list -> Relation.t -> Relation.t
(** Column projection preserving attribute metadata.  [distinct] removes
    duplicates (NULLs compare equal, as in SQL DISTINCT). *)

val distinct : Relation.t -> Relation.t

val add_rownum : string -> Relation.t -> Relation.t
(** Append an unqualified int column holding the 0-based row position —
    the surrogate key used by outer-join unnesting. *)

val product : Relation.t -> Relation.t -> Relation.t

val join : ?strategy:join_strategy -> Expr.t -> Relation.t -> Relation.t -> Relation.t

val left_outer_join :
  ?strategy:join_strategy -> Expr.t -> Relation.t -> Relation.t -> Relation.t
(** Unmatched left rows are padded with NULLs on the right. *)

val semi_join : ?strategy:join_strategy -> Expr.t -> Relation.t -> Relation.t -> Relation.t
(** Left rows with at least one match; right columns are not emitted. *)

val anti_join : ?strategy:join_strategy -> Expr.t -> Relation.t -> Relation.t -> Relation.t
(** Left rows with no match. *)

val group_by :
  keys:(string option * string) list ->
  aggs:Aggregate.spec list ->
  Relation.t ->
  Relation.t
(** SQL GROUP BY: keys group with NULLs equal; output schema is the key
    attributes followed by one unqualified column per aggregate.
    An empty input yields an empty output. *)

val aggregate_all : Aggregate.spec list -> Relation.t -> Relation.t
(** Aggregation without grouping: always exactly one output row, even on
    empty input (COUNT yields 0, SUM/MIN/MAX/AVG yield NULL). *)

val union_all : Relation.t -> Relation.t -> Relation.t
(** @raise Invalid_argument if the schemas differ positionally. *)

val union : Relation.t -> Relation.t -> Relation.t

val diff_all : Relation.t -> Relation.t -> Relation.t
(** Multiset difference (monus): each right occurrence cancels one left
    occurrence. *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Set difference over distinct rows. *)

val intersect : Relation.t -> Relation.t -> Relation.t
(** Set intersection over distinct rows. *)

val sort :
  by:((string option * string) * [ `Asc | `Desc ]) list -> Relation.t -> Relation.t

val limit : int -> Relation.t -> Relation.t

(** {1 Streaming variants}

    Chunk-at-a-time counterparts used by the streaming executor.  Each
    is the same kernel as the whole-relation operator above — compiled
    once at plan time, applied per chunk — so both paths share one
    implementation of the operator's semantics.

    [select_source] / [project_source] / [project_cols_source] /
    [rename_source] / [add_rownum_source] / [union_all_source] are fully
    pipelined (chunk in, chunk out).  [group_by_source],
    [aggregate_all_source] and [distinct_source] are pipeline breakers
    that still consume their input incrementally: they fold the stream
    into bounded per-group state without materializing the input. *)

val select_source : Expr.t -> Chunk.Source.t -> Chunk.Source.t

val project_source : (Expr.t * string) list -> Chunk.Source.t -> Chunk.Source.t

val project_cols_source : (string option * string) list -> Chunk.Source.t -> Chunk.Source.t

val rename_source : string -> Chunk.Source.t -> Chunk.Source.t
(** Requalify every attribute to the alias, sharing row storage. *)

val add_rownum_source : string -> Chunk.Source.t -> Chunk.Source.t

val union_all_source : Chunk.Source.t -> Chunk.Source.t -> Chunk.Source.t
(** @raise Invalid_argument if the schemas differ positionally. *)

val distinct_source : Chunk.Source.t -> Relation.t

val group_by_source :
  keys:(string option * string) list ->
  aggs:Aggregate.spec list ->
  Chunk.Source.t ->
  Relation.t

val aggregate_all_source : Aggregate.spec list -> Chunk.Source.t -> Relation.t

(** {1 Resumable breaker state}

    The hash state behind DISTINCT and GROUP BY, exposed as first-class
    accumulators: the spill path freezes them at a memory budget and
    routes overflow rows to temp heap files.  The
    one-shot operators above are thin wrappers over these. *)

module Distinct_acc : sig
  type t

  val create : unit -> t

  val add : t -> Tuple.t -> bool
  (** [true] iff the row was new (it is now remembered). *)

  val mem : t -> Tuple.t -> bool

  val size : t -> int
  (** Distinct rows held. *)

  val rows : t -> Tuple.t array
  (** Distinct rows in first-seen order. *)
end

module Group_acc : sig
  type t

  val create :
    schema:Schema.t ->
    keys:(string option * string) list ->
    aggs:Aggregate.spec list ->
    t

  val key_of : t -> Tuple.t -> Tuple.t

  val mem_key : t -> Tuple.t -> bool

  val size : t -> int
  (** Groups held. *)

  val step : t -> Tuple.t -> unit
  (** Fold a row in, creating its group if needed. *)

  val step_existing : t -> Tuple.t -> bool
  (** Fold a row into an already-present group; [false] means the key is
      new and the row was {e not} consumed — the spill overflow test. *)

  val result : t -> Relation.t
  (** Groups in first-seen order, keys then aggregate columns. *)
end
