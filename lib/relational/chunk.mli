(** Tuple batches and pull-based streams of them.

    A {!t} is a read-only window ([off], [len]) over a backing tuple
    array, so slicing a relation or a decoded heap-file page into chunks
    never copies rows.  A {!Source.t} is a pull-based stream of chunks —
    the unit of work of the streaming executor: operators consume a
    source chunk-at-a-time instead of materializing whole relations
    between plan nodes.

    Chunks alias their backing array; treat the rows as immutable, as
    with {!Relation.rows}. *)

type t

val default_rows : int
(** Rows per chunk when a relation is sliced ([1024]). *)

val of_array : ?off:int -> ?len:int -> Schema.t -> Tuple.t array -> t
(** A window over [buffer]; defaults cover the whole array (zero-copy).
    @raise Invalid_argument if the range is out of bounds. *)

val of_rows : Schema.t -> Tuple.t array -> t
(** The whole array as one chunk. *)

val whole : Relation.t -> t
(** A relation's rows as one chunk (zero-copy). *)

val schema : t -> Schema.t

val length : t -> int

val is_empty : t -> bool

val buffer : t -> Tuple.t array
(** The backing array — rows live at [offset .. offset + length - 1].
    Exposed so hot accumulation loops (GMDJ) can index directly. *)

val offset : t -> int

val get : t -> int -> Tuple.t
(** @raise Invalid_argument if the index is out of bounds. *)

val with_schema : Schema.t -> t -> t
(** Re-label the rows (e.g. alias renaming) without copying.
    @raise Invalid_argument on arity mismatch. *)

val iter : (Tuple.t -> unit) -> t -> unit

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val to_rows : t -> Tuple.t array
(** The chunk's rows; the backing array itself when the window covers
    it entirely, a fresh copy otherwise. *)

val to_relation : t -> Relation.t

(** Pull-based chunk streams: [next] yields chunks until [None], after
    which the source has closed itself.  [close] is idempotent and safe
    mid-stream (used for early exit, e.g. GMDJ completion). *)
module Source : sig
  type chunk = t

  type t

  val create : ?close:(unit -> unit) -> schema:Schema.t -> (unit -> chunk option) -> t
  (** [create ~schema next] wraps a pull function.  [close] runs exactly
      once — on [close], or when [next] first returns [None]. *)

  val schema : t -> Schema.t

  val next : t -> chunk option

  val close : t -> unit

  val of_relation : ?chunk_rows:int -> Relation.t -> t
  (** Stream a relation's rows in windows of [chunk_rows] (zero-copy).
      Until the first pull, {!origin} exposes the relation itself so
      consumers that want the whole thing can skip re-collection. *)

  val empty : Schema.t -> t

  val origin : t -> Relation.t option
  (** [Some r] iff this source is an unconsumed whole-relation stream
      over [r] — the materialization shortcut: [to_relation] returns [r]
      without copying, and executors can treat the input as already
      materialized. *)

  val fold : ('a -> chunk -> 'a) -> 'a -> t -> 'a
  (** Drains the source (and hence closes it). *)

  val iter : (chunk -> unit) -> t -> unit

  val map : ?schema:Schema.t -> (chunk -> chunk) -> t -> t
  (** Per-chunk transform; empty result chunks are skipped.  [schema]
      defaults to the input's. *)

  val concat : t -> t -> t
  (** All chunks of the first source, then all of the second.
      @raise Invalid_argument on arity mismatch. *)

  val tap : (int -> unit) -> t -> t
  (** Observe the row count of every chunk pulled through, preserving
      the {!origin} shortcut (a shortcut consumer sees no chunks). *)

  val to_relation : t -> Relation.t
  (** Drain into a relation — the {!origin} relation itself when the
      source is an untouched whole-relation stream. *)
end
