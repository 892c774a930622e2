(** A named-metric registry: counters, gauges, and fixed-bucket latency
    histograms.

    All state is plain mutable memory with no atomics — metrics are
    meant to be touched from a single domain (the engine's executor
    runs on one).

    Metrics are find-or-create: registering a name twice returns the
    same instrument, so independent modules can share series
    ("storage.buffer_pool.hits") without coordination.  Registering an
    existing name as a different kind raises [Invalid_argument].

    The conventional instance is {!default}; every engine component
    publishes there unless told otherwise. *)

type t
(** A registry. *)

val create : unit -> t

val default : t
(** The process-wide registry the engine publishes into. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Find or create a monotonically increasing integer series. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1).  @raise Invalid_argument if [by < 0]. *)

val counter_value : counter -> int

val counter_value_by_name : t -> string -> int
(** 0 when the counter does not exist (or the name is a different
    kind) — lets readers observe series they do not own without
    creating them. *)

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
(** Find or create a point-in-time float series. *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val default_buckets : float list
(** Latency-shaped: 1e-6 .. 10 seconds in decade/half-decade steps. *)

val histogram : ?buckets:float list -> t -> string -> histogram
(** Find or create; [buckets] are upper bounds (sorted and de-duplicated
    internally, an [infinity] overflow bucket is always appended).  When
    the histogram already exists the [buckets] argument is ignored.
    @raise Invalid_argument on an empty or non-finite bucket list. *)

val observe : histogram -> float -> unit
(** Record a value: the first bucket with [value <= upper_bound] is
    incremented (closed upper bounds, Prometheus-style). *)

(** {1 Snapshot, reset, rendering} *)

type histogram_snapshot = {
  upper_bounds : float array;  (** ascending; the last is [infinity] *)
  bucket_counts : int array;  (** per-bucket (non-cumulative) counts *)
  count : int;
  sum : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}
(** All series sorted by name.  The snapshot is a deep copy: later
    metric updates do not mutate it. *)

val snapshot : t -> snapshot

val quantile : histogram_snapshot -> float -> float
(** [quantile h q] estimates the [q]-quantile ([q] in [\[0, 1\]]) from
    the bucket counts by linear interpolation inside the containing
    bucket (the Prometheus [histogram_quantile] estimator).  [0.] for an
    empty histogram; the lower edge of the overflow bucket when the
    quantile falls beyond the last finite bound.  The serving loop's
    latency summaries ([server.latency_seconds]) read p50/p99 through
    this.
    @raise Invalid_argument when [q] is outside [\[0, 1\]]. *)

val reset : t -> unit
(** Zero every series (instruments stay registered). *)

val pp : Format.formatter -> t -> unit
(** Plain-text rendering, one series per line. *)

val render : t -> string
