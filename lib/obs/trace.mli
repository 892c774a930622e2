(** Hierarchical trace spans with a Chrome-tracing exporter.

    A span records a name, string attributes, a start timestamp and a
    duration; spans nest by dynamic scope ({!with_}).  Tracing is off by
    default and {!with_} is then a direct tail call of the thunk, so
    leaving instrumentation in hot paths costs nearly nothing.

    All trace state is {e domain-local} ([Domain.DLS]): every domain
    runs its own independent span machine, so work fanned out over
    domains (the [analyze --certify --domains] checker) can run
    instrumented code without racing the calling domain; spans opened
    on another domain are not collected.

    Completed root spans accumulate per domain until {!clear};
    {!to_chrome_json} renders them in the Chrome [chrome://tracing] /
    Perfetto array-of-events JSON format using complete ("ph":"X")
    events with microsecond timestamps. *)

type span = {
  name : string;
  attrs : (string * string) list;
  start_us : float;  (** [Unix.gettimeofday] in microseconds *)
  dur_us : float;
  children : span list;  (** in start order *)
}

val set_enabled : bool -> unit

val enabled : unit -> bool

val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span named [name].  The span is completed
    even when the thunk raises.  When tracing is disabled this is just
    [f ()]. *)

val add_attr : string -> string -> unit
(** Attach an attribute to the innermost open span; no-op when tracing
    is disabled or no span is open.  Lets an operator report values it
    only knows at the end (output cardinality, scan counts). *)

val roots : unit -> span list
(** Completed top-level spans, oldest first. *)

val clear : unit -> unit
(** Drop completed spans (open spans are unaffected). *)

val to_chrome_json : unit -> string
(** The completed spans as a Chrome-tracing JSON array. *)

val export : string -> unit
(** Write {!to_chrome_json} to the given path. *)
