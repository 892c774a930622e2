(* Pieces shared by the workloads: clocks, counters, the answer oracle
   and the shape of one measured run. *)

open Subql_relational
module Metrics = Subql_obs.Metrics

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 100]. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  Subql_server.Driver.percentile a p

let ratio a b = if b = 0. then 0. else a /. b

let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* A counter of the process registry, read without creating it. *)
let counter name = Metrics.counter_value_by_name Metrics.default name

(* How long a measured phase runs: a wall-clock budget (the benchmark's
   runs), or a fixed number of requests (the benchmark's own test, whose
   counts must repeat exactly). *)
type budget = Seconds of float | Requests of int

(* A stretch of one measured phase: a read window with requests, or a
   write window with appended rows and none.  Each workload cuts its
   read windows so that every one holds the same mix of requests, and
   interleaves its write windows with them, so that both spread over the
   whole phase. *)
type window = {
  mutable lat : float list;  (** latency of each completed request, seconds *)
  mutable wall : float;  (** the window's clock, verification excluded *)
  mutable busy : float;  (** time inside the system's calls *)
  mutable rows : int;  (** rows appended *)
  mutable ingest_s : float;  (** seconds spent appending them *)
  mutable heap : int;  (** largest major heap seen in the window, words *)
}

let window () = { lat = []; wall = 0.; busy = 0.; rows = 0; ingest_s = 0.; heap = 0 }

(* Sampled after every request, batch and append, outside the clock.
   The major heap shrinks again once a large block is swept, so a peak
   inside a call that a major cycle sweeps before the call returns is
   missed. *)
let sample_heap w = w.heap <- max w.heap (Gc.quick_stat ()).Gc.heap_words

let mb_of_words words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* What one measured phase of a workload reports. *)
type outcome = {
  attempted : int;
  wrong : int;  (** answered, but not what the oracle answered *)
  refused : int;  (** rejected at admission *)
  crashed : int;  (** raised instead of answering *)
  windows : window list;
  inputs : string;  (** digest of the generated request sequence *)
  layers : (string * float) list;  (** per-layer values this workload produces *)
  counts : (string * int) list;  (** raw totals, for the run record *)
}

let failed o = o.wrong + o.refused + o.crashed

(* The second path every timed answer is checked against.  The tuple-
   iteration oracle ([Naive_eval]) is used where it finishes in set-up
   time.  The zoo's multi-relation FROM shapes iterate the product of
   their FROM tables per outer row (seconds at the benchmark's sizes), so
   they are checked against the in-memory optimized GMDJ plan instead. *)
let naive_too_slow = [ "multi-from"; "multi-from-non-neighboring" ]

let oracle ?(gmdj = false) catalog query =
  if gmdj then Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra query))
  else Subql_nested.Naive_eval.eval ~mode:Subql_nested.Naive_eval.Smart catalog query

(* One [Cost.Stats.of_catalog] call on the workload's catalog: the
   median of three. *)
let cost_stats_ms catalog =
  let t () = snd (timed (fun () -> ignore (Subql.Cost.Stats.of_catalog catalog))) in
  1000. *. percentile [ t (); t (); t () ] 50.

let same a b = Relation.equal_as_multiset a b

(* Link the unnesting library: loading it registers the planner's
   semi-join and outer-join candidates, as in the CLI. *)
let () = ignore Subql_unnest.Unnest.best
