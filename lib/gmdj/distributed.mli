(** GMDJ evaluation over a distributed data warehouse (a simulation of
    the authors' companion system for distributed OLAP, cited in the
    paper's conclusion: the GMDJ "is well-suited to evaluation in a
    parallel or distributed DBMS environment").

    A {!Cluster.t} holds a horizontal partition of the detail relation
    across simulated sites.  Three coordinator strategies compute
    [MD(B, R, blocks)] with identical results but very different network
    traffic, which the report quantifies in estimated bytes:

    - [Ship_all] — every site ships its raw partition to the
      coordinator, which evaluates locally.  Traffic grows with |R|.
    - [Ship_filtered] — sites first apply the detail-local conjuncts of
      the block conditions (the same invariants the single-site engine
      hoists) and ship only potentially-relevant rows.
    - [Partial_aggregates] — the coordinator broadcasts the base-values
      relation; each site folds its partition into local accumulators
      and ships the accumulator states, which the coordinator merges
      (AVG travels as SUM and COUNT; FIRST has no mergeable partial
      state and is refused).  Traffic grows with
      sites × |B|, independent of |R| — the distributed-OLAP win when
      the fact table dwarfs the base-values table. *)

open Subql_relational

module Cluster : sig
  type t

  val create :
    sites:int ->
    ?partition:[ `Round_robin | `Hash_on of string option * string ] ->
    Relation.t ->
    t
  (** Partition the detail relation over [sites] simulated sites.
      [`Hash_on col] co-locates rows with equal values of [col]
      (NULLs go to site 0).  Default [`Round_robin].
      @raise Invalid_argument if [sites <= 0]. *)

  val sites : t -> int

  val site_rows : t -> int array
  (** Detail rows held at each site. *)
end

type strategy = Ship_all | Ship_filtered | Partial_aggregates

val strategy_to_string : strategy -> string

type report = {
  result : Relation.t;
  bytes_broadcast : int;  (** coordinator → sites *)
  bytes_collected : int;  (** sites → coordinator *)
  messages : int;
}

val total_bytes : report -> int

val execute :
  ?strategy:strategy -> Cluster.t -> base:Relation.t -> Gmdj.block list -> report
(** Evaluate the GMDJ over the cluster.  The result is always identical
    to [Gmdj.eval] over the un-partitioned detail relation (verified by
    the property suite).

    Each run publishes its traffic to {!Subql_obs.Metrics.default}:
    counters ["distributed.bytes_broadcast" / "bytes_collected" /
    "messages" / "executions"], plus the per-site shipped sizes as the
    ["distributed.site_shipped_bytes"] histogram — partitioning skew is
    visible as spread, not just as a total. *)
