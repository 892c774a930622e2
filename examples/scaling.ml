(* Scaling the GMDJ: memory-bounded segments, distributed partitions,
   and cost-based plan choice.

   The paper notes that the GMDJ "can be computed at a well-defined
   cost" even when the base-values table exceeds memory (segmented
   evaluation), and that the operator "is well-suited to evaluation in a
   parallel or distributed DBMS environment".  This example demonstrates
   both on one analysis — per-user traffic totals over a large Flow
   table — plus the cost-based planner choosing between GMDJ and join
   plans.

   Run with: dune exec examples/scaling.exe *)

open Subql_relational
open Subql_gmdj
open Subql_workload

let attr = Expr.attr

let catalog =
  Netflow.generate
    {
      Netflow.default_config with
      Netflow.n_flows = 400_000;
      n_users = 2_000;
      n_source_ips = 1_000;
      n_dest_ips = 1_000;
    }

let base = Relation.rename "u" (Catalog.find catalog "User")

let detail = Relation.rename "f" (Catalog.find catalog "Flow")

let blocks =
  [
    Gmdj.block
      [
        Aggregate.sum (attr ~rel:"f" "NumBytes") "bytes_out";
        Aggregate.count_star "flows_out";
      ]
      (Expr.eq (attr ~rel:"f" "SourceIP") (attr ~rel:"u" "IPAddress"));
    Gmdj.block
      [ Aggregate.sum (attr ~rel:"f" "NumBytes") "bytes_in" ]
      (Expr.eq (attr ~rel:"f" "DestIP") (attr ~rel:"u" "IPAddress"));
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let () =
  Format.printf "Per-user traffic analysis: %d users x %d flows, 3 aggregates@.@."
    (Relation.cardinality base) (Relation.cardinality detail);

  let t_whole, whole = time (fun () -> Gmdj.eval ~base ~detail blocks) in
  Format.printf "single scan:                    %6.3fs@." t_whole;

  List.iter
    (fun segment_size ->
      let t, seg = time (fun () -> Gmdj.eval_segmented ~segment_size ~base ~detail blocks) in
      assert (Relation.equal_as_multiset whole seg);
      Format.printf "segmented (%4d users/segment): %6.3fs  (%d detail scans)@." segment_size t
        ((Relation.cardinality base + segment_size - 1) / segment_size))
    [ 500; 1000 ];

  Format.printf "@.Distributed warehouse: the same analysis over %d sites@."
    4;
  let cluster = Distributed.Cluster.create ~sites:4 ~partition:(`Hash_on (Some "f", "SourceIP")) detail in
  List.iter
    (fun strategy ->
      let t, report = time (fun () -> Distributed.execute ~strategy cluster ~base blocks) in
      assert (Relation.equal_as_multiset whole report.Distributed.result);
      Format.printf "  %-18s %6.3fs  %9.2f MB shipped (%d messages)@."
        (Distributed.strategy_to_string strategy)
        t
        (float_of_int (Distributed.total_bytes report) /. 1e6)
        report.Distributed.messages)
    [ Distributed.Ship_all; Distributed.Ship_filtered; Distributed.Partial_aggregates ];

  Format.printf "@.Incremental maintenance: a day of new flows arrives@.";
  let view = Gmdj.Maintain.create ~base ~detail blocks in
  let fresh_flows =
    Relation.rename "f"
      (Catalog.find
         (Netflow.generate
            { Netflow.default_config with Netflow.n_flows = 50_000; n_users = 2_000;
              n_source_ips = 1_000; n_dest_ips = 1_000; seed = 99L })
         "Flow")
  in
  let t_delta, () = time (fun () -> Gmdj.Maintain.insert_detail view fresh_flows) in
  let t_recompute, recomputed =
    time (fun () ->
        Gmdj.eval ~base
          ~detail:
            (Ops.union_all detail fresh_flows)
          blocks)
  in
  assert (Relation.equal_as_multiset recomputed (Gmdj.Maintain.result view));
  Format.printf "  delta fold: %.3fs vs full recompute: %.3fs (%.1fx)@." t_delta t_recompute
    (t_recompute /. t_delta);

  Format.printf "@.Cost-based planning for a subquery over the same data:@.";
  let stmt =
    Subql_sql.Parser.parse
      "SELECT u.UserName FROM User u WHERE u.Quota < (SELECT SUM(f.NumBytes) FROM Flow f \
       WHERE f.SourceIP = u.IPAddress)"
  in
  List.iter
    (fun c ->
      Format.printf "  %-18s estimated cost %12.0f@." c.Subql.Planner.label
        c.Subql.Planner.estimate.Subql.Cost.cost)
    (Subql.Planner.candidates catalog stmt.Subql_sql.Parser.query);
  let t_auto, result = time (fun () -> Subql.Planner.run catalog stmt.Subql_sql.Parser.query) in
  Format.printf "  chosen plan evaluated in %.3fs (%d users over quota)@." t_auto
    (Relation.cardinality result)
