(* GMDJ operator tests: Definition 2.1, Figure 1, strategies, completion. *)

open Subql_relational
open Subql_gmdj

let attr = Expr.attr

(* The two blocks of Example 2.1. *)
let example_blocks =
  let in_hour =
    Expr.and_
      (Expr.ge (attr ~rel:"F" "StartTime") (attr ~rel:"H" "StartInterval"))
      (Expr.lt (attr ~rel:"F" "StartTime") (attr ~rel:"H" "EndInterval"))
  in
  [
    Gmdj.block
      [ Aggregate.sum (attr ~rel:"F" "NumBytes") "sum1" ]
      (Expr.and_ in_hour (Expr.eq (attr ~rel:"F" "Protocol") (Expr.str "HTTP")));
    Gmdj.block [ Aggregate.sum (attr ~rel:"F" "NumBytes") "sum2" ] in_hour;
  ]

let base = Relation.rename "H" Helpers.hours

let detail = Relation.rename "F" Helpers.flow

let expected_fig1 =
  (* HourDsc, StartInterval, EndInterval, sum1, sum2 — the unreduced
     sums of Figure 1: 12/12, 36/84, 48/96. *)
  Helpers.rel
    (Schema.concat
       (Schema.rename_rel "H" Helpers.hours_schema)
       (Helpers.schema [ ("", "sum1", Value.Tint); ("", "sum2", Value.Tint) ]))
    Value.
      [
        [ Int 1; Int 0; Int 60; Int 12; Int 12 ];
        [ Int 2; Int 61; Int 120; Int 36; Int 84 ];
        [ Int 3; Int 121; Int 180; Int 48; Int 96 ];
      ]

let test_fig1 strategy () =
  let result = Gmdj.eval ~strategy ~base ~detail example_blocks in
  Helpers.check_multiset_equal "figure 1" expected_fig1 result

let test_output_schema () =
  let s = Gmdj.output_schema ~base:(Relation.schema base) ~detail:(Relation.schema detail) example_blocks in
  Alcotest.(check int) "arity" 5 (Schema.arity s);
  Alcotest.(check string) "sum1" "sum1" (Schema.attr_at s 3).Schema.name;
  Alcotest.(check string) "sum2" "sum2" (Schema.attr_at s 4).Schema.name

let test_duplicate_agg_names_renamed () =
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt" ] (Expr.bool true);
      Gmdj.block [ Aggregate.count_star "cnt" ] (Expr.bool true);
    ]
  in
  let s = Gmdj.output_schema ~base:(Relation.schema base) ~detail:(Relation.schema detail) blocks in
  let names = List.map (fun a -> a.Schema.name) (Schema.to_list s) in
  Alcotest.(check bool) "names distinct"
    true
    (List.length (List.sort_uniq String.compare names) = List.length names)

let test_empty_detail () =
  let empty = Relation.empty (Relation.schema detail) in
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"F" "NumBytes") "s" ]
        (Expr.bool true);
    ]
  in
  let result = Gmdj.eval ~base ~detail:empty blocks in
  Alcotest.(check int) "rows preserved" 3 (Relation.cardinality result);
  Relation.iter
    (fun row ->
      Alcotest.(check bool) "count is 0" true (Value.equal row.(3) (Value.Int 0));
      Alcotest.(check bool) "sum is NULL" true (Value.is_null row.(4)))
    result

let test_empty_base () =
  let empty = Relation.empty (Relation.schema base) in
  let result = Gmdj.eval ~base:empty ~detail example_blocks in
  Alcotest.(check int) "no rows" 0 (Relation.cardinality result)

(* Random-equivalence: Scan and Hash agree with the Reference evaluator
   on random data over a θ mixing an equi-condition and a residual. *)

let equivalence_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let theta_equi =
    Expr.and_
      (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"))
      (Expr.le (attr ~rel:"B" "x") (attr ~rel:"R" "y"))
  in
  let theta_non_equi = Expr.ne (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let blocks =
    [
      Gmdj.block
        [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"R" "y") "s" ]
        theta_equi;
      Gmdj.block
        [
          Aggregate.min_ (attr ~rel:"R" "y") "mn";
          Aggregate.max_ (attr ~rel:"R" "y") "mx";
          Aggregate.avg (attr ~rel:"R" "y") "av";
          Aggregate.count (attr ~rel:"R" "y") "cy";
        ]
        theta_non_equi;
    ]
  in
  let reference = Gmdj.eval ~strategy:`Reference ~base ~detail blocks in
  let scan = Gmdj.eval ~strategy:`Scan ~base ~detail blocks in
  let hash = Gmdj.eval ~strategy:`Hash ~base ~detail blocks in
  Relation.equal_as_multiset reference scan && Relation.equal_as_multiset reference hash

let pair_gen =
  QCheck2.Gen.pair
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 12)
       (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls))
  @@ QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 20)
       (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls)

(* Completion equivalence: σ[cnt1 > 0 ∧ cnt2 = 0](MD(...)) computed via
   eval_completed must equal the straightforward eval-then-filter. *)
let completion_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let theta1 = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let theta2 = Expr.lt (attr ~rel:"B" "x") (attr ~rel:"R" "y") in
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt1" ] theta1;
      Gmdj.block [ Aggregate.count_star "cnt2" ] theta2;
    ]
  in
  let plain = Gmdj.eval ~base ~detail blocks in
  let filtered =
    Ops.select
      (Expr.and_
         (Expr.gt (attr "cnt1") (Expr.int 0))
         (Expr.eq (attr "cnt2") (Expr.int 0)))
      plain
  in
  let completion =
    { Gmdj.kill_when = [ theta2 ]; require_fired = [ theta1 ]; maintain_aggregates = true }
  in
  let completed = Gmdj.eval_completed ~completion ~base ~detail blocks in
  Relation.equal_as_multiset filtered completed

(* With maintain_aggregates = false only the base columns are trustworthy;
   compare after projecting the aggregates away. *)
let completion_no_aggs_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let theta1 = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let theta2 = Expr.lt (attr ~rel:"B" "x") (attr ~rel:"R" "y") in
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt1" ] theta1;
      Gmdj.block [ Aggregate.count_star "cnt2" ] theta2;
    ]
  in
  let base_cols = [ (Some "B", "k"); (Some "B", "x") ] in
  let plain = Gmdj.eval ~base ~detail blocks in
  let filtered =
    Ops.project_cols base_cols
      (Ops.select
         (Expr.and_
            (Expr.gt (attr "cnt1") (Expr.int 0))
            (Expr.eq (attr "cnt2") (Expr.int 0)))
         plain)
  in
  let completion =
    { Gmdj.kill_when = [ theta2 ]; require_fired = [ theta1 ]; maintain_aggregates = false }
  in
  let completed =
    Ops.project_cols base_cols (Gmdj.eval_completed ~completion ~base ~detail blocks)
  in
  Relation.equal_as_multiset filtered completed

(* Segmented evaluation must match single-segment evaluation exactly,
   for any segment size, and cost exactly ⌈|B|/size⌉ detail scans. *)
let segmented_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let blocks =
    [
      Gmdj.block
        [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"R" "y") "s" ]
        (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"));
    ]
  in
  let whole = Gmdj.eval ~base ~detail blocks in
  List.for_all
    (fun size ->
      Relation.equal_as_multiset whole
        (Gmdj.eval_segmented ~segment_size:size ~base ~detail blocks))
    [ 1; 3; 7; max 1 (Relation.cardinality base); Relation.cardinality base + 5 ]

let test_segmented_scan_count () =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ])
      (List.init 10 (fun i -> [| Value.Int i |]))
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint ])
      (List.init 100 (fun i -> [| Value.Int (i mod 10) |]))
  in
  let blocks =
    [ Gmdj.block [ Aggregate.count_star "cnt" ] (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k")) ]
  in
  let stats = Gmdj.fresh_stats () in
  ignore (Gmdj.eval_segmented ~stats ~segment_size:3 ~base ~detail blocks);
  (* ⌈10/3⌉ = 4 detail scans of 100 rows each. *)
  Alcotest.(check int) "4 scans" 400 stats.Gmdj.detail_scanned;
  (match Gmdj.eval_segmented ~segment_size:0 ~base ~detail blocks with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "segment_size 0 must be rejected")

(* Incremental maintenance: inserting then deleting a delta returns the
   view to the state of recomputation at each step. *)
let maintenance_prop (brows, drows) =
  let split = List.length drows / 2 in
  let d1 = List.filteri (fun i _ -> i < split) drows in
  let d2 = List.filteri (fun i _ -> i >= split) drows in
  let mk_detail rows =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list rows)
  in
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let blocks =
    [
      Gmdj.block
        [
          Aggregate.count_star "cnt";
          Aggregate.sum (attr ~rel:"R" "y") "s";
          Aggregate.avg (attr ~rel:"R" "y") "av";
          Aggregate.count (attr ~rel:"R" "y") "cy";
        ]
        (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"));
    ]
  in
  let view = Gmdj.Maintain.create ~base ~detail:(mk_detail d1) blocks in
  let ok1 =
    Relation.equal_as_multiset (Gmdj.eval ~base ~detail:(mk_detail d1) blocks)
      (Gmdj.Maintain.result view)
  in
  Gmdj.Maintain.insert_detail view (mk_detail d2);
  let ok2 =
    Relation.equal_as_multiset
      (Gmdj.eval ~base ~detail:(mk_detail (d1 @ d2)) blocks)
      (Gmdj.Maintain.result view)
  in
  Gmdj.Maintain.delete_detail view (mk_detail d2);
  let ok3 =
    Relation.equal_as_multiset (Gmdj.eval ~base ~detail:(mk_detail d1) blocks)
      (Gmdj.Maintain.result view)
  in
  Gmdj.Maintain.delete_detail view (mk_detail d1);
  let ok4 =
    Relation.equal_as_multiset
      (Gmdj.eval ~base ~detail:(mk_detail []) blocks)
      (Gmdj.Maintain.result view)
  in
  ok1 && ok2 && ok3 && ok4

let test_maintain_minmax_rules () =
  let base =
    Relation.of_list (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ]) [ [| Value.Int 1 |] ]
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint ])
      [ [| Value.Int 1 |]; [| Value.Int 2 |] ]
  in
  let theta = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let blocks = [ Gmdj.block [ Aggregate.max_ (attr ~rel:"R" "k") "m" ] theta ] in
  let view = Gmdj.Maintain.create ~base ~detail blocks in
  (* Insertions are fine for MIN/MAX... *)
  Gmdj.Maintain.insert_detail view detail;
  (* ...but deletions must be rejected. *)
  (match Gmdj.Maintain.delete_detail view detail with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "MIN/MAX deletion must be rejected");
  (* And a schema mismatch is caught. *)
  let wrong =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "z" Value.Tint ])
      []
  in
  match Gmdj.Maintain.insert_detail view wrong with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "schema mismatch must be rejected"

let test_early_exit () =
  (* All base tuples get killed by the very first detail rows: the scan
     must stop early. *)
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ])
      [ [| Value.Int 1 |]; [| Value.Int 2 |] ]
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint ])
      (List.init 1000 (fun i -> [| Value.Int (1 + (i mod 2)) |]))
  in
  let theta = Expr.eq (Expr.attr ~rel:"B" "k") (Expr.attr ~rel:"R" "k") in
  let blocks = [ Gmdj.block [ Aggregate.count_star "cnt" ] theta ] in
  let stats = Gmdj.fresh_stats () in
  let completion =
    { Gmdj.kill_when = [ theta ]; require_fired = []; maintain_aggregates = false }
  in
  let result = Gmdj.eval_completed ~stats ~completion ~base ~detail blocks in
  Alcotest.(check int) "all killed" 0 (Relation.cardinality result);
  Alcotest.(check bool) "early exit" true stats.Gmdj.early_exit;
  Alcotest.(check bool) "scan shortened" true (stats.Gmdj.detail_scanned < 1000)

(* --- Distributed evaluation -------------------------------------------- *)

let dist_blocks =
  [
    Gmdj.block
      [
        Aggregate.count_star "cnt";
        Aggregate.sum (attr ~rel:"R" "y") "s";
        Aggregate.avg (attr ~rel:"R" "y") "av";
        Aggregate.min_ (attr ~rel:"R" "y") "mn";
        Aggregate.max_ (attr ~rel:"R" "y") "mx";
      ]
      (Expr.and_
         (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"))
         (Expr.gt (attr ~rel:"R" "y") (Expr.int 0)));
  ]

let distributed_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let expected = Gmdj.eval ~base ~detail dist_blocks in
  List.for_all
    (fun sites ->
      List.for_all
        (fun partition ->
          let cluster = Distributed.Cluster.create ~sites ~partition detail in
          List.for_all
            (fun strategy ->
              let report = Distributed.execute ~strategy cluster ~base dist_blocks in
              Relation.equal_as_multiset expected report.Distributed.result)
            [ Distributed.Ship_all; Distributed.Ship_filtered; Distributed.Partial_aggregates ])
        [ `Round_robin; `Hash_on (Some "R", "k") ])
    [ 1; 3; 5 ]

let test_distributed_traffic () =
  (* Large detail, small base: partial aggregation must ship far less
     than raw rows; the filtered strategy sits in between. *)
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ])
      (List.init 10 (fun i -> [| Value.Int i |]))
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.init 5000 (fun i -> [| Value.Int (i mod 10); Value.Int ((i mod 7) - 3) |]))
  in
  let cluster = Distributed.Cluster.create ~sites:4 detail in
  Alcotest.(check int) "partition covers detail" 5000
    (Array.fold_left ( + ) 0 (Distributed.Cluster.site_rows cluster));
  let run strategy = Distributed.execute ~strategy cluster ~base dist_blocks in
  let ship_all = run Distributed.Ship_all in
  let filtered = run Distributed.Ship_filtered in
  let partial = run Distributed.Partial_aggregates in
  Alcotest.(check bool) "filtered ships less" true
    (Distributed.total_bytes filtered < Distributed.total_bytes ship_all);
  Alcotest.(check bool) "partial aggregation ships least" true
    (Distributed.total_bytes partial < Distributed.total_bytes filtered);
  Alcotest.(check int) "broadcast only for partials" 0 ship_all.Distributed.bytes_broadcast;
  Alcotest.(check int) "two rounds of messages" 8 partial.Distributed.messages;
  (match Distributed.Cluster.create ~sites:0 detail with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sites 0 rejected")

(* --- Grouping sets / ROLLUP / CUBE ------------------------------------ *)

let olap_detail rows =
  Relation.of_list
    (Schema.of_list
       [
         Schema.attr ~rel:"t" "a" Value.Tint;
         Schema.attr ~rel:"t" "b" Value.Tint;
         Schema.attr ~rel:"t" "v" Value.Tint;
       ])
    (List.map Array.of_list rows)

let olap_gen =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25)
    (QCheck2.Gen.list_repeat 3 Helpers.Gen.value_with_nulls)

let olap_aggs = [ Aggregate.count_star "n"; Aggregate.sum (attr ~rel:"t" "v") "s" ]

let olap_keys = [ (Some "t", "a"); (Some "t", "b") ]

let cube_routes_agree rows =
  let detail = olap_detail rows in
  let a = Olap.cube ~via:`Group_by ~keys:olap_keys ~aggs:olap_aggs detail in
  let b = Olap.cube ~via:`Gmdj ~keys:olap_keys ~aggs:olap_aggs detail in
  Relation.equal_as_multiset a b

let rollup_routes_agree rows =
  let detail = olap_detail rows in
  Relation.equal_as_multiset
    (Olap.rollup ~via:`Group_by ~keys:olap_keys ~aggs:olap_aggs detail)
    (Olap.rollup ~via:`Gmdj ~keys:olap_keys ~aggs:olap_aggs detail)

let test_cube_pinned () =
  let detail =
    olap_detail
      Value.
        [
          [ Int 1; Int 10; Int 100 ];
          [ Int 1; Int 20; Int 1 ];
          [ Int 2; Int 10; Int 10 ];
        ]
  in
  let cube = Olap.cube ~keys:olap_keys ~aggs:olap_aggs detail in
  (* sets: {a,b} -> 3 cells, {a} -> 2, {b} -> 2, {} -> 1. *)
  Alcotest.(check int) "8 cells" 8 (Relation.cardinality cube);
  let grand_total =
    Relation.fold
      (fun acc row ->
        if Value.is_null row.(1) && Value.is_null row.(2) then Some row else acc)
      None cube
  in
  (match grand_total with
  | Some row ->
    Alcotest.(check bool) "count 3" true (Value.equal row.(3) (Value.Int 3));
    Alcotest.(check bool) "sum 111" true (Value.equal row.(4) (Value.Int 111))
  | None -> Alcotest.fail "missing grand-total cell");
  (* The GMDJ route fills the whole cube in one detail scan. *)
  Alcotest.(check int) "rollup has n+1 sets" (2 + 1)
    (Relation.cardinality
       (Ops.project_cols ~distinct:true
          [ (None, "gset") ]
          (Olap.rollup ~keys:olap_keys ~aggs:olap_aggs detail)))

let test_grouping_sets_errors () =
  let detail = olap_detail [] in
  (match Olap.grouping_sets ~sets:[] ~aggs:olap_aggs detail with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty set list rejected");
  match
    Olap.cube
      ~keys:(List.init 13 (fun i -> (None, "c" ^ string_of_int i)))
      ~aggs:olap_aggs detail
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too-wide cube rejected"

let () =
  Alcotest.run "gmdj"
    [
      ( "figure-1",
        [
          Alcotest.test_case "reference" `Quick (test_fig1 `Reference);
          Alcotest.test_case "scan" `Quick (test_fig1 `Scan);
          Alcotest.test_case "hash" `Quick (test_fig1 `Hash);
        ] );
      ( "schema",
        [
          Alcotest.test_case "output schema" `Quick test_output_schema;
          Alcotest.test_case "duplicate names renamed" `Quick test_duplicate_agg_names_renamed;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty detail" `Quick test_empty_detail;
          Alcotest.test_case "empty base" `Quick test_empty_base;
          Alcotest.test_case "completion early exit" `Quick test_early_exit;
        ] );
      ( "properties",
        [
          Helpers.qtest "strategies agree with the definition" pair_gen equivalence_prop;
          Helpers.qtest "completion = eval-then-filter" pair_gen completion_prop;
          Helpers.qtest "aggregate-free completion" pair_gen completion_no_aggs_prop;
          Helpers.qtest "segmented = whole" pair_gen segmented_prop;
          Helpers.qtest ~count:120 "maintenance = recompute" pair_gen maintenance_prop;
        ] );
      ( "maintenance",
        [ Alcotest.test_case "min/max and schema rules" `Quick test_maintain_minmax_rules ] );
      ( "distributed",
        [
          Helpers.qtest ~count:60 "strategies = local evaluation" pair_gen distributed_prop;
          Alcotest.test_case "traffic accounting" `Quick test_distributed_traffic;
        ] );
      ( "olap",
        [
          Helpers.qtest ~count:100 "cube: group-by route = gmdj route" olap_gen
            cube_routes_agree;
          Helpers.qtest ~count:100 "rollup: routes agree" olap_gen rollup_routes_agree;
          Alcotest.test_case "pinned cube" `Quick test_cube_pinned;
          Alcotest.test_case "argument validation" `Quick test_grouping_sets_errors;
        ] );
      ( "segmented",
        [ Alcotest.test_case "scan count and bounds" `Quick test_segmented_scan_count ] );
    ]
