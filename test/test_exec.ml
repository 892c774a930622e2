(* Tests for the streaming chunk executor.

   The four public entry points ([eval], [eval_exec], [eval_analyzed],
   [eval_traced]) are thin wrappers over one skeleton — so they must
   agree on every zoo query, under both physical configurations, whether
   tables arrive as catalog relations or as anonymous chunk streams.  A
   heap-file-backed run must additionally stay within a peak that does
   not track the detail cardinality, and [eval_with_overrides] must
   reject overrides whose schema contradicts the node (EVL001). *)

open Subql_relational
module Zoo = Subql_workload.Zoo

let plan q = Subql.Optimize.optimize (Subql.Transform.to_algebra q)

(* Tables as small anonymous chunk streams: [Chunk.Source.map] drops the
   whole-relation origin, forcing every operator down its genuinely
   chunked path instead of the zero-copy shortcut. *)
let chunked_sources catalog table =
  Catalog.find_opt catalog table
  |> Option.map (fun rel ->
         Chunk.Source.map Fun.id (Chunk.Source.of_relation ~chunk_rows:5 rel))

let test_entry_points_agree () =
  let catalog = Zoo.catalog () in
  List.iter
    (fun (name, q) ->
      let p = plan q in
      let reference = Subql.Eval.eval catalog p in
      Helpers.check_multiset_equal (name ^ ": eager analyzed driver") reference
        (fst (Subql.Eval.eval_analyzed catalog p));
      Helpers.check_multiset_equal (name ^ ": traced driver") reference
        (fst (Subql.Eval.eval_traced catalog p));
      Helpers.check_multiset_equal (name ^ ": chunked sources") reference
        (fst (Subql.Eval.eval_exec ~sources:(chunked_sources catalog) catalog p));
      Helpers.check_multiset_equal (name ^ ": unindexed config") reference
        (Subql.Eval.eval ~config:Subql.Eval.unindexed_config catalog p);
      Helpers.check_multiset_equal (name ^ ": unindexed chunked") reference
        (fst
           (Subql.Eval.eval_exec ~config:Subql.Eval.unindexed_config
              ~sources:(chunked_sources catalog) catalog p)))
    Zoo.queries

(* Stream the detail table I off a heap file through a 4-frame pool: the
   same-detail templates must produce the in-memory result while the
   executor's peak stays far below the detail cardinality. *)
let test_heap_streaming_bounded () =
  let inner = 4000 in
  let catalog = Zoo.catalog ~outer:32 ~inner () in
  let path = Filename.temp_file "subql_exec_test" ".heap" in
  let hf = Subql_storage.Heap_file.write ~path (Catalog.find catalog "I") in
  Fun.protect
    ~finally:(fun () ->
      Subql_storage.Heap_file.close hf;
      Sys.remove path)
    (fun () ->
      let pool = Subql_storage.Buffer_pool.create ~frames:4 in
      List.iter
        (fun name ->
          let p = plan (Zoo.find_query name) in
          let sources table =
            if table = "I" then Some (Subql_storage.Heap_file.source hf ~pool) else None
          in
          let streamed, report = Subql.Eval.eval_exec ~sources catalog p in
          Helpers.check_multiset_equal (name ^ ": heap-streamed result")
            (Subql.Eval.eval catalog p) streamed;
          Alcotest.(check bool)
            (name ^ ": peak below detail cardinality")
            true
            (report.Subql.Eval.peak_materialized_rows < inner / 2);
          Alcotest.(check bool) (name ^ ": chunks counted") true (report.Subql.Eval.chunks > 0))
        Zoo.same_detail_templates)

(* Override validation: a well-typed override splices in transparently;
   one whose schema contradicts the node's inferred schema is rejected
   with a structured EVL001 diagnostic, not a downstream crash. *)
let test_override_schema_validation () =
  let catalog = Zoo.catalog ~outer:16 ~inner:64 () in
  let p = plan (Zoo.find_query "exists") in
  let good = function
    | Subql.Algebra.Table "O" -> Some (Catalog.find catalog "O")
    | _ -> None
  in
  Helpers.check_multiset_equal "well-typed override accepted" (Subql.Eval.eval catalog p)
    (Subql.Eval.eval_with_overrides ~override:good catalog p);
  let bad = function
    | Subql.Algebra.Table "O" -> Some (Catalog.find catalog "I")
    | _ -> None
  in
  match Subql.Eval.eval_with_overrides ~override:bad catalog p with
  | _ -> Alcotest.fail "wrong-schema override must be rejected"
  | exception Diag.Fail d -> Alcotest.(check string) "diagnostic code" "EVL001" d.Diag.code

(* --- Spill-to-disk pipeline breakers ----------------------------------- *)

let spill_config budget =
  { Subql.Eval.default_config with Subql.Eval.spill_budget_rows = Some budget }

let temp_spill_files () =
  Sys.readdir (Filename.get_temp_dir_name ())
  |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"subql_spill" f)
  |> List.sort String.compare

(* Forcing breaker state through temp heap files — down to a 1-row
   resident budget — must not change any answer, must actually spill on
   the join-bearing plans, and must leave no temp file behind. *)
let test_spill_agrees_and_cleans_up () =
  let catalog = Zoo.catalog ~outer:24 ~inner:400 () in
  let files_before = temp_spill_files () in
  let spills () =
    Subql_obs.Metrics.counter_value_by_name Subql_obs.Metrics.default "exec.spills"
  in
  let spilled_before = spills () in
  List.iter
    (fun (name, q) ->
      (* The GMDJ translation never spills (its state is |B|-bounded);
         the unnest plans carry the joins the spill path exists for. *)
      let plans =
        (Printf.sprintf "%s/gmdj" name, plan q)
        :: (match Subql_unnest.Unnest.best catalog q with
           | p -> [ (Printf.sprintf "%s/unnest" name, p) ]
           | exception _ -> [])
      in
      List.iter
        (fun (label, p) ->
          let reference = Subql.Eval.eval catalog p in
          List.iter
            (fun budget ->
              Helpers.check_multiset_equal
                (Printf.sprintf "%s: spill budget %d" label budget)
                reference
                (Subql.Eval.eval ~config:(spill_config budget) catalog p))
            [ 1; 7; 64 ])
        plans)
    Zoo.queries;
  Alcotest.(check bool) "tiny budgets actually spilled" true (spills () > spilled_before);
  Alcotest.(check (list string)) "no temp heap file left behind" files_before
    (temp_spill_files ())

let () =
  Alcotest.run "exec"
    [
      ( "streaming",
        [
          Alcotest.test_case "entry points agree over the zoo" `Quick test_entry_points_agree;
          Alcotest.test_case "heap-file detail stays bounded" `Quick
            test_heap_streaming_bounded;
        ] );
      ( "overrides",
        [
          Alcotest.test_case "schema validation (EVL001)" `Quick
            test_override_schema_validation;
        ] );
      ( "spill",
        [
          Alcotest.test_case "spill agrees and cleans up temp files" `Quick
            test_spill_agrees_and_cleans_up;
        ] );
    ]
