(* The spill benchmark: bounded peak memory for a spilling pipeline
   breaker.

   Runs a spilling DISTINCT over the detail at |I| = N and |I| = 10N
   with a resident budget far below the distinct count: the overflow is
   hash-partitioned through temp heap files, so peak resident rows must
   stay flat while the spilled volume tracks the detail.  Both runs
   verify against the in-memory evaluator.

   Writes BENCH_spill.json; scripts/check.sh gates the 10x-detail memory
   bound against the committed baseline. *)

open Subql_relational
module Zoo = Subql_workload.Zoo
module J = Subql_obs.Json

let counter name = Subql_obs.Metrics.counter_value_by_name Subql_obs.Metrics.default name

let run (options : Figures.options) =
  let out = "BENCH_spill.json" in
  let outer = if options.Figures.full then 500 else 64 in
  (* A spilling DISTINCT over the detail's key column.  The key domain is
     fixed, so the answer (and the resident state: the frozen budget plus
     per-partition accumulators) does not grow with the detail — only the
     spilled volume does. *)
  let key_range = 512 in
  let budget = 64 in
  let spill_inner = if options.Figures.full then 100_000 else 20_000 in
  let config = { Subql.Eval.default_config with Subql.Eval.spill_budget_rows = Some budget } in
  let spill_run n =
    let catalog = Zoo.catalog ~outer ~inner:n ~key_range ~seed:options.Figures.seed () in
    let key_col =
      let a = List.hd (Schema.to_list (Relation.schema (Catalog.find catalog "I"))) in
      ((if a.Schema.rel = "" then None else Some a.Schema.rel), a.Schema.name)
    in
    let p =
      Subql.Algebra.Project_cols
        { cols = [ key_col ]; distinct = true; input = Subql.Algebra.Table "I" }
    in
    let rows_before = counter "exec.spilled_rows" in
    let bytes_before = counter "exec.spilled_bytes" in
    let result, report = Subql.Eval.eval_exec ~config catalog p in
    let ok = Relation.equal_as_multiset result (Subql.Eval.eval catalog p) in
    ( report.Subql.Eval.peak_materialized_rows,
      counter "exec.spilled_rows" - rows_before,
      counter "exec.spilled_bytes" - bytes_before,
      ok )
  in
  let peak_1x, spilled_rows_1x, _, ok_1x = spill_run spill_inner in
  let peak_10x, spilled_rows_10x, spilled_bytes_10x, ok_10x = spill_run (10 * spill_inner) in
  let verified = ok_1x && ok_10x in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "spill");
        ("scale", J.Str (if options.Figures.full then "full" else "default"));
        ("outer_rows", J.Int outer);
        ("spill_budget_rows", J.Int budget);
        ("spill_inner_rows", J.Int spill_inner);
        ("peak_rows_1x", J.Int peak_1x);
        ("peak_rows_10x", J.Int peak_10x);
        ("spilled_rows_1x", J.Int spilled_rows_1x);
        ("spilled_rows_10x", J.Int spilled_rows_10x);
        ("spilled_bytes_10x", J.Int spilled_bytes_10x);
        ("verified", J.Bool verified);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      J.to_channel oc doc;
      output_char oc '\n');
  Format.printf "@.== spill: spill-bounded memory ==@.";
  Format.printf "wrote %s@." out;
  Format.printf "spilling DISTINCT (budget %d rows, %d distinct keys):@." budget key_range;
  Format.printf "  |I| = %-8d peak %6d resident rows, %8d rows spilled@." spill_inner
    peak_1x spilled_rows_1x;
  Format.printf "  |I| = %-8d peak %6d resident rows, %8d rows spilled (%d KiB)@."
    (10 * spill_inner) peak_10x spilled_rows_10x
    (spilled_bytes_10x / 1024);
  Format.printf "verified: %b@." verified;
  if not verified then exit 1;
  if spilled_rows_10x = 0 then begin
    Format.printf "FAIL: the 10x-detail run never spilled@.";
    exit 1
  end;
  (* Spilling bounds the breaker's resident footprint — 10x the detail
     may not move the peak. *)
  if peak_10x > peak_1x + (peak_1x / 5) then begin
    Format.printf "FAIL: peak resident rows grew with the detail (%d -> %d)@." peak_1x
      peak_10x;
    exit 1
  end
