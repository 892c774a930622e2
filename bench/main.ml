(* Benchmark driver.

   Usage: main.exe [fig2|fig3|fig4|fig5|fig5-noindex|ablation|micro|obs|mqo|exec|spill|serve|ingest|codec|all]
                   [--full] [--budget F] [--seed N]

   Without --full the table sizes are one tenth of the paper's (the
   shapes are preserved; absolute numbers are hardware-dependent anyway).
   Quadratic-cost engines are skipped when outer*inner exceeds the
   budget, mirroring the measurements the paper reports as hours. *)

let micro () =
  let open Bechamel in
  let catalog =
    Figures.netflow_catalog Figures.default_options ~users:200 ~flows:20_000
  in
  let mk_test name query =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (Subql.Eval.eval catalog
                (Subql.Optimize.optimize (Subql.Transform.to_algebra query)))))
  in
  let first_point fig =
    (List.nth (fig.Figures.points Figures.default_options) 0).Figures.query
  in
  let tests =
    [
      mk_test "fig2-exists" (first_point Figures.fig2);
      mk_test "fig3-agg-cmp" (first_point Figures.fig3);
      mk_test "fig4-all-ne" (first_point Figures.fig4);
      mk_test "fig5-coalesce" Figures.fig5_query;
    ]
  in
  let test = Test.make_grouped ~name:"figures" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw_results = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  Format.printf "@.== micro (bechamel, ns/run via OLS) ==@.@.";
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "%-32s %14.0f ns/run@." name est
          | Some ests ->
            Format.printf "%-32s %s@." name
              (String.concat ", " (List.map (Printf.sprintf "%.0f") ests))
          | None -> Format.printf "%-32s (no estimate)@." name)
        tbl)
    results;
  Format.printf "@."

let () =
  let full = ref false in
  let budget = ref Figures.default_options.Figures.budget in
  let seed = ref 42 in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      full := true;
      parse rest
    | "--budget" :: v :: rest ->
      budget := float_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | target :: rest ->
      targets := target :: !targets;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let options = { Figures.full = !full; budget = !budget; seed = Int64.of_int !seed } in
  let targets = match List.rev !targets with [] -> [ "all" ] | ts -> ts in
  let run_target = function
    | "all" ->
      List.iter (Figures.run_figure options) Figures.figures;
      Figures.ablation options
    | "fig2" -> Figures.run_figure options Figures.fig2
    | "fig3" -> Figures.run_figure options Figures.fig3
    | "fig4" -> Figures.run_figure options Figures.fig4
    | "fig5" -> Figures.run_figure options Figures.fig5
    | "fig5-noindex" -> Figures.run_figure options Figures.fig5_noindex
    | "ablation" -> Figures.ablation options
    | "micro" -> micro ()
    | "obs" -> Figures.obs options
    | "mqo" -> Mqo_bench.run options
    | "exec" -> Exec_bench.run options
    | "spill" -> Spill_bench.run options
    | "serve" -> Serve_bench.run options
    | "ingest" -> Ingest_bench.run options
    | "codec" -> Codec_bench.run options
    | other ->
      Format.eprintf "unknown target %s@." other;
      exit 2
  in
  Format.printf "subql benchmark harness — reproduction of Akinde & Böhlen, ICDE 2003@.";
  Format.printf "scale: %s, quadratic-engine budget: %.0e pairs, seed %d@."
    (if options.Figures.full then "full (paper sizes)" else "default (paper sizes / 10)")
    options.Figures.budget !seed;
  List.iter run_target targets
