(* perfbench: the repository's end-to-end and per-layer benchmark.

   bench.exe --workload paper-cold|zoo-cold|serve-ingest --seed N
             --seconds S --trace 0|1 [--requests N] [--size full|tiny]
             [--out DIR]

   Prints, as the last line of standard output, one JSON object with the
   keys correct, attempted, failed and metrics: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Every run also
   writes one run record (machine, revision, seed, library defaults,
   lib/ line count, every number measured) to DIR, and a traced run
   writes its spans there as Chrome-tracing JSON.

   The benchmark sets no execution option of its own: every layer runs
   under the library defaults. *)

open Common
module J = Subql_obs.Json

(* --- metric catalogue ----------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  better : string;
  moves : (string * string) list;  (** end-to-end metric, workload *)
}

let m ?(moves = []) name unit_ better = { name; unit_; better; moves }

let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "latency_p50_ms" "ms" "lower";
    m "latency_p90_ms" "ms" "lower";
    m "latency_p99_ms" "ms" "lower";
    m "throughput_qps" "1/s" "higher";
    m "capacity_qps" "1/s" "higher";
    m "ingest_rows_per_s" "rows/s" "higher";
    m "ok_ratio" "ratio" "higher";
    m "peak_heap_mb" "MB" "lower";
  ]

let zoo_p50 = ("latency_p50_ms", "zoo-cold")
let paper_qps = ("throughput_qps", "paper-cold")
let zoo_qps = ("throughput_qps", "zoo-cold")
let serve_capacity = ("capacity_qps", "serve-ingest")
let serve_p50 = ("latency_p50_ms", "serve-ingest")
let serve_p99 = ("latency_p99_ms", "serve-ingest")

let per_layer =
  [
    m "sql.parse_ms" "ms" "lower" ~moves:[ zoo_p50 ];
    m "transform.ms" "ms" "lower" ~moves:[ zoo_p50 ];
    m "optimize.ms" "ms" "lower" ~moves:[ zoo_p50 ];
    m "planner.choose_ms" "ms" "lower"
      ~moves:[ paper_qps; ("latency_p50_ms", "paper-cold"); zoo_p50 ];
    m "cost.stats_ms" "ms" "lower" ~moves:[ paper_qps; serve_capacity ];
    m "eval.exec_ms" "ms" "lower" ~moves:[ zoo_qps; ("latency_p90_ms", "zoo-cold"); paper_qps ];
    m "eval.chunks" "count" "lower" ~moves:[ zoo_qps; ("latency_p90_ms", "zoo-cold"); paper_qps ];
    m "eval.peak_rows" "rows" "lower" ~moves:[ zoo_qps; ("latency_p90_ms", "zoo-cold"); paper_qps ];
    m "gmdj.detail_passes" "count" "lower" ~moves:[ paper_qps ];
    m "gmdj.detail_rows" "rows" "lower" ~moves:[ paper_qps ];
    m "gmdj.theta_evals" "count" "lower" ~moves:[ zoo_qps ];
    m "gmdj.early_exit_ratio" "ratio" "higher" ~moves:[ zoo_qps ];
    m "storage.pull_ms" "ms" "lower" ~moves:[ paper_qps ];
    m "storage.page_reads" "count" "lower" ~moves:[ paper_qps ];
    m "storage.hit_ratio" "ratio" "higher" ~moves:[ paper_qps ];
    m "storage.bytes_per_row" "bytes" "lower" ~moves:[ paper_qps ];
    m "server.submit_ms" "ms" "lower" ~moves:[ serve_capacity ];
    m "server.step_ms" "ms" "lower" ~moves:[ serve_capacity ];
    m "server.batch_size" "count" "higher" ~moves:[ serve_p50 ];
    m "server.queue_wait_ms" "ms" "lower" ~moves:[ serve_p50 ];
    m "server.submit_late_ms" "ms" "lower" ~moves:[ serve_p50 ];
    m "mqo.cache_hit_ratio" "ratio" "higher" ~moves:[ serve_capacity; serve_p99 ];
    m "mqo.scans_per_query" "count" "lower" ~moves:[ serve_capacity; serve_p99 ];
    m "mqo.shared_scan_ratio" "ratio" "higher" ~moves:[ serve_capacity; serve_p99 ];
    m "ingest.apply_ms" "ms" "lower" ~moves:[ ("ingest_rows_per_s", "serve-ingest") ];
    m "ingest.delta_ratio" "ratio" "higher" ~moves:[ serve_p99 ];
    m "ingest.invalidated" "count" "lower" ~moves:[ serve_p99 ];
    m "ingest.repaired" "count" "higher" ~moves:[ serve_p99 ];
    m "trace.overhead_p50_ms" "ms" "lower";
    m "trace.capacity_loss_qps" "1/s" "lower";
  ]

(* --- workloads ------------------------------------------------------- *)

type instance = {
  prepare_oracle : unit -> unit;
  measure : Spans.t -> budget -> outcome;
  close : unit -> unit;
}

let workloads = [ "paper-cold"; "zoo-cold"; "serve-ingest" ]

let instantiate workload ~tiny ~seed =
  let cold kind =
    let st = Cold.setup kind ~tiny ~seed in
    {
      prepare_oracle = (fun () -> Cold.prepare_oracle st);
      measure = Cold.measure st;
      close = (fun () -> Cold.close st);
    }
  in
  match workload with
  | "paper-cold" -> cold Cold.Paper
  | "zoo-cold" -> cold Cold.Zoo_templates
  | "serve-ingest" ->
    let st = Serve.setup ~tiny ~seed in
    {
      prepare_oracle = (fun () -> Serve.prepare_oracle st);
      measure = Serve.measure st;
      close = (fun () -> Serve.close st);
    }
  | other -> invalid_arg ("unknown workload " ^ other)

(* --- the run record -------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_rev () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.starts_with ~prefix:"ref: " head then
      String.trim (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
    else head
  with Sys_error _ -> "unknown"

let rec lib_loc dir =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then acc + lib_loc path
      else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then
        acc + List.length (String.split_on_char '\n' (read_file path)) - 1
      else acc)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

let defaults () =
  let ingest =
    Subql_ingest.Ingest.create ~catalog:(Subql_relational.Catalog.create ())
      ~cache:(Subql_mqo.Result_cache.create ()) ()
  in
  let server = Subql_server.Server.default_config in
  J.Obj
    [
      ("eval_domains", J.Int Subql.Eval.default_config.Subql.Eval.domains);
      ("server_batch_window_s", J.Float server.Subql_server.Server.batch_window);
      ("server_batch_max", J.Int server.Subql_server.Server.batch_max);
      ( "admission_queue_cap",
        J.Int server.Subql_server.Server.policy.Subql_server.Admission.queue_cap );
      ( "ingest_policy",
        J.Str (Subql_ingest.Ingest.policy_name (Subql_ingest.Ingest.policy ingest)) );
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_json path doc =
  Out_channel.with_open_bin path (fun oc ->
      J.to_channel oc doc;
      output_char oc '\n')

(* --- main ------------------------------------------------------------ *)

(* The latency percentiles and peak_heap_mb are computed per read window
   and reported as the median over those windows: a burst of machine
   noise, or the few stalls a run happens to catch, then moves them only
   if it covers most windows.  Throughput and capacity are pooled over
   the read windows' summed clocks, and ingest_rows_per_s over all the
   rows and append time of the run: a cold workload's write pass lasts
   only tens of milliseconds, too short to be a figure of its own. *)
let end_to_end_values ~setup_s (o : outcome) =
  let reads = List.filter (fun w -> w.lat <> []) o.windows in
  let median f = percentile (List.map f reads) 50. in
  let p q = median (fun w -> 1000. *. percentile w.lat q) in
  let sum ws f = List.fold_left (fun acc w -> acc +. f w) 0. ws in
  let completed = sum reads (fun w -> float_of_int (List.length w.lat)) in
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", p 50.);
    ("latency_p90_ms", p 90.);
    ("latency_p99_ms", p 99.);
    ("throughput_qps", ratio completed (sum reads (fun w -> w.wall)));
    ("capacity_qps", ratio completed (sum reads (fun w -> w.busy)));
    ( "ingest_rows_per_s",
      ratio (sum o.windows (fun w -> float_of_int w.rows)) (sum o.windows (fun w -> w.ingest_s)) );
    ("ok_ratio", 1. -. ratio_i (failed o) o.attempted);
    ("peak_heap_mb", median (fun w -> mb_of_words w.heap));
  ]

let metrics_json specs values =
  J.Obj
    (List.map
       (fun s ->
         let v = Option.value ~default:0. (List.assoc_opt s.name values) in
         (s.name, J.Obj [ ("value", J.Float v); ("unit", J.Str s.unit_) ]))
       specs)

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper-cold|zoo-cold|serve-ingest --seed N --seconds S \
     --trace 0|1 [--requests N] [--size full|tiny] [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let requests = ref 0 and size = ref "full" and out = ref ".perfbench/results" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
      ("--requests", Arg.Set_int requests, "fixed number of requests instead of --seconds");
      ("--size", Arg.Set_string size, "full (default) or tiny");
      ("--out", Arg.Set_string out, "directory for the run record and spans");
    ]
  in
  Arg.parse spec (fun _ -> usage ()) "bench.exe";
  if (not (List.mem !workload workloads)) || !seconds <= 0. || not (List.mem !trace [ 0; 1 ]) then
    usage ();
  let tiny = !size = "tiny" in
  let traced = !trace = 1 in
  (* Heap files of the workload and of [Ingest] stay inside the checkout,
     in a directory of this process's own. *)
  let tmp =
    Filename.concat (Filename.concat (Filename.dirname !out) "tmp") (string_of_int (Unix.getpid ()))
  in
  mkdir_p tmp;
  mkdir_p !out;
  Filename.set_temp_dir_name tmp;
  let budget share =
    if !requests > 0 then Requests !requests else Seconds (!seconds *. share)
  in
  (* Set-up runs at least nine times and until it has taken a second in
     all; the median is setup_s.  The last instance is measured; a
     traced run also measures the one before it, untraced and for the
     same budget, to report its own overhead.  Older instances are closed
     as soon as they are superseded. *)
  let keep = if traced then 2 else 1 in
  let rec set_up times live =
    if List.length times >= 9 && List.fold_left ( +. ) 0. times >= 1. then (times, live)
    else begin
      Gc.full_major ();
      let inst, dt = timed (fun () -> instantiate !workload ~tiny ~seed:!seed) in
      let live = live @ [ inst ] in
      let live =
        if List.length live > keep then begin
          (List.hd live).close ();
          List.tl live
        end
        else live
      in
      set_up (dt :: times) live
    end
  in
  Gc.full_major ();
  let times, instances = set_up [] [] in
  let setup_s = percentile times 50. in
  Printf.eprintf "perfbench: %s set-up %.3fs (median of %d)\n%!" !workload setup_s
    (List.length times);
  Gc.full_major ();
  let (), oracle_s = timed (fun () -> List.iter (fun inst -> inst.prepare_oracle ()) instances) in
  Printf.eprintf "perfbench: oracle answers in %.3fs (untimed)\n%!" oracle_s;
  let spans = Spans.create ~enabled:traced in
  let untraced_run, main =
    match instances with
    | [ a; b ] -> (Some (a.measure (Spans.create ~enabled:false) (budget 0.5)), b)
    | [ a ] -> (None, a)
    | _ -> assert false
  in
  Gc.full_major ();
  let heap0 = Gc.quick_stat () in
  let o = main.measure spans (budget (if traced then 0.5 else 1.)) in
  let e2e = end_to_end_values ~setup_s o in
  Printf.eprintf "perfbench: %d requests, %d failed\n%!" o.attempted (failed o);
  List.iter (fun inst -> inst.close ()) instances;
  (try Sys.rmdir tmp with Sys_error _ -> ());
  let overhead =
    Option.map
      (fun u ->
        let base = end_to_end_values ~setup_s u in
        List.map (fun (k, v) -> (k, v -. List.assoc k base)) e2e)
      untraced_run
  in
  let layers =
    o.layers
    @
    match overhead with
    | None -> []
    | Some d ->
      [
        ("trace.overhead_p50_ms", List.assoc "latency_p50_ms" d);
        ("trace.capacity_loss_qps", -.List.assoc "capacity_qps" d);
      ]
  in
  (* Both passes of a traced run count towards its verdict. *)
  let total f = f o + Option.fold ~none:0 ~some:f untraced_run in
  let failures = total failed and attempted = total (fun u -> u.attempted) in
  (* The largest major heap sampled in the windows [keep] selects. *)
  let phase_peak keep =
    match List.filter keep o.windows with
    | [] -> J.Null
    | ws -> J.Float (mb_of_words (List.fold_left (fun acc w -> max acc w.heap) 0 ws))
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  let record =
    J.Obj
      [
        ("target", J.Str !workload);
        ( "machine",
          J.Obj
            [
              ("cores", J.Int (Domain.recommended_domain_count ()));
              ("ocaml", J.Str Sys.ocaml_version);
              ("word_size", J.Int Sys.word_size);
              ("os", J.Str Sys.os_type);
            ] );
        ("git_rev", J.Str (git_rev ()));
        ("seed", J.Int !seed);
        ("seconds", J.Float !seconds);
        ("size", J.Str !size);
        ("setup_s_each", J.List (List.rev_map (fun t -> J.Float t) times));
        ("trace", J.Int !trace);
        ("defaults", defaults ());
        ("lib_loc", J.Int (lib_loc "lib"));
        ("verified", J.Bool (failures = 0));
        ("attempted", J.Int attempted);
        ( "failures",
          J.Obj
            [
              ("wrong", J.Int (total (fun u -> u.wrong)));
              ("refused", J.Int (total (fun u -> u.refused)));
              ("crashed", J.Int (total (fun u -> u.crashed)));
            ] );
        ("failed_ratio", J.Float (ratio_i failures attempted));
        ("inputs", J.Str o.inputs);
        ( "heap_mb",
          J.Obj
            [
              ("before_phase", J.Float (mb_of_words heap0.Gc.heap_words));
              ("top_before_phase", J.Float (mb_of_words heap0.Gc.top_heap_words));
              ("top_at_end", J.Float (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words));
              (* Windows with requests, and the cold workloads' write windows. *)
              ("phase_peak_reads", phase_peak (fun w -> w.lat <> []));
              ("phase_peak_writes", phase_peak (fun w -> w.lat = []));
            ] );
        ( "notes",
          J.List
            (if !workload = "serve-ingest" then
               [
                 J.Str
                   "throughput_qps is completed requests per virtual second: the offered \
                    arrival rate unless requests are refused or the server falls behind. \
                    capacity_qps is the server's own figure.";
               ]
             else []) );
        ( "windows",
          J.List
            (List.rev_map
               (fun w ->
                 J.Obj
                   [
                     ("requests", J.Int (List.length w.lat));
                     ("wall_s", J.Float w.wall);
                     ("busy_s", J.Float w.busy);
                     ("p50_ms", J.Float (1000. *. percentile w.lat 50.));
                     ("p90_ms", J.Float (1000. *. percentile w.lat 90.));
                     ("p99_ms", J.Float (1000. *. percentile w.lat 99.));
                     ("rows", J.Int w.rows);
                     ("ingest_s", J.Float w.ingest_s);
                     ("heap_peak_mb", J.Float (mb_of_words w.heap));
                   ])
               o.windows) );
        ("end_to_end", metrics_json end_to_end e2e);
        ( "per_layer",
          if not traced then J.Null
          else
            J.Obj
              (List.map
                 (fun s ->
                   ( s.name,
                     J.Obj
                       [
                         ( "value",
                           J.Float (Option.value ~default:0. (List.assoc_opt s.name layers)) );
                         ("unit", J.Str s.unit_);
                         ("better", J.Str s.better);
                         ( "moves",
                           J.List
                             (List.map
                                (fun (metric, w) ->
                                  J.Obj [ ("metric", J.Str metric); ("workload", J.Str w) ])
                                s.moves) );
                       ] ))
                 per_layer) );
        ( "trace_overhead",
          match overhead with
          | None -> J.Null
          | Some d -> J.Obj (List.map (fun (k, v) -> (k, J.Float v)) d) );
        ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) o.counts));
      ]
  in
  write_json (Filename.concat !out (tag ^ ".json")) record;
  if traced then write_json (Filename.concat !out (tag ^ ".spans.json")) (Spans.to_json spans);
  let result =
    J.Obj
      [
        ("correct", J.Bool (failures = 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failures);
        ("metrics", if traced then metrics_json per_layer layers else metrics_json end_to_end e2e);
      ]
  in
  print_endline (J.to_string result)
