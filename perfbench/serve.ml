(* The serve-ingest workload: one long-lived [Server] with its default
   result cache, [Ingest] registered on the same-detail templates, and an
   open-loop arrival trace with 1% appends to I overlaid.

   The driver here is the benchmark's own virtual-time loop rather than
   [Driver.replay_mixed], so that every call into the server is charged:
   [Server.submit], [Server.step] and [Server.ingest] each advance
   busy-until by their measured wall time.  An arrival that comes while
   the loop is busy is submitted when it frees, and that wait is reported
   as [server.submit_late_ms].  Latency runs from the scheduled arrival
   to completion, and the whole run is one measurement window.

   A run covers a fixed stretch of the trace, not a stretch of wall
   time, so that every run of one length sees the same arrivals, the
   same appends and the same final I, however fast the server is. *)

open Subql_relational
open Common
module Server = Subql_server.Server
module Batch = Subql_mqo.Batch
module Ingest = Subql_ingest.Ingest
module Traffic = Subql_workload.Traffic
module Zoo = Subql_workload.Zoo
module Rng = Subql_workload.Rng

type sizes = {
  outer : int;
  inner : int;
  rate : float;  (** arrivals per virtual second *)
  every : float;  (** virtual seconds between appends *)
  span : float;  (** virtual seconds of trace per second of --seconds *)
}

(* A 30-second run covers the first 300 virtual seconds of the trace:
   about 60 000 requests and 149 appends of 10 rows, so I grows from
   1024 to 2514 rows over the run.  The latency tail is set by the
   θ-bound templates' cache misses after each append.  On a 2-core x86-64
   box the server is busy for about 10% of the virtual time, so the run
   takes about 30 wall seconds; it stays far from saturation, and the
   requests queued behind those misses stay well under a tenth of all,
   so p90 measures batching and p99 the misses. *)
let full = { outer = 64; inner = 1024; rate = 200.; every = 2.; span = 10. }

let tiny_sizes = { outer = 16; inner = 512; rate = 20.; every = 0.5; span = 10. }

let skew = 0.85

type state = {
  catalog : Catalog.t;
  server : Server.t;
  ingest : Ingest.t;
  trace : Traffic.mixed list;  (** 600 virtual seconds; a run takes a prefix *)
  append_seed : int64;
  append_rows : int;
  sizes : sizes;
  mutable expected : (string * Relation.t) list;  (** per template, before any append *)
}

let templates = List.map fst Zoo.queries

(* As in the cold workloads the tables are fixed and the seed draws the
   traffic: arrival times, templates and appended rows. *)
let setup ~tiny ~seed =
  let sizes = if tiny then tiny_sizes else full in
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let catalog = Zoo.catalog ~outer:sizes.outer ~inner:sizes.inner () in
  let server = Server.create catalog in
  let ingest = Ingest.create ~catalog ~cache:(Server.cache server) () in
  List.iter
    (fun t -> ignore (Ingest.register_query ingest (Zoo.find_query t)))
    Zoo.same_detail_templates;
  Server.set_before_batch server (Some (fun ~now -> Ingest.before_batch ingest ~now));
  ignore (Ingest.append ingest ~table:"I" [||]);
  (* Warm-up: every template once, so the run measures a warm server. *)
  List.iteri
    (fun i t -> ignore (Server.submit server ~now:(float_of_int i) ~label:t (Zoo.find_query t)))
    templates;
  ignore (Server.drain server ~now:(float_of_int (List.length templates)));
  let count = int_of_float (sizes.rate *. 600.) in
  let arrivals = Traffic.open_loop ~seed:(Rng.next rng) ~rate:sizes.rate ~count ~skew () in
  let append_rows = max 1 (sizes.inner / 100) in
  {
    catalog;
    server;
    ingest;
    trace = Traffic.with_ingest ~rows:append_rows ~every:sizes.every arrivals;
    append_seed = Rng.next rng;
    append_rows;
    sizes;
    expected = [];
  }

let close st = Ingest.close st.ingest

let solo catalog t = oracle ~gmdj:(List.mem t naive_too_slow) catalog (Zoo.find_query t)

(* Untimed: every template answered by the second path on the catalog
   as set up. *)
let prepare_oracle st = st.expected <- List.map (fun t -> (t, solo st.catalog t)) templates

let counters =
  [
    "mqo.cache.invalidated";
    "mqo.cache.repaired";
    "ingest.maintain.delta";
    "ingest.maintain.recompute";
    "gmdj.detail_passes";
    "gmdj.detail_rows_scanned";
  ]

let measure st spans budget =
  let traced = Spans.enabled spans in
  let counts0 = List.map counter counters in
  let busy = ref 0. in
  (* Per ticket: scheduled arrival, template, appends applied before it. *)
  let pending : (int, float * string * int) Hashtbl.t = Hashtbl.create 1024 in
  let appends = ref 0 in
  let offered = ref 0 and refused = ref 0 and crashed = ref 0 in
  let late = ref [] and waits = ref [] in
  (* One window for the whole run: the tail comes from the misses after
     appends, and only the whole run holds enough of them. *)
  let w = window () and inputs = Buffer.create 4096 in
  let submit_s = ref [] and step_s = ref [] and apply_s = ref [] and batch_sizes = ref [] in
  let hits = ref 0 and misses = ref 0 and scans = ref 0 and served = ref 0 in
  let grouped = ref 0 and evaluated = ref 0 in
  (* Answers given since the latest append, checked at the end against
     the final catalog. *)
  let latest = ref (0, []) in
  let wrong = ref 0 in
  let absorb (b : Server.batch_result) =
    sample_heap w;
    let r = b.Server.report in
    batch_sizes := float_of_int (List.length b.Server.completions) :: !batch_sizes;
    hits := !hits + r.Batch.cache_hits;
    misses := !misses + r.Batch.cache_misses;
    scans := !scans + r.Batch.shared_detail_scans;
    grouped := !grouped + r.Batch.grouped;
    evaluated := !evaluated + r.Batch.cache_misses - r.Batch.deduplicated;
    List.iter
      (fun (c : Server.completion) ->
        let id = c.Server.ticket.Server.id in
        let at, t, epoch = Hashtbl.find pending id in
        Hashtbl.remove pending id;
        incr served;
        w.lat <- (c.Server.completed -. at) :: w.lat;
        w.wall <- max w.wall c.Server.completed;
        waits := (b.Server.closed_at -. c.Server.ticket.Server.submitted) :: !waits;
        if epoch = 0 then (if not (same c.Server.result (List.assoc t st.expected)) then incr wrong)
        else
          let e, rs = !latest in
          latest := (epoch, (t, c.Server.result) :: (if e = epoch then rs else [])))
      b.Server.completions
  in
  let call name ~req f =
    let r, dt = timed (fun () -> Spans.with_ spans ~req name f) in
    w.busy <- w.busy +. dt;
    (r, dt)
  in
  (* Seal every batch due by [horizon]; a batch waits for busy-until. *)
  let rec run_due horizon =
    match Server.next_deadline st.server with
    | Some d when max d !busy <= horizon -> (
      let close = max d !busy in
      match call "server.step" ~req:(-1) (fun () -> Server.step st.server ~now:close) with
      | Some b, dt ->
        busy := close +. dt;
        step_s := dt :: !step_s;
        absorb b;
        run_due horizon
      | None, _ -> ())
    | _ -> ()
  in
  let submit (a : Traffic.arrival) =
    run_due a.Traffic.at;
    let t = max a.Traffic.at !busy in
    Buffer.add_string inputs (Printf.sprintf "%s@%h;" a.Traffic.template a.Traffic.at);
    late := (t -. a.Traffic.at) :: !late;
    incr offered;
    let q = Zoo.find_query a.Traffic.template in
    match
      call "server.submit" ~req:!offered (fun () ->
          Server.submit st.server ~now:t ~label:a.Traffic.template q)
    with
    | exception _ -> incr crashed
    | Ok ticket, dt ->
      busy := t +. dt;
      submit_s := dt :: !submit_s;
      Hashtbl.replace pending ticket.Server.id (a.Traffic.at, a.Traffic.template, !appends);
      run_due t
    | Error _, dt ->
      busy := t +. dt;
      incr refused
  in
  let append (i : Traffic.ingest_arrival) =
    run_due i.Traffic.at;
    let t = max i.Traffic.at !busy in
    Buffer.add_string inputs (Printf.sprintf "append@%h;" i.Traffic.at);
    let rows =
      Zoo.detail_rows ~seed:(Int64.add st.append_seed (Int64.of_int !appends)) st.append_rows
    in
    let apply () =
      ignore (Ingest.append st.ingest ~table:"I" rows);
      Array.length rows
    in
    match
      call "server.ingest" ~req:!appends (fun () -> Server.ingest st.server ~now:t ~apply ())
    with
    | Ok r, dt ->
      busy := t +. dt;
      List.iter absorb r.Server.flushed;
      let flushed =
        List.fold_left
          (fun s (b : Server.batch_result) -> s +. b.Server.exec_seconds)
          0. r.Server.flushed
      in
      incr appends;
      sample_heap w;
      w.rows <- w.rows + r.Server.ingested_rows;
      w.ingest_s <- w.ingest_s +. (dt -. flushed);
      apply_s := r.Server.apply_seconds :: !apply_s
    | Error _, _ -> ()
  in
  let finished at =
    match budget with
    | Requests k -> !offered >= k
    | Seconds s -> at >= s *. st.sizes.span
  in
  let rec go = function
    | [] -> ()
    | (Traffic.Query { Traffic.at; _ } | Traffic.Append { Traffic.at; _ }) :: _ when finished at ->
      ()
    | Traffic.Query a :: rest ->
      submit a;
      go rest
    | Traffic.Append i :: rest ->
      append i;
      go rest
  in
  go st.trace;
  let drained, dt = call "server.drain" ~req:(-1) (fun () -> Server.drain st.server ~now:!busy) in
  busy := !busy +. dt;
  List.iter absorb drained;
  let deltas = List.map2 (fun name c0 -> (name, counter name - c0)) counters counts0 in
  (* Verification, untimed: answers given after the last append against
     the final catalog, then every template served solo through the
     warm server's cache against the final catalog. *)
  let final = List.map (fun t -> (t, solo st.catalog t)) templates in
  (match !latest with
  | e, rs when e = !appends ->
    List.iter (fun (t, r) -> if not (same r (List.assoc t final)) then incr wrong) rs
  | _ -> ());
  let stale =
    List.filter
      (fun t ->
        let report = Batch.run ~cache:(Server.cache st.server) st.catalog [ Zoo.find_query t ] in
        not (same (List.assoc 0 report.Batch.results) (List.assoc t final)))
      templates
  in
  let d name = List.assoc name deltas in
  let mean xs = ratio (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs)) in
  let ms xs = 1000. *. mean xs in
  let per_append x = ratio_i x !appends in
  let layers =
    if not traced then []
    else
      [
        ("cost.stats_ms", cost_stats_ms st.catalog);
        ("gmdj.detail_passes", ratio_i (d "gmdj.detail_passes") !served);
        ("gmdj.detail_rows", ratio_i (d "gmdj.detail_rows_scanned") !served);
        ("server.submit_ms", ms !submit_s);
        ("server.step_ms", ms !step_s);
        ("server.batch_size", mean !batch_sizes);
        ("server.queue_wait_ms", ms !waits);
        ("server.submit_late_ms", ms !late);
        ("mqo.cache_hit_ratio", ratio_i !hits (!hits + !misses));
        ("mqo.scans_per_query", ratio_i !scans !served);
        ("mqo.shared_scan_ratio", ratio_i !grouped !evaluated);
        ("ingest.apply_ms", ms !apply_s);
        ( "ingest.delta_ratio",
          ratio_i (d "ingest.maintain.delta")
            (d "ingest.maintain.delta" + d "ingest.maintain.recompute") );
        ("ingest.invalidated", per_append (d "mqo.cache.invalidated"));
        ("ingest.repaired", per_append (d "mqo.cache.repaired"));
      ]
  in
  {
      attempted = !offered;
      wrong = !wrong + List.length stale;
      refused = !refused;
      crashed = !crashed;
      windows = [ w ];
      inputs = Digest.to_hex (Digest.string (Buffer.contents inputs));
      layers;
      counts =
        deltas
        @ [
            ("served", !served);
            ("appends", !appends);
            ("batches", List.length !batch_sizes);
            ("cache_hits", !hits);
            ("cache_misses", !misses);
            ("detail_scans", !scans);
            ("stale_templates", List.length stale);
          ];
    }
