(* The cold workloads: one client, closed loop, no result cache.  Every
   request takes the path of [olap_cli run --engine auto] from SQL text
   to result rows: [Parser.parse], [Planner.choose], [Eval.eval_exec],
   then [apply_grouping] / [apply_post].

   - paper-cold: the paper's Figure 2, 3 and 5 queries over netflow
     User/Flow, constants drawn from the seed; Flow is streamed from a
     heap file through one buffer pool smaller than the file.
   - zoo-cold: every zoo template that has an SQL form, over the
     in-memory O/I/J catalog; no storage on the read path.

   After every read window comes a write window: a few passes, each
   appending a fixed list of 1% batches to the detail table through
   [Ingest.append] (default policy, nothing registered, no cache) on a
   fresh copy of the catalog, so the reads never see the appended rows.
   This is the raw append path, which the serve-ingest workload measures
   again with cache maintenance on top. *)

open Subql_relational
open Common
module P = Subql_sql.Parser
module Heap_file = Subql_storage.Heap_file
module Buffer_pool = Subql_storage.Buffer_pool
module Ingest = Subql_ingest.Ingest
module Rng = Subql_workload.Rng
module Netflow = Subql_workload.Netflow
module Zoo = Subql_workload.Zoo

type sizes = {
  users : int;
  flows : int;
  frames : int;  (** buffer-pool frames, fewer than Flow's pages *)
  variants : int;  (** constant draws per paper figure *)
  outer : int;  (** zoo O rows *)
  inner : int;  (** zoo I and J rows *)
  window_rounds : int;  (** rounds per measurement window *)
  appends : int;  (** batches per write pass *)
  passes : int;  (** write passes per write window *)
}

type kind = Paper | Zoo_templates

(* Flow's 20 000 rows fill about 160 heap pages, five times the pool's
   32 frames.  A paper round is 3 requests and a zoo round 23, so a window
   holds 48 and 92 requests.  A write pass appends 1% of the detail table
   per batch, enough batches for a pass to take tens of milliseconds; a
   pass that short is at the mercy of one major collection, so every
   write window makes several. *)
let sizes kind ~tiny =
  if tiny then
    {
      users = 21;
      flows = 2_000;
      frames = 4;
      variants = 2;
      outer = 8;
      inner = 256;
      window_rounds = 1;
      appends = 2;
      passes = 2;
    }
  else
    let paper =
      {
        users = 101;
        flows = 20_000;
        frames = 32;
        variants = 8;
        outer = 64;
        inner = 4096;
        window_rounds = 16;
        appends = 100;
        passes = 4;
      }
    in
    match kind with
    | Paper -> paper
    | Zoo_templates -> { paper with window_rounds = 4; appends = 400; passes = 4 }

type heap = { file : Heap_file.t; pool : Buffer_pool.t }

type state = {
  catalog : Catalog.t;
  names : string array;  (** the template each text was made from *)
  texts : string array;  (** distinct SQL texts *)
  groups : int array array;  (** a round draws one text from each group *)
  rounds : Rng.t;
  heap : heap option;  (** paper-cold: Flow on disk *)
  detail : string;  (** table the write windows append to *)
  batches : Tuple.t array list;
  window_rounds : int;
  passes : int;
  mutable expected : Relation.t array;
}

(* --- inputs --------------------------------------------------------- *)

let protocols = [| "HTTP"; "FTP"; "DNS"; "SMTP"; "SSH" |]

(* Figures 2, 3 and 5 of the paper as SQL, each with [n] constant draws. *)
let paper_texts rng n =
  let fig2 () =
    Printf.sprintf
      "SELECT u.UserName, u.IPAddress FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE \
       f.SourceIP = u.IPAddress AND f.Protocol = '%s')"
      (Rng.choose rng protocols)
  in
  let fig3 () =
    Printf.sprintf
      "SELECT u.UserName, u.Quota FROM User u WHERE u.Quota < (SELECT SUM(f.NumBytes) FROM \
       Flow f WHERE f.SourceIP = u.IPAddress AND f.StartTime < %d)"
      (3600 * Rng.int_in rng 1 3)
  in
  let fig5 () =
    Printf.sprintf
      "SELECT u.UserName FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = \
       u.IPAddress AND f.Protocol = '%s') AND EXISTS (SELECT * FROM Flow g WHERE g.DestIP = \
       u.IPAddress AND g.NumBytes > %d)"
      (Rng.choose rng protocols)
      (100_000 * Rng.int_in rng 1 7)
  in
  List.concat_map
    (fun (name, gen) -> List.init n (fun _ -> (name, gen ())))
    [ ("fig2", fig2); ("fig3", fig3); ("fig5", fig5) ]

let zoo_texts () =
  List.filter_map
    (fun (name, q) ->
      match Subql_sql.Render.query_to_sql q with
      | sql -> Some (name, sql)
      | exception Subql_sql.Render.Unrepresentable _ -> None)
    Zoo.queries

(* Group equal template names, keeping first-seen order. *)
let group_by_name names =
  let order = ref [] in
  Array.iteri
    (fun i n ->
      match List.assoc_opt n !order with
      | Some is -> is := i :: !is
      | None -> order := !order @ [ (n, ref [ i ]) ])
    names;
  Array.of_list (List.map (fun (_, is) -> Array.of_list (List.rev !is)) !order)

(* --- set-up ---------------------------------------------------------- *)

(* The tables are the generators' default data sets, the same in every
   run; the seed draws what the client does: the paper queries'
   constants, the order of every round, and the appended rows. *)
let setup kind ~tiny ~seed =
  let sizes = sizes kind ~tiny in
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let catalog, named, heap, detail, batch_rows =
    match kind with
    | Paper ->
      let cfg =
        {
          Netflow.default_config with
          Netflow.n_users = sizes.users;
          n_flows = sizes.flows;
          n_source_ips = max 64 (sizes.users / 2);
          n_dest_ips = max 64 (sizes.users / 2);
          user_ip_match_fraction = 1.0;
        }
      in
      let catalog = Netflow.generate cfg in
      let path = Filename.temp_file "perfbench_flow_" ".heap" in
      let file = Heap_file.write ~path (Catalog.find catalog "Flow") in
      let heap = { file; pool = Buffer_pool.create ~frames:sizes.frames } in
      let append_seed = Rng.next rng in
      ( catalog,
        paper_texts (Rng.split rng) sizes.variants,
        Some heap,
        "Flow",
        fun b ->
          Netflow.flow_rows ~seed:(Int64.add append_seed (Int64.of_int b)) cfg (sizes.flows / 100)
      )
    | Zoo_templates ->
      let catalog = Zoo.catalog ~outer:sizes.outer ~inner:sizes.inner () in
      let append_seed = Rng.next rng in
      ( catalog,
        zoo_texts (),
        None,
        "I",
        fun b ->
          Zoo.detail_rows ~seed:(Int64.add append_seed (Int64.of_int b)) (sizes.inner / 100) )
  in
  let names = Array.of_list (List.map fst named) in
  {
    catalog;
    names;
    texts = Array.of_list (List.map snd named);
    groups = group_by_name names;
    rounds = Rng.split rng;
    heap;
    detail;
    batches = List.init sizes.appends batch_rows;
    window_rounds = sizes.window_rounds;
    passes = sizes.passes;
    expected = [||];
  }

let close st =
  Option.iter
    (fun h ->
      let path = Heap_file.path h.file in
      Heap_file.close h.file;
      try Sys.remove path with Sys_error _ -> ())
    st.heap

(* Untimed: every distinct text answered by the second path. *)
let prepare_oracle st =
  st.expected <-
    Array.mapi
      (fun i text ->
        let stmt = P.parse text in
        let gmdj = List.mem st.names.(i) naive_too_slow in
        P.apply_post stmt (P.apply_grouping stmt (oracle ~gmdj st.catalog stmt.P.query)))
      st.texts

(* --- the measured loop ---------------------------------------------- *)

(* One round: a text from every group, in an order drawn from the seed. *)
let next_round st =
  let picks = Array.map (fun g -> g.(Rng.int st.rounds (Array.length g))) st.groups in
  Rng.shuffle st.rounds picks;
  Array.to_list picks

(* Under tracing the heap-file stream is wrapped so that the time inside
   its pulls is a span of its own. *)
let sources st spans ~req =
  match st.heap with
  | None -> None
  | Some h ->
    Some
      (fun table ->
        if table <> "Flow" then None
        else
          let src = Heap_file.source h.file ~pool:h.pool in
          if not (Spans.enabled spans) then Some src
          else
            Some
              (Chunk.Source.create ~close:(fun () -> Chunk.Source.close src)
                 ~schema:(Chunk.Source.schema src) (fun () ->
                   Spans.with_ spans ~req "storage.pull" (fun () -> Chunk.Source.next src))))

let run_one st spans ~req text =
  let traced = Spans.enabled spans in
  let span name f = Spans.with_ spans ~req name f in
  span "request" (fun () ->
      let stmt = span "sql.parse" (fun () -> P.parse text) in
      let cand = span "planner.choose" (fun () -> Subql.Planner.choose st.catalog stmt.P.query) in
      let gmdj_stats = if traced then Some (Subql_gmdj.Gmdj.fresh_stats ()) else None in
      let rel, report =
        span "eval.exec" (fun () ->
            Subql.Eval.eval_exec ?gmdj_stats ?sources:(sources st spans ~req) st.catalog
              cand.Subql.Planner.plan)
      in
      (stmt, span "sql.post" (fun () -> P.apply_post stmt (P.apply_grouping stmt rel)), report))

let gmdj_counters =
  [
    "gmdj.evals";
    "gmdj.detail_passes";
    "gmdj.detail_rows_scanned";
    "gmdj.theta_evals";
    "gmdj.early_exits";
  ]

let measure st spans budget =
  let traced = Spans.enabled spans in
  let pool0 = Option.map (fun h -> Buffer_pool.stats h.pool) st.heap in
  let counts0 = List.map counter gmdj_counters in
  let n = ref 0 and wrong = ref 0 and crashed = ref 0 in
  let windows = ref [] and inputs = Buffer.create 4096 in
  let chunks = ref 0 and peak_rows = ref 0 in
  let start = now () and untimed = ref 0. in
  let cut () = match budget with Requests k -> !n >= k | Seconds _ -> false in
  let finished () =
    match budget with
    | Requests k -> !n >= k
    | Seconds s -> !n >= 100 && now () -. start -. !untimed >= s
  in
  let request w i =
    let req = !n in
    incr n;
    Buffer.add_string inputs st.texts.(i);
    let t0 = now () in
    match run_one st spans ~req st.texts.(i) with
    | exception _ -> incr crashed
    | stmt, rel, report ->
      let t1 = now () in
      sample_heap w;
      w.lat <- (t1 -. t0) :: w.lat;
      w.busy <- w.busy +. (t1 -. t0);
      chunks := !chunks + report.Subql.Eval.chunks;
      peak_rows := max !peak_rows report.Subql.Eval.peak_materialized_rows;
      if traced then begin
        (* The translation and rewrite stages, each as a separate call
           outside the request's clock. *)
        let alg =
          Spans.with_ spans ~req "transform" (fun () -> Subql.Transform.to_algebra stmt.P.query)
        in
        ignore (Spans.with_ spans ~req "optimize" (fun () -> Subql.Optimize.optimize alg))
      end;
      if not (same rel st.expected.(i)) then incr wrong;
      untimed := !untimed +. (now () -. t1)
  in
  let appended = ref 0 in
  (* One pass is one window of its own, with rows and no requests. *)
  let write_pass () =
    let catalog =
      Catalog.of_list
        (List.map (fun t -> (t, Catalog.find st.catalog t)) (Catalog.tables st.catalog))
    in
    let ingest = Ingest.create ~catalog ~cache:(Subql_mqo.Result_cache.create ()) () in
    (* Attaching writes the table's heap file; only the appends are timed,
       starting from a collected heap. *)
    ignore (Ingest.append ingest ~table:st.detail [||]);
    Gc.full_major ();
    let w = window () in
    List.iter
      (fun batch ->
        let (), dt =
          timed (fun () ->
              Spans.with_ spans ~req:!appended "ingest.apply" (fun () ->
                  ignore (Ingest.append ingest ~table:st.detail batch)))
        in
        incr appended;
        sample_heap w;
        w.rows <- w.rows + Array.length batch;
        w.ingest_s <- w.ingest_s +. dt)
      st.batches;
    Ingest.close ingest;
    windows := w :: !windows
  in
  (* The next read window starts from a collected heap too, so it does not
     sweep what the write window left behind. *)
  let write_window () =
    let t0 = now () in
    for _ = 1 to st.passes do
      write_pass ()
    done;
    Gc.full_major ();
    untimed := !untimed +. (now () -. t0)
  in
  while not (finished ()) do
    let w = window () in
    let w0 = now () and u0 = !untimed in
    for _ = 1 to st.window_rounds do
      List.iter (fun i -> if not (cut ()) then request w i) (next_round st)
    done;
    w.wall <- now () -. w0 -. (!untimed -. u0);
    windows := w :: !windows;
    write_window ()
  done;
  let deltas = List.map2 (fun name c0 -> (name, counter name - c0)) gmdj_counters counts0 in
  let d name = List.assoc name deltas in
  let pool_reads, pool_hits =
    match (st.heap, pool0) with
    | Some h, Some p0 ->
      let p1 = Buffer_pool.stats h.pool in
      ( p1.Buffer_pool.page_reads - p0.Buffer_pool.page_reads,
        p1.Buffer_pool.hits - p0.Buffer_pool.hits )
    | _ -> (0, 0)
  in
  let stats_ms = if traced then cost_stats_ms st.catalog else 0. in
  let per_query x = ratio_i x !n in
  let per_query_s x = ratio x (float_of_int !n) in
  let span_ms name =
    let s, k = Spans.total spans name in
    1000. *. ratio s (float_of_int k)
  in
  let layers =
    if not traced then []
    else
      [
        ("sql.parse_ms", span_ms "sql.parse");
        ("transform.ms", span_ms "transform");
        ("optimize.ms", span_ms "optimize");
        ("planner.choose_ms", span_ms "planner.choose");
        ("cost.stats_ms", stats_ms);
        ("eval.exec_ms", span_ms "eval.exec");
        ("eval.chunks", per_query !chunks);
        ("eval.peak_rows", float_of_int !peak_rows);
        ("gmdj.detail_passes", per_query (d "gmdj.detail_passes"));
        ("gmdj.detail_rows", per_query (d "gmdj.detail_rows_scanned"));
        ("gmdj.theta_evals", per_query (d "gmdj.theta_evals"));
        ("gmdj.early_exit_ratio", ratio_i (d "gmdj.early_exits") (d "gmdj.evals"));
        ("storage.pull_ms", 1000. *. per_query_s (fst (Spans.total spans "storage.pull")));
        ("storage.page_reads", per_query pool_reads);
        ("storage.hit_ratio", ratio_i pool_hits (pool_hits + pool_reads));
        ( "storage.bytes_per_row",
          match st.heap with
          | None -> 0.
          | Some h ->
            ratio_i (Unix.stat (Heap_file.path h.file)).Unix.st_size (Heap_file.row_count h.file) );
        ("ingest.apply_ms", span_ms "ingest.apply");
      ]
  in
  {
    attempted = !n;
    wrong = !wrong;
    refused = 0;
    crashed = !crashed;
    windows = !windows;
    inputs = Digest.to_hex (Digest.string (Buffer.contents inputs));
    layers;
    counts =
      deltas
      @ [
          ("eval.chunks", !chunks);
          ("storage.page_reads", pool_reads);
          ("storage.hits", pool_hits);
          ("distinct_texts", Array.length st.texts);
        ];
  }
