(* Observability: metrics registry semantics, trace spans and the
   Chrome exporter, and the EXPLAIN ANALYZE plan annotation — including
   the headline property that a coalesced GMDJ reports exactly one
   detail scan where the chained plan reports k. *)

open Subql_relational
open Subql_obs
module N = Subql_nested.Nested_ast

(* --- Metrics ------------------------------------------------------------ *)

let test_counters_gauges () =
  let r = Metrics.create () in
  let c = Metrics.counter r "requests" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter_value c);
  Alcotest.(check int) "find-or-create shares the instrument" 5
    (Metrics.counter_value (Metrics.counter r "requests"));
  Alcotest.(check int) "by-name read" 5 (Metrics.counter_value_by_name r "requests");
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.counter_value_by_name r "nope");
  (match Metrics.incr ~by:(-1) c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment must be rejected");
  let g = Metrics.gauge r "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 0.)) "gauge holds last value" 3.5 (Metrics.gauge_value g);
  (match Metrics.gauge r "requests" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must be rejected");
  let snap = Metrics.snapshot r in
  Metrics.incr ~by:100 c;
  Alcotest.(check int) "snapshot is a deep copy" 5 (List.assoc "requests" snap.Metrics.counters);
  Metrics.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "reset zeroes gauges" 0. (Metrics.gauge_value g)

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[ 5.; 1.; 2.; 2. ] r "lat" in
  (* Buckets are sorted and de-duplicated; upper bounds are closed, so a
     value equal to a bound lands in that bucket, and everything above
     the last bound lands in the implicit +inf bucket. *)
  List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 5.0; 7.0 ];
  let s =
    match (Metrics.snapshot r).Metrics.histograms with
    | [ ("lat", s) ] -> s
    | _ -> Alcotest.fail "expected exactly one histogram"
  in
  Alcotest.(check (array (float 0.))) "sorted bounds + overflow"
    [| 1.; 2.; 5.; infinity |] s.Metrics.upper_bounds;
  Alcotest.(check (array int)) "closed upper bounds" [| 1; 2; 1; 1 |] s.Metrics.bucket_counts;
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 16.5 s.Metrics.sum;
  (match Metrics.histogram ~buckets:[] r "bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty bucket list must be rejected");
  (* Re-registering ignores the new bucket list. *)
  let h2 = Metrics.histogram ~buckets:[ 1000. ] r "lat" in
  Metrics.observe h2 1.0;
  let s2 =
    match (Metrics.snapshot r).Metrics.histograms with
    | [ ("lat", s) ] -> s
    | _ -> Alcotest.fail "expected exactly one histogram"
  in
  Alcotest.(check int) "same instrument" 6 s2.Metrics.count

(* --- Trace spans -------------------------------------------------------- *)

let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    f

let test_span_nesting () =
  with_tracing (fun () ->
      let x =
        Trace.with_ ~attrs:[ ("phase", "outer") ] "parent" (fun () ->
            Trace.with_ "first" (fun () -> ());
            Trace.with_ "second" (fun () -> Trace.add_attr "rows" "7");
            41 + 1)
      in
      Alcotest.(check int) "with_ returns the thunk's value" 42 x;
      (match Trace.roots () with
      | [ p ] ->
        Alcotest.(check string) "root name" "parent" p.Trace.name;
        Alcotest.(check (list string)) "children in start order" [ "first"; "second" ]
          (List.map (fun s -> s.Trace.name) p.Trace.children);
        Alcotest.(check (option string)) "declared attr" (Some "outer")
          (List.assoc_opt "phase" p.Trace.attrs);
        let second = List.nth p.Trace.children 1 in
        Alcotest.(check (option string)) "late attr lands on the open span" (Some "7")
          (List.assoc_opt "rows" second.Trace.attrs);
        Alcotest.(check bool) "parent spans its children" true
          (p.Trace.dur_us +. 1e-6
          >= second.Trace.start_us +. second.Trace.dur_us -. p.Trace.start_us)
      | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
      (* A raising thunk still completes its span. *)
      (match Trace.with_ "boom" (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception must propagate");
      Alcotest.(check int) "raising span recorded" 2 (List.length (Trace.roots ())));
  (* Disabled tracing records nothing. *)
  Trace.clear ();
  Trace.with_ "ghost" (fun () -> ());
  Alcotest.(check int) "no-op when disabled" 0 (List.length (Trace.roots ()))

(* Trace state is domain-local: a domain spawned while the caller traces
   starts with tracing off, and spans it opens after enabling its own
   tracing never reach the caller's roots — what lets the fanned-out
   [analyze --certify --domains] checker run instrumented code safely. *)
let test_trace_domain_local () =
  with_tracing (fun () ->
      Trace.with_ "caller" (fun () ->
          let enabled_there, roots_there =
            Domain.join
              (Domain.spawn (fun () ->
                   let enabled = Trace.enabled () in
                   Trace.set_enabled true;
                   Trace.with_ "other" (fun () -> ());
                   (enabled, List.length (Trace.roots ()))))
          in
          Alcotest.(check bool) "a new domain starts with tracing off" false enabled_there;
          Alcotest.(check int) "its spans stay on its own domain" 1 roots_there);
      Alcotest.(check (list string)) "caller sees only its own spans" [ "caller" ]
        (List.map (fun s -> s.Trace.name) (Trace.roots ()));
      Alcotest.(check int) "no span re-parented under the caller" 0
        (List.length (List.hd (Trace.roots ())).Trace.children))

(* --- A minimal strict JSON reader (the image has no JSON library; this
   is only what validating the exporter needs). ------------------------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "JSON error at byte %d: %s" !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' as c) | Some ('\\' as c) | Some ('/' as c) ->
          Buffer.add_char buf c;
          advance ();
          go ()
        | Some 'n' | Some 't' | Some 'r' | Some 'b' | Some 'f' ->
          Buffer.add_char buf ' ';
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          Buffer.add_char buf '?';
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "unescaped control character"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Jstr (string_lit ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value expected"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      advance ();
      Jobj [])
    else
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ((k, v) :: acc)
        | Some '}' ->
          advance ();
          Jobj (List.rev ((k, v) :: acc))
        | _ -> fail "expected , or }"
      in
      members []
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      advance ();
      Jlist [])
    else
      let rec elements acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          elements (v :: acc)
        | Some ']' ->
          advance ();
          Jlist (List.rev (v :: acc))
        | _ -> fail "expected , or ]"
      in
      elements []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_chrome_export () =
  with_tracing (fun () ->
      Trace.with_ "outer" (fun () ->
          Trace.with_ ~attrs:[ ("k", "va\"l\\ue\n") ] "in ner" (fun () -> ()));
      Trace.with_ "solo" (fun () -> ());
      let events =
        match parse_json (Trace.to_chrome_json ()) with
        | Jlist events -> events
        | _ -> Alcotest.fail "exporter must produce a JSON array"
      in
      Alcotest.(check int) "one event per span" 3 (List.length events);
      List.iter
        (fun ev ->
          match ev with
          | Jobj fields ->
            let str k =
              match List.assoc_opt k fields with
              | Some (Jstr s) -> s
              | _ -> Alcotest.failf "event missing string field %S" k
            in
            let num k =
              match List.assoc_opt k fields with
              | Some (Jnum f) -> f
              | _ -> Alcotest.failf "event missing numeric field %S" k
            in
            Alcotest.(check string) "complete event" "X" (str "ph");
            ignore (str "name");
            ignore (num "ts");
            Alcotest.(check bool) "non-negative duration" true (num "dur" >= 0.);
            ignore (num "pid");
            ignore (num "tid")
          | _ -> Alcotest.fail "every event must be an object")
        events;
      let names =
        List.filter_map (function Jobj f -> List.assoc_opt "name" f | _ -> None) events
      in
      Alcotest.(check bool) "escaped attr survives the round trip" true
        (List.exists (function Jstr "in ner" -> true | _ -> false) names))

(* --- EXPLAIN ANALYZE: coalescing visible as 1 scan vs k ---------------- *)

let mk_catalog () =
  let c = Catalog.create () in
  Catalog.add c "User"
    (Relation.of_list
       (Schema.of_list [ Schema.attr "ip" Value.Tint ])
       (List.init 10 (fun i -> [| Value.Int i |])));
  Catalog.add c "Flow"
    (Relation.of_list
       (Schema.of_list [ Schema.attr "src" Value.Tint; Schema.attr "dst" Value.Tint ])
       (List.init 100 (fun i -> [| Value.Int (i mod 13); Value.Int ((i + 3) mod 7) |])));
  c

(* Two EXISTS over the same detail table — the coalescable shape of the
   paper's Figure 5. *)
let two_exists_query =
  N.query ~base:(N.table "User") ~alias:"u"
    (N.pand
       (N.exists
          ~where:(N.atom (Expr.eq (Expr.attr ~rel:"f" "src") (Expr.attr ~rel:"u" "ip")))
          (N.table "Flow") "f")
       (N.exists
          ~where:(N.atom (Expr.eq (Expr.attr ~rel:"g" "dst") (Expr.attr ~rel:"u" "ip")))
          (N.table "Flow") "g"))

let test_explain_analyze_coalescing () =
  let catalog = mk_catalog () in
  let chained_plan = Subql.Transform.to_algebra two_exists_query in
  let coalesced_plan =
    Subql.Optimize.optimize ~flags:(Subql.Optimize.only ~coalesce:true ()) chained_plan
  in
  let registry_scans () = Metrics.counter_value_by_name Metrics.default "gmdj.detail_passes" in
  let analyze plan =
    let before = registry_scans () in
    let result, tree = Subql.Eval.eval_analyzed catalog plan in
    (result, tree, registry_scans () - before)
  in
  let chained_result, chained_tree, chained_published = analyze chained_plan in
  let coalesced_result, coalesced_tree, coalesced_published = analyze coalesced_plan in
  Helpers.check_multiset_equal "same answers" chained_result coalesced_result;
  Alcotest.(check int) "chained plan: one scan per subquery" 2
    (Explain.sum_attr chained_tree "detail-scans");
  Alcotest.(check int) "coalesced plan: exactly one scan" 1
    (Explain.sum_attr coalesced_tree "detail-scans");
  Alcotest.(check int) "registry agrees (chained)" 2 chained_published;
  Alcotest.(check int) "registry agrees (coalesced)" 1 coalesced_published;
  (* The tree mirrors the work: both plans look at every detail row per
     scan, so the coalesced plan touches half the rows. *)
  Alcotest.(check int) "chained detail rows" 200
    (Explain.sum_attr chained_tree "detail-rows");
  Alcotest.(check int) "coalesced detail rows" 100
    (Explain.sum_attr coalesced_tree "detail-rows")

let test_explain_tree_shape () =
  let catalog = mk_catalog () in
  let plan = Subql.Optimize.optimize (Subql.Transform.to_algebra two_exists_query) in
  let result, tree = Subql.Eval.eval_analyzed catalog plan in
  Alcotest.(check int) "root rows-out is the result cardinality"
    (Relation.cardinality result) tree.Explain.rows_out;
  let nodes = Explain.fold (fun acc _ -> acc + 1) 0 tree in
  Alcotest.(check bool) "several operators" true (nodes >= 4);
  Alcotest.(check bool) "self times are non-negative" true
    (Explain.fold (fun ok n -> ok && n.Explain.elapsed_s >= 0.) true tree);
  Alcotest.(check bool) "total elapsed adds up" true (Explain.total_elapsed tree >= 0.);
  (* rows_in of every internal node equals its children's rows_out. *)
  Alcotest.(check bool) "rows_in consistent" true
    (Explain.fold
       (fun ok n ->
         ok
         && (n.Explain.children = []
            || n.Explain.rows_in
               = List.fold_left (fun a k -> a + k.Explain.rows_out) 0 n.Explain.children))
       true tree);
  (* The JSON rendering of the tree is itself well-formed. *)
  match parse_json (Json.to_string (Explain.to_json tree)) with
  | Jobj fields ->
    Alcotest.(check bool) "label present" true (List.mem_assoc "label" fields)
  | _ -> Alcotest.fail "Explain.to_json must produce an object"

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "chrome export well-formed" `Quick test_chrome_export;
          Alcotest.test_case "spans stay on their own domain" `Quick
            test_trace_domain_local;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "coalescing: 1 scan vs k" `Quick test_explain_analyze_coalescing;
          Alcotest.test_case "tree shape" `Quick test_explain_tree_shape;
        ] );
    ]
