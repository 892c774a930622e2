#!/bin/sh
# Repo health check: full build, test suite, and a CLI smoke test of the
# instrumented evaluation path.  Exits non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all (warnings are errors) =="
# @all also builds targets no test depends on; any compiler output
# (warnings included) fails the check.
build_out=$(dune build @all 2>&1) || {
  echo "$build_out"
  echo "FAIL: dune build @all failed" >&2
  exit 1
}
if [ -n "$build_out" ]; then
  echo "$build_out"
  echo "FAIL: dune build @all produced warnings" >&2
  exit 1
fi

echo
echo "== dune build @default @runtest =="
dune build @default @runtest

echo
echo "== CLI smoke test: EXPLAIN ANALYZE on a TPC-H EXISTS subquery =="
out=$(dune exec bin/olap_cli.exe -- run \
  --workload tpc --scale 0.002 --engine gmdj-opt --explain-analyze --limit 1 \
  "SELECT c.c_custkey FROM Customer c WHERE EXISTS (SELECT * FROM Orders o WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')")
echo "$out"

# The annotated tree must show the coalesced GMDJ doing exactly one
# detail scan.
echo "$out" | grep -q "detail-scans=1" || {
  echo "FAIL: expected detail-scans=1 in the EXPLAIN ANALYZE output" >&2
  exit 1
}
echo "$out" | grep -q "rows-out=" || {
  echo "FAIL: expected rows-out annotations in the EXPLAIN ANALYZE output" >&2
  exit 1
}

echo
echo "== CLI smoke test: batch with cross-query sharing and a warm cache =="
batch_sql=$(mktemp /tmp/check_batch_XXXXXX.sql)
trap 'rm -f "$batch_sql"' EXIT
cat > "$batch_sql" <<'SQL'
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress);
SELECT u.UserName FROM User u
WHERE NOT EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress
                  AND f.NumBytes > u.Quota);
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress)
SQL
bout=$(dune exec bin/olap_cli.exe -- batch "$batch_sql" --repeat 2)
echo "$bout"

# Round 1 must share the three same-detail GMDJs into fewer scans than
# the naive one-scan-per-query baseline; round 2 must be all cache hits.
echo "$bout" | grep -q "detail scans: 1 (naive baseline: 3)" || {
  echo "FAIL: expected the cold batch to share 3 queries into 1 detail scan" >&2
  exit 1
}
echo "$bout" | grep -q "cache: 3 hits, 0 misses" || {
  echo "FAIL: expected the second round to be served entirely from cache" >&2
  exit 1
}

echo
echo "== static analysis: every zoo template must be diagnostic-error-free =="
# analyze exits non-zero if any template yields an error-severity
# diagnostic (the optimizer self-check is live during the run).
dune exec bin/olap_cli.exe -- analyze --zoo all

echo
echo "== static analysis: --json output stays machine-readable =="
analyze_json=$(mktemp /tmp/check_analyze_XXXXXX.json)
dune exec bin/olap_cli.exe -- analyze --zoo all --json > "$analyze_json"
ANALYZE_JSON="$analyze_json" python3 - <<'PY'
import json, os, sys
with open(os.environ["ANALYZE_JSON"]) as f:
    reports = json.load(f)
if len(reports) < 20:
    sys.exit(f"FAIL: expected a report per zoo template, got {len(reports)}")
for r in reports:
    for key in ("label", "errors", "warnings", "diagnostics"):
        if key not in r:
            sys.exit(f"FAIL: analyze --json report missing key {key!r}")
    if r["errors"] != 0:
        sys.exit(f"FAIL: template {r['label']!r} has error diagnostics")
print(f"analyze --json: {len(reports)} reports, all error-free")
PY
rm -f "$analyze_json"

echo
echo "== static analysis: --certify proves finite memory bounds for the zoo =="
# The certificate passes (interval cardinality analysis,
# delta-maintainability effects) must certify every zoo
# template with zero error-severity diagnostics — analyze exits
# non-zero otherwise — and every certified memory bound must be finite.
certify_json=$(mktemp /tmp/check_certify_XXXXXX.json)
dune exec bin/olap_cli.exe -- analyze --certify --zoo all --json > "$certify_json"
CERTIFY_JSON="$certify_json" python3 - <<'PY'
import json, os, sys
with open(os.environ["CERTIFY_JSON"]) as f:
    reports = json.load(f)
if len(reports) < 20:
    sys.exit(f"FAIL: expected a certificate per zoo template, got {len(reports)}")
for r in reports:
    if r["certified_errors"] != 0:
        sys.exit(f"FAIL: template {r['label']!r} fails certification")
    cert = r.get("certificate")
    if not cert:
        sys.exit(f"FAIL: template {r['label']!r} has no certificate")
    if not isinstance(cert["bound"], (int, float)):
        sys.exit(f"FAIL: template {r['label']!r} certified bound is not finite "
                 f"({cert['bound']!r})")
print(f"analyze --certify: {len(reports)} templates, all certified with "
      f"finite bounds (max {max(c['certificate']['bound'] for c in reports):.0f} rows)")
PY
rm -f "$certify_json"

echo
echo "== static analysis: certified output is byte-stable under --domains =="
# The per-worker Diag.Scratch buffers merge through the total order, so
# the certified report may not depend on worker scheduling.
c1=$(mktemp /tmp/check_certify1_XXXXXX.txt)
c4=$(mktemp /tmp/check_certify4_XXXXXX.txt)
dune exec bin/olap_cli.exe -- analyze --certify --zoo all --domains 1 > "$c1"
dune exec bin/olap_cli.exe -- analyze --certify --zoo all --domains 4 > "$c4"
cmp -s "$c1" "$c4" || {
  echo "FAIL: analyze --certify output differs between --domains 1 and 4" >&2
  diff "$c1" "$c4" | head -20 >&2
  exit 1
}
rm -f "$c1" "$c4"
echo "analyze --certify: --domains 1 and --domains 4 outputs identical"

echo
echo "== bench smoke test: mqo target keeps BENCH_mqo.json well-formed =="
dune exec bench/main.exe -- mqo > /dev/null
python3 - <<'PY'
import json, sys
with open("BENCH_mqo.json") as f:
    doc = json.load(f)
for key in ("benchmark", "solo", "cold", "warm", "verified"):
    if key not in doc:
        sys.exit(f"FAIL: BENCH_mqo.json missing key {key!r}")
if doc["verified"] is not True:
    sys.exit("FAIL: BENCH_mqo.json reports verified != true")
if not doc["cold"]["detail_scans"] < doc["solo"]["detail_scans"]:
    sys.exit("FAIL: shared batch did not reduce detail scans")
print("BENCH_mqo.json: well-formed, verified, scans %d -> %d"
      % (doc["solo"]["detail_scans"], doc["cold"]["detail_scans"]))
PY

echo
echo "== bench smoke test: exec target gates streaming-executor regressions =="
# The exec benchmark self-verifies (streamed == in-memory results, peak
# independent of |detail|); on top of that, gate its memory and I/O
# numbers against the committed baseline: >10% worse on peak
# materialized rows or page reads fails the check.
dune exec bench/main.exe -- exec > /dev/null
python3 - <<'PY'
import json, sys
with open("BENCH_exec.json") as f:
    fresh = json.load(f)
with open("bench/BENCH_exec.baseline.json") as f:
    base = json.load(f)
if fresh["verified"] is not True:
    sys.exit("FAIL: BENCH_exec.json reports verified != true")
for key in ("peak_rows", "peak_rows_2x", "chained_page_reads", "coalesced_page_reads"):
    if fresh[key] > base[key] * 1.1:
        sys.exit(f"FAIL: {key} regressed >10%: {base[key]} -> {fresh[key]}")
print("BENCH_exec.json: verified, peak %d rows (2x detail: %d), page reads %d chained / %d coalesced"
      % (fresh["peak_rows"], fresh["peak_rows_2x"],
         fresh["chained_page_reads"], fresh["coalesced_page_reads"]))
PY

echo
echo "== bench smoke test: spill target gates spilling-breaker regressions =="
# The spill benchmark self-verifies (spilling results == in-memory
# results) and self-gates the 10x-detail memory bound.  On top of that
# the spill numbers may not regress against the committed baseline.
dune exec bench/main.exe -- spill > /dev/null
python3 - <<'PY'
import json, sys
with open("BENCH_spill.json") as f:
    fresh = json.load(f)
with open("bench/BENCH_spill.baseline.json") as f:
    base = json.load(f)
if fresh["verified"] is not True:
    sys.exit("FAIL: BENCH_spill.json reports verified != true")
if fresh["spilled_rows_10x"] == 0:
    sys.exit("FAIL: the 10x-detail run never spilled")
if fresh["peak_rows_10x"] > fresh["peak_rows_1x"] * 1.2:
    sys.exit(f"FAIL: spilling peak grew with the detail: "
             f"{fresh['peak_rows_1x']} -> {fresh['peak_rows_10x']} rows")
if fresh["peak_rows_10x"] > base["peak_rows_10x"] * 1.1:
    sys.exit(f"FAIL: 10x-detail peak regressed >10% vs baseline: "
             f"{base['peak_rows_10x']} -> {fresh['peak_rows_10x']} rows")
print("BENCH_spill.json: verified, 10x-detail peak %d rows (1x: %d), %d rows spilled"
      % (fresh["peak_rows_10x"], fresh["peak_rows_1x"], fresh["spilled_rows_10x"]))
PY

echo
echo "== CLI smoke test: schema and type errors are diagnostics, not crashes =="
# An unknown column must be reported as error[SCH001] by run (exit 1) and
# by serve, which must keep serving: the valid query behind it is
# answered and the process exits 0.
set +e
rout=$(dune exec bin/olap_cli.exe -- run --flows 2000 --users 50 \
  "SELECT u.Nope FROM User u" 2>&1)
rstatus=$?
set -e
echo "$rout"
if [ "$rstatus" -ne 1 ]; then
  echo "FAIL: run on an unknown column exited $rstatus, expected 1" >&2
  exit 1
fi
echo "$rout" | grep -q "error\[SCH001\]" || {
  echo "FAIL: run on an unknown column did not report error[SCH001]" >&2
  exit 1
}
if echo "$rout" | grep -q "internal error"; then
  echo "FAIL: run on an unknown column crashed" >&2
  exit 1
fi
vout=$(printf '%s\n' "SELECT u.Nope FROM User u;" \
  "SELECT u.UserName FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress);" \
  | dune exec bin/olap_cli.exe -- serve --flows 2000 --users 50 2>&1)
echo "$vout"
echo "$vout" | grep -q "error\[SCH001\]" || {
  echo "FAIL: serve did not report error[SCH001] for the unknown column" >&2
  exit 1
}
echo "$vout" | grep -q "served 1 queries" || {
  echo "FAIL: serve did not answer the valid query behind the bad one" >&2
  exit 1
}

echo
echo "== CLI smoke test: run --spill-budget pushes breaker state to disk =="
sout=$(dune exec bin/olap_cli.exe -- run --flows 20000 --users 300 --spill-budget 64 \
  --engine unnest --metrics --limit 1 \
  "SELECT u.UserName FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress)")
echo "$sout" | grep -E "exec\.spill"
echo "$sout" | grep -Eq "exec.spilled_bytes +[1-9][0-9]*" || {
  echo "FAIL: expected exec.spilled_bytes > 0 in --metrics after run --spill-budget" >&2
  exit 1
}

echo
echo "== bench smoke test: serve target gates serving-layer regressions =="
# The serve benchmark self-verifies (warm server answers == solo
# evaluation, steady-state detail scans per query < 1); on top of that,
# gate against the committed baseline: >10% worse on steady-state p99
# (plus 5ms absolute slack for wall-clock jitter in the measured
# evaluation times) or on steady-state detail scans per query fails.
dune exec bench/main.exe -- serve > /dev/null
python3 - <<'PY'
import json, sys
with open("BENCH_serve.json") as f:
    fresh = json.load(f)
with open("bench/BENCH_serve.baseline.json") as f:
    base = json.load(f)
if fresh["verified"] is not True:
    sys.exit("FAIL: BENCH_serve.json reports verified != true")
if fresh["steady_scans_per_query_max"] >= 1.0:
    sys.exit("FAIL: steady-state detail scans per query >= 1 "
             f"({fresh['steady_scans_per_query_max']:.3f})")
base_rates = {r["rate"]: r for r in base["rates"]}
for r in fresh["rates"]:
    b = base_rates.get(r["rate"])
    if b is None:
        continue
    fs, bs = r["steady"], b["steady"]
    if fs["scans_per_query"] > bs["scans_per_query"] + 0.05:
        sys.exit(f"FAIL: steady scans/query regressed at rate {r['rate']:.0f}: "
                 f"{bs['scans_per_query']:.3f} -> {fs['scans_per_query']:.3f}")
    limit = bs["p99_ms"] * 1.1 + 5.0
    if fs["p99_ms"] > limit:
        sys.exit(f"FAIL: steady p99 regressed >10% at rate {r['rate']:.0f}: "
                 f"{bs['p99_ms']:.1f}ms -> {fs['p99_ms']:.1f}ms (limit {limit:.1f}ms)")
print("BENCH_serve.json: verified, steady scans/query %.3f, steady p99 %s"
      % (fresh["steady_scans_per_query_max"],
         ", ".join("%.1fms@%.0f/s" % (r["steady"]["p99_ms"], r["rate"])
                   for r in fresh["rates"])))
PY

echo
echo "== bench smoke test: ingest target gates delta-maintenance regressions =="
# The ingest benchmark self-gates (delta-maintained results == full
# recompute everywhere, every append delta-maintained, wall-clock
# speedup >= 5x at a 1% append ratio); on top of that, gate the
# staleness sweep against the committed baseline: any stale read fails
# outright, and per-cell p99 may not regress >25% (plus 100ms absolute
# slack — the sweep runs the server saturated, where queueing amplifies
# wall-clock jitter in the measured evaluation times).
dune exec bench/main.exe -- ingest > /dev/null
python3 - <<'PY'
import json, sys
with open("BENCH_ingest.json") as f:
    fresh = json.load(f)
with open("bench/BENCH_ingest.baseline.json") as f:
    base = json.load(f)
if fresh["verified"] is not True:
    sys.exit("FAIL: BENCH_ingest.json reports verified != true")
h = fresh["headline"]
if h["all_delta"] is not True:
    sys.exit("FAIL: headline appends fell back to recompute")
if h["speedup"] < 5.0:
    sys.exit(f"FAIL: delta maintenance speedup {h['speedup']:.1f}x < 5x at "
             f"append ratio {h['append_ratio']:.0%}")
base_cells = {(c["policy"], c["ingest_multiplier"]): c
              for c in base["staleness"]["cells"]}
for c in fresh["staleness"]["cells"]:
    if c["fresh"] is not True:
        sys.exit(f"FAIL: stale read under policy {c['policy']} at "
                 f"ingest multiplier {c['ingest_multiplier']}")
    b = base_cells.get((c["policy"], c["ingest_multiplier"]))
    if b is None:
        continue
    limit = b["p99_ms"] * 1.25 + 100.0
    if c["p99_ms"] > limit:
        sys.exit(f"FAIL: p99 regressed under {c['policy']} x{c['ingest_multiplier']}: "
                 f"{b['p99_ms']:.1f}ms -> {c['p99_ms']:.1f}ms (limit {limit:.1f}ms)")
print("BENCH_ingest.json: verified, delta speedup %.1fx wall / %.1fx rows, "
      "%d staleness cells all fresh"
      % (h["speedup"], h["rows_speedup"], len(fresh["staleness"]["cells"])))
PY

echo
echo "== CLI smoke test: serve batches piped statements through one scan =="
serve_sql=$(mktemp /tmp/check_serve_XXXXXX.sql)
cat > "$serve_sql" <<'SQL'
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress);
SELECT u.UserName FROM User u
WHERE NOT EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress
                  AND f.NumBytes > u.Quota);
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress)
SQL
sout=$(dune exec bin/olap_cli.exe -- serve --batch-window 0.05 < "$serve_sql")
rm -f "$serve_sql"
echo "$sout"
echo "$sout" | grep -q "batch of 3: 1 detail scans (naive 3)" || {
  echo "FAIL: expected serve to share 3 piped queries into 1 detail scan" >&2
  exit 1
}
echo "$sout" | grep -q "served 3 queries in 1 batches" || {
  echo "FAIL: expected the serve summary to report 3 queries in 1 batch" >&2
  exit 1
}

echo
echo "== CLI smoke test: drive replays deterministic traffic =="
dout=$(dune exec bin/olap_cli.exe -- drive --queries 60 --rate 400 --outer 24 --inner 1000)
echo "$dout"
echo "$dout" | grep -q "latency p50" || {
  echo "FAIL: expected a latency summary line from drive" >&2
  exit 1
}

echo
echo "== CLI smoke test: ingest maintains cached results across appends =="
iout=$(dune exec bin/olap_cli.exe -- ingest --flows 4000 --users 300 --batches 3 --batch-rows 200)
echo "$iout"
echo "$iout" | grep -q "ingested 600 rows in 3 batches" || {
  echo "FAIL: expected the ingest summary to count 3 batches of 200 rows" >&2
  exit 1
}
echo "$iout" | grep -Eq "maintain: [1-9][0-9]* delta" || {
  echo "FAIL: expected at least one append to be delta-maintained" >&2
  exit 1
}
# Every post-append query must be answered from the repaired entry.
if [ "$(echo "$iout" | grep -c "query: .*cache hit")" != 3 ]; then
  echo "FAIL: expected all 3 post-append queries to hit the repaired cache" >&2
  exit 1
fi

echo
echo "== CLI smoke test: drive interleaves ingest with live traffic =="
dout=$(dune exec bin/olap_cli.exe -- drive --queries 60 --rate 200 --outer 24 --inner 1000 \
  --ingest-rate 20 --ingest-batch 100 --staleness on-read)
echo "$dout"
echo "$dout" | grep -Eq "ingest: [1-9][0-9]* batches" || {
  echo "FAIL: expected interleaved append batches in the drive output" >&2
  exit 1
}
echo "$dout" | grep -q "completed 60" || {
  echo "FAIL: expected all 60 queries to complete under interleaved ingest" >&2
  exit 1
}
echo "$dout" | grep -Eq "repaired [1-9][0-9]*" || {
  echo "FAIL: expected lazy maintenance to repair cached results" >&2
  exit 1
}

echo
echo "== bench smoke test: codec target gates decode-specialization regressions =="
# The codec benchmark self-verifies (both decode modes reconstruct the
# source relation exactly); on top of that, the schema-specialized
# decode must beat the generic tag-dispatch codec by the 1.3x
# acceptance floor and stay within 30% of the committed baseline.
dune exec bench/main.exe -- codec > /dev/null
python3 - <<'PY'
import json, sys
with open("BENCH_codec.json") as f:
    fresh = json.load(f)
with open("bench/BENCH_codec.baseline.json") as f:
    base = json.load(f)
if fresh["verified"] is not True:
    sys.exit("FAIL: BENCH_codec.json reports verified != true")
if fresh["speedup"] < 1.3:
    sys.exit(f"FAIL: specialized decode speedup {fresh['speedup']:.2f}x < 1.3x floor")
if fresh["speedup"] < base["speedup"] * 0.7:
    sys.exit(f"FAIL: speedup regressed >30% vs baseline: "
             f"{base['speedup']:.2f}x -> {fresh['speedup']:.2f}x")
print("BENCH_codec.json: verified, specialized decode %.2fx vs generic (baseline %.2fx)"
      % (fresh["speedup"], base["speedup"]))
PY

echo
echo "== CLI smoke test: schema-gen output compiles and round-trips its catalog =="
# Emit typed modules for the netflow catalog into a scratch dune
# directory, compile them with warnings-as-errors, and run a round-trip
# over every generated table: of_tuple/to_tuple must be the identity on
# each stored row.
smoke_dir="scripts/schema_gen_smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
trap 'rm -f "$batch_sql"; rm -rf "$smoke_dir"' EXIT
dune exec bin/olap_cli.exe -- schema-gen --flows 500 --users 50 --out "$smoke_dir/netflow_gen.ml"
cat > "$smoke_dir/dune" <<'DUNE'
(executable
 (name smoke)
 (libraries subql_relational subql_workload subql_typed))
DUNE
cat > "$smoke_dir/smoke.ml" <<'ML'
(* Smoke for freshly emitted [schema-gen] modules: rebuild the catalog
   the modules were generated from and push every stored row through
   the generated of_tuple/to_tuple pair. *)
open Subql_relational

let () =
  let catalog =
    Subql_workload.Netflow.generate
      {
        Subql_workload.Netflow.default_config with
        Subql_workload.Netflow.n_flows = 500;
        n_users = 50;
        seed = 42L;
      }
  in
  let check name schema of_to =
    let rel = Catalog.find catalog name in
    assert (Schema.equal schema (Relation.schema rel));
    Relation.iter (fun t -> assert (Tuple.equal t (of_to t))) rel
  in
  check "Flow" Netflow_gen.Flow.schema (fun t -> Netflow_gen.Flow.(to_tuple (of_tuple t)));
  check "Hours" Netflow_gen.Hours.schema (fun t -> Netflow_gen.Hours.(to_tuple (of_tuple t)));
  check "User" Netflow_gen.User.schema (fun t -> Netflow_gen.User.(to_tuple (of_tuple t)));
  print_endline "schema-gen smoke: 3 generated modules round-trip their catalog"
ML
dune build "$smoke_dir/smoke.exe"
dune exec "$smoke_dir/smoke.exe"
rm -rf "$smoke_dir"

echo
echo "check.sh: OK"
