#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size.

    python3 perfbench/test_bench.py

From the root of a checkout.  For each workload it checks that

- an untraced run prints every end-to-end metric of BENCHMARK.json and a
  traced run every per-layer metric, each with its unit, and that every
  answer was verified;
- two traced runs with the same seed give identical counts (the gmdj.*
  counts, storage.page_reads, eval.chunks, the mqo.* ratios and the
  ingest.* counts) and generate identical inputs;
- a run with another seed generates different inputs;
- serve-ingest, run for --seconds rather than a number of requests,
  covers the same arrivals and appends in two same-seed runs, and the
  two passes of a traced run cover the same arrivals.

It also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.  Everything it
writes stays under .perfbench/test.
"""

import json
import os
import shutil
import subprocess
import sys

OUT = os.path.join(".perfbench", "test")
REQUESTS = {"paper-cold": 60, "zoo-cold": 46, "serve-ingest": 60}
REPEATABLE = [
    "gmdj.detail_passes",
    "gmdj.detail_rows",
    "gmdj.theta_evals",
    "gmdj.early_exit_ratio",
    "storage.page_reads",
    "eval.chunks",
    "mqo.cache_hit_ratio",
    "mqo.scans_per_query",
    "mqo.shared_scan_ratio",
    "ingest.delta_ratio",
    "ingest.invalidated",
    "ingest.repaired",
]

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload, seed, trace, cwd=".", by_count=True):
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        "--size", "tiny", "--out", OUT,
    ]
    if by_count:
        argv += ["--requests", str(REQUESTS[workload])]
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc


def result(workload, seed, trace, by_count=True):
    proc = run(workload, seed, trace, by_count=by_count)
    tag = f"{workload} seed {seed} trace {trace}"
    check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else {}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        record = json.load(f)
    return res, record


def check_metrics(tag, res, specs):
    keys = {"correct", "attempted", "failed", "metrics"}
    check(set(res) == keys, f"{tag}: result keys {sorted(res)}")
    check(res.get("correct") is True and res.get("failed") == 0, f"{tag}: answers not verified")
    metrics = res.get("metrics", {})
    check(sorted(metrics) == sorted(s["name"] for s in specs), f"{tag}: metric names differ")
    for s in specs:
        m = metrics.get(s["name"], {})
        check(m.get("unit") == s["unit"], f"{tag}: {s['name']} unit {m.get('unit')} != {s['unit']}")
        check(isinstance(m.get("value"), (int, float)), f"{tag}: {s['name']} has no value")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    shutil.rmtree(OUT, ignore_errors=True)
    for w in [w["name"] for w in bench["workloads"]]:
        print(f"== {w}", flush=True)
        res, _ = result(w, 1, 0)
        check_metrics(f"{w} trace 0", res, bench["end_to_end"])
        first, rec1 = result(w, 1, 1)
        check_metrics(f"{w} trace 1", first, bench["per_layer"])
        again, rec2 = result(w, 1, 1)
        for name in REPEATABLE:
            a = first["metrics"].get(name, {}).get("value")
            b = again["metrics"].get(name, {}).get("value")
            check(a == b, f"{w}: {name} differs between same-seed runs ({a} vs {b})")
        check(rec1["inputs"] == rec2["inputs"], f"{w}: same seed, different inputs")
        _, other = result(w, 2, 1)
        check(other["inputs"] != rec1["inputs"], f"{w}: another seed, same inputs")

    print("== serve-ingest for a fixed stretch of the trace", flush=True)
    _, a = result("serve-ingest", 1, 0, by_count=False)
    _, b = result("serve-ingest", 1, 0, by_count=False)
    for key in ["appends", "served"]:
        check(a["counts"][key] == b["counts"][key], f"serve-ingest: {key} differs between same-seed runs")
    check(a["inputs"] == b["inputs"], "serve-ingest: same seed and --seconds, different arrivals")
    traced, rec = result("serve-ingest", 1, 1, by_count=False)
    check(traced.get("attempted") == 2 * rec["counts"]["served"],
          "serve-ingest: the traced run's two passes cover different arrivals")

    print("== without sources", flush=True)
    bare = os.path.join(OUT, "bare")
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = run("zoo-cold", 1, 0, cwd=bare)
    check(proc.returncode != 0 and proc.stdout.strip() == "", "runs without the sources to build")

    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
