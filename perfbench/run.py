#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

Builds perfbench/bench.exe with dune into .bench_build, runs it with the
arguments given, and passes its output through: the last line of
standard output is the run's JSON result.  Run records and spans go to
.perfbench/results, heap files to .perfbench/tmp/<pid>.

Exits non-zero, without a result, when the checkout has no sources to
build, when the build fails, or when the run fails or overruns.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child(argv, env, stdout, timeout, what):
    """Run one child to completion; it never outlives this process."""
    proc = subprocess.Popen(argv, env=env, stdout=stdout, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} exceeded {timeout}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"{what} failed with code {proc.returncode}", proc.returncode)
    return out


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ are missing")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # A terminated run unwinds through child(), which stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The build's own temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--display", "quiet", "./perfbench/bench.exe",
    ]
    child(build, env, sys.stderr, BUILD_TIMEOUT_S, "build")
    sys.stdout.write(child([EXE] + argv, env, subprocess.PIPE, RUN_TIMEOUT_S, "run"))


if __name__ == "__main__":
    main(sys.argv[1:])
