#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <hbp-sort|bp-scan-stream|serve-mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The perfbench program and the ro
library are built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the run
works in a fresh directory under it, where the ro-serve socket and trace
spill files live, and removes it afterwards.  Spans of a traced run are kept in
<build>/traces/<workload>-seed<n>.jsonl.  The last line of standard output
is the result JSON.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hbp-sort", "bp-scan-stream", "serve-mix")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build(src, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure every time: it is quick on a cached tree, and it refuses a
    # build directory that was made for another source tree.
    steps = [["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    if not build(here, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--expected", os.path.join(here, "expected_fingerprints.txt")]
    if a.trace:
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (a.workload, a.seed))]
    try:
        r = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
