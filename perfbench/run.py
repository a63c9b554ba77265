#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator and the
krisp_perfbench driver from source (CMake, into .bench_build/perfbench,
or under $CARGO_TARGET_DIR when set), then runs the one workload in a
fresh process so set-up time and peak memory belong to it alone.

The driver's report lines pass through; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"} whose metric
names are checked against BENCHMARK.json. The exit code is 0 only
when the build succeeded and every output check held.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closed_krisp_mix", "cluster16_mps", "openloop_traced",
             "llm_emulated")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then (re)build the driver; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "krisp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))
    return os.path.join(bdir, "krisp_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("--seed must be >= 0 and --seconds >= 1")
    krisp_env = sorted(k for k in os.environ if k.startswith("KRISP_"))
    if krisp_env:
        sys.exit("refusing to run with KRISP_* set: " + ", ".join(krisp_env))

    bdir = build_dir()
    binary = build(bdir)
    spans_dir = os.path.join(bdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s.seed%d.trace%d.json" % (
        args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark run exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        sys.exit("benchmark driver printed no result (exit %d)"
                 % proc.returncode)
    for line in lines[:-1]:
        print(line)
    mismatch = expected_metrics(args.trace) ^ set(result["metrics"])
    if mismatch:
        sys.exit("metrics differ from BENCHMARK.json: " +
                 ", ".join(sorted(mismatch)))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
