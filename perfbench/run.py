#!/usr/bin/env python3
"""Build and run one PRIME benchmark workload.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench/ (a Release build of the simulator sources plus the harness)
into .bench_build/perfbench; later calls reuse that build.  The harness
prints its full report; this script then prints, as the last line of
standard output, one JSON object with the metrics BENCHMARK.json
declares: the end_to_end ones for --trace 0, the per_layer ones for
--trace 1.  The exit status is non-zero when the build fails, an output
check fails or a declared metric is missing.  A failed check still
prints the result line, with "correct": false; the other failures print
none.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_harness(args):
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("harness timed out")
        return None, 1
    return out, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              cwd=ROOT).returncode
    if not args.workload:
        ap.error("--workload is required")

    out, code = run_harness(args)
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    # Everything but the harness's own JSON line is the readable report.
    for line in lines[:-1]:
        print(line)
    # 0: checks passed; 1: a check failed (the result line says so).
    if code not in (0, 1):
        log("harness exited with %d" % code)
        return code
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("no result line from the harness")
        return 1

    metrics = {}
    for name in declared_metrics(args.trace):
        m = result["metrics"].get(name)
        if m is None or m["value"] is None:
            log("metric %s was not measured" % name)
            return 1
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
