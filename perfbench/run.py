#!/usr/bin/env python3
"""End-to-end ORB benchmark: build, self-test, run, report.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Run it from the root of the source tree. It configures and builds
perfbench/ (which compiles the ORB from src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's self-test, then runs one workload. Human-readable lines go to
stdout with each metric's unit and sample counts; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when every reply checked out and
every metric was measured. perfbench/NOTES.md describes the workloads.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("rpc_small", "qos_closed", "dacapo_bulk", "qos_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr, so stdout stays the report."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        die(f"{' '.join(cmd)} failed: {err}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "orb", "orb.h")):
        die("the ORB sources (src/) are not here; run from the root of the "
            "source tree")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                    "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    run_logged([os.path.join(build_dir, "perfbench_selftest")], 60)


def expected_metrics(root, trace):
    """name -> unit of the metrics BENCHMARK.json asks this mode for."""
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative")

    root = os.getcwd()
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "perfbench")
    build(root, build_dir)
    want = expected_metrics(root, args.trace)

    cmd = [os.path.join(build_dir, "orb_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"orb_bench did not finish within {RUN_TIMEOUT_S} s", 1)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        die(f"orb_bench exited {proc.returncode} without a result", 1)

    problems = []
    metrics = {}
    for name, unit in want.items():
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"metric {name} was not measured")
        elif got["unit"] != unit:
            problems.append(f"metric {name} is in {got['unit']}, not {unit}")
        else:
            metrics[name] = got
    for p in problems:
        print(f"  PROBLEM: {p}")
    correct = (bool(result["correct"]) and proc.returncode == 0
               and not problems)
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
