#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program and the wavehpc libraries it calls from this
checkout's sources (Release, into .bench_build/), runs one workload, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list; a
per-layer metric of a layer the workload does not exercise reads 0. Build
output goes to stderr. Exits non-zero, printing no result, when the build
fails or the program crashes; exits 1 after the result when a correctness
check failed (the program names the workload and the check on stderr).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("decompose", "stream", "service_hot", "shard_cold")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        print(f"perfbench: workload {args.workload} exited {proc.returncode} "
              "without a result", file=sys.stderr)
        return proc.returncode or 3

    got = result["metrics"]
    unknown = sorted(set(got) - known)
    if unknown:
        print(f"perfbench: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 4
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                print(f"perfbench: {name} reported in {got[name]['unit']}, "
                      f"BENCHMARK.json says {unit}", file=sys.stderr)
                return 4
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif args.trace == "1":
            metrics[name] = {"value": 0, "unit": unit}  # layer not exercised here
        else:
            print(f"perfbench: end-to-end metric {name} not reported", file=sys.stderr)
            return 4
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
