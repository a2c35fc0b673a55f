#!/usr/bin/env python3
"""Build and run the Airfoil benchmark for one workload.

    python3 perfbench/run.py --workload airfoil_small --seed 1 \
        --seconds 25 --trace 0

Configures and builds perfbench/ (which compiles the repository's
libraries from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs perfbench_airfoil. Its output ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the run also writes a Chrome trace next to the build and
checks that it loads.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("airfoil_paper", "airfoil_small", "service_open")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (first time) and build the benchmark binary; build
    output goes to stderr so the result stays the last stdout line."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_airfoil",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_airfoil")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            build_dir, f"trace-{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if trace_path is not None:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            print("run.py: empty trace", file=sys.stderr)
            return 1
        print(f"trace {os.path.relpath(trace_path, ROOT)}: "
              f"{len(events)} events")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
