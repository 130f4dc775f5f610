#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 20 --trace 0

Run it from the repository root. It configures and builds perfbench/ (the
Eternal libraries from src/ plus the benchmark program) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
history-checker self-test, then runs one workload. The last line of standard
output is the benchmark's JSON result; build output goes to standard error.
Chrome traces of --trace 1 runs and per-run stable storage land in
<build dir>/out.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fleet_steady", "recover_state", "passive_logged")


def build(source_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # Default seed 1; hold-out seed 2026 is kept for verifying claims.
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    out_dir = os.path.join(build_dir, "out")
    try:
        build(source_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: history checker self-test failed", file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    bench = subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", out_dir])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
