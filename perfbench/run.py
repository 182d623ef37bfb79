#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark are built
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build); the
benchmark's own tests run before the workload. The last line of standard
output is the run's JSON result. `--selftest` builds and runs only the
tests.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs,
             "--target", "dwbench", "dwbench_selftest"],
            check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    selftest = subprocess.run([os.path.join(build_dir, "dwbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
    if selftest.returncode != 0 or args.selftest:
        print(selftest.stdout, end="",
              file=sys.stdout if args.selftest else sys.stderr)
        return selftest.returncode

    cmd = [os.path.join(build_dir, "dwbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace), "--trace-dir", ".bench_out"]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
