#!/usr/bin/env python3
"""Round benchmark entry point.

Builds the benchmark program (and the library it links) from the sources in
this checkout, then runs one workload and forwards the program's output. The
last line on stdout is the result JSON.

    python3 roundbench/run.py --workload har_robust_fleet --seed 1 \\
        --seconds 40 --trace 0

Build output goes to stderr; the build tree is .bench_build/ at the root of
the checkout. See roundbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "roundbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "roundbench")
# Observability sinks and scale knobs the library reads from the
# environment. Timed runs keep every sink off.
CLEARED_ENV = ("NEBULA_TRACE", "NEBULA_METRICS", "NEBULA_EVENTS",
               "NEBULA_TIMELINE", "NEBULA_OBS_PORT", "NEBULA_BENCH_SCALE")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("roundbench: the library sources (src/) are not in this "
                 "checkout; nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "round_bench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "round_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"roundbench: build failed: {e}")
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"roundbench: run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
