#!/usr/bin/env python3
"""Build and run one workload of the coopcr benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_fig1 --seed 7 --seconds 10 --trace 0

Configures and builds perfbench/ (which builds the coopcr library from the
repository's own sources) under .bench_build/perfbench, then runs the
perfbench binary with the same arguments. Build output goes to stderr; the
binary's standard output is passed through unchanged, so its last line is
the result object {"correct", "attempted", "failed", "metrics"}.
Journals and span dumps go to .bench_build/perfbench/runs/.

Exits non-zero, without printing a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("sweep_fig1", "advisor_mix")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="test hook: corrupt one checked output")
    args = parser.parse_args()

    build()
    runs_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", runs_dir]
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"perfbench: {args.workload} exited with {done.returncode}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
