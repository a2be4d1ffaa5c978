#!/usr/bin/env python3
"""One-command benchmark of the msptrsv solver stack.

Builds the benchmark (and the library from the source tree it sits in)
with CMake, then runs one workload and relays its output; the last stdout
line is the JSON result.

    python3 perfbench/run.py --workload host_iterate --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload host_iterate --seed 1 --seconds 8 --trace 1
    python3 perfbench/run.py --selftest

The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the working directory; run files (plan blobs, span dumps) go
under its work/ subdirectory. Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("host_iterate", "served_fleet", "cold_start", "paper_sim")
# Each run must end within 180 s; leave headroom for the process exit.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests and exit")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]
                              ).returncode

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
