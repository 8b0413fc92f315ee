#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload d2_mono_read --seed 1 \
        --seconds 30 --trace 0

The harness (perfbench/*.cc) and the planar libraries it drives are
compiled from ../src with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the harness's JSON result.
Exits non-zero without printing a result when the build fails, e.g. in a
directory that holds the benchmark but not the planar sources.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no planar sources at %s\n" %
                         os.path.join(ROOT, "src"))
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.stderr.write("perfbench: build step failed: %s\n" % err)
            return None
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" %
                             " ".join(step))
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        return 2
    sys.stdout.flush()
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
