#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

From the repository root:

    python3 perfbench/run.py --workload advise_warm --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the
repository's library, factcheck_serve and the fcbench driver, Release)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only re-check the build.  Build output goes to stderr, so the last line
on stdout is always fcbench's JSON result.  The exit status is fcbench's.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("advise_warm", "clean_replan", "claims_cold")
HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds fcbench + factcheck_serve; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fcbench",
                  "factcheck_serve", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    # The benchmark builds the program from the checkout's sources; without
    # them there is nothing to measure.
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(REPO, "src", "serve")):
        print("run.py: the repository sources are missing next to perfbench/",
              file=sys.stderr)
        return 1

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(REPO, build_dir)
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "fcbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--serve-bin", os.path.join(build_dir, "factcheck", "factcheck_serve"),
               "--run-dir", ".bench_run"]
    sys.stdout.flush()
    # Run from the repository root with a relative run directory, so the
    # daemon's socket path stays short whatever the checkout path is.
    return subprocess.run(command, cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
