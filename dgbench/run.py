#!/usr/bin/env python3
"""Build and run dgsim's benchmark.

    python3 dgbench/run.py --workload tier1024-probe --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and compiles the
simulator's libraries plus the benchmark program, dgbench, into
.bench_build/dgbench (under a minute on 4 cores); later calls only check
that the build is current.  Build output goes to standard error, so the
last line of standard output is dgbench's JSON result.  All arguments are
passed to dgbench; see dgbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "dgbench")
JOBS = "4"


def build():
    """Configures and builds dgbench; returns the binary's path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "dgbench",
                  "-j", JOBS])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("dgbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(BUILD, "dgbench")
    return binary if os.path.exists(binary) else None


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
