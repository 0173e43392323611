#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 10 --trace 0

Builds the library sources under src/ together with the benchmark binary
into .bench_build/perfbench (CMake, RelWithDebInfo), then runs one
workload, or every workload with --workload all. The last line of
standard output is the run's JSON summary. Build output goes to standard
error. Exits non-zero when the build fails, a check fails, or the
library sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
# Compiler and library temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "perfbench-tmp")
WORKLOADS = ("cold_tune", "retune", "kernel_exec", "serve", "all")

# Library switches that change what a run measures; the benchmark runs
# with all of them unset.
CLEARED_ENV = ("TILUS_TRACE", "TILUS_METRICS", "TILUS_PROFILE",
               "TILUS_FAULTS", "TILUS_SIM_ENGINE", "TILUS_CACHE")


def build(env):
    """Configure (once) and build; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        print("perfbench: library sources (src/) not found in %s" % ROOT,
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       env=env) != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    for name in CLEARED_ENV:
        if env.pop(name, None) is not None:
            print("perfbench: cleared %s for this run" % name,
                  file=sys.stderr)
    os.makedirs(TMP_DIR, exist_ok=True)
    env["TMPDIR"] = TMP_DIR

    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--work-dir", WORK_DIR, "--trace-dir", TRACE_DIR],
        env=env)


if __name__ == "__main__":
    sys.exit(main())
