#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload serve --save set_a.json
    python3 perfbench/spread.py --workload serve --against set_a.json

Runs the benchmark untraced once per seed 1..10 at BENCHMARK.json's
run_seconds and prints, for every end-to-end metric, the median over the
runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. --save writes the per-metric values to a JSON file;
--against compares this set's medians with a saved set's.

Flags a spread above a third of its bound ("> bound/3", the steadiness
target). Exits non-zero if a run fails or reports correct = false, if a
spread other than setup_s's exceeds its bound, or if a median differs
from the saved set's by more than its bound in either direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_set(bench, workload):
    """Run once per seed; returns ({metric: [values]}, all_ok)."""
    values = {}
    ok = True
    for seed in SEEDS:
        proc = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stderr)
            print("seed %d: FAILED (exit %d)" % (seed, proc.returncode))
            ok = False
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"])
            for k, m in sorted(result["metrics"].items()))), flush=True)
    return values, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--save", help="write this set's values here")
    parser.add_argument("--against", help="a set written by --save")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values, ok = run_set(bench, args.workload)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f)
    baseline = {}
    if args.against:
        with open(args.against) as f:
            baseline = json.load(f)["values"]

    print("\n%-20s %13s %8s %6s %9s" % ("metric", "median", "spread", "bound",
                                         "vs saved"))
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values.get(name)
        if not series or len(series) < 2:
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        med = statistics.median(series)
        spread = (q3 - q1) / med if med else float("inf")
        flags = []
        if spread > bound:
            flags.append("SPREAD > bound")
            ok &= name == "setup_s"
        elif spread > bound / 3:
            flags.append("> bound/3")
        gap = ""
        if name in baseline:
            base = statistics.median(baseline[name])
            change = (med - base) / base if base else float("inf")
            gap = "%+8.2f%%" % (100 * change)
            if abs(change) > bound:
                flags.append("MEDIAN GAP > bound")
                ok = False
        print("%-20s %13.6g %7.2f%% %6.2f %9s  %s"
              % (name, med, 100 * spread, bound, gap, " ".join(flags)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
