#!/usr/bin/env python3
"""Determinism test of the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

For each workload and each of two seeds (3 and 4), runs the benchmark twice
untraced and twice traced (one-second budget) and checks that the two
runs agree exactly on the modeled metric (modeled_ms) and on every
deterministic value of the traced run: the counts (compiles, candidates,
builds, decodes, probes, cache hits and misses, payload bytes, launches,
simulator ops, plans, steps, preemptions, cost lookups) and the modeled
serving figures (serving.ttft_*, serving.tpot_*, serving.max_rate_rps). Also checks that the two seeds give different modeled inputs.
Exits non-zero on any mismatch or failed run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELED = ("modeled_ms",)
MODELED_LAYER_PREFIXES = ("serving.ttft_", "serving.tpot_",
                          "serving.max_rate_rps")
EXACT_UNITS = ("count", "bytes")
EXACT_RATIOS = ("cache.hit_ratio", "sim.microop_ratio")
WORKLOADS = ("cold_tune", "retune", "kernel_exec", "serve")
SEEDS = (3, 4)


def run(command, workload, seed, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s seed %d trace %d failed (exit %d)"
                           % (workload, seed, trace, proc.returncode))
    return result["metrics"]


def deterministic(metrics, trace):
    out = {}
    for name, m in metrics.items():
        if trace:
            keep = (m["unit"] in EXACT_UNITS or name in EXACT_RATIOS or
                    name.startswith(MODELED_LAYER_PREFIXES))
        else:
            keep = name in MODELED
        if keep:
            out[name] = m["value"]
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    ok = True
    for workload in WORKLOADS:
        modeled_by_seed = []
        for seed in SEEDS:
            for trace in (0, 1):
                try:
                    a = deterministic(run(command, workload, seed, trace),
                                      trace)
                    b = deterministic(run(command, workload, seed, trace),
                                      trace)
                except RuntimeError as e:
                    print("FAIL", e)
                    ok = False
                    continue
                diff = sorted(k for k in a if a[k] != b.get(k))
                status = "ok" if not diff and a else "FAIL"
                ok &= status == "ok"
                print("%-12s seed %d %s: %d values repeat%s"
                      % (workload, seed, "traced  " if trace else "untraced",
                         len(a) - len(diff),
                         "" if not diff else "; differ: " + ", ".join(diff)))
                if not trace:
                    modeled_by_seed.append(a)
        if len(modeled_by_seed) == 2 and modeled_by_seed[0] == \
                modeled_by_seed[1]:
            print("%-12s FAIL: seeds %s give identical modeled metrics"
                  % (workload, SEEDS))
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
