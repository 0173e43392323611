#!/usr/bin/env python3
"""Validate the metrics dumps written via TILUS_METRICS.

A path ending in ".prom" holds the Prometheus text exposition format,
anything else the JSON dump (see src/obs/metrics.h). Checks:
  * JSON: the document parses, holds exactly the counters / gauges /
    histograms objects, and each object's names are sorted and
    Prometheus-compatible ([a-z_][a-z0-9_]*); counters are
    non-negative integers named *_total, gauges are numbers, and
    histograms carry count / sum / p50 / p95 / p99 / buckets;
  * Prometheus: every family is declared by a "# TYPE tilus_<name>
    <counter|gauge|histogram>" line before its first sample, exactly
    once; every sample belongs to a declared family (a histogram's via
    its _bucket{le=...} / _sum / _count series) and every declared
    family has samples;
  * with --run, both dumps name the same families (a JSON histogram
    also accounts for its _p50 / _p95 / _p99 companion gauges).

Usage:
  check_metrics.py METRICS.json|METRICS.prom
  check_metrics.py --run BINARY   # run BINARY twice with TILUS_METRICS
                                  # (a .json and a .prom path, each on a
                                  # fresh TILUS_CACHE_DIR so the compile
                                  # and cache counters move), then
                                  # validate both dumps
"""

import json
import os
import re
import subprocess
import sys
import tempfile

NAME = re.compile(r"[a-z_][a-z0-9_]*")
TYPE_LINE = re.compile(r"# TYPE tilus_([a-z_][a-z0-9_]*) "
                       r"(counter|gauge|histogram)")
SAMPLE_LINE = re.compile(r'tilus_([a-z_][a-z0-9_]*)(\{le="[^"]+"\})? (\S+)')
HISTOGRAM_KEYS = ["count", "sum", "p50", "p95", "p99", "buckets"]
TAILS = ("_p50", "_p95", "_p99")


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_json(path):
    """Returns {family name: type} as the Prometheus dump would list it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")
    if list(doc) != ["counters", "gauges", "histograms"]:
        fail(f"{path}: top-level keys {list(doc)}")
    families = {}
    for kind, metrics in doc.items():
        if not isinstance(metrics, dict):
            fail(f"{path}: '{kind}' is not an object")
        names = list(metrics)
        if names != sorted(names):
            fail(f"{path}: '{kind}' names are not sorted: {names}")
        for name, value in metrics.items():
            if not NAME.fullmatch(name):
                fail(f"{path}: '{name}' is not a Prometheus-compatible name")
            if kind == "counters":
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 0:
                    fail(f"{path}: counter '{name}' = {value!r}")
                if not name.endswith("_total"):
                    fail(f"{path}: counter '{name}' does not end in _total")
                families[name] = "counter"
            elif kind == "gauges":
                if not is_number(value):
                    fail(f"{path}: gauge '{name}' = {value!r}")
                families[name] = "gauge"
            else:
                if not isinstance(value, dict) or \
                        list(value) != HISTOGRAM_KEYS:
                    fail(f"{path}: histogram '{name}' keys "
                         f"{list(value) if isinstance(value, dict) else value}")
                families[name] = "histogram"
                for tail in TAILS:
                    families[name + tail] = "gauge"
    if not doc["counters"]:
        fail(f"{path}: no counters recorded")
    return families


def validate_prom(path):
    """Returns {family name: type} declared by the # TYPE lines."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: not readable: {e}")
    families = {}
    sampled = set()
    for n, line in enumerate(lines, 1):
        where = f"{path}:{n}"
        if line.startswith("#"):
            m = TYPE_LINE.fullmatch(line)
            if not m:
                fail(f"{where}: not a '# TYPE tilus_<name> <type>' line: "
                     f"{line!r}")
            if m.group(1) in families:
                fail(f"{where}: family '{m.group(1)}' declared twice")
            families[m.group(1)] = m.group(2)
            continue
        m = SAMPLE_LINE.fullmatch(line)
        if not m:
            fail(f"{where}: not a sample line: {line!r}")
        name, label, value = m.groups()
        try:
            float(value)
        except ValueError:
            fail(f"{where}: sample value {value!r} is not a number")
        family = name
        if families.get(name) in ("counter", "gauge"):
            if label:
                fail(f"{where}: unexpected label on '{name}'")
        else:
            base, _, suffix = name.rpartition("_")
            if families.get(base) != "histogram" or \
                    suffix not in ("bucket", "sum", "count") or \
                    bool(label) != (suffix == "bucket"):
                fail(f"{where}: sample '{name}' belongs to no family "
                     f"declared above it")
            family = base
        sampled.add(family)
    if not families:
        fail(f"{path}: no metric families")
    unsampled = sorted(set(families) - sampled)
    if unsampled:
        fail(f"{path}: families without samples: {unsampled}")
    return families


def validate(path):
    prom = path.endswith(".prom")
    families = validate_prom(path) if prom else validate_json(path)
    kinds = sorted(set(families.values()))
    print(f"check_metrics: OK: {path}: {len(families)} families "
          f"({', '.join(kinds)})")
    return families


def run_and_validate(binary):
    with tempfile.TemporaryDirectory(prefix="tilus_check_metrics_") as tmp:
        found = {}
        for suffix in (".json", ".prom"):
            dump = os.path.join(tmp, "metrics" + suffix)
            env = dict(os.environ)
            env["TILUS_METRICS"] = dump
            env["TILUS_CACHE_DIR"] = os.path.join(tmp, "cache" + suffix)
            env.pop("TILUS_CACHE", None)
            proc = subprocess.run([binary], env=env,
                                  stdout=subprocess.DEVNULL, timeout=540)
            if proc.returncode != 0:
                fail(f"{binary} exited with {proc.returncode}")
            if not os.path.exists(dump):
                fail(f"{binary} did not write {dump}")
            found[suffix] = validate(dump)
        if found[".json"] != found[".prom"]:
            fail(f"the dumps disagree on families: json {found['.json']}, "
                 f"prom {found['.prom']}")


def main(argv):
    if len(argv) == 3 and argv[1] == "--run":
        run_and_validate(argv[2])
    elif len(argv) == 2:
        validate(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)
