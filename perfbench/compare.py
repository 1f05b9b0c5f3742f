#!/usr/bin/env python3
"""Compares two sets of benchmark runs and flags what moved beyond noise.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result objects saved by `run.py --save DIR`, one file
per run: <workload>-seed<n>-trace<0|1>.json. Runs are paired by seed.

A metric on a workload is flagged when all three hold:
  1. its median moved by more than the threshold, as a share of the base
     median: the metric's `bound` for end-to-end metrics (in the worse
     direction only), LAYER_THRESHOLD for per-layer metrics (either
     direction);
  2. the medians differ by more than the base runs' own spread, the
     distance between their first and third quartiles;
  3. at least 90% of the seed pairs moved in that direction.
An end-to-end metric that is not flagged but whose base spread exceeds
its bound is unresolved rather than unchanged, unless every new run is
better than every base run. Exits 1 when anything is flagged or
unresolved; the last line counts both.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Relative change of a per-layer metric that counts as a move.
LAYER_THRESHOLD = 0.1
NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])"
                  r"\.json$")


def load_runs(directory):
    """{(workload, trace): {seed: {metric: value}}}"""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        m = NAME.match(os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            result = json.load(f)
        key = (m.group("workload"), int(m.group("trace")))
        runs.setdefault(key, {})[int(m.group("seed"))] = {
            name: v["value"] for name, v in result["metrics"].items()}
    return runs


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def judge(base, new, threshold, direction):
    """Returns (verdict, detail) for one metric on one workload.

    `base` and `new` map seed -> value; `direction` is "lower" or "higher"
    (which way is better, for end-to-end metrics) or None (per-layer:
    any change counts).
    """
    b = list(base.values())
    n = list(new.values())
    mb = statistics.median(b)
    mn = statistics.median(n)
    spread = quartile_spread(b)
    if mb == 0 and mn == 0:
        return "same", ""
    rel = (mn - mb) / abs(mb) if mb != 0 else float("inf")
    detail = "base %.6g -> new %.6g (%+.1f%%, base IQR %.3g)" % (
        mb, mn, 100 * rel, spread)
    if direction == "lower":
        moved = rel > threshold
        sign = 1
    elif direction == "higher":
        moved = rel < -threshold
        sign = -1
    else:
        moved = abs(rel) > threshold
        sign = 1 if rel > 0 else -1
    if moved and abs(mn - mb) > spread:
        pairs = [(base[s], new[s]) for s in base if s in new]
        agree = sum(1 for x, y in pairs if (y - x) * sign > 0)
        if pairs and agree >= 0.9 * len(pairs):
            return "flagged", detail + ", %d/%d pairs" % (agree, len(pairs))
    if direction is None or mb == 0 or spread / abs(mb) <= threshold:
        return "same", detail
    # Too noisy to call unchanged, unless every new run reads better.
    if (direction == "lower" and max(n) < min(b)) or (
            direction == "higher" and min(n) > max(b)):
        return "same", detail
    return "unresolved", detail


def compare(base_dir, new_dir):
    """Returns a list of (verdict, workload, metric, detail)."""
    with open(BENCHMARK) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base = load_runs(base_dir)
    new = load_runs(new_dir)
    out = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        metrics = sorted(set().union(*base[key].values()) &
                         set().union(*new[key].values()))
        for metric in metrics:
            b = {s: v[metric] for s, v in base[key].items() if metric in v}
            n = {s: v[metric] for s, v in new[key].items() if metric in v}
            if trace == 0 and metric in e2e:
                verdict, detail = judge(b, n, e2e[metric]["bound"],
                                        e2e[metric]["better"])
            else:
                verdict, detail = judge(b, n, LAYER_THRESHOLD, None)
            out.append((verdict, workload, metric, detail))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args()
    rows = compare(args.base, args.new)
    for verdict, workload, metric, detail in rows:
        if verdict != "same":
            print("%-10s %-14s %-28s %s" % (verdict, workload, metric, detail))
    flagged = sum(1 for r in rows if r[0] == "flagged")
    unresolved = sum(1 for r in rows if r[0] == "unresolved")
    print("%d flagged, %d unresolved of %d metric x workload pairs"
          % (flagged, unresolved, len(rows)))
    sys.exit(1 if flagged or unresolved else 0)


if __name__ == "__main__":
    main()
