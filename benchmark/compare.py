#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

  python3 benchmark/compare.py BASE.json CHANGE.json

BASE and CHANGE are files written by `run.py --record FILE` (untraced
runs; traced and --smoke runs are ignored). For each end-to-end metric of
BENCHMARK.json and each workload, prints both medians with their
quartiles, the change, the metric's bound and a verdict:

  worse       the change's median is worse than the base's by more than
              the bound;
  better      it is better by more than the base's own spread (quartile
              distance over median), and better in at least 9 of 10 runs
              paired in seed order;
  unresolved  the base's own spread exceeds the bound, and not every run
              of the change is better than every run of the base;
  unchanged   otherwise.

Exits 1 if any row is worse.
"""

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    with open(path) as f:
        runs = [r for r in json.load(f) if r["trace"] == 0 and not r["smoke"]]
    by_key = {}
    for r in sorted(runs, key=lambda r: r["seed"]):
        for name, m in r["metrics"].items():
            by_key.setdefault((r["workload"], name), []).append(m["value"])
    return by_key


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    q1, med, q3 = summary(base)
    spread = (q3 - q1) / med
    worse_by = sign * (statistics.median(change) - med) / med
    all_better = all(sign * c < sign * b for c in change for b in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if -worse_by > spread and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    with open(BENCHMARK_JSON) as f:
        metrics = json.load(f)["end_to_end"]
    workloads = []
    for w, _ in list(base) + list(change):
        if w not in workloads:
            workloads.append(w)
    print("%-15s %-13s %28s %28s %8s %6s  %s" % (
        "metric", "workload", "base median [q1, q3]", "change median [q1, q3]",
        "change", "bound", "verdict"))
    worse = 0
    for m in metrics:
        for w in workloads:
            a, b = base.get((w, m["name"])), change.get((w, m["name"]))
            if not a or not b:
                print("%-15s %-13s missing in %s" % (
                    m["name"], w, "base" if not a else "change"))
                continue
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            sa, sb = summary(a), summary(b)
            print("%-15s %-13s %10.5g [%6.5g, %6.5g] %10.5g [%6.5g, %6.5g] "
                  "%+7.2f%% %5.0f%%  %s" % (
                      m["name"], w, sa[1], sa[0], sa[2], sb[1], sb[0], sb[2],
                      100 * (sb[1] - sa[1]) / sa[1], 100 * m["bound"], v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
