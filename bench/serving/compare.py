#!/usr/bin/env python3
"""Compare repeated serving-benchmark runs of a parent and a change.

    compare.py PARENT_DIR CHANGE_DIR   one row per workload x metric
    compare.py RUNS_DIR                medians, quartiles and spreads

Each directory holds repeated runs: every BENCH_serving_<workload>.json
below it (run.py --json-dir DIR/<n>) is one run. Runs pair up in sorted
path order, so give both sides the same seeds in the same order and
alternate which side runs first. Metric units, directions and bounds
come from BENCHMARK.json at the checkout root.

Verdicts, per workload x metric:
  improved     the change wins >= 9/10 of the pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range
  regressed    the change's median is worse by more than the bound
  unresolved   a side's interquartile range, as a share of its median,
               is wider than the bound, and not every change run beats
               every parent run
  unchanged    otherwise
Per-layer metrics have no bound: they read improved, worsened (the
mirror of improved) or unchanged.

Exits 1 when any end-to-end metric regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory):
    """workload -> list of {metric: value}, in sorted path order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).rglob("BENCH_serving_*.json")):
        with open(path) as f:
            report = json.load(f)
        workload = report["bench"].removeprefix("serving_")
        runs[workload].append(report["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def rel_spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    moved = abs(cm - pm) > pq3 - pq1
    if pairs and wins >= 0.9 * len(pairs) and moved and sign * (cm - pm) > 0:
        return wins, "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and moved:
            return wins, "worsened"
        return wins, "unchanged"
    if pm and sign * (pm - cm) / abs(pm) > bound:
        return wins, "regressed"
    every_change_better = (min(change) > max(parent) if sign > 0
                           else max(change) < min(parent))
    if (max(rel_spread(parent), rel_spread(change)) > bound
            and not every_change_better):
        return wins, "unresolved"
    return wins, "unchanged"


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    metrics = [(m, True) for m in bench["end_to_end"]]
    metrics += [(m, False) for m in bench["per_layer"]]
    sides = [load_runs(d) for d in argv[1:]]
    if len(sides) == 1:
        print("workload  metric  median [q1, q3]  spread  bound  runs")
        for workload, runs in sorted(sides[0].items()):
            for m, _ in metrics:
                values = [r[m["name"]] for r in runs if m["name"] in r]
                if values:
                    print(f"{workload}  {m['name']}  {fmt(values)}  "
                          f"{rel_spread(values):.4f}  "
                          f"{m.get('bound', '-')}  {len(values)}")
        return 0
    parent, change = sides
    regressed = False
    print("workload  metric  parent median [q1, q3]  change median "
          "[q1, q3]  delta  wins  bound  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m, end_to_end in metrics:
            name = m["name"]
            p = [r[name] for r in parent[workload] if name in r]
            c = [r[name] for r in change[workload] if name in r]
            if not p or not c:
                continue
            wins, result = verdict(p, c, m["better"], m.get("bound"))
            regressed |= end_to_end and result == "regressed"
            pm = statistics.median(p)
            delta = (statistics.median(c) - pm) / abs(pm) if pm else 0.0
            print(f"{workload}  {name}  {fmt(p)}  {fmt(c)}  {delta:+.2%}  "
                  f"{wins}/{min(len(p), len(c))}  {m.get('bound', '-')}  "
                  f"{result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
