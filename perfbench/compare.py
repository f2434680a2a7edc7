#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py (``*.json`` with a
``fingerprint``; trace files and traced runs are skipped). Runs are
paired per workload by seed -- the k-th parent run of a seed with the
k-th change run of that seed -- else in file order. For every workload and
every end-to-end metric in BENCHMARK.json the verdict is:

  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither side) and its median is better than the
              parent's by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own interquartile range, as a share of its
              median, is wider than the bound, and not every change run
              reads better than every parent run
  unchanged   otherwise

Each workload is reported in its own rows.
"""

import argparse
import glob
import json
import os
import statistics
import sys
from collections import Counter, deque

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """workload -> list of (seed, metrics) from untraced result files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as handle:
            record = json.load(handle)
        fp = record.get("fingerprint", {})
        if fp.get("trace") or "metrics" not in record:
            continue
        values = {name: entry["value"] for name, entry in record["metrics"].items()}
        runs.setdefault(fp["workload"], []).append((fp.get("seed"), values))
    return runs


def pair(parent, change):
    """Pair runs by seed when both sides hold the same seeds equally often,
    else by order. A repeated seed pairs its k-th parent run with its k-th
    change run."""
    if Counter(seed for seed, _ in parent) != Counter(seed for seed, _ in change):
        return [(p, c) for (_, p), (_, c) in zip(parent, change)]
    queues = {}
    for seed, values in change:
        queues.setdefault(seed, deque()).append(values)
    return [(values, queues[seed].popleft()) for seed, values in parent]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Verdict for paired runs: parent[i] and change[i] share a seed."""
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (med_c - med_p)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if wins >= 0.9 * len(parent) and gain > iqr:
        return "improved", wins
    if -gain > bound * abs(med_p):
        return "worse", wins
    spread = iqr / abs(med_p) if med_p else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_dir, change_dir, catalogue):
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        pairs = pair(parent_runs[workload], change_runs[workload])
        for metric in catalogue["end_to_end"]:
            name = metric["name"]
            ps = [p[name] for p, c in pairs if name in p and name in c]
            cs = [c[name] for p, c in pairs if name in p and name in c]
            if not ps:
                continue
            result, wins = verdict(ps, cs, metric["better"], metric["bound"])
            q1p, q3p = quartiles(ps)
            q1c, q3c = quartiles(cs)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": {"median": statistics.median(ps), "q1": q1p, "q3": q3p},
                "change": {"median": statistics.median(cs), "q1": q1c, "q3": q3c},
                "wins": wins, "pairs": len(ps), "bound": metric["bound"],
                "verdict": result,
            })
    return rows


def cell(side):
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--catalogue", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.catalogue) as handle:
        catalogue = json.load(handle)
    rows = compare(args.parent, args.change, catalogue)
    print(f"{'workload':10} {'metric':16} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'wins':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:10} {r['metric']:16} {cell(r['parent']):32} "
              f"{cell(r['change']):32} {r['wins']:>3}/{r['pairs']:<3}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
