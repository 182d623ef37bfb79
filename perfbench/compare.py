#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds sweep.py records. For every workload and end-to-end
metric it prints each side's median and quartiles, the share of pairs
(the i-th run of each side, in file order) the change won, the change of
the median as a ratio with its base, and a verdict:
  unresolved  a side's spread (Q3 - Q1) / median is wider than the bound,
              unless every change run beats every base run;
  regressed   the change's median is worse by more than the bound;
  improved    the change wins 9/10 of the pairs and the medians differ by
              more than the base's own spread;
  same        otherwise.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if r.get("trace", 0) == 0:
                    runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(base, change, better, bound):
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    lost = sum(1 for b, c in pairs if sign * (c - b) < 0)
    all_better = (min(change) > max(base) if better == "higher"
                  else max(change) < min(base))
    bspread = (bq3 - bq1) / bmed if bmed else float("inf")
    cspread = (cq3 - cq1) / cmed if cmed else float("inf")
    worse_by = sign * (bmed - cmed) / abs(bmed) if bmed else 0.0
    if (bspread > bound or cspread > bound) and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    elif won >= 0.9 * len(pairs) and abs(cmed - bmed) > (bq3 - bq1):
        v = "improved"
    else:
        v = "same"
    return (bq1, bmed, bq3), (cq1, cmed, cq3), won, lost, len(pairs), v


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in base or wl not in change:
            print(f"{wl}: missing from {'base' if wl not in base else 'change'}")
            continue
        print(f"\n{wl}: base {len(base[wl])} runs, change {len(change[wl])} runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[wl]
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[wl]
                 if name in r["metrics"]]
            if not b or not c:
                print(f"  {name:18s} missing from {'base' if not b else 'change'}")
                continue
            bq, cq, won, lost, n, v = verdict(b, c, m["better"], m["bound"])
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            print(f"  {name:18s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}  "
                  f"change/base = {cq[1]:.6g}/{bq[1]:.6g} = {ratio:.3f}  "
                  f"pairs won {won}/{n} (lost {lost})  "
                  f"bound {m['bound']:.2f} ({m['better']} is better): {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
