#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes the spread.

    python3 perfbench/sweep.py --out runs.jsonl --seeds 101-110 \
        [--workloads a,b] [--trace 0|1] [--seconds S]

Appends one JSON record per run ({"workload", "seed", "trace", "result"})
to --out, then prints for every workload and metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json. Run from the checkout
root; compare two output files with compare.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(runs, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    by_wl = {}
    for r in runs:
        by_wl.setdefault((r["workload"], r["trace"]), []).append(r)
    for (wl, trace), rs in sorted(by_wl.items()):
        results = [r["result"] for r in rs]
        shares = {(x["failed"], x["attempted"]) for x in results}
        print(f"\n{wl} (trace {trace}): {len(rs)} runs, "
              f"correct {sum(x['correct'] for x in results)}/{len(rs)}, "
              f"failed/attempted {sorted(shares)[:3]}")
        names = list(results[0]["metrics"])
        for name in names:
            vals = [x["metrics"][name]["value"] for x in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and trace == 0 and name != "setup_s":
                flag = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:32s} median {med:14.6g} {unit:9s} "
                  f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:7.3f}"
                  + (f" bound {bound:.2f} {flag}" if bound is not None else ""))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0)
    args = ap.parse_args()
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", f"{seconds:g}", "--trace", str(args.trace)]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed {seed}: exit {p.returncode}", file=sys.stderr)
                continue
            rec = {"workload": wl, "seed": seed, "trace": args.trace,
                   "result": json.loads(last)}
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            m = rec["result"]["metrics"]
            print(f"{wl} seed {seed}: correct={rec['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                  flush=True)
    summarize(load_runs(args.out), spec)


if __name__ == "__main__":
    main()
