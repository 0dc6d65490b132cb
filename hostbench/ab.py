#!/usr/bin/env python3
"""Paired A/B report over two sets of host-benchmark result files.

    python3 hostbench/ab.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py (hostbench/out/*.json),
made by alternating runs of the parent (A) and the change (B) with the
same settings. Runs are compared only with runs of the same workload and
seed. For every workload, seed and end-to-end metric the report prints
each side's median and quartiles, the share of pairs B won (the i-th A run
of a workload and seed against its i-th B run, in time order; ties count
for neither), the change of the medians, and a verdict:

  gain        B won at least 9/10 of the pairs and the medians differ by
              more than A's own quartile spread
  unresolved  A's own spread is wider than the metric's bound
  regression  B's median is worse than A's by more than the bound
  same        otherwise

It also says whether sim_digest matched for every seed both sides ran, and
prints the traced runs' per-layer self times side by side, so a saving can
be located in the layer that was meant to produce it.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit(f"ab.py: no result files in {directory}")
    return sorted(runs, key=lambda r: r.get("started_utc", ""))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def series(runs, workload, seed, traced, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["seed"] == seed
            and r["traced"] == traced and metric in r["metrics"]]


def common_seeds(a_runs, b_runs, workload, traced):
    seeds = lambda runs: {r["seed"] for r in runs
                          if r["workload"] == workload and r["traced"] == traced}
    return sorted(seeds(a_runs) & seeds(b_runs))


def verdict(a, b, bound, higher_is_better):
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    sign = 1 if higher_is_better else -1
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = won / len(pairs) if pairs else 0.0
    change = (b_med - a_med) / a_med if a_med else 0.0
    if pairs and share >= 0.9 and abs(b_med - a_med) > (a_q3 - a_q1):
        word = "gain"
    elif a_med and (a_q3 - a_q1) / a_med > bound:
        word = "unresolved"
    elif -sign * change > bound:
        word = "regression"
    else:
        word = "same"
    return share, len(pairs), change, word


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    a_runs, b_runs = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in bench["workloads"]]

    print("end-to-end (untraced runs)")
    print(f"{'workload':<11} {'seed':<6} {'metric':<17} {'A q1/med/q3':>32} {'B q1/med/q3':>32}"
          f" {'B won':>9} {'change':>8}  verdict")
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    for w in workloads:
        for seed in common_seeds(a_runs, b_runs, w, False):
            for m in bench["end_to_end"]:
                a = series(a_runs, w, seed, False, m["name"])
                b = series(b_runs, w, seed, False, m["name"])
                if not a or not b:
                    continue
                share, n, change, word = verdict(a, b, m["bound"], m["better"] == "higher")
                print(f"{w:<11} {seed:<6} {m['name']:<17} {fmt(quartiles(a)):>32}"
                      f" {fmt(quartiles(b)):>32} {share:>6.0%}/{n:<2} {change:>+8.1%}  {word}")

    print("\nsim_digest")
    for w in workloads:
        seeds = sorted({r["seed"] for r in a_runs + b_runs if r["workload"] == w})
        for seed in seeds:
            da = {r["sim_digest"] for r in a_runs if r["workload"] == w and r["seed"] == seed}
            db = {r["sim_digest"] for r in b_runs if r["workload"] == w and r["seed"] == seed}
            if da and db:
                state = "match" if da == db and len(da) == 1 else f"DIFFER A={sorted(da)} B={sorted(db)}"
                print(f"  {w:<11} seed {seed:<6} {state}")

    print("\nper-layer self time, traced runs (median ms per op, or per set-up)")
    for w in workloads:
        for seed in common_seeds(a_runs, b_runs, w, True):
            rows = []
            for m in bench["per_layer"]:
                if not m["name"].endswith(".self_ms"):
                    continue
                a = series(a_runs, w, seed, True, m["name"])
                b = series(b_runs, w, seed, True, m["name"])
                if a and b and (statistics.median(a) or statistics.median(b)):
                    rows.append((m["name"], statistics.median(a), statistics.median(b)))
            for name, a_med, b_med in sorted(rows, key=lambda r: -abs(r[2] - r[1])):
                print(f"  {w:<11} seed {seed:<6} {name:<28} A {a_med:>10.4f}  B {b_med:>10.4f}"
                      f"  delta {b_med - a_med:>+10.4f}")


if __name__ == "__main__":
    main()
