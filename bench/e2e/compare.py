#!/usr/bin/env python3
"""Compares two run records of bench/e2e/run.py, metric by metric.

  python3 bench/e2e/compare.py bench/e2e/baseline/seed.json build-e2e/new.json

For each end-to-end metric it prints one row per workload: the median and
quartiles of the untraced runs in A and in B, the change in the metric's
worse direction, the run-to-run spread (IQR / median) of the same metric
in the committed baseline (bench/e2e/baseline/seed.json), and a verdict
against the metric's bound in BENCHMARK.json:

  ok          B is no worse than A by more than the bound
  REGRESSED   B is worse than A by more than the bound
  unresolved  the spread of A or B exceeds the bound, so "no worse" cannot
              be told from noise — unless every run of B is better than
              every run of A ("better")

Every workload is held to the bound, as BENCHMARK.json's bounds apply to
all of them. A row whose baseline spread exceeds 10% is marked `info`: the
metric is too noisy on that workload for one set of runs to settle a
verdict there. Which rows those are follows from the committed baseline
only, never from A or B.

Exits 1 when any metric regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
BASELINE = HERE / "baseline" / "seed.json"

# A baseline spread above this share of the median marks a row `info`.
INFORMATIONAL_SPREAD = 0.10


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def by_workload(path):
    """Untraced runs of a record, grouped by workload."""
    groups = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            groups.setdefault(run["workload"], []).append(run)
    return groups


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="reference record (e.g. the baseline)")
    parser.add_argument("b", help="record to check against it")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    base = by_workload(BASELINE)
    a = by_workload(args.a)
    b = by_workload(args.b)
    regressed = False
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {100 * bound:.0f}%)")
        print(f"  {'workload':12s} {'A median':>12s} {'A q1..q3':>23s} "
              f"{'B median':>12s} {'B q1..q3':>23s} {'worse by':>9s} "
              f"{'base IQR':>8s}  verdict")
        for workload in sorted(set(a) & set(b)):
            va, vb = values(a[workload], name), values(b[workload], name)
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            worse = ((bm - am) if lower else (am - bm)) / abs(am) if am else 0.0
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if max(spread(va), spread(vb)) > bound:
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed = True
            else:
                verdict = "ok"
            base_spread = spread(values(base[workload], name)) \
                if workload in base else None
            if base_spread is None:
                noise = f"{'-':>8s}"
            else:
                noise = f"{100 * base_spread:7.1f}%"
                if base_spread > INFORMATIONAL_SPREAD:
                    verdict += " (info)"
            print(f"  {workload:12s} {am:12.5g} {a1:11.5g}..{a3:<11.5g} "
                  f"{bm:12.5g} {b1:11.5g}..{b3:<11.5g} {100 * worse:+8.2f}% "
                  f"{noise}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
