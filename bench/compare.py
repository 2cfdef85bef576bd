"""Compare two result sets written by ``bench/series.py``.

    python3 bench/compare.py bench/results/parent.jsonl bench/results/change.jsonl

For every workload and metric it prints each side's median and quartiles
and a verdict for the second set (the change) against the first (the
parent):

* improved: the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more than
  the parent's quartile spread;
* regressed: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (for per-layer metrics, which
  have no bound: the parent wins 9 of 10 pairs by more than its spread);
* unresolved: neither, and a side's quartile spread is wider than the bound
  (per-layer: the medians differ by more than the parent's spread), unless
  every run of the change is better than every run of the parent;
* unchanged: otherwise.

Runs pair up by seed when both sets hold the same seeds, else by order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, WORKLOADS
from series import quartiles


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pair_up(a, b):
    by_seed_a = {r["seed"]: r for r in a}
    by_seed_b = {r["seed"]: r for r in b}
    if len(by_seed_a) == len(a) and set(by_seed_a) == set(by_seed_b):
        return [(by_seed_a[s], by_seed_b[s]) for s in sorted(by_seed_a)]
    return list(zip(a, b))


def verdict(pairs, better, bound):
    """``pairs`` are (parent, change) values of one metric."""
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    qa, qb = quartiles(a), quartiles(b)
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (qb[1] - qa[1])  # > 0: the change is better
    spread_a = qa[2] - qa[0]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    if wins >= 0.9 * len(pairs) and gain > spread_a:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > spread_a:
            return "regressed"
        return "unchanged" if abs(gain) <= spread_a else "unresolved"
    base = abs(qa[1]) or 1.0
    if -gain / base > bound:
        return "regressed"
    spread = max(spread_a, qb[2] - qb[0]) / base
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':9s} {'metric':40s} {'parent med [q1, q3]':>36s} "
          f"{'change med [q1, q3]':>36s} {'pairs':>5s}  verdict")
    for wl in WORKLOADS:
        for trace in (0, 1):
            pa = [r for r in parent if r["workload"] == wl and r["trace"] == trace]
            pb = [r for r in change if r["workload"] == wl and r["trace"] == trace]
            pairs = pair_up(pa, pb)
            if not pairs:
                continue
            for name in pairs[0][0]["result"]["metrics"]:
                m = meta[name]
                vals = [(x["result"]["metrics"][name]["value"], y["result"]["metrics"][name]["value"])
                        for x, y in pairs]
                qa = quartiles([x for x, _ in vals])
                qb = quartiles([y for _, y in vals])
                text = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (qa, qb)]
                print(f"{wl:9s} {name:40s} {text[0]:>36s} {text[1]:>36s} {len(vals):5d}  "
                      f"{verdict(vals, m['better'], m.get('bound'))}  ({m['unit']})")
            for side, recs in (("parent", [x for x, _ in pairs]), ("change", [y for _, y in pairs])):
                failed = sum(r["result"]["failed"] for r in recs)
                attempted = sum(r["result"]["attempted"] for r in recs)
                print(f"{wl:9s} {'failed_frac (' + side + ')':40s} {failed / attempted:.4g} "
                      f"({failed} of {attempted} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
