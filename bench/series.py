"""Run workloads over several seeds and save the results as a result set.

    python3 bench/series.py --out bench/results/base.jsonl --seeds 1-10
    python3 bench/series.py --out bench/results/trace.jsonl --seeds 1 2 --trace 1

Each run goes through ``bench/run.py`` (a fresh process per workload and
seed).  Every run appends one JSON line to ``--out`` with the workload, the
seed, the recorded environment, the checked outputs and the result.  At
the end a table gives, per workload and metric, the median and quartiles
of the runs with the unit, and ``failed_frac`` (failed checks / checks
attempted).  ``bench/compare.py`` compares two result sets.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, WORKLOADS

SAMPLES = ("import_s", "setups", "setup_probes", "solves", "probes", "untraced_solves",
           "traced_solves")


def parse_seeds(tokens):
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        for key in ("env", "outputs"):
            if line.startswith(f"# {key} "):
                record[key] = json.loads(line[len(key) + 3:])
        for key in SAMPLES:
            if line.startswith(f"# {key} "):
                record[key] = [float(x) for x in line.split()[2:]]
    for line in lines:
        if line.startswith("# FAILED"):
            print(f"  {workload} seed {seed}: {line[2:]}")
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records):
    print(f"{'workload':9s} {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} unit  (runs)")
    for wl in WORKLOADS:
        recs = [r for r in records if r["workload"] == wl]
        if not recs:
            continue
        names = list(recs[0]["result"]["metrics"])
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / abs(med) if med else 0.0
            unit = recs[0]["result"]["metrics"][name]["unit"]
            print(f"{wl:9s} {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
                  f"{unit}  ({len(vals)})")
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"{wl:9s} {'failed_frac':40s} {failed / attempted:12.6g} {'':12s} {'':12s} "
              f"{'':8s} ratio  ({failed} of {attempted} checks)")


def write_reference(records):
    path = BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text())
    for r in records:
        if r["seed"] == reference["seed"] and "outputs" in r:
            reference["workloads"][r["workload"]] = r["outputs"]
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="result set (JSON lines, appended)")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", default=["1"], help="seeds or ranges such as 1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the outputs of the reference seed in bench/reference.json")
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run stops the current run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for seed in parse_seeds(args.seeds):
        for wl in args.workloads:
            rec = run_one(wl, seed, args.seconds, args.trace)
            records.append(rec)
            with args.out.open("a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            res = rec["result"]
            print(f"{wl:9s} seed {seed:4d}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
    summarize(records)
    if args.write_reference:
        write_reference(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
