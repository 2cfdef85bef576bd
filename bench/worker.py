"""One benchmark run in its own process; started by ``bench/run.py``.

Untraced (``--trace 0``): set up ``SETUP_REPEATS`` times, then solve
repeatedly until ``--seconds`` have passed (at least once), checking every
solve.  A pace probe runs before the first and after every set-up and solve,
and between the calls of a solve that makes several; times are reported at
the probe's reference pace.  Reports the end-to-end metrics named in
``BENCHMARK.json``.

Traced (``--trace 1``): the span wrappers are installed, the set-up runs
once under them, then untraced solves (wrappers switched off) and traced
solves alternate until ``--seconds`` have passed, at least two of each.
Reports the per-layer metrics named in ``BENCHMARK.json``, per unit of
work, after a self-test of exact call counts.

A run that is still going after ``TIME_LIMIT_S`` is killed by SIGALRM and
prints no result.

The last line of standard output is the JSON result; lines before it,
starting with ``#``, record the environment, the checked outputs and any
failed check.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import sqglab  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

from run import THREAD_VARS, WORKLOADS as WORKLOAD_NAMES  # noqa: E402
from tracing import Stat, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MB = 2.0**20
# The pace probe: on the shared cores this benchmark was set up on, it took
# from 0.012 s to 0.024 s, in phases of seconds to minutes, as other tenants
# loaded them; the program's own code slowed and sped up with it.
# Untraced times are reported at the probe's reference pace: each wall time
# is multiplied by PROBE_REF_S / (the probe times measured around it).
PROBE_FIELDS = [np.random.default_rng(0).standard_normal((n, n)) for n in (128, 256, 512) * 3]
PROBE_REF_S = 0.02  # about the probe's median there
TIME_LIMIT_S = 170


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "fft_workers": sqglab.grid._FFT_WORKERS,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu": cpu, "commit": git_commit(ROOT)}


def print_samples(name, seconds):
    print(f"# {name} " + " ".join(f"{t:.4f}" for t in seconds))


def probe() -> float:
    """Seconds for a fixed batch of transforms and array products, without sqglab.

    The best of three repeats, so one interruption does not count.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for a in PROBE_FIELDS:
            b = scipy.fft.irfft2(scipy.fft.rfft2(a) * 0.5, s=a.shape)
            b *= a
        best = min(best, time.perf_counter() - t0)
    return best


class Pacer:
    """Times calls at the probe's reference pace.

    A probe runs before the first call and at every lap: the end of a call,
    and any point inside it where the call invokes the ``lap`` it is given.
    Each stretch between two probes is scaled by ``PROBE_REF_S`` over the
    mean of those two probe times; probe time itself is not counted.
    """

    def __init__(self):
        self.probes = [probe()]
        self.wall, self.paced = [], []

    def time(self, fn):
        """``fn(lap)``, recording its wall and paced times; returns its result."""
        self._wall = self._paced = 0.0
        self._t0 = time.perf_counter()
        out = fn(self.lap)
        self.lap()
        self.wall.append(self._wall)
        self.paced.append(self._paced)
        return out

    def lap(self):
        dt = time.perf_counter() - self._t0
        p = probe()
        self._wall += dt
        self._paced += dt * PROBE_REF_S / (0.5 * (self.probes[-1] + p))
        self.probes.append(p)
        self._t0 = time.perf_counter()


def run_solves(wl, state, seconds, checks, min_solves, tracer=None, pacer=None):
    """Solve until ``seconds`` have passed and ``min_solves`` are done.

    Returns per-solve wall times, per-solve span snapshots (traced only) and
    the last output.  Oracles run outside the timed and traced region.  With
    a ``pacer`` (untraced runs only), each solve is also timed by it.
    """
    times, snaps, out = [], [], None
    deadline = time.perf_counter() + seconds
    while len(times) < min_solves or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        t0 = time.perf_counter()
        if pacer is None:
            out = wl.solve(state, lambda: None)
        else:
            out = pacer.time(lambda lap: wl.solve(state, lap))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
            snaps.append(tracer.snapshot())
        checks.extend(wl.checks(state, out))
    return times, snaps, out


def end_to_end(wl, args, checks):
    setups = Pacer()
    state = None
    for _ in range(wl.SETUP_REPEATS):
        state = None  # release the previous set-up before building the next
        state = setups.time(lambda lap: wl.setup(args.seed))
    solves = Pacer()
    _, _, out = run_solves(wl, state, args.seconds, checks, min_solves=1, pacer=solves)
    solve_s = statistics.median(solves.paced)
    metrics = {
        "setup_s": (IMPORT_S * PROBE_REF_S / setups.probes[0]
                    + statistics.median(setups.paced)),
        "solve_s": solve_s,
        "work_per_s": wl.units(state, out) / solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print_samples("import_s", [IMPORT_S])
    print_samples("setups", setups.wall)
    print_samples("setup_probes", setups.probes)
    print_samples("solves", solves.wall)
    print_samples("probes", solves.probes)
    return metrics, state, out


def count_self_test(wl, state, out, snaps, checks):
    """Exact counts from the workload, and identical counts across traced solves."""
    last = snaps[-1]
    for span, expected in wl.expected_counts(state, out).items():
        got = last.get(span, Stat()).count
        checks.append((f"count:{span}", got == expected, f"{got} calls, expected {expected}"))
    first = {name: st.count for name, st in snaps[0].items()}
    for i, snap in enumerate(snaps[1:], start=2):
        differ = sorted(n for n, st in snap.items() if st.count != first.get(n, 0))
        checks.append((f"counts_repeat:solve{i}", not differ, "differ: " + ", ".join(differ)))


def per_layer(wl, args, checks):
    tracer = Tracer()
    tracer.install(sqglab)
    tracer.active = True
    state = wl.setup(args.seed)
    tracer.active = False
    setup = tracer.snapshot()
    # alternate so that both sides see the same phases of a shared machine
    base, times, snaps = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(snaps) < 2 or time.perf_counter() < deadline:
        base += run_solves(wl, state, 0, checks, min_solves=1)[0]
        t, s, out = run_solves(wl, state, 0, checks, min_solves=1, tracer=tracer)
        times += t
        snaps += s
    count_self_test(wl, state, out, snaps, checks)

    total = {}
    for snap in snaps:
        for name, st in snap.items():
            total.setdefault(name, Stat()).add(st)
    units = wl.units(state, out) * len(snaps)

    def solve_stat(name):
        span, stat = name.rsplit(".", 1)
        return getattr(total.get(span, Stat()), stat) / units

    build = setup.get("kernels.build_split", Stat())
    special = {
        "kernels.build_split.busy_s": build.busy_s / max(build.count, 1),
        "kernels.build_split.peak_alloc_mb": build.peak_alloc / MB,
        "verify.check.busy_s": sum(st.busy_s for n, st in total.items()
                                   if n.startswith("verify.check_")) / units,
        "solver.picard_iterate.useful_ratio": (wl.useful_ratio(out)
                                               if hasattr(wl, "useful_ratio") else 0.0),
        "verify.skipped_ratio": wl.skipped_ratio(out) if hasattr(wl, "skipped_ratio") else 0.0,
        "trace.overhead_frac": statistics.median(times) / statistics.median(base) - 1.0,
    }
    print_samples("untraced_solves", base)
    print_samples("traced_solves", times)
    return (lambda name: special[name] if name in special else solve_stat(name)), state, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one benchmark run (use bench/run.py)")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    signal.alarm(TIME_LIMIT_S)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    wl = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(), sort_keys=True))

    checks = []
    if args.trace:
        value_of, state, out = per_layer(wl, args, checks)
        wanted = spec["per_layer"]
    else:
        values, state, out = end_to_end(wl, args, checks)
        value_of = values.__getitem__
        wanted = spec["end_to_end"]

    outputs = wl.outputs(state, out)
    print("# outputs " + json.dumps(outputs, sort_keys=True))
    if args.seed == reference["seed"]:
        ref = reference["workloads"][args.workload]
        for key in sorted(set(ref) | set(outputs)):
            checks.append((f"reference:{key}", ref.get(key) == outputs.get(key),
                           f"got {outputs.get(key)}, stored {ref.get(key)}"))

    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"# FAILED {name}: {detail}")
    metrics = {m["name"]: {"value": float(value_of(m["name"])), "unit": m["unit"]} for m in wanted}
    print(f"# unit of work: {wl.UNIT}")
    for name, m in metrics.items():
        print(f"# {args.workload:8s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"# {args.workload:8s} {'failed_frac':40s} {len(failed) / len(checks):14.6g} ratio "
          f"({len(failed)} of {len(checks)} checks)")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
