"""Benchmark launcher: one workload, one seed, in a fresh worker process.

    python3 bench/run.py --workload direct --seed 1 --seconds 15 --trace 0

Run from the repository root.  The launcher sets ``SQGLAB_FFT_WORKERS`` and
the BLAS/OpenMP thread variables to at most the number of usable cores and
then replaces itself with ``bench/worker.py`` (exec), so numpy starts with
them and every run is a fresh process with no child to clean up.  The last
line of standard output is the JSON result.  A directory without
``src/sqglab`` is refused before anything runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("direct", "serfati", "picard", "analysis")
THREAD_VARS = ("SQGLAB_FFT_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def worker_env() -> dict:
    """The caller's environment with every thread variable set to 1..nproc.

    Unset variables default to 1: on a few shared cores, threaded 2-D
    transforms at n <= 512 are both slower and far noisier than serial ones.
    """
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, 1))
        except ValueError:
            wanted = 1
        env[var] = str(min(max(wanted, 1), nproc))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sqglab" / "__init__.py").is_file():
        print(f"bench: no sqglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.execve(sys.executable, [sys.executable, str(BENCH_DIR / "worker.py"),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
              worker_env())


if __name__ == "__main__":
    sys.exit(main())
