"""Batch front end: strict JSON configs, experiment dispatch, artifact output.

Subcommands: verify, simulate, iterate, norms, kernels.  A run is described
by a config document (``--config`` JSON file) whose keys individual flags
override; unknown keys are rejected naming the offender.  Every run writes
``manifest.json`` echoing the fully resolved config, so re-running from the
manifest reproduces the artifacts.  Exit status is nonzero on any failing
verdict or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .fields import SpectralField, save_field
from .grid import Grid2D, _require_integer
from .kernels import build_split
from .norms import WindowFamily, classical_holder_norm, sobolev_norm, uniformly_local_norm, zygmund_norm
from .solver import SolverConfig, picard_iterate, simulate
from .verify import (EnsembleSpec, _grids, gaussian_dipole, make_field, run_check,
                     verify_fundamental_solution)

# every parameter a config may set, per command, with its default; the
# verify s and box_length None run each check at its own order and box
DEFAULTS = {
    "verify": {"checks": [], "count": 16, "n_sides": [128, 256], "beta": 0.5,
               "betas": [0.25, 0.5, 0.75], "s": None, "s_values": [0.3, 0.7], "r": 1.5,
               "ps": ["2", "inf"], "box_length": None},
    "simulate": {"beta": 0.5, "n_side": 256, "box_length": 2 * np.pi, "dt": 1e-3,
                 "t_end": 1.0, "constitutive": "direct", "ic": "radial", "sigma": 0.1,
                 "amplitude": 1.0, "record_norms": ["linf:theta", "l2:theta"],
                 "sample_every": 0, "c_existence": 0.0, "r": 2.5, "checkpoints": False},
    "iterate": {"beta": 0.5, "n_side": 128, "box_length": 16.0, "dt": 5e-3,
                "t_end": 0.1, "n_max": 8, "r": 2.5, "ic": "bump", "sigma": 0.8,
                "amplitude": 1.0, "c_existence": 1.0},
    "norms": {"n_side": 128, "box_length": 2 * np.pi, "ic": "random", "sigma": 0.5,
              "amplitude": 1.0, "r": 1.5, "s": 2.5},
    "kernels": {"beta": 0.5, "n_side": 256, "box_length": 16.0, "fundamental": True},
}


@dataclass
class ExperimentConfig:
    command: str
    seed: int = 7
    output_dir: str = "."
    params: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        full = dict(DEFAULTS[self.command])
        full.update(self.params)
        return full


def validate_config(doc: dict) -> ExperimentConfig:
    allowed_top = {"command", "seed", "output_dir", "params", "version"}
    for key in doc:
        if key not in allowed_top:
            raise ConfigurationError(f"unknown config key {key!r}")
    command = doc.get("command")
    if not isinstance(command, str) or command not in DEFAULTS:
        raise ConfigurationError(f"unknown or missing command {command!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigurationError(f"params is an object of parameter values, got {params!r}")
    for key in params:
        if key not in DEFAULTS[command]:
            raise ConfigurationError(f"unknown parameter {key!r} for command {command!r}")
    seed = doc.get("seed", 7)
    _require_integer("seed", seed, 0)
    return ExperimentConfig(command=command, seed=seed,
                            output_dir=str(doc.get("output_dir", ".")),
                            params=params)


# -- initial conditions --------------------------------------------------------


def initial_condition(grid: Grid2D, kind: str, sigma: float, amplitude: float,
                      seed: int) -> SpectralField:
    x1, x2 = grid.coords_centered()
    if kind == "radial":
        vals = amplitude * np.exp(-(x1**2 + x2**2) / (2.0 * sigma**2))
        return SpectralField.from_values(grid, vals)
    if kind == "single_mode":
        X, _ = grid.coords()
        return SpectralField.from_values(grid, amplitude * np.cos(X * grid.k_fundamental))
    if kind == "bump":
        off = max(2.0 * sigma, grid.box_length / 16.0)
        return gaussian_dipole(grid, off, 2.0 * sigma**2, amplitude)
    if kind == "random":
        spec = EnsembleSpec(count=1, seed=seed, amplitude=amplitude)
        return make_field(grid, spec, 0)
    raise ConfigurationError(f"unknown initial condition {kind!r}")


# -- artifact helpers -----------------------------------------------------------


def _write_manifest(cfg: ExperimentConfig, outdir: Path):
    manifest = {
        "command": cfg.command,
        "seed": cfg.seed,
        "output_dir": str(outdir),
        "params": _jsonable(cfg.resolved()),
        "version": __version__,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


# -- command implementations -------------------------------------------------------


def _numbers(key: str, values) -> tuple:
    """The config list ``key`` as floats, "inf" and "oo" read as infinity."""
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{key} must be a list of numbers, got {values!r}")
    out = []
    for x in values:
        try:
            if isinstance(x, bool):
                raise TypeError
            out.append(np.inf if x in ("inf", "oo") else float(x))
        except (TypeError, ValueError):
            raise ConfigurationError(f"{key} entries must be numbers, got {x!r}") from None
    return tuple(out)


def _run_verify(cfg: ExperimentConfig, outdir: Path) -> int:
    p = cfg.resolved()
    ens = EnsembleSpec(count=p["count"], seed=cfg.seed)
    # every list converted and n_sides checked before any check runs
    params = {key: _numbers(key, p[key]) for key in ("ps", "betas", "s_values")}
    params.update(r=p["r"], beta=p["beta"])
    n_sides = _grids(p["n_sides"])
    # each check runs at its own order and box unless the config names them
    for key in ("s", "box_length"):
        if p[key] is not None:
            params[key] = p[key]
    reports, rows = [], []
    for name in p["checks"]:
        rep = run_check(name, params, ens, n_sides)
        reports.append(rep)
        rows.extend(rep.csv_rows())
        print(rep.summary_line())
    _write_csv(outdir / "reports.csv", "check_id,param_hash,trial,ratio", rows)
    return 0 if all(r.verdict != "fail" for r in reports) else 1


def _run_simulate(cfg: ExperimentConfig, outdir: Path) -> int:
    p = cfg.resolved()
    sc = SolverConfig(beta=p["beta"], r=p["r"], dt=p["dt"], t_end=p["t_end"],
                      constitutive=p["constitutive"], n_side=p["n_side"],
                      box_length=p["box_length"], record_norms=p["record_norms"],
                      c_existence=p["c_existence"], sample_every=p["sample_every"])
    grid = sc.grid()
    theta0 = initial_condition(grid, p["ic"], p["sigma"], p["amplitude"], cfg.seed)
    traj = simulate(sc, theta0)
    _write_csv(outdir / "norms.csv", "t,kind,value", traj.norms)
    save_field(traj.thetas[-1], outdir / "theta_final.fld")
    save_field(traj.us[-1], outdir / "u_final.fld")
    if p["checkpoints"]:
        for i, t in enumerate(traj.times):
            save_field(traj.thetas[i], outdir / f"theta_{i:04d}.fld")
    _write_csv(outdir / "diagnostics.csv", "key,value",
               sorted(traj.diagnostics.items()))
    print(f"simulate: t_final={traj.diagnostics['t_final']:g} "
          f"l2_drift={traj.diagnostics['l2_drift']:.3e}")
    return 0


def _run_iterate(cfg: ExperimentConfig, outdir: Path) -> int:
    p = cfg.resolved()
    sc = SolverConfig(beta=p["beta"], r=p["r"], dt=p["dt"], t_end=p["t_end"],
                      n_side=p["n_side"], box_length=p["box_length"],
                      c_existence=p["c_existence"])
    grid = sc.grid()
    theta0 = initial_condition(grid, p["ic"], p["sigma"], p["amplitude"], cfg.seed)
    trace = picard_iterate(sc, theta0, n_max=p["n_max"])
    rows = []
    for n, dn in sorted(trace.decrements.items()):
        for t, v in zip(trace.sample_times, dn):
            rows.append((n, float(t), float(v)))
    _write_csv(outdir / "decrements.csv", "n,t,D_n", rows)
    _write_csv(outdir / "bound_curve.csv", "t,bound",
               list(zip(map(float, trace.sample_times), map(float, trace.norm_bound_curve))))
    ratios = trace.contraction_ratios()
    print(f"iterate: verdict={trace.verdict} "
          f"final_ratio={list(ratios.values())[-1] if ratios else float('nan'):.3f} "
          f"T_bound={trace.time_bound:.4f}")
    return 0 if trace.verdict != "fail" else 1


def _run_norms(cfg: ExperimentConfig, outdir: Path) -> int:
    p = cfg.resolved()
    grid = Grid2D(p["n_side"], p["box_length"])
    f = initial_condition(grid, p["ic"], p["sigma"], p["amplitude"], cfg.seed)
    windows = WindowFamily.build(grid)
    reports = [
        zygmund_norm(f, p["r"]),
        zygmund_norm(f, p["r"], homogeneous=True),
        classical_holder_norm(f, p["r"]),
        sobolev_norm(f, p["s"]),
        sobolev_norm(f, p["s"], homogeneous=True),
        uniformly_local_norm(f, p["s"], windows, "Hs_ul"),
        uniformly_local_norm(f, 2.0, windows, "Lp_ul"),
    ]
    rows = []
    for rep in reports:
        rows.extend(rep.csv_rows())
    _write_csv(outdir / "norms.csv", "kind,param,value", rows)
    for rep in reports:
        print(f"{rep.kind}: {rep.value:.6g}")
    return 0


def _run_kernels(cfg: ExperimentConfig, outdir: Path) -> int:
    p = cfg.resolved()
    grid = Grid2D(p["n_side"], p["box_length"])
    split = build_split(grid, p["beta"])
    save_field(SpectralField.from_values(grid, split.near), outdir / "near.fld")
    for i in range(2):
        save_field(SpectralField.from_values(grid, split.far[i]), outdir / f"far_row{i}.fld")
    rows = [("c_beta", split.c_beta),
            ("near_l1", split.near_l1()),
            ("far_decay_exponent", split.far_decay_exponent()),
            ("truncation_tail_l1", split.tail_bound),
            ("near_transform_max", split.near_potential_transform_max()),
            ("ewald_alpha", split.alpha)]
    status = 0
    if p["fundamental"]:
        rep = verify_fundamental_solution(p["beta"], Grid2D(max(p["n_side"], 256), 16.0 * np.pi))
        print(rep.summary_line())
        for n_level, err in rep.details["errors_by_n"].items():
            rows.append((f"fundamental_err_n{n_level}", err))
        status = 0 if rep.passed else 1
    _write_csv(outdir / "kernel_report.csv", "key,value", rows)
    return status


# -- entry point -------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", type=str, default=None, help="JSON config document")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None, help="output directory")


def _add_options(sp, **types):
    """``--name-with-dashes`` for each ``name=type``, stored under ``name``."""
    for name, typ in types.items():
        sp.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ)


def _read_config(path: str) -> dict:
    """The JSON object in the config file ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not text
        raise ConfigurationError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config file {path} holds a JSON {type(doc).__name__}, "
                                 f"not an object")
    return doc


def _collect_overrides(args, keys) -> dict:
    out = {}
    for key in keys:
        v = getattr(args, key, None)
        if v is not None:
            out[key] = v
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sqglab",
                                     description="generalized-SQG spectral laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run inequality checks")
    _add_common(sp)
    sp.add_argument("--check", action="append", dest="checks", metavar="NAME")
    sp.add_argument("--n", action="append", type=int, dest="n_sides")
    _add_options(sp, beta=float, count=int, s=float, r=float, box_length=float)

    sp = sub.add_parser("simulate", help="advance the transport system")
    _add_common(sp)
    _add_options(sp, beta=float, n_side=int, box_length=float, dt=float, t_end=float,
                 sigma=float, amplitude=float, c_existence=float, r=float)
    sp.add_argument("--constitutive", choices=["direct", "serfati"])
    sp.add_argument("--ic", choices=["radial", "bump", "random", "single_mode"])
    sp.add_argument("--record", action="append", dest="record_norms", metavar="DESC")
    sp.add_argument("--checkpoints", action="store_true", default=None)
    sp.add_argument("--sample-every", dest="sample_every", type=int)

    sp = sub.add_parser("iterate", help="run the approximation sequence")
    _add_common(sp)
    _add_options(sp, beta=float, n_side=int, box_length=float, dt=float, t_end=float,
                 n_max=int, r=float, sigma=float, amplitude=float)
    sp.add_argument("--ic", choices=["radial", "bump", "random", "single_mode"])

    sp = sub.add_parser("norms", help="norm battery on a generated field")
    _add_common(sp)
    _add_options(sp, n_side=int, box_length=float, sigma=float, amplitude=float, r=float,
                 s=float)
    sp.add_argument("--ic", choices=["radial", "bump", "random", "single_mode"])

    sp = sub.add_parser("kernels", help="build the kernel split and validate")
    _add_common(sp)
    _add_options(sp, beta=float, n_side=int, box_length=float)
    sp.add_argument("--no-fundamental", dest="fundamental", action="store_false",
                    default=None)

    args = parser.parse_args(argv)

    try:
        doc = _read_config(args.config) if args.config else {}
        doc.setdefault("command", args.command)
        if args.seed is not None:
            doc["seed"] = args.seed
        doc["output_dir"] = args.out or doc.get("output_dir") or os.environ.get("OUTPUT_DIR") or "."
        cfg = validate_config(doc)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cfg.params.update(_collect_overrides(args, DEFAULTS[cfg.command]))

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(cfg, outdir)

    runner = {"verify": _run_verify, "simulate": _run_simulate, "iterate": _run_iterate,
              "norms": _run_norms, "kernels": _run_kernels}[cfg.command]
    try:
        return runner(cfg, outdir)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
