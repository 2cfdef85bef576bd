"""Inequality-verification harness: estimates become measured-constant checks.

A hidden-constant inequality is never asserted against a literal constant.
Each check (a) measures the constant or ratio over a seeded random ensemble,
(b) requires the measurement to be stable (at most 50% drift) under grid
refinement, and (c) applies two guards: a declared sanity ceiling per check
and an outlier rule (no trial may exceed 10x the ensemble median).  Every
check is deterministic given (seed, parameters).

``VARIANTS`` (at the end) names every check once: a ratio check with its
family, ceiling and default box, an acceptance criterion with its runner;
``run_check`` runs one by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dyadic import build_partition, project_block
from .errors import ConfigurationError, DomainError
from .fields import SpectralField, dealias, dealiased_samples
from .grid import Grid2D, _require_integer, operator_table
from .kernels import build_split, convolve_near, riesz_constant, riesz_convolve
from .multipliers import (MultiplierSpec, apply_multiplier, bessel, biot_savart_velocity,
                          frac_laplacian, gradient, kato_ponce_commutator, symbol_array)
from .norms import (WindowFamily, classical_holder_norm, sobolev_norm, uniformly_local_norm,
                    zygmund_norm, zygmund_value, zygmund_values)
from .solver import (SolverConfig, Trajectory, advection_tendency, existence_time, picard_iterate,
                     simulate, velocity_serfati)


class Check(NamedTuple):
    family: str  # the runner: check_<family>, or verify_<family>
    ceiling: float | None  # a sanity cap per grid; the substantive criterion is stability
    box: float  # the box length L a check runs at unless its params name one


class Criterion(NamedTuple):
    run: Callable[[], VerificationReport]  # an acceptance criterion, at its fixed settings


STABILITY_LIMIT = 0.5
OUTLIER_FACTOR = 10.0
MIN_TRIALS = 16
DEGENERATE_SCALE = 1e-14  # samples whose block norm or bound is below this are skipped
SPECTRAL_SLOPE = 2.5  # band-limited random fields have |k|^(-SPECTRAL_SLOPE) envelopes


@dataclass
class VerificationReport:
    """Measured constants/ratios for one check, with a verdict.

    ``verdict`` is ``"pass"`` iff the max measured ratio stays at or below
    the declared ceiling and the stability variation across refinement is
    at most 50% (checks may downgrade to ``"warning"`` on soft conditions).
    """

    check_id: str
    parameters: dict = field(default_factory=dict)
    measured: list = field(default_factory=list)
    verdict: str = "pass"
    stability: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def csv_rows(self):
        blob = json.dumps(self.parameters, sort_keys=True, default=str).encode()
        param_hash = hashlib.sha1(blob).hexdigest()[:10]
        for i, m in enumerate(self.measured):
            yield (self.check_id, param_hash, i, m)

    def summary_line(self) -> str:
        xs = [m for m in self.measured if m == m]
        lo = min(xs) if xs else float("nan")
        hi = max(xs) if xs else float("nan")
        return (f"{self.check_id}: verdict={self.verdict} trials={len(self.measured)} "
                f"range=[{lo:.4g}, {hi:.4g}] stability={self.stability:.3f}")


@dataclass(frozen=True)
class EnsembleSpec:
    count: int = 16
    seed: int = 7
    amplitude: float = 1.0

    def __post_init__(self):
        _require_integer("count", self.count, 1)
        _require_integer("seed", self.seed, 0)


def run_check(name: str, params: dict, ensemble: EnsembleSpec, n_sides) -> VerificationReport:
    """Run the check ``name`` of ``VARIANTS`` on the grids ``n_sides``, at its
    table box unless ``params`` names a ``box_length``; each check reads its
    own keys of ``params``.  ``fundamental_solution`` runs at the finest grid.
    An acceptance criterion runs at its own fixed grids, steps, ensembles and
    orders: it reads none of ``params``, ``ensemble`` or ``n_sides``."""
    check = VARIANTS.get(name)
    if check is None:
        raise ConfigurationError(f"unknown check {name!r}")
    if isinstance(check, Criterion):
        return check.run()
    if check.family == "fundamental_solution":
        return verify_fundamental_solution(
            params.get("beta", 0.5),
            Grid2D(max(_grids(n_sides)), params.get("box_length", check.box)))
    run = {"multiplier_bounds": check_multiplier_bounds, "commutators": check_commutators,
           "velocity_regularity": check_velocity_regularity}[check.family]
    return run(name, params, ensemble, n_sides=n_sides)


# -- random field generators ---------------------------------------------------


def _hermitian_symmetrize(z: np.ndarray, env: np.ndarray) -> np.ndarray:
    """The Hermitian part ((env z)_k + conj((env z)_-k)) / 2 of an (n, n) fft-layout
    array z times an even real envelope ``env``, on columns 0..n/2 (``env``'s shape)."""
    n = z.shape[-1]
    neg = -np.arange(n) % n  # the index of -k
    half = env.shape[-1]
    return 0.5 * (env * z[:, :half] + np.conj(env * z[neg[:, None], neg[None, :half]]))


def make_field(grid: Grid2D, spec: EnsembleSpec, trial: int) -> SpectralField:
    """Deterministic band-limited random field, sup-norm ~ amplitude."""
    rng = np.random.default_rng([spec.seed, trial, grid.n_side])
    n = grid.n_side
    kmag = operator_table(grid).kmag
    # the full lattice's normals, so the stream does not depend on the layout
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k_hi = 0.9 * grid.dealias_k_cutoff
    env = np.zeros_like(kmag)
    band = (kmag > 0) & (kmag <= k_hi)
    env[band] = kmag[band] ** (-SPECTRAL_SLOPE)
    c = _hermitian_symmetrize(z, env)
    c[0, 0] = 0.0
    return _normalized(SpectralField._adopt(grid, coefficients=c), spec.amplitude)


def pure_mode(grid: Grid2D, k: int) -> SpectralField:
    """Exact cosine mode cos(k x1), built in coefficient space."""
    c = np.zeros((grid.n_side, grid.n_side // 2 + 1), dtype=complex)
    c[k % grid.n_side, 0] = c[-k % grid.n_side, 0] = grid.box_length / 2.0
    return SpectralField.from_coefficients(grid, c)


def gaussian_dipole(grid: Grid2D, offset: float, spread: float,
                    amplitude: float = 1.0) -> SpectralField:
    """amplitude (exp(-|x - a|^2 / spread) - exp(-|x + a|^2 / spread)), a = (offset, 0)."""
    x1, x2 = grid.coords_centered()
    return SpectralField.from_values(
        grid, amplitude * (np.exp(-((x1 - offset) ** 2 + x2**2) / spread)
                           - np.exp(-((x1 + offset) ** 2 + x2**2) / spread)))


def _bump_field(grid: Grid2D, spec: EnsembleSpec, trial: int) -> SpectralField:
    """Deterministic sum of four random Gaussian bumps near the origin,
    sup-norm ~ amplitude: the compactly concentrated data of lemmas 3.2/3.3."""
    rng = np.random.default_rng([spec.seed, trial, grid.n_side])
    x1, x2 = grid.coords_centered()
    vals = np.zeros((grid.n_side, grid.n_side))
    reach = grid.box_length / 8.0
    for _ in range(4):
        cx, cy = rng.uniform(-reach, reach, size=2)
        sig = rng.uniform(0.4, 0.9)
        amp = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        vals += amp * np.exp(-((x1 - cx) ** 2 + (x2 - cy) ** 2) / (2.0 * sig**2))
    return _normalized(SpectralField._adopt(grid, values=vals), spec.amplitude)


def _normalized(f: SpectralField, amplitude: float) -> SpectralField:
    peak = f.linf()
    if peak == 0.0:
        return f
    return f * (amplitude / peak)


# -- shared verdict logic -------------------------------------------------------


def _outlier_free(values) -> bool:
    xs = np.asarray([v for v in values if np.isfinite(v)])
    if len(xs) == 0:
        return True
    med = np.median(np.abs(xs))
    if med == 0.0:
        return True
    return bool(np.all(np.abs(xs) <= OUTLIER_FACTOR * med))


def _finish(check_id: str, parameters: dict, per_grid_stat: dict, measured: list,
            ceiling: float, details: dict, count: int) -> VerificationReport:
    stats = list(per_grid_stat.values())  # NaN where a grid measured no ratio
    stability = 0.0
    if len(stats) >= 2 and stats[0] > 0:
        stability = abs(stats[-1] - stats[0]) / stats[0]
    verdict = "pass"
    if count < MIN_TRIALS:
        verdict = "warning"
    if (np.isnan(stats).any() or max(stats) > ceiling or stability > STABILITY_LIMIT
            or not _outlier_free(measured)):
        verdict = "fail"
    details = dict(details)
    details["per_grid_stat"] = per_grid_stat
    details["ceiling"] = ceiling
    return VerificationReport(check_id=check_id, parameters=parameters,
                              measured=measured, verdict=verdict,
                              stability=stability, details=details)


def _grids(n_sides) -> tuple:
    """``n_sides`` as a tuple, which must name at least one grid."""
    n_sides = tuple(n_sides)
    if not n_sides:
        raise ConfigurationError("n_sides is empty: a check runs on at least one grid")
    return n_sides


class Ratio(NamedTuple):
    value: float
    graded: bool = True  # enters its grid's statistic, not only ``measured``
    row: dict | None = None  # the multiplier family's row fields, less trial and ratio


def _ensemble_check(family_name: str, variant: str, params: dict, ensemble: EnsembleSpec,
                    n_sides, parameters: dict, on_trial, on_grid=None) -> VerificationReport:
    """The ensemble loop of the three ratio families, and its report.

    On each grid, ``shared = on_grid(grid, details)`` builds what its trials
    share (and may record ``details``); each trial's ``on_trial(grid, shared,
    trial)`` yields samples ``(scale, ratios)``.  A sample whose scale is
    below ``DEGENERATE_SCALE`` is skipped and counted; otherwise
    ``ratios()``, called before the next sample is drawn, gives its
    ``Ratio``s.  A grid's statistic is the spread max/min of its graded
    ratios for the multiplier family, else their max."""
    check = VARIANTS.get(variant)
    if check is None or check.family != family_name:
        raise ConfigurationError(f"unknown variant {variant!r}")
    n_sides = _grids(n_sides)
    L = params.get("box_length", check.box)
    blocks = family_name == "multiplier_bounds"
    measured, rows, details, per_grid_stat = [], [], {}, {}
    skipped = 0
    for n in n_sides:
        grid = Grid2D(n, L)
        shared = on_grid(grid, details) if on_grid else None
        graded = []
        for trial in range(ensemble.count):
            for scale, ratios in on_trial(grid, shared, trial):
                if scale < DEGENERATE_SCALE:
                    skipped += 1
                    continue
                for ratio in ratios():
                    value = float(ratio.value)
                    measured.append(value)
                    if ratio.graded:
                        graded.append(value)
                    if ratio.row is not None and len(rows) < 64:
                        rows.append({**ratio.row, "trial": trial, "ratio": value})
        arr = np.asarray(graded)  # NaN where a grid measured no ratio
        stat = (arr.max() / arr.min() if blocks else arr.max()) if len(arr) else np.nan
        per_grid_stat[n] = float(stat)
    details = ({"rows": rows, "skipped_degenerate": skipped} if blocks
               else {"skipped": skipped, **details})
    parameters = {**parameters, "n_sides": list(n_sides), "L": L,
                  "seed": ensemble.seed, "count": ensemble.count}
    return _finish(f"{family_name}:{variant}", parameters, per_grid_stat, measured, check.ceiling,
                   details, ensemble.count)


# -- multiplier bound checks ------------------------------------------------------


def check_multiplier_bounds(variant: str, params: dict, ensemble: EnsembleSpec,
                            n_sides=(128, 256)) -> VerificationReport:
    """Bernstein-type dyadic ratios: normalized so the ideal value is O(1).

    bernstein:  ||grad D_j f||_p / (2^j ||D_j f||_p)
    lemma_3_1:  ||D_j (-Lap)^(s/2) f||_p / (2^(js) ||D_j f||_p)
    lemma_A_2:  ||D_j u(f)||_p / (2^(j(beta-1)) ||D_j f||_p)

    for each p in ``ps``, which must be 2 or inf.

    Each block D_j f and each field derived from it is formed on the columns
    the block's multiplier occupies (``DyadicFamily.delta_band``) and taken to
    samples once, for every p; the samples have the bits of the full-width
    fields'.
    """
    ps = params.get("ps", (2.0, np.inf))
    for p in ps:
        if p not in (2.0, np.inf):
            raise ConfigurationError(f"block norms are L2 or Linf, not p = {p}")
    betas = params.get("betas", (0.5,))
    s_values = params.get("s_values", (0.7,))

    def on_grid(grid, details):
        if len(build_partition(grid).measured_range()) < 4:
            raise ConfigurationError("need at least 4 realizable blocks")
        # (key parameter, order of the normalizing 2^(j order), the derived
        # field's coefficients from the block's)
        if variant == "bernstein":
            return [(None, 1.0, _times(symbol_array(grid, MultiplierSpec("gradient"))))]
        if variant == "lemma_3_1":
            return [(s, s, _times(symbol_array(grid, frac_laplacian(s)))) for s in s_values]
        return [(beta, beta - 1.0, _times(symbol_array(grid, MultiplierSpec("constitutive", beta))))
                for beta in betas]

    def on_trial(grid, derived, trial):
        ops, fam = operator_table(grid), build_partition(grid)
        c = make_field(grid, ensemble, trial).coefficients
        for j in fam.measured_range():
            mult, m = fam.delta_band(j, homogeneous=True)
            cj = c[..., :m] * mult[:, :m]
            fj = SpectralField._adopt(grid, values=ops.values(cj))
            fields = [SpectralField._adopt(grid, values=ops.values(op(cj))) for _, _, op in derived]
            for p in ps:
                norm = SpectralField.linf if np.isinf(p) else SpectralField.l2
                base = norm(fj)
                yield base, lambda: [Ratio(norm(g) / (2.0 ** (j * order) * base),
                                           row={"key": (grid.n_side, p, param), "j": j})
                                     for (param, order, _), g in zip(derived, fields)]

    return _ensemble_check("multiplier_bounds", variant, params, ensemble, n_sides,
                           {"ps": [str(p) for p in ps], "betas": list(betas),
                            "s_values": list(s_values)}, on_trial, on_grid)


def _times(symbol: np.ndarray):
    """c -> symbol * c on the columns c holds."""
    return lambda c: symbol[..., :c.shape[-1]] * c


# -- commutator checks -------------------------------------------------------------


def _u_dot_grad(u_samples: np.ndarray, f: SpectralField) -> SpectralField:
    """dealias(u . grad f) with dealiased factors, from ``dealiased_samples(u)``."""
    return SpectralField._adopt(f.grid, coefficients=-advection_tendency(f, u_samples).coefficients)


def _lp_commutator(u_samples: np.ndarray, theta: SpectralField, j: int,
                   advection: SpectralField) -> SpectralField:
    """[u.grad, Delta_j] theta with dealiased products, from u_samples =
    ``dealiased_samples(u)`` and ``advection`` = dealias(u . grad theta),
    which every block of a trial shares."""
    first = _u_dot_grad(u_samples, project_block(theta, j, "inhomogeneous"))
    second = project_block(advection, j, "inhomogeneous")
    return SpectralField._adopt(theta.grid, coefficients=first.coefficients - second.coefficients)


def check_commutators(variant: str, params: dict, ensemble: EnsembleSpec,
                      n_sides=(128, 256)) -> VerificationReport:
    s = params.get("s", 2.5)
    r = params.get("r", 1.5)
    beta = params.get("beta", 0.5)
    if variant == "kato_ponce" and s <= 0:
        raise DomainError("kato_ponce needs s > 0")

    def on_trial(grid, shared, trial):
        f = make_field(grid, ensemble, 2 * trial)
        g = make_field(grid, ensemble, 2 * trial + 1)
        if variant == "kato_ponce":
            comm = kato_ponce_commutator(f, g, s)
            rhs = (gradient(f).linf() * apply_multiplier(g, bessel(s - 1.0)).l2()
                   + apply_multiplier(f, bessel(s)).l2() * g.linf())
            yield rhs, lambda: [Ratio(comm.l2() / rhs)]
            return
        u = biot_savart_velocity(f, beta)
        theta = g
        grad_u_inf = max(gradient(u.component(0)).linf(), gradient(u.component(1)).linf())
        theta_cr = zygmund_value(theta, r)
        u_cr, u_cr1 = zygmund_values(u, (r, r + 1.0))
        rhs1 = gradient(theta).linf() * u_cr + grad_u_inf * theta_cr
        rhs2 = theta.linf() * u_cr1 + grad_u_inf * theta_cr

        def ratios():
            u_samples = dealiased_samples(u)  # shared by every commutator of the trial
            advection = _u_dot_grad(u_samples, theta)
            # one search over the commutators, made one at a time from the
            # top block down (the largest comes early and bounds the rest);
            # rounding is monotone, so max_j (cr_j / rhs) = (max_j cr_j) / rhs
            cr = zygmund_value((_lp_commutator(u_samples, theta, j, advection)
                                for j in reversed(range(-1, build_partition(grid).j_max))), r)
            return [Ratio(cr / rhs2, graded=False), Ratio(cr / rhs1)]

        yield min(rhs1, rhs2), ratios

    return _ensemble_check("commutators", variant, params, ensemble, n_sides,
                           {"s": s, "r": r, "beta": beta}, on_trial)


# -- velocity regularity ------------------------------------------------------------


def check_velocity_regularity(variant: str, params: dict, ensemble: EnsembleSpec,
                              n_sides=(128, 256)) -> VerificationReport:
    beta = params.get("beta", 0.5)
    r = params.get("r", 1.5)
    s = params.get("s", 1.2)
    j = int(params.get("j", 1))

    def on_grid(grid, details):
        split = None
        windows = WindowFamily.build(grid)
        if variant in ("lemma_3_2", "lemma_3_3"):
            split = build_split(grid, beta, oversample=2)
            details[f"near_transform_max_n{grid.n_side}"] = split.near_potential_transform_max()
        return windows, split

    def on_trial(grid, shared, trial):
        windows, split = shared
        if variant == "lemma_A_3":
            g = make_field(grid, ensemble, trial)
            f = biot_savart_velocity(g, beta)
            rhs = f.linf() + zygmund_value(g, r)
            lhs = zygmund_value(f, r + 1.0 - beta)
        elif variant == "embedding":
            f = make_field(grid, ensemble, trial)
            lhs = classical_holder_norm(f, float(j)).value
            rhs = uniformly_local_norm(f, j + s, windows, "Hs_ul").value
        else:
            theta = _bump_field(grid, ensemble, trial)
            v = convolve_near(split, theta)
            if variant == "lemma_3_2":
                lhs = uniformly_local_norm(v, s, windows, "Hs_ul", homogeneous=True).value
                rhs = (uniformly_local_norm(theta, s - 1.0 + beta, windows, "Hs_ul",
                                            homogeneous=True).value
                       + uniformly_local_norm(theta, 2.0, windows, "Lp_ul").value)
            else:
                lhs = uniformly_local_norm(v, s, windows, "Hs_ul").value
                rhs = uniformly_local_norm(theta, s - 1.0 + beta, windows, "Hs_ul").value
        yield rhs, lambda: [Ratio(lhs / rhs)]

    return _ensemble_check("velocity_regularity", variant, params, ensemble, n_sides,
                           {"beta": beta, "r": r, "s": s}, on_trial, on_grid)


# -- the kernel's fundamental solution ------------------------------------------------


def verify_fundamental_solution(beta: float, grid: Grid2D) -> VerificationReport:
    """Check that (-Laplace)^(1-beta/2)(Phi_beta * g) recovers a Gaussian g of
    width L/20, on n/4, n/2 and n points a side (at least 64).

    The comparison target is g minus its box mean (the torus inverse acts
    on mean-free functions).  Verdict fails unless the relative L^2 error
    decreases at every refinement step.  That decrease is the verdict, so
    ``stability`` is 0.0; ``details["error_ratio"]`` is the largest error
    over the smallest.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    sigma = grid.box_length / 20.0
    errors = []
    ns = []
    for divisor in (4, 2, 1):
        n = max(64, grid.n_side // divisor)
        sub = Grid2D(n, grid.box_length)
        x1, x2 = sub.coords_centered()
        g = SpectralField.from_values(sub, np.exp(-(x1**2 + x2**2) / (2.0 * sigma**2)))
        pot = riesz_convolve(g, beta)
        back = apply_multiplier(pot, frac_laplacian(2.0 - beta))
        target = SpectralField.from_values(sub, g.values - g.mean())
        err = (back - target).l2() / target.l2()
        ns.append(n)
        errors.append(float(err))
    decreasing = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1)
                     if ns[i + 1] != ns[i])
    verdict = "pass" if decreasing else "fail"
    return VerificationReport(
        check_id=f"fundamental_solution:beta={beta:g}",
        parameters={"beta": beta, "c_beta": riesz_constant(beta),
                    "sigma": sigma, "L": grid.box_length, "n_levels": ns},
        measured=errors,
        verdict=verdict,
        details={"errors_by_n": dict(zip(ns, errors)),
                 "error_ratio": max(errors) / max(min(errors), 1e-300)},
    )


# -- Gronwall utility ---------------------------------------------------------------


def cumulative_trapezoid(times, values) -> np.ndarray:
    """int_(t_0)^(t_k) values dt at every sample time t_k, by the trapezoid rule."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(times) * (values[1:] + values[:-1]))])


def gronwall_envelope(times, alpha, beta_vals) -> np.ndarray:
    """Envelope alpha(t) exp(int_0^t beta) on sampled times (trapezoid)."""
    times = np.asarray(times, dtype=np.float64)
    alpha_arr = np.broadcast_to(np.asarray(alpha, dtype=np.float64), times.shape)
    return alpha_arr * np.exp(cumulative_trapezoid(times, beta_vals))


# -- a priori bounds ----------------------------------------------------------------


def _series(traj: Trajectory, kind: str):
    ts, vs = traj.norm_series(kind)
    if len(ts) == 0:
        raise ConfigurationError(f"trajectory lacks the norm series {kind!r}")
    return ts, vs


def check_apriori_bounds(trajectory: Trajectory, variant: str, params: dict,
                         refinement_trajectory: Trajectory | None = None) -> VerificationReport:
    """Fit the minimal constant making a proved bound dominate a recorded run."""
    if variant not in ("hsul_theorem_3_4", "holder_bound", "velocity_hsul"):
        raise ConfigurationError(f"unknown variant {variant!r}")
    s = params.get("s", 2.5)
    r = params.get("r", 2.5)
    beta = params.get("beta", 0.5)
    verdict = "pass"

    def fit(traj):
        if variant == "hsul_theorem_3_4":
            ts, hs = _series(traj, f"hsul:theta:{s:g}")
            _, uc1 = _series(traj, "ctilde1:u")
            _, w1 = _series(traj, "w1inf:theta")
            integral = cumulative_trapezoid(ts, uc1 + w1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ks = np.where(integral > 0, np.log(np.maximum(hs / hs[0], 1e-300)) / integral, 0.0)
            return float(np.clip(ks, 0.0, None).max()), {"times": ts.tolist()}
        if variant == "holder_bound":
            ts, ulinf = _series(traj, "linf:u")
            _, thcr = _series(traj, f"cr:theta:{r:g}")
            psi = ulinf + thcr
            psi0 = psi[0]
            cs = psi / (psi0 * (1.0 + ts * psi))
            c_fit = float(cs.max())
            denom = 1.0 - c_fit * ts * psi0
            extra = {"denominator_min": float(denom.min())}
            return c_fit, extra
        ts, uh = _series(traj, f"hsul:u:{s:g}")
        _, th = _series(traj, f"hsul:theta:{s - 1.0 + beta:g}")
        _, uc1 = _series(traj, "ctilde1:u")
        ratios = uh / (th + uc1)
        return float(ratios.max()), {"ratios": ratios.tolist()}

    k1, details = fit(trajectory)
    measured = [k1]
    stability = 0.0
    if refinement_trajectory is not None:
        k2, extra2 = fit(refinement_trajectory)
        measured.append(k2)
        details["refined"] = extra2
        stability = abs(k2 - k1) / max(abs(k1), 1e-300)
        if stability > STABILITY_LIMIT:
            verdict = "fail"
    if variant == "holder_bound" and details.get("denominator_min", 1.0) <= 0.0:
        verdict = "warning"  # run exceeded the guaranteed window
    return VerificationReport(check_id=f"apriori:{variant}",
                              parameters={"s": s, "r": r, "beta": beta},
                              measured=measured, verdict=verdict,
                              stability=stability, details=details)


# -- twin-run uniqueness experiment ----------------------------------------------


def twin_run_experiment(config: SolverConfig, theta0: SpectralField,
                        perturbation: SpectralField,
                        deltas=(1e-3, 1e-4, 1e-5)) -> VerificationReport:
    """Perturbation growth fit: d(t) <= K delta exp(Lambda t), K/Lambda per delta.

    Lambda comes from a log-linear regression of the gap, K is then the
    smallest prefactor making the bound dominate every sample.
    """
    if perturbation.linf() == 0.0 or 0.0 in deltas or not np.isfinite(deltas).all():
        raise ConfigurationError(f"twin runs need a nonzero perturbation and nonzero deltas, "
                                 f"all finite, got deltas {list(deltas)}")
    base = simulate(config, theta0)
    ts = np.asarray(base.times)
    lams, ks = [], []
    gaps = {}
    for delta in deltas:
        pert = SpectralField.from_values(
            theta0.grid, theta0.values + delta * perturbation.values)
        other = simulate(config, pert)
        d = np.array([
            (other.thetas[i] - base.thetas[i]).linf() + (other.us[i] - base.us[i]).linf()
            for i in range(len(ts))])
        gaps[delta] = d.tolist()
        pos = d > 0
        lam, logk = np.polyfit(ts[pos], np.log(d[pos]), 1)
        k = float(np.max(d * np.exp(-lam * ts)) / delta)
        lams.append(float(lam))
        ks.append(k)
    k_var = (max(ks) - min(ks)) / max(min(ks), 1e-300)
    lam_span = max(abs(l) for l in lams)
    lam_var = (max(lams) - min(lams)) / max(lam_span, 1e-300)
    stability = max(k_var, lam_var)
    verdict = "pass" if stability <= STABILITY_LIMIT else "fail"
    return VerificationReport(
        check_id="twin_run_uniqueness",
        parameters={"deltas": list(deltas), "beta": config.beta, "n": config.n_side},
        measured=ks + lams,
        verdict=verdict,
        stability=stability,
        details={"K": ks, "Lambda": lams, "gaps": gaps},
    )


# -- the acceptance criteria ------------------------------------------------------
# Each runs one shipped claim at its stated tolerance, on grids, steps, ensembles
# and seeds fixed here.  Its report's ``check_id`` is its number and title, and
# ``details`` hold its detail string and every number that string prints.


class _Printed(dict):
    """Formats the numbers of a criterion's detail string and keeps each with its format."""

    def __call__(self, key: str, value: float, fmt: str) -> str:
        self[key] = (float(value), fmt)
        return format(value, fmt)

    def report(self, title: str, passed: bool, detail: str) -> VerificationReport:
        return VerificationReport(check_id=title, measured=[v for v, _ in self.values()],
                                  verdict="pass" if passed else "fail",
                                  details={"printed": dict(self), "detail": detail})


def partition_of_unity() -> VerificationReport:
    """Criterion 1: chi + sum_j phi(2^-j k) = 1 at every |k| up to Nyquist."""
    residual = build_partition(Grid2D(256)).partition_residual()
    p = _Printed()
    return p.report("1 partition of unity", residual <= 1e-12,
                    f"residual {p('residual', residual, '.2e')}")


def plane_wave_exactness() -> VerificationReport:
    """Criterion 2: the multiplier symbols act exactly on cosines."""
    grid = Grid2D(128)
    X, _ = grid.coords()
    worst = 0.0
    for k in (1, 2, 4):
        f = pure_mode(grid, k)
        for s in (0.5, 1.3, 2.0):
            out = apply_multiplier(f, frac_laplacian(s))
            worst = max(worst, np.abs(out.values - float(k) ** s * np.cos(k * X)).max()
                        / float(k) ** s)
            outb = apply_multiplier(f, bessel(s))
            gain = (1.0 + k * k) ** (s / 2.0)
            worst = max(worst, np.abs(outb.values - gain * np.cos(k * X)).max() / gain)
    for beta in (0.25, 0.5, 0.75):
        for k in (1, 2):
            u = biot_savart_velocity(pure_mode(grid, k), beta)
            gain = float(k) ** (beta - 1.0)
            expect = -gain * np.sin(k * X)
            worst = max(worst, np.abs(u.values[1] - expect).max() / gain)
            worst = max(worst, np.abs(u.values[0]).max() / gain)
    p = _Printed()
    return p.report("2 plane-wave multiplier exactness", worst <= 1e-12,
                    f"max rel err {p('max_rel_err', worst, '.2e')}")


def dyadic_bound_suites() -> VerificationReport:
    """Criterion 3: dyadic ratios of single modes are 1; the multiplier suites pass."""
    betas = (0.25, 0.5, 0.75)
    s_ref = 2.5
    ens = EnsembleSpec(count=16, seed=7)
    ps = (2.0, np.inf)
    ok = True
    details = []
    p = _Printed()

    grid = Grid2D(128)
    for j in (1, 2, 3):
        f = pure_mode(grid, 2**j)
        fj = project_block(f, j, "homogeneous")
        r_bern = gradient(fj).linf() / (2.0**j * fj.linf())
        ok &= abs(r_bern - 1.0) <= 1e-10
        r_31 = apply_multiplier(fj, frac_laplacian(0.7)).linf() / (2.0 ** (j * 0.7) * fj.linf())
        ok &= abs(r_31 - 1.0) <= 1e-10
        for beta in betas:
            u = biot_savart_velocity(fj, beta)
            r_a2 = u.linf() / (2.0 ** (j * (beta - 1.0)) * fj.linf())
            ok &= abs(r_a2 - 1.0) <= 1e-10
    details.append("single-mode ratios = 1")

    # random ensembles: the verdict caps the spread at the ceiling 4, and its drift
    # (the report's stability, as the grids run coarse first) at STABILITY_LIMIT
    s_values = (0.3,) + tuple(1.0 - b for b in betas) + tuple(s_ref - 1.0 + b for b in betas)
    for name, params in [("bernstein", {"ps": ps}),
                         ("lemma_3_1", {"ps": ps, "s_values": s_values}),
                         ("lemma_A_2", {"ps": ps, "betas": betas})]:
        rep = check_multiplier_bounds(name, params, ens, n_sides=(128, 256))
        ok &= rep.verdict == "pass"
        spread = max(rep.details["per_grid_stat"].values())
        details.append(f"{name} spread {p(name + ' spread', spread, '.2f')} "
                       f"drift {p(name + ' drift', rep.stability, '.2f')}")
    return p.report("3 Bernstein/dyadic bound suites", ok, "; ".join(details))


def fundamental_solution() -> VerificationReport:
    """Criterion 4: the Riesz potential inverts (-Lap)^(1-beta/2), errors falling to 1e-2."""
    ok = True
    details = []
    p = _Printed()
    for beta in (0.25, 0.5, 0.75):
        rep = verify_fundamental_solution(beta, Grid2D(512, 16 * np.pi))
        ok &= rep.verdict == "pass" and rep.measured[-1] <= 1e-2
        details.append(f"beta={beta}: {p(f'beta={beta}', rep.measured[-1], '.2e')}")
    return p.report("4 fundamental solution", ok, "; ".join(details))


def serfati_identity() -> VerificationReport:
    """Criterion 5: the Serfati velocity matches a direct-law run's within 1e-3."""
    # The total gap carries a dt-independent kernel sampling floor (~1.4e-5
    # here, 70x below tolerance), so the halving clause is verified on the
    # dt-attributable component of the error field, which the trapezoid
    # accumulation makes second order.
    L = 16.0
    grid = Grid2D(512, L)
    split = build_split(grid, 0.5)
    theta0 = gaussian_dipole(grid, 1.5, 1.28)

    runs = []  # (u_rec - u_dir, ||u_dir||_inf) at each dt
    for dt in (0.0125, 0.00625, 0.003125):
        cfg = SolverConfig(beta=0.5, dt=dt, t_end=0.5, n_side=512, box_length=L,
                           c_existence=0.0, record_norms=("linf:theta",))
        traj = simulate(cfg, theta0, split=split)
        st = traj.final_state
        u_dir = biot_savart_velocity(st.theta, 0.5)
        runs.append((velocity_serfati(st, traj.us[0], theta0, split) - u_dir, u_dir.linf()))

    (e0, un), (e1, _), (e2, _) = runs
    gap = e0.linf() / un
    dt_comp_0 = (e0 - e1).linf() / un
    dt_comp_1 = (e1 - e2).linf() / un
    halving_ok = dt_comp_0 >= 2.0 * dt_comp_1
    p = _Printed()
    return p.report("5 Serfati identity consistency", gap <= 1e-3 and halving_ok,
                    f"gap {p('gap', gap, '.2e')} (tol 1e-3); dt-component "
                    f"{p('dt_comp_0', dt_comp_0, '.2e')} -> {p('dt_comp_1', dt_comp_1, '.2e')} "
                    f"(ratio {p('ratio', dt_comp_0 / dt_comp_1, '.1f')})")


def stationary_radial() -> VerificationReport:
    """Criterion 6: a radial Gaussian stays put to 1e-6 over t in [0, 1], n = 256."""
    grid = Grid2D(256)
    x1, x2 = grid.coords_centered()
    theta0 = SpectralField.from_values(grid, np.exp(-(x1**2 + x2**2) / (2 * 0.1**2)))
    cfg = SolverConfig(beta=0.5, dt=1e-3, t_end=1.0, n_side=256, c_existence=0.0,
                       record_norms=("linf:theta",), sample_every=250)
    traj = simulate(cfg, theta0)
    drift = (traj.thetas[-1] - theta0).linf() / theta0.linf()
    p = _Printed()
    return p.report("6 stationary radial solution", drift <= 1e-6,
                    f"drift {p('drift', drift, '.2e')} over t in [0,1]")


def picard_contraction() -> VerificationReport:
    """Criterion 7: Picard decrements contract at a grid-stable rate, below 1e-6 by n = 12."""
    ok = True
    details = []
    p = _Printed()
    rhos = {}
    for n in (128, 256):
        grid = Grid2D(n, 16.0)
        theta0 = gaussian_dipole(grid, 1.6, 1.28, 0.8)
        u0 = biot_savart_velocity(theta0, 0.5)
        T = existence_time(u0.linf(), zygmund_norm(theta0, 2.5).value, 1.0)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=T / 32, t_end=T / 2, n_side=n,
                           box_length=16.0)
        split = build_split(grid, 0.5, oversample=2)
        trace = picard_iterate(cfg, theta0, u0=u0, n_max=13, split=split)
        ratios = trace.contraction_ratios()
        # fit rho from pairs above the roundoff floor of the decrement norm
        fit = [r for m, r in sorted(ratios.items())
               if trace.decrements[m][-1] > 1e-12 and trace.decrements[m + 1][-1] > 1e-12]
        rhos[n] = float(np.median(fit))
        ok &= len(fit) >= 3 and all(r < 1.0 for r in fit)
        # partial sums of D_n Cauchy: increments below 1e-6 by n = 12
        d12 = trace.decrements[12][-1] if 12 in trace.decrements else 0.0
        ok &= d12 <= 1e-6
        details.append(f"n={n}: rho~{p(f'rho n={n}', rhos[n], '.3f')}, "
                       f"D_12 {p(f'D_12 n={n}', d12, '.1e')}")
    drift = abs(rhos[256] - rhos[128]) / max(rhos[128], 1e-300)
    ok &= drift <= 0.5
    return p.report("7 Picard contraction", ok,
                    "; ".join(details) + f"; rho drift {p('rho drift', drift, '.2f')}")


def apriori_bounds() -> VerificationReport:
    """Criterion 8: fitted H^s_ul and C^r bounds are grid-stable and dominate the norms."""
    trajs = {}
    for n in (256, 512):
        theta0 = gaussian_dipole(Grid2D(n), 0.6, 2 * 0.35**2, 0.1)
        u0 = biot_savart_velocity(theta0, 0.5)
        T = existence_time(u0.linf(), zygmund_norm(theta0, 2.5).value, 1.0)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=T / 80, t_end=T / 2, n_side=n,
                           c_existence=0.0, sample_every=4,
                           record_norms=("hsul:theta:2.5", "ctilde1:u", "w1inf:theta",
                                         "linf:u", "cr:theta:2.5", "hsul:u:2.5",
                                         "hsul:theta:2"))
        trajs[n] = simulate(cfg, theta0)

    ok = True
    details = []
    p = _Printed()
    rep_k = check_apriori_bounds(trajs[256], "hsul_theorem_3_4", {"s": 2.5},
                                 refinement_trajectory=trajs[512])
    ok &= rep_k.verdict == "pass" and rep_k.stability <= 0.5
    details.append(f"K {p('K 256', rep_k.measured[0], '.3g')}/"
                   f"{p('K 512', rep_k.measured[1], '.3g')}")

    rep_c = check_apriori_bounds(trajs[256], "holder_bound", {"r": 2.5},
                                 refinement_trajectory=trajs[512])
    ok &= rep_c.verdict in ("pass", "warning") and rep_c.stability <= 0.5
    details.append(f"C {p('C 256', rep_c.measured[0], '.3g')}/"
                   f"{p('C 512', rep_c.measured[1], '.3g')}")

    # bound curves dominate the measured norms at every sample time
    k_fit = max(rep_k.measured)
    c_fit = max(rep_c.measured)
    for n in (256, 512):
        ts, hs = trajs[n].norm_series("hsul:theta:2.5")
        _, uc1 = trajs[n].norm_series("ctilde1:u")
        _, w1 = trajs[n].norm_series("w1inf:theta")
        bound = gronwall_envelope(ts, hs[0], k_fit * (uc1 + w1))
        ok &= bool(np.all(hs <= bound * (1 + 1e-9)))

        _, ul = trajs[n].norm_series("linf:u")
        _, cr = trajs[n].norm_series("cr:theta:2.5")
        psi = ul + cr
        denom = 1.0 - c_fit * ts * psi[0]
        ok &= bool(np.all(denom > 0))
        ok &= bool(np.all(psi <= c_fit * psi[0] / denom * (1 + 1e-9)))
    return p.report("8 a priori bounds", ok, "; ".join(details))


def norm_equivalences() -> VerificationReport:
    """Criterion 9: four norm equivalences hold with grid-stable constants."""
    ok = True
    details = []
    p = _Printed()

    def two_grids(seed, count, ratio):
        """ratio(f, w1, w2) over ``count`` seeded fields f at n = 128 and 256, w1
        and w2 the grid's windows at scales 1 and 2; and the drift of its max."""
        by_n = {}
        for n in (128, 256):
            grid = Grid2D(n)
            w1, w2 = WindowFamily.build(grid), WindowFamily.build(grid, scale=2.0)
            by_n[n] = [ratio(make_field(grid, EnsembleSpec(seed=seed), trial), w1, w2)
                       for trial in range(count)]
        return by_n, abs(max(by_n[256]) - max(by_n[128])) / max(by_n[128])

    # H^s: dyadic block sum vs multiplier route
    def blocks_over_multiplier(f, *_):
        rep = sobolev_norm(f, 2.5)
        return rep.extras["lp_block_variant"] / rep.value

    by_n, drift = two_grids(21, 16, blocks_over_multiplier)
    ok &= all(0.25 <= min(r) and max(r) <= 4.0 for r in by_n.values()) and drift <= 0.5
    details.append(f"block/multiplier in [{p('block min', min(by_n[256]), '.2f')},"
                   f"{p('block max', max(by_n[256]), '.2f')}]")

    # H^s_ul vs W^(s,2)_ul at n=64 within the analytic symbol bracket
    grid64 = Grid2D(64)
    wf64 = WindowFamily.build(grid64)
    t = np.linspace(0, 50, 100001)
    sym = (1 + t**4 + t**5) / (1 + t**2) ** 2.5
    c1, c2 = sym.min(), sym.max()
    for trial in range(8):
        f = dealias(make_field(grid64, EnsembleSpec(seed=22), trial))
        hs = uniformly_local_norm(f, 2.5, wf64, "Hs_ul").value
        ws = uniformly_local_norm(f, 2.5, wf64, "Ws2_ul").value
        ratio_sq = (ws / hs) ** 2
        ok &= c1 * 0.9 <= ratio_sq <= c2 * 1.1
    details.append(f"Slobodeckij/Bessel in bracket [{p('bracket lo', c1, '.2f')},"
                   f"{p('bracket hi', c2, '.2f')}]")

    # window-scale equivalence
    by_n, drift = two_grids(23, 8, lambda f, w1, w2: uniformly_local_norm(f, 1.5, w2, "Hs_ul").value
                            / uniformly_local_norm(f, 1.5, w1, "Hs_ul").value)
    ok &= all(0.25 <= min(r) and max(r) <= 4.0 for r in by_n.values()) and drift <= 0.5
    details.append(f"window-scale ratio [{p('window min', min(by_n[256]), '.2f')},"
                   f"{p('window max', max(by_n[256]), '.2f')}]")

    # Sobolev embedding constant stable across two grid sizes
    def embedding(f, w1, _):
        f = dealias(f)
        return classical_holder_norm(f, 1.0).value / uniformly_local_norm(f, 2.1, w1, "Hs_ul").value

    by_n, drift = two_grids(24, 8, embedding)
    ok &= drift <= 0.5 and max(by_n[256]) <= 20.0
    details.append(f"embedding C {p('embedding C', max(by_n[256]), '.2f')} "
                   f"drift {p('embedding drift', drift, '.2f')}")
    return p.report("9 norm equivalences", ok, "; ".join(details))


def twin_run_uniqueness() -> VerificationReport:
    """Criterion 10: twin-run gaps grow as K delta exp(Lambda t), K and Lambda stable."""
    grid = Grid2D(256)
    theta0 = gaussian_dipole(grid, 0.5, 0.18)
    pert = make_field(grid, EnsembleSpec(seed=31), 0)
    cfg = SolverConfig(beta=0.5, dt=2e-3, t_end=0.4, n_side=256, c_existence=0.0,
                       record_norms=("linf:theta",), sample_every=20)
    rep = twin_run_experiment(cfg, theta0, pert, deltas=(1e-3, 1e-4, 1e-5))
    ks = rep.details["K"]
    lams = rep.details["Lambda"]
    ok = rep.verdict == "pass"
    # fitted bound dominates the measured gaps for every delta
    for i, delta in enumerate(rep.parameters["deltas"]):
        gaps = np.asarray(rep.details["gaps"][delta])
        ts = np.linspace(0, cfg.t_end, len(gaps))
        ok &= bool(np.all(gaps <= ks[i] * delta * np.exp(lams[i] * ts) * (1 + 1e-9)))
    p = _Printed()
    return p.report("10 twin-run uniqueness", ok,
                    f"K in [{p('K min', min(ks), '.2f')},{p('K max', max(ks), '.2f')}], "
                    f"Lambda in [{p('Lambda min', min(lams), '.2f')},"
                    f"{p('Lambda max', max(lams), '.2f')}], "
                    f"stability {p('stability', rep.stability, '.2f')}")


# -- the check table ------------------------------------------------------------------


VARIANTS = {
    "bernstein": Check("multiplier_bounds", 4.0, 2.0 * np.pi),  # a two-sided spread C/c
    "lemma_3_1": Check("multiplier_bounds", 4.0, 2.0 * np.pi),
    "lemma_A_2": Check("multiplier_bounds", 4.0, 2.0 * np.pi),
    "kato_ponce": Check("commutators", 20.0, 2.0 * np.pi),
    "holder_commutator": Check("commutators", 20.0, 2.0 * np.pi),
    "lemma_A_3": Check("velocity_regularity", 20.0, 2.0 * np.pi),
    # lemmas 3.2 and 3.3 read compactly concentrated data in unit windows
    "lemma_3_2": Check("velocity_regularity", 20.0, 16.0),
    "lemma_3_3": Check("velocity_regularity", 20.0, 16.0),
    "embedding": Check("velocity_regularity", 20.0, 2.0 * np.pi),
    # no ceiling: the verdict is the decrease of its errors under refinement
    "fundamental_solution": Check("fundamental_solution", None, 16.0 * np.pi),
    # the acceptance criteria, each run by its function at its own fixed settings
    "criterion_01": Criterion(partition_of_unity),
    "criterion_02": Criterion(plane_wave_exactness),
    "criterion_03": Criterion(dyadic_bound_suites),
    "criterion_04": Criterion(fundamental_solution),
    "criterion_05": Criterion(serfati_identity),
    "criterion_06": Criterion(stationary_radial),
    "criterion_07": Criterion(picard_contraction),
    "criterion_08": Criterion(apriori_bounds),
    "criterion_09": Criterion(norm_equivalences),
    "criterion_10": Criterion(twin_run_uniqueness),
}
