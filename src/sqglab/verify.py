"""Inequality-verification harness: estimates become measured-constant checks.

A hidden-constant inequality is never asserted against a literal constant.
Each check (a) measures the constant or ratio over a seeded random ensemble,
(b) requires the measurement to be stable (at most 50% drift) under grid
refinement, and (c) applies two guards: a declared sanity ceiling per check
and an outlier rule (no trial may exceed 10x the ensemble median).  Every
check is deterministic given (seed, parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import build_partition, project_block
from .errors import ConfigurationError, DomainError
from .fields import SpectralField, dealiased_samples
from .grid import Grid2D, _require_integer, operator_table
from .kernels import build_split, convolve_near
from .multipliers import (MultiplierSpec, apply_multiplier, bessel, biot_savart_velocity,
                          frac_laplacian, gradient, kato_ponce_commutator, symbol_array)
from .norms import (WindowFamily, classical_holder_norm, uniformly_local_norm, zygmund_value,
                    zygmund_values)
from .report import VerificationReport
from .solver import SolverConfig, Trajectory, advection_tendency, simulate

# sanity caps per check; the substantive criterion is ensemble stability
RATIO_CEILINGS = {
    "bernstein": 4.0,        # two-sided spread C/c
    "lemma_3_1": 4.0,
    "lemma_A_2": 4.0,
    "kato_ponce": 20.0,
    "holder_commutator": 20.0,
    "lemma_A_3": 20.0,
    "lemma_3_2": 20.0,
    "lemma_3_3": 20.0,
    "embedding": 20.0,
}
STABILITY_LIMIT = 0.5
OUTLIER_FACTOR = 10.0
MIN_TRIALS = 16
DEGENERATE_BLOCK = 1e-14
SPECTRAL_SLOPE = 2.5  # band-limited random fields have |k|^(-SPECTRAL_SLOPE) envelopes


@dataclass(frozen=True)
class EnsembleSpec:
    count: int = 16
    seed: int = 7
    amplitude: float = 1.0

    def __post_init__(self):
        _require_integer("count", self.count, 1)
        _require_integer("seed", self.seed, 0)


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


def _block_norm(f: SpectralField, p) -> float:
    if np.isinf(p):
        return f.linf()
    return f.l2()


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
    if variant not in ("bernstein", "lemma_3_1", "lemma_A_2"):
        raise ConfigurationError(f"unknown variant {variant!r}")
    n_sides = _grids(n_sides)
    ps = params.get("ps", (2.0, np.inf))
    for p in ps:
        if p not in (2.0, np.inf):
            raise ConfigurationError(f"block norms are L2 or Linf, not p = {p}")
    betas = params.get("betas", (0.5,))
    s_values = params.get("s_values", (0.7,))
    L = params.get("box_length", 2.0 * np.pi)

    measured = []
    rows = []
    per_grid_spread = {}
    skipped = 0
    for n in n_sides:
        grid = Grid2D(n, L)
        ops = operator_table(grid)
        fam = build_partition(grid)
        if len(fam.measured_range()) < 4:
            raise ConfigurationError("need at least 4 realizable blocks")
        # (key parameter, order of the normalizing 2^(j order), the derived
        # field's coefficients from the block's)
        if variant == "bernstein":
            derived = [(None, 1.0, _times(symbol_array(grid, MultiplierSpec("gradient"))))]
        elif variant == "lemma_3_1":
            derived = [(s, s, _times(symbol_array(grid, frac_laplacian(s)))) for s in s_values]
        else:
            derived = [(beta, beta - 1.0,
                        _times(symbol_array(grid, MultiplierSpec("constitutive", beta))))
                       for beta in betas]
        grid_ratios = []
        for trial in range(ensemble.count):
            c = make_field(grid, ensemble, trial).coefficients
            for j in fam.measured_range():
                mult, m = fam.delta_band(j, homogeneous=True)
                cj = c[..., :m] * mult[:, :m]
                fj = SpectralField._adopt(grid, values=ops.values(cj))
                fields = None
                for p in ps:
                    base = _block_norm(fj, p)
                    if base < DEGENERATE_BLOCK:
                        skipped += 1
                        continue
                    if fields is None:
                        fields = [SpectralField._adopt(grid, values=ops.values(op(cj)))
                                  for _, _, op in derived]
                    for (param, order, _), g in zip(derived, fields):
                        ratio = _block_norm(g, p) / (2.0 ** (j * order) * base)
                        _push(rows, measured, grid_ratios, ratio, (n, p, param), j, trial)
        arr = np.asarray(grid_ratios)
        per_grid_spread[n] = float(arr.max() / arr.min()) if len(arr) else np.nan
    ceiling = RATIO_CEILINGS[variant]
    return _finish(f"multiplier_bounds:{variant}",
                   {"ps": [str(p) for p in ps], "betas": list(betas),
                    "s_values": list(s_values), "n_sides": list(n_sides), "L": L,
                    "seed": ensemble.seed, "count": ensemble.count},
                   per_grid_spread, measured, ceiling,
                   {"rows": rows[:64], "skipped_degenerate": skipped},
                   ensemble.count)


def _times(symbol: np.ndarray):
    """c -> symbol * c on the columns c holds."""
    return lambda c: symbol[..., :c.shape[-1]] * c


def _push(rows, measured, grid_ratios, ratio, key, j, trial):
    measured.append(float(ratio))
    grid_ratios.append(float(ratio))
    rows.append({"key": key, "j": j, "trial": trial, "ratio": float(ratio)})


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
    if variant not in ("kato_ponce", "holder_commutator"):
        raise ConfigurationError(f"unknown variant {variant!r}")
    n_sides = _grids(n_sides)
    s = params.get("s", 2.5)
    r = params.get("r", 1.5)
    beta = params.get("beta", 0.5)
    L = params.get("box_length", 2.0 * np.pi)
    if variant == "kato_ponce" and s <= 0:
        raise DomainError("kato_ponce needs s > 0")

    measured = []
    per_grid = {}
    skipped = 0
    for n in n_sides:
        grid = Grid2D(n, L)
        j_max = build_partition(grid).j_max
        cs = []
        for trial in range(ensemble.count):
            f = make_field(grid, ensemble, 2 * trial)
            g = make_field(grid, ensemble, 2 * trial + 1)
            if variant == "kato_ponce":
                comm = kato_ponce_commutator(f, g, s)
                rhs = (gradient(f).linf() * apply_multiplier(g, bessel(s - 1.0)).l2()
                       + apply_multiplier(f, bessel(s)).l2() * g.linf())
                if rhs < 1e-14:
                    skipped += 1
                    continue
                cs.append(comm.l2() / rhs)
            else:
                u = biot_savart_velocity(f, beta)
                theta = g
                grad_u_inf = max(gradient(u.component(0)).linf(),
                                 gradient(u.component(1)).linf())
                theta_cr = zygmund_value(theta, r)
                u_cr, u_cr1 = zygmund_values(u, (r, r + 1.0))
                rhs1 = gradient(theta).linf() * u_cr + grad_u_inf * theta_cr
                rhs2 = theta.linf() * u_cr1 + grad_u_inf * theta_cr
                if min(rhs1, rhs2) < 1e-14:
                    skipped += 1
                    continue
                u_samples = dealiased_samples(u)  # shared by every commutator of the trial
                advection = _u_dot_grad(u_samples, theta)
                # one search over the commutators, made one at a time from the
                # top block down (the largest comes early and bounds the rest);
                # rounding is monotone, so max_j (cr_j / rhs) = (max_j cr_j) / rhs
                cr = zygmund_value((_lp_commutator(u_samples, theta, j, advection)
                                    for j in reversed(range(-1, j_max))), r)
                cs.append(cr / rhs1)
                measured.append(float(cr / rhs2))
            measured.append(float(cs[-1]))
        per_grid[n] = float(np.max(cs)) if cs else np.nan
    ceiling = RATIO_CEILINGS[variant]
    return _finish(f"commutators:{variant}",
                   {"s": s, "r": r, "beta": beta, "n_sides": list(n_sides), "L": L,
                    "seed": ensemble.seed, "count": ensemble.count},
                   per_grid, measured, ceiling, {"skipped": skipped}, ensemble.count)


# -- velocity regularity ------------------------------------------------------------


def check_velocity_regularity(variant: str, params: dict, ensemble: EnsembleSpec,
                              n_sides=(128, 256)) -> VerificationReport:
    if variant not in ("lemma_A_3", "lemma_3_2", "lemma_3_3", "embedding"):
        raise ConfigurationError(f"unknown variant {variant!r}")
    n_sides = _grids(n_sides)
    beta = params.get("beta", 0.5)
    r = params.get("r", 1.5)
    s = params.get("s", 1.2)
    L = params.get("box_length", 2.0 * np.pi if variant in ("lemma_A_3", "embedding") else 16.0)

    measured = []
    per_grid = {}
    details = {}
    skipped = 0
    for n in n_sides:
        grid = Grid2D(n, L)
        cs = []
        split = None
        windows = WindowFamily.build(grid)
        if variant in ("lemma_3_2", "lemma_3_3"):
            split = build_split(grid, beta, oversample=2)
            details[f"near_transform_max_n{n}"] = split.near_potential_transform_max()
        for trial in range(ensemble.count):
            if variant == "lemma_A_3":
                g = make_field(grid, ensemble, trial)
                f = biot_savart_velocity(g, beta)
                rhs = f.linf() + zygmund_value(g, r)
                lhs = zygmund_value(f, r + 1.0 - beta)
            elif variant == "embedding":
                f = make_field(grid, ensemble, trial)
                j = int(params.get("j", 1))
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
            if rhs < 1e-14:
                skipped += 1
                continue
            cs.append(lhs / rhs)
            measured.append(float(cs[-1]))
        per_grid[n] = float(np.max(cs)) if cs else np.nan
    ceiling = RATIO_CEILINGS[variant]
    return _finish(f"velocity_regularity:{variant}",
                   {"beta": beta, "r": r, "s": s, "n_sides": list(n_sides), "L": L,
                    "seed": ensemble.seed, "count": ensemble.count},
                   per_grid, measured, ceiling,
                   {"skipped": skipped, **details}, ensemble.count)


# -- Gronwall utility ---------------------------------------------------------------


def cumulative_trapezoid(times, values) -> np.ndarray:
    """int_(t_0)^(t_k) values dt at every sample time t_k, by the trapezoid rule."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(times) * (values[1:] + values[:-1]))])


def gronwall_envelope(times, alpha, beta_vals) -> np.ndarray:
    """Envelope alpha(t) exp(int_0^t beta) on sampled times (trapezoid).

    Kept although only tests call it: it is the Gronwall bound in closed
    form, which the ``hsul_theorem_3_4`` fit inverts for its constant."""
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
    details = {}
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

    k1, extra = fit(trajectory)
    measured = [k1]
    details.update(extra)
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
