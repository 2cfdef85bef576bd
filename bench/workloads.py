"""The four benchmark workloads: inputs from a seed, one solve, and its oracles.

Each workload exposes

* ``setup(seed)``: generate the inputs, build what the solve reuses (kernel
  split, stored trajectory) and run one warm-up unit; returns a state dict.
* ``solve(state, lap)``: the timed part, made only of calls to the public
  functions ``simulate``, ``picard_iterate``, ``check_*`` and ``flow_map``.
  A solve of several calls invokes ``lap()`` between them, where the worker
  may measure the machine's pace (``worker.Pacer``).
* ``units(state, out)``: units of work in one solve (the unit is ``UNIT``).
* ``checks(state, out)``: invariant oracles, valid on any seed, as
  ``(name, passed, detail)`` triples.
* ``outputs(state, out)``: the numbers compared against the stored
  reference values at the default seed.
* ``expected_counts(state, out)``: exact span counts of one solve, checked
  by the traced run's self-test.

Why each workload exists is written in ``bench/README.md``.
"""

from __future__ import annotations

import math

import numpy as np

import sqglab
from sqglab.solver import polygon_area
from sqglab.verify import OUTLIER_FACTOR, STABILITY_LIMIT

BETA = 0.5
# D_n(T) below this is roundoff in the decrement norm (criterion 7 uses it too)
DECREMENT_FLOOR = 1e-12


def _dipole(grid, rng, separation, jitter, two_sigma_sq, amplitude=1.0):
    """Two opposite Gaussians at seed-drawn offsets around +-separation on x1."""
    x1, x2 = grid.coords_centered()
    a = separation + rng.uniform(-jitter, jitter, size=2)
    b = rng.uniform(-jitter, jitter, size=2)
    vals = (np.exp(-((x1 - a[0]) ** 2 + (x2 - b[0]) ** 2) / two_sigma_sq)
            - np.exp(-((x1 + a[1]) ** 2 + (x2 - b[1]) ** 2) / two_sigma_sq))
    return sqglab.SpectralField.from_values(grid, amplitude * vals)


def _fmt(x: float) -> str:
    return f"{x:.6e}"


class Direct:
    """Direct-law simulate at n=256, L=2*pi: transforms and the constitutive map."""

    name = "direct"
    UNIT = "RK4 step"
    SETUP_REPEATS = 5
    N_SIDE = 256
    DT = 0.01  # the CFL limit of these dipoles is about 0.026
    STEPS = 20

    def config(self, steps):
        return sqglab.SolverConfig(beta=BETA, dt=self.DT, t_end=steps * self.DT,
                                   n_side=self.N_SIDE, c_existence=0.0,
                                   record_norms=("linf:theta", "l2:theta"))

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        grid = sqglab.Grid2D(self.N_SIDE)
        theta0 = _dipole(grid, rng, 0.6, 0.15, 2 * 0.35**2)
        sqglab.simulate(self.config(1), theta0)  # warm-up unit
        return {"theta0": theta0, "config": self.config(self.STEPS)}

    def solve(self, state, lap):
        return sqglab.simulate(state["config"], state["theta0"])

    def units(self, state, traj):
        return traj.diagnostics["n_steps"]

    def checks(self, state, traj):
        d = traj.diagnostics
        return [
            ("step_count", d["n_steps"] == self.STEPS, f"{d['n_steps']} steps"),
            ("l2_drift", d["l2_drift"] <= 1e-10, f"{d['l2_drift']:.2e}"),
            ("div_u_final", d["div_u_final"] <= 1e-10, f"{d['div_u_final']:.2e}"),
        ]

    def outputs(self, state, traj):
        _, linf = traj.norm_series("linf:theta")
        _, l2 = traj.norm_series("l2:theta")
        return {"linf_theta_final": _fmt(linf[-1]), "l2_theta_final": _fmt(l2[-1]),
                "t_final": _fmt(traj.diagnostics["t_final"])}

    def expected_counts(self, state, traj):
        # u0, the u0 consistency check, then 4 RK4 stages plus the new velocity
        return {"multipliers.biot_savart_velocity": 5 * traj.diagnostics["n_steps"] + 2}


class Serfati:
    """Serfati-law simulate at n=512, L=16, 4x oversampled split: the kernel layer."""

    name = "serfati"
    UNIT = "RK4 step"
    SETUP_REPEATS = 3
    N_SIDE = 512
    BOX = 16.0
    DT = 0.0125  # criterion 5's coarsest step; the CFL limit is about 0.023
    STEPS = 4

    def config(self, steps):
        return sqglab.SolverConfig(beta=BETA, dt=self.DT, t_end=steps * self.DT,
                                   constitutive="serfati", n_side=self.N_SIDE,
                                   box_length=self.BOX, c_existence=0.0,
                                   record_norms=("linf:theta", "l2:theta"))

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        grid = sqglab.Grid2D(self.N_SIDE, self.BOX)
        theta0 = _dipole(grid, rng, 1.5, 0.2, 1.28)
        split = sqglab.build_split(grid, BETA)
        sqglab.simulate(self.config(1), theta0, split=split)  # warm-up unit
        return {"theta0": theta0, "split": split, "config": self.config(self.STEPS)}

    def solve(self, state, lap):
        return sqglab.simulate(state["config"], state["theta0"], split=state["split"])

    def units(self, state, traj):
        return traj.diagnostics["n_steps"]

    def _gap(self, state, traj):
        st = traj.final_state
        u_rec = sqglab.velocity_serfati(st, traj.us[0], state["theta0"], state["split"])
        u_dir = sqglab.biot_savart_velocity(st.theta, BETA)
        return (u_rec - u_dir).linf() / u_dir.linf()

    def checks(self, state, traj):
        d = traj.diagnostics
        gap = self._gap(state, traj)
        return [
            ("step_count", d["n_steps"] == self.STEPS, f"{d['n_steps']} steps"),
            ("identity_gap", gap <= 1e-3, f"{gap:.2e}"),
            ("div_u_final", d["div_u_final"] <= 1e-10, f"{d['div_u_final']:.2e}"),
        ]

    def outputs(self, state, traj):
        _, linf = traj.norm_series("linf:theta")
        _, l2 = traj.norm_series("l2:theta")
        return {"linf_theta_final": _fmt(linf[-1]), "l2_theta_final": _fmt(l2[-1]),
                "identity_gap": f"{self._gap(state, traj):.3e}"}

    def expected_counts(self, state, traj):
        n = traj.diagnostics["n_steps"]
        # far: the initial integrand, then predictor and corrector per step;
        # near: one reconstruction for the corrector and one for the state
        return {"kernels.convolve_far": 2 * n + 1, "kernels.convolve_near": 2 * n}


class Picard:
    """Criterion-7-shaped picard_iterate at n=128: many short kernel calls."""

    name = "picard"
    UNIT = "transport step + reconstruction step"
    SETUP_REPEATS = 3
    N_SIDE = 128
    BOX = 16.0
    N_MAX = 12  # the accuracy target is stated on D_12(T)
    TARGET = 1e-6

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        grid = sqglab.Grid2D(self.N_SIDE, self.BOX)
        theta0 = _dipole(grid, rng, 1.6, 0.2, 1.28, amplitude=0.8)
        u0 = sqglab.biot_savart_velocity(theta0, BETA)
        T = sqglab.existence_time(u0.linf(), sqglab.zygmund_norm(theta0, 2.5).value, 1.0)
        config = sqglab.SolverConfig(beta=BETA, r=2.5, dt=T / 32, t_end=T / 2,
                                     n_side=self.N_SIDE, box_length=self.BOX)
        split = sqglab.build_split(grid, BETA, oversample=2)
        warm = sqglab.SolverConfig(beta=BETA, r=2.5, dt=T / 32, t_end=T / 32,
                                   n_side=self.N_SIDE, box_length=self.BOX)
        sqglab.picard_iterate(warm, theta0, u0=u0, n_max=2, split=split)  # two units
        return {"theta0": theta0, "u0": u0, "split": split, "config": config,
                "n_steps": max(2, int(round(config.t_end / config.dt)))}

    def solve(self, state, lap):
        return sqglab.picard_iterate(state["config"], state["theta0"], u0=state["u0"],
                                     n_max=self.N_MAX, split=state["split"])

    def units(self, state, trace):
        return (self.N_MAX - 1) * state["n_steps"]

    def useful_ratio(self, trace):
        """Iterates whose D_n(T) is above the roundoff floor / iterates run."""
        above = sum(1 for d in trace.decrements.values() if d[-1] > DECREMENT_FLOOR)
        return above / len(trace.decrements)

    def checks(self, state, trace):
        ratios = trace.contraction_ratios()
        fit = [r for m, r in sorted(ratios.items())
               if trace.decrements[m][-1] > DECREMENT_FLOOR
               and trace.decrements[m + 1][-1] > DECREMENT_FLOOR]
        d12 = trace.decrements[12][-1]
        cfl = 0.5 * state["theta0"].grid.spacing / state["u0"].linf()
        return [
            ("dt_below_cfl", state["config"].dt <= cfl, f"dt {state['config'].dt:.3e} cfl {cfl:.3e}"),
            ("contraction", bool(fit) and all(r < 1.0 for r in fit),
             f"{len(fit)} ratios, max {max(fit, default=math.nan):.3f}"),
            ("d12_target", d12 <= self.TARGET, f"D_12 {d12:.2e}"),
        ]

    def outputs(self, state, trace):
        out = {"time_bound": _fmt(trace.time_bound)}
        for n in (2, 3, 4, 5):
            out[f"D_{n}"] = _fmt(trace.decrements[n][-1])
        return out

    def expected_counts(self, state, trace):
        n, iterates = state["n_steps"], self.N_MAX - 1
        # per iterate: the far integrand at every step boundary, the near
        # reconstruction at every step after the first
        return {"kernels.convolve_far": iterates * (n + 1),
                "kernels.convolve_near": iterates * n}


class Analysis:
    """Verdicts from seeded ensembles plus a flow map through a stored trajectory."""

    name = "analysis"
    UNIT = "ensemble trial"
    SETUP_REPEATS = 3
    N_SIDES = (128, 256)
    COUNT = 16  # verify.MIN_TRIALS: fewer trials downgrade a verdict to a warning
    CHECKS = (
        ("check_velocity_regularity", "embedding", {"s": 1.1, "j": 1}),
        ("check_commutators", "holder_commutator", {"s": 2.5, "r": 1.5, "beta": BETA}),
        ("check_multiplier_bounds", "lemma_A_2", {"ps": (2.0, np.inf), "betas": (BETA,)}),
    )
    TRAJ_STEPS = 16
    TRAJ_DT = 0.01
    FLOW_STEPS = 100
    CLOUD = 256
    SQUARE_SIDE = 0.2
    SQUARE_EDGE_PTS = 32

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        ensemble = sqglab.EnsembleSpec(count=self.COUNT, seed=int(rng.integers(1, 2**31)))
        grid = sqglab.Grid2D(256)
        theta0 = _dipole(grid, rng, 0.6, 0.15, 2 * 0.35**2)
        config = sqglab.SolverConfig(beta=BETA, dt=self.TRAJ_DT,
                                     t_end=self.TRAJ_STEPS * self.TRAJ_DT, n_side=256,
                                     c_existence=0.0, record_norms=("linf:theta",))
        traj = sqglab.simulate(config, theta0)
        L = grid.box_length
        cloud = rng.uniform(0.0, L, size=(self.CLOUD, 2))
        # a material square, its edges sampled densely so the polygon tracks the
        # deformed boundary, placed in the strain of the dipole's positive vortex
        # (grid index 0 is the origin of the centered coordinates)
        corner = np.array([0.6, 0.0]) + rng.uniform(-0.3, 0.3, size=2) - self.SQUARE_SIDE / 2
        t = np.arange(self.SQUARE_EDGE_PTS) / self.SQUARE_EDGE_PTS * self.SQUARE_SIDE
        z = np.zeros_like(t)
        s = np.full_like(t, self.SQUARE_SIDE)
        square = corner + np.concatenate([np.stack([t, z], 1), np.stack([s, t], 1),
                                          np.stack([s - t, s], 1), np.stack([z, s - t], 1)])
        # warm-up unit: one trial; a one-step flow map also fills the stored
        # velocities' lazily computed samples, which every later flow map reuses
        warm = sqglab.EnsembleSpec(count=1, seed=ensemble.seed)
        sqglab.check_multiplier_bounds("lemma_A_2", {"betas": (BETA,)}, warm, n_sides=(128,))
        sqglab.flow_map(traj, cloud[:1], traj.times[-1], traj.times[-1])
        return {"ensemble": ensemble, "traj": traj, "cloud": cloud, "square": square}

    def solve(self, state, lap):
        reports = []
        for fn, variant, params in self.CHECKS:
            reports.append(getattr(sqglab, fn)(variant, params, state["ensemble"],
                                               n_sides=self.N_SIDES))
            lap()
        traj = state["traj"]
        dt = traj.times[-1] / self.FLOW_STEPS
        cloud = sqglab.flow_map(traj, state["cloud"], dt)
        square = sqglab.flow_map(traj, state["square"], dt)
        return {"reports": reports, "cloud": cloud, "square": square}

    def units(self, state, out):
        return len(self.CHECKS) * len(self.N_SIDES) * self.COUNT

    def skipped_ratio(self, out):
        """Skipped degenerate trials (blocks, for the multiplier check) / attempted."""
        skipped = attempted = 0
        for rep in out["reports"]:
            if "skipped_degenerate" in rep.details:
                s = rep.details["skipped_degenerate"]
                attempted += len(rep.measured) + s
            else:
                s = rep.details["skipped"]
                attempted += self.COUNT * len(self.N_SIDES)
            skipped += s
        return skipped / attempted

    def _area_ratio(self, state, out):
        return polygon_area(out["square"][-1]) / polygon_area(state["square"])

    @staticmethod
    def _guards(rep):
        """Which of verify's three guards trip on the report's own numbers."""
        xs = np.abs([v for v in rep.measured if np.isfinite(v)])
        med = float(np.median(xs)) if len(xs) else 0.0
        return {"ceiling": max(rep.details["per_grid_stat"].values()) > rep.details["ceiling"],
                "stability": rep.stability > STABILITY_LIMIT,
                "outlier": med > 0.0 and bool(np.any(xs > OUTLIER_FACTOR * med))}

    def checks(self, state, out):
        res = []
        for rep in out["reports"]:
            tripped = self._guards(rep)
            expected = "fail" if any(tripped.values()) else "pass"
            res.append((f"verdict_rule:{rep.check_id}", rep.verdict == expected,
                        f"{rep.summary_line()}; guards {tripped}"))
            # stability compares maxima of independent 16-trial draws per grid
            # and trips on a few percent of seeds (bench/README.md), so only
            # the ceiling and outlier guards must hold on every seed
            res.append((f"bound:{rep.check_id}", not (tripped["ceiling"] or tripped["outlier"]),
                        rep.summary_line()))
        area = self._area_ratio(state, out)
        res.append(("square_area", abs(area - 1.0) <= 1e-3, f"ratio {area:.6f}"))
        res.append(("cloud_finite", bool(np.all(np.isfinite(out["cloud"]))), ""))
        return res

    def outputs(self, state, out):
        res = {rep.check_id: _fmt(max(rep.details["per_grid_stat"].values()))
               for rep in out["reports"]}
        res.update({f"{rep.check_id}:verdict": rep.verdict for rep in out["reports"]})
        res["square_area_ratio"] = _fmt(self._area_ratio(state, out))
        res["cloud_mean_final"] = _fmt(float(out["cloud"][-1].mean()))
        return res

    def expected_counts(self, state, out):
        return {}


WORKLOADS = {w.name: w for w in (Direct(), Serfati(), Picard(), Analysis())}
