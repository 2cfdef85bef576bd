"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Grid sizes, tolerances, and parameter sweeps are fixed
here, not configurable.

Every number a detail string prints is also compared, at the precision it
is printed with, against the full-precision value kept in
``golden/acceptance.json``, so a change that moves a reported number fails
here rather than going unnoticed.  The one exemption is a roundoff-floor
D_12 of criterion 7 (recorded below ``D12_FLOOR``), which only has to stay
below that floor.  A deliberate change to a reported number updates the
file in the same commit.
"""

import json
from pathlib import Path

import numpy as np

from sqglab.dyadic import build_partition, chi_profile, phi_profile, project_block
from sqglab.fields import SpectralField, dealias
from sqglab.grid import Grid2D, operator_table
from sqglab.kernels import build_split, verify_fundamental_solution
from sqglab.multipliers import apply_multiplier, bessel, biot_savart_velocity, frac_laplacian
from sqglab.norms import WindowFamily, classical_holder_norm, sobolev_norm, uniformly_local_norm, zygmund_norm
from sqglab.solver import (SolverConfig, existence_time, picard_iterate, simulate,
                           velocity_serfati)
from sqglab.verify import (EnsembleSpec, check_apriori_bounds, check_multiplier_bounds,
                           cumulative_trapezoid, make_field, twin_run_experiment)

from test_multipliers import pure_mode


GOLDEN = json.loads((Path(__file__).parent / "golden" / "acceptance.json").read_text())
D12_FLOOR = 1e-13


class Printed:
    """Formats the numbers of a detail string and keeps them for the golden check."""

    def __init__(self):
        self.values = {}

    def __call__(self, key: str, value: float, fmt: str) -> str:
        self.values[key] = (float(value), fmt)
        return format(value, fmt)


def check_golden(criterion: str, printed: Printed) -> list:
    """Keys whose printed value differs from the golden record's."""
    golden = GOLDEN[criterion.split()[0]]
    assert set(golden) == set(printed.values), f"golden keys {sorted(golden)}"
    bad = []
    for key, (value, fmt) in printed.values.items():
        if key.startswith("D_12") and golden[key] < D12_FLOOR:
            ok = value < D12_FLOOR
        else:
            ok = format(value, fmt) == format(golden[key], fmt)
        if not ok:
            bad.append(f"{key} {format(value, fmt)} vs golden {format(golden[key], fmt)}")
    return bad


def report(criterion: str, passed: bool, detail: str, printed: Printed):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}  ({detail})"
    print(line)
    assert passed, line
    bad = check_golden(criterion, printed)
    assert not bad, f"{line}: printed values moved: {'; '.join(bad)}"


# -- 1. partition of unity ------------------------------------------------------


def test_criterion_01_partition_of_unity():
    grid = Grid2D(256)
    fam = build_partition(grid)
    kmag = operator_table(grid).kmag
    below = kmag <= grid.k_nyquist
    total = chi_profile(kmag)
    for j in range(0, fam.j_top + 1):
        total = total + phi_profile(kmag / 2.0**j)
    residual = float(np.abs(1.0 - total[below]).max())
    p = Printed()
    report("1 partition of unity", residual <= 1e-12, f"residual {p('residual', residual, '.2e')}",
           p)


# -- 2. plane-wave multiplier exactness -------------------------------------------


def test_criterion_02_plane_wave_exactness():
    grid = Grid2D(128)
    X, _ = grid.coords()
    worst = 0.0
    for k in (1, 2, 4):
        f = pure_mode(grid, k, 0)
        for s in (0.5, 1.3, 2.0):
            out = apply_multiplier(f, frac_laplacian(s))
            worst = max(worst, np.abs(out.values - float(k) ** s * np.cos(k * X)).max()
                        / float(k) ** s)
            outb = apply_multiplier(f, bessel(s))
            gain = (1.0 + k * k) ** (s / 2.0)
            worst = max(worst, np.abs(outb.values - gain * np.cos(k * X)).max() / gain)
    for beta in (0.25, 0.5, 0.75):
        for k in (1, 2):
            u = biot_savart_velocity(pure_mode(grid, k, 0), beta)
            gain = float(k) ** (beta - 1.0)
            expect = -gain * np.sin(k * X)
            worst = max(worst, np.abs(u.values[1] - expect).max() / gain)
            worst = max(worst, np.abs(u.values[0]).max() / gain)
    p = Printed()
    report("2 plane-wave multiplier exactness", worst <= 1e-12,
           f"max rel err {p('max_rel_err', worst, '.2e')}", p)


# -- 3. dyadic multiplier bound suites ---------------------------------------------


def test_criterion_03_dyadic_bound_suites():
    betas = (0.25, 0.5, 0.75)
    s_ref = 2.5
    ens = EnsembleSpec(count=16, seed=7)
    ps = (2.0, np.inf)
    ok = True
    details = []
    p = Printed()

    # single-mode ratios exactly 1
    grid = Grid2D(128)
    fam = build_partition(grid)
    from sqglab.multipliers import gradient
    for j in (1, 2, 3):
        f = pure_mode(grid, 2**j, 0)
        fj = project_block(f, j, "homogeneous", fam)
        r_bern = gradient(fj).linf() / (2.0**j * fj.linf())
        ok &= abs(r_bern - 1.0) <= 1e-10
        r_31 = apply_multiplier(fj, frac_laplacian(0.7)).linf() / (2.0 ** (j * 0.7) * fj.linf())
        ok &= abs(r_31 - 1.0) <= 1e-10
        for beta in betas:
            u = biot_savart_velocity(fj, beta)
            r_a2 = u.linf() / (2.0 ** (j * (beta - 1.0)) * fj.linf())
            ok &= abs(r_a2 - 1.0) <= 1e-10
    details.append("single-mode ratios = 1")

    # random ensembles: spread <= 4 across realizable j, stable between grids
    s_values = (0.3,) + tuple(1.0 - b for b in betas) + tuple(s_ref - 1.0 + b for b in betas)
    for name, params in [("bernstein", {"ps": ps}),
                         ("lemma_3_1", {"ps": ps, "s_values": s_values}),
                         ("lemma_A_2", {"ps": ps, "betas": betas})]:
        rep = check_multiplier_bounds(name, params, ens, n_sides=(128, 256))
        spreads = rep.details["per_grid_stat"]
        drift = abs(spreads[256] - spreads[128]) / spreads[128]
        ok &= rep.verdict == "pass" and max(spreads.values()) <= 4.0 and drift <= 0.5
        details.append(f"{name} spread {p(name + ' spread', max(spreads.values()), '.2f')} "
                       f"drift {p(name + ' drift', drift, '.2f')}")
    report("3 Bernstein/dyadic bound suites", ok, "; ".join(details), p)


# -- 4. fundamental solution --------------------------------------------------------


def test_criterion_04_fundamental_solution():
    ok = True
    details = []
    p = Printed()
    for beta in (0.25, 0.5, 0.75):
        rep = verify_fundamental_solution(beta, Grid2D(512, 16 * np.pi))
        errs = rep.measured
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        ok &= rep.verdict == "pass" and errs[-1] <= 1e-2 and decreasing
        details.append(f"beta={beta}: {p(f'beta={beta}', errs[-1], '.2e')}")
    report("4 fundamental solution", ok, "; ".join(details), p)


# -- 5. Serfati identity consistency -------------------------------------------------


def test_criterion_05_serfati_identity():
    # Direct-law run at n=512, beta=0.5, t=0.5; reconstruction compared to the
    # multiplier velocity.  The total gap carries a dt-independent kernel
    # sampling floor (~1.4e-5 here, 70x below tolerance), so the halving
    # clause is verified on the dt-attributable component of the error field,
    # which the trapezoid accumulation makes second order.
    L = 16.0
    grid = Grid2D(512, L)
    split = build_split(grid, 0.5)
    x1, x2 = grid.coords_centered()
    theta0 = SpectralField.from_values(
        grid, np.exp(-((x1 - 1.5) ** 2 + x2**2) / 1.28)
        - np.exp(-((x1 + 1.5) ** 2 + x2**2) / 1.28))

    gaps = {}
    fields = {}
    for dt in (0.0125, 0.00625, 0.003125):
        cfg = SolverConfig(beta=0.5, dt=dt, t_end=0.5, n_side=512, box_length=L,
                           c_existence=0.0, record_norms=("linf:theta",))
        traj = simulate(cfg, theta0, split=split)
        st = traj.final_state
        u_rec = velocity_serfati(st, traj.us[0], theta0, split)
        u_dir = biot_savart_velocity(st.theta, 0.5)
        fields[dt] = (u_rec - u_dir, u_dir.linf())
        gaps[dt] = (u_rec - u_dir).linf() / u_dir.linf()

    e0, un = fields[0.0125]
    e1, _ = fields[0.00625]
    e2, _ = fields[0.003125]
    dt_comp_0 = (e0 - e1).linf() / un
    dt_comp_1 = (e1 - e2).linf() / un
    tol_ok = gaps[0.0125] <= 1e-3
    halving_ok = dt_comp_0 >= 2.0 * dt_comp_1
    p = Printed()
    report("5 Serfati identity consistency", tol_ok and halving_ok,
           f"gap {p('gap', gaps[0.0125], '.2e')} (tol 1e-3); dt-component "
           f"{p('dt_comp_0', dt_comp_0, '.2e')} -> {p('dt_comp_1', dt_comp_1, '.2e')} "
           f"(ratio {p('ratio', dt_comp_0 / dt_comp_1, '.1f')})", p)


# -- 6. stationary radial solution ----------------------------------------------------


def test_criterion_06_stationary_radial():
    grid = Grid2D(256)
    x1, x2 = grid.coords_centered()
    theta0 = SpectralField.from_values(grid, np.exp(-(x1**2 + x2**2) / (2 * 0.1**2)))
    cfg = SolverConfig(beta=0.5, dt=1e-3, t_end=1.0, n_side=256, c_existence=0.0,
                       record_norms=("linf:theta",), sample_every=250)
    traj = simulate(cfg, theta0)
    drift = (traj.thetas[-1] - theta0).linf() / theta0.linf()
    p = Printed()
    report("6 stationary radial solution", drift <= 1e-6,
           f"drift {p('drift', drift, '.2e')} over t in [0,1]", p)


# -- 7. Picard contraction -------------------------------------------------------------


def test_criterion_07_picard_contraction():
    ok = True
    details = []
    p = Printed()
    rhos = {}
    for n in (128, 256):
        grid = Grid2D(n, 16.0)
        x1, x2 = grid.coords_centered()
        theta0 = SpectralField.from_values(
            grid, 0.8 * (np.exp(-((x1 - 1.6) ** 2 + x2**2) / 1.28)
                         - np.exp(-((x1 + 1.6) ** 2 + x2**2) / 1.28)))
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
    report("7 Picard contraction", ok,
           "; ".join(details) + f"; rho drift {p('rho drift', drift, '.2f')}", p)


# -- 8. a priori bounds ------------------------------------------------------------------


def test_criterion_08_apriori_bounds():
    trajs = {}
    for n in (256, 512):
        grid = Grid2D(n)
        x1, x2 = grid.coords_centered()
        theta0 = SpectralField.from_values(
            grid, 0.1 * (np.exp(-((x1 - 0.6) ** 2 + x2**2) / (2 * 0.35**2))
                         - np.exp(-((x1 + 0.6) ** 2 + x2**2) / (2 * 0.35**2))))
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
    p = Printed()
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
    for n in (256, 512):
        ts, hs = trajs[n].norm_series("hsul:theta:2.5")
        _, uc1 = trajs[n].norm_series("ctilde1:u")
        _, w1 = trajs[n].norm_series("w1inf:theta")
        integral = cumulative_trapezoid(ts, uc1 + w1)
        k_fit = max(rep_k.measured)
        bound = hs[0] * np.exp(k_fit * integral)
        ok &= bool(np.all(hs <= bound * (1 + 1e-9)))

        _, ul = trajs[n].norm_series("linf:u")
        _, cr = trajs[n].norm_series("cr:theta:2.5")
        psi = ul + cr
        c_fit = max(rep_c.measured)
        denom = 1.0 - c_fit * ts * psi[0]
        ok &= bool(np.all(denom > 0))
        ok &= bool(np.all(psi <= c_fit * psi[0] / denom * (1 + 1e-9)))
    report("8 a priori bounds", ok, "; ".join(details), p)


# -- 9. norm equivalence suites ------------------------------------------------------------


def test_criterion_09_norm_equivalences():
    ok = True
    details = []
    p = Printed()

    # H^s: dyadic block sum vs multiplier route, two grids
    stats = {}
    for n in (128, 256):
        grid = Grid2D(n)
        ratios = []
        for trial in range(16):
            f = make_field(grid, EnsembleSpec(seed=21), trial)
            rep = sobolev_norm(f, 2.5)
            ratios.append(rep.extras["lp_block_variant"] / rep.value)
        stats[n] = (min(ratios), max(ratios))
        ok &= 0.25 <= stats[n][0] and stats[n][1] <= 4.0
    drift = abs(stats[256][1] - stats[128][1]) / stats[128][1]
    ok &= drift <= 0.5
    details.append(f"block/multiplier in [{p('block min', stats[256][0], '.2f')},"
                   f"{p('block max', stats[256][1], '.2f')}]")

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

    # window-scale equivalence, two grids
    scale_stats = {}
    for n in (128, 256):
        grid = Grid2D(n)
        w1 = WindowFamily.build(grid)
        w2 = WindowFamily.build(grid, scale=2.0)
        rr = []
        for trial in range(8):
            f = make_field(grid, EnsembleSpec(seed=23), trial)
            rr.append(uniformly_local_norm(f, 1.5, w2, "Hs_ul").value
                      / uniformly_local_norm(f, 1.5, w1, "Hs_ul").value)
        scale_stats[n] = (min(rr), max(rr))
        ok &= 0.25 <= min(rr) and max(rr) <= 4.0
    drift = abs(scale_stats[256][1] - scale_stats[128][1]) / scale_stats[128][1]
    ok &= drift <= 0.5
    details.append(f"window-scale ratio [{p('window min', scale_stats[256][0], '.2f')},"
                   f"{p('window max', scale_stats[256][1], '.2f')}]")

    # Sobolev embedding constant stable across two grid sizes
    cs = {}
    for n in (128, 256):
        grid = Grid2D(n)
        wf = WindowFamily.build(grid)
        vals = []
        for trial in range(8):
            f = dealias(make_field(grid, EnsembleSpec(seed=24), trial))
            vals.append(classical_holder_norm(f, 1.0).value
                        / uniformly_local_norm(f, 2.1, wf, "Hs_ul").value)
        cs[n] = max(vals)
    drift = abs(cs[256] - cs[128]) / cs[128]
    ok &= drift <= 0.5 and cs[256] <= 20.0
    details.append(f"embedding C {p('embedding C', cs[256], '.2f')} "
                   f"drift {p('embedding drift', drift, '.2f')}")
    report("9 norm equivalences", ok, "; ".join(details), p)


# -- 10. twin-run uniqueness ------------------------------------------------------------------


def test_criterion_10_twin_run_uniqueness():
    grid = Grid2D(256)
    x1, x2 = grid.coords_centered()
    theta0 = SpectralField.from_values(
        grid, np.exp(-((x1 - 0.5) ** 2 + x2**2) / 0.18)
        - np.exp(-((x1 + 0.5) ** 2 + x2**2) / 0.18))
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
    p = Printed()
    report("10 twin-run uniqueness", ok,
           f"K in [{p('K min', min(ks), '.2f')},{p('K max', max(ks), '.2f')}], "
           f"Lambda in [{p('Lambda min', min(lams), '.2f')},{p('Lambda max', max(lams), '.2f')}], "
           f"stability {p('stability', rep.stability, '.2f')}", p)
