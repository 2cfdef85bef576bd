import numpy as np
import pytest
import scipy.fft

from sqglab.dyadic import build_partition, project_block
from sqglab.errors import ConfigurationError
from sqglab.fields import SpectralField
from sqglab.grid import Grid2D, operator_table
from sqglab.multipliers import (apply_multiplier, bessel, biot_savart_velocity, gradient,
                                kato_ponce_commutator)
from sqglab.solver import SolverConfig, simulate
from sqglab.verify import (EnsembleSpec, _outlier_free, check_apriori_bounds, check_commutators,
                           check_multiplier_bounds, check_velocity_regularity,
                           cumulative_trapezoid, gronwall_envelope, lp_commutator, make_field,
                           twin_run_experiment)

from test_multipliers import pure_mode


def full_layout_band_limited(grid, spec, trial):
    """Samples of a band-limited ensemble field by the full-layout route: the
    Hermitian part of env z on the whole n x n lattice, then a complex inverse
    transform."""
    rng = np.random.default_rng([spec.seed, trial, grid.n_side])
    n = grid.n_side
    k = grid.mode_indices() * grid.k_fundamental
    kmag = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    env = np.zeros_like(kmag)
    band = (kmag > 0) & (kmag <= 0.9 * grid.dealias_k_cutoff)
    env[band] = kmag[band] ** (-spec.gamma)
    c = env * z
    c = 0.5 * (c + np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1))))
    c[0, 0] = 0.0
    vals = scipy.fft.ifft2(c).real * (n * n / grid.box_length)
    return vals * (spec.amplitude / np.abs(vals).max())


class TestEnsembles:
    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(field_class="fancy")

    def test_deterministic(self, grid64):
        spec = EnsembleSpec(seed=42)
        a = make_field(grid64, spec, 3)
        b = make_field(grid64, spec, 3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_classes_produce_real_normalized_fields(self, grid64):
        for cls in ("band_limited", "compact_bump", "radial", "constant_plus_bump"):
            f = make_field(grid64, EnsembleSpec(field_class=cls, amplitude=2.0), 0)
            assert np.isrealobj(f.values)
            assert f.linf() == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_band_limited_stream_matches_full_layout_route(self, n, seed):
        # the half-layout field draws the same (n, n) normals as the full one
        grid = Grid2D(n)
        spec = EnsembleSpec(seed=seed)
        for trial in (0, 5):
            expect = full_layout_band_limited(grid, spec, trial)
            got = make_field(grid, spec, trial).values
            assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_band_limited_is_band_limited(self, grid64):
        f = make_field(grid64, EnsembleSpec(), 1)
        c = np.abs(f.coefficients)
        kmag = operator_table(grid64).kmag
        assert c[kmag > 0.95 * grid64.dealias_k_cutoff].max() <= 1e-14


class TestSingleModeRatios:
    def test_bernstein_exactly_one(self, grid128):
        fam = build_partition(grid128)
        for j in (1, 2, 3):
            f = pure_mode(grid128, 2**j, 0)
            fj = project_block(f, j, "homogeneous", fam)
            for p_inf in (True, False):
                num = gradient(fj).linf() if p_inf else gradient(fj).l2()
                den = fj.linf() if p_inf else fj.l2()
                assert num / (2.0**j * den) == pytest.approx(1.0, abs=1e-10)

    def test_lemma_3_1_exactly_one(self, grid128):
        from sqglab.multipliers import apply_multiplier, frac_laplacian
        fam = build_partition(grid128)
        s = 0.7
        for j in (1, 2):
            f = pure_mode(grid128, 2**j, 0)
            fj = project_block(f, j, "homogeneous", fam)
            num = apply_multiplier(fj, frac_laplacian(s)).linf()
            assert num / (2.0 ** (j * s) * fj.linf()) == pytest.approx(1.0, abs=1e-10)

    def test_lemma_A_2_exactly_one(self, grid128):
        fam = build_partition(grid128)
        beta = 0.5
        for j in (1, 2):
            f = pure_mode(grid128, 2**j, 0)
            fj = project_block(f, j, "homogeneous", fam)
            u = biot_savart_velocity(fj, beta)
            ratio = u.linf() / (2.0 ** (j * (beta - 1.0)) * fj.linf())
            assert ratio == pytest.approx(1.0, abs=1e-10)


class TestCheckRunners:
    def test_unknown_variants_rejected(self):
        ens = EnsembleSpec(count=2)
        with pytest.raises(ConfigurationError):
            check_multiplier_bounds("nope", {}, ens)
        with pytest.raises(ConfigurationError):
            check_commutators("nope", {}, ens)
        with pytest.raises(ConfigurationError):
            check_velocity_regularity("nope", {}, ens)

    def test_small_ensemble_warns(self):
        rep = check_multiplier_bounds("bernstein", {"ps": (np.inf,)},
                                      EnsembleSpec(count=4), n_sides=(128,))
        assert rep.verdict == "warning"

    def test_determinism_bitwise(self):
        ens = EnsembleSpec(count=4)
        a = check_multiplier_bounds("bernstein", {"ps": (2.0,)}, ens, n_sides=(128,))
        b = check_multiplier_bounds("bernstein", {"ps": (2.0,)}, ens, n_sides=(128,))
        assert a.measured == b.measured

    def test_outlier_guard(self):
        assert _outlier_free([1.0, 1.1, 0.9, 1.05])
        assert not _outlier_free([1.0, 1.1, 0.9, 22.0])

    def test_kato_ponce_constant_f_records_zero(self, grid128):
        # a constant f commutes with J^s: the trial ratio is 0, not skipped
        f = SpectralField.from_values(grid128, np.full((128, 128), 2.0))
        g = make_field(grid128, EnsembleSpec(), 0)
        rhs = apply_multiplier(f, bessel(2.0)).l2() * g.linf()
        assert kato_ponce_commutator(f, g, 2.0).l2() / rhs <= 1e-12

    def test_kato_ponce_check_measures_the_public_commutator(self):
        # the check's trial-0 ratio, bit for bit, from kato_ponce_commutator
        # on trial 0's fields
        ens = EnsembleSpec(count=2)
        rep = check_commutators("kato_ponce", {"s": 2.5}, ens, n_sides=(128,))
        grid = Grid2D(128, 2.0 * np.pi)
        f, g = make_field(grid, ens, 0), make_field(grid, ens, 1)
        rhs = (gradient(f).linf() * apply_multiplier(g, bessel(1.5)).l2()
               + apply_multiplier(f, bessel(2.5)).l2() * g.linf())
        assert rep.measured[0] == kato_ponce_commutator(f, g, 2.5).l2() / rhs

    def test_holder_commutator_zero_velocity(self, grid128):
        fam = build_partition(grid128)
        u = SpectralField.zeros(grid128, components=2)
        theta = make_field(grid128, EnsembleSpec(), 1)
        out = lp_commutator(u, theta, 2, fam)
        assert out.linf() == 0.0

    def test_lemma_3_3_runs_and_passes(self):
        rep = check_velocity_regularity("lemma_3_3", {"beta": 0.5, "s": 1.2},
                                        EnsembleSpec(count=16), n_sides=(128,))
        assert rep.verdict in ("pass", "warning")
        assert all(np.isfinite(v) for v in rep.measured)

    def test_lemma_3_2_companion_transform_bound(self):
        rep = check_velocity_regularity("lemma_3_2", {"beta": 0.5, "s": 1.2},
                                        EnsembleSpec(count=16), n_sides=(128,))
        assert rep.verdict == "pass"
        assert np.isfinite(rep.details["near_transform_max_n128"])


class TestGronwall:
    def test_envelope_dominates_and_tight_for_constant_beta(self):
        # u(t) = exp(2t) solves u = 1 + int 2u: envelope is exact
        ts = np.linspace(0.0, 1.0, 201)
        beta = np.full_like(ts, 2.0)
        env = gronwall_envelope(ts, 1.0, beta)
        u = np.exp(2.0 * ts)
        assert np.all(env >= u * (1 - 1e-9))
        assert np.abs(env / u - 1.0).max() <= 0.05

    def test_envelope_dominates_decaying_case(self):
        # u below the integral-inequality solution stays below the envelope
        ts = np.linspace(0.0, 2.0, 101)
        u = 0.5 * np.exp(0.3 * ts) * (1.0 - 0.2 * np.sin(ts))
        beta = np.full_like(ts, 0.3)
        env = gronwall_envelope(ts, 0.5, beta)
        assert np.all(env >= u - 1e-12)

    def test_cumulative_trapezoid_keeps_the_written_out_bits(self):
        # the expression the envelope, the hsul_theorem_3_4 fit and criterion 8
        # each wrote out before they shared one definition
        rng = np.random.default_rng(0)
        ts = np.cumsum(rng.uniform(0.001, 0.1, 40))
        y = rng.standard_normal(40)
        written = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(ts) * (y[1:] + y[:-1]))])
        assert np.array_equal(cumulative_trapezoid(ts, y), written)
        assert np.array_equal(gronwall_envelope(ts, 1.0, y), np.exp(written))
        # exact on a linear integrand: int_0^t 2s ds = t^2
        np.testing.assert_allclose(cumulative_trapezoid(ts - ts[0], 2.0 * (ts - ts[0])),
                                   (ts - ts[0]) ** 2, rtol=1e-12, atol=1e-15)

    def test_time_varying_alpha(self):
        ts = np.linspace(0.0, 1.0, 51)
        alpha = 1.0 + ts
        env = gronwall_envelope(ts, alpha, np.zeros_like(ts))
        np.testing.assert_allclose(env, alpha)


class TestAprioriBounds:
    @pytest.fixture(scope="class")
    def stationary_traj(self):
        grid = Grid2D(128)
        x1, x2 = grid.coords_centered()
        theta0 = SpectralField.from_values(grid, np.exp(-(x1**2 + x2**2) / (2 * 0.1**2)))
        cfg = SolverConfig(beta=0.5, dt=5e-3, t_end=0.2, n_side=128, c_existence=0,
                           record_norms=("hsul:theta:2.5", "ctilde1:u", "w1inf:theta",
                                         "linf:u", "cr:theta:2.5"))
        return simulate(cfg, theta0)

    def test_stationary_run_minimal_k_zero(self, stationary_traj):
        rep = check_apriori_bounds(stationary_traj, "hsul_theorem_3_4", {"s": 2.5})
        assert rep.measured[0] <= 1e-3  # no growth: minimal K ~ 0

    def test_zero_data_vacuous(self):
        grid = Grid2D(64)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=64, c_existence=0,
                           record_norms=("hsul:theta:2.5", "ctilde1:u", "w1inf:theta"))
        traj = simulate(cfg, SpectralField.zeros(grid))
        rep = check_apriori_bounds(traj, "hsul_theorem_3_4", {"s": 2.5})
        assert rep.verdict == "pass"

    def test_holder_bound_fit_within_window(self):
        # single-shell steady state: psi(t) = psi(0), fitted C = 1, window open
        grid = Grid2D(64)
        X, Y = grid.coords()
        theta0 = SpectralField.from_values(grid, 0.1 * (np.cos(X) + np.cos(Y)))
        cfg = SolverConfig(beta=0.5, dt=5e-3, t_end=0.05, n_side=64, c_existence=0,
                           record_norms=("linf:u", "cr:theta:2.5"))
        traj = simulate(cfg, theta0)
        rep = check_apriori_bounds(traj, "holder_bound", {"r": 2.5})
        assert rep.verdict == "pass"
        assert rep.details["denominator_min"] > 0.0
        assert rep.measured[0] == pytest.approx(1.0, rel=1e-6)

    def test_holder_bound_long_run_warns(self, stationary_traj):
        # rough data at t_end = 0.2: the guaranteed window is exceeded
        rep = check_apriori_bounds(stationary_traj, "holder_bound", {"r": 2.5})
        assert rep.verdict == "warning"

    def test_missing_series_raises(self, stationary_traj):
        with pytest.raises(ConfigurationError):
            check_apriori_bounds(stationary_traj, "velocity_hsul", {"s": 9.9, "beta": 0.5})


class TestTwinRun:
    def test_growth_fit_stable(self):
        grid = Grid2D(128)
        x1, x2 = grid.coords_centered()
        theta0 = SpectralField.from_values(
            grid, np.exp(-((x1 - 0.5) ** 2 + x2**2) / 0.18)
            - np.exp(-((x1 + 0.5) ** 2 + x2**2) / 0.18))
        pert = make_field(grid, EnsembleSpec(seed=5), 0)
        cfg = SolverConfig(beta=0.5, dt=5e-3, t_end=0.2, n_side=128, c_existence=0,
                           record_norms=("linf:theta",), sample_every=5)
        rep = twin_run_experiment(cfg, theta0, pert, deltas=(1e-3, 1e-4))
        assert rep.verdict == "pass"
        ks = rep.details["K"]
        for delta, gaps in rep.details["gaps"].items():
            lam = rep.details["Lambda"][rep.parameters["deltas"].index(delta)]
            k = ks[rep.parameters["deltas"].index(delta)]
            ts = np.linspace(0, cfg.t_end, len(gaps))
            bound = k * delta * np.exp(lam * ts)
            assert np.all(np.asarray(gaps) <= bound * (1 + 1e-9))
