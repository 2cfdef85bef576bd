import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

import sqglab
from sqglab import dyadic, kernels
from sqglab.dyadic import build_partition
from sqglab.errors import ConfigurationError, DomainError
from sqglab.fields import SpectralField, dealias, dealiased_samples
from sqglab.grid import Grid2D, operator_table
from sqglab.kernels import (CutoffA, _far_samples, _mid_samples, _near_samples, _phi_derivs,
                            _phi_short_derivs, build_split,
                            convolve_far, convolve_near, far_flux_integral, riesz_constant,
                            riesz_convolve, riesz_transfer, sample_near,
                            split_consistency_error)
from sqglab.multipliers import (apply_multiplier, biot_savart_velocity, dealiased_product, divergence,
                                frac_laplacian)
from sqglab.norms import WindowFamily, window_profile
from sqglab.verify import gaussian_dipole, verify_fundamental_solution

from conftest import random_real_field


@pytest.fixture(scope="module")
def split256():
    return build_split(Grid2D(256, 16.0), 0.5)


@pytest.fixture(scope="module")
def split128_raw():
    # near transfer of the plain one-period samples: the quadrature oracle target
    return build_split(Grid2D(128, 16.0), 0.5, oversample=1)


class TestCutoff:
    def test_plateau_support_monotone(self):
        a = CutoffA()
        rho = np.linspace(0, 3, 3001)
        v = a.a(rho)
        assert np.all(v[rho <= 1.0] == 1.0)
        assert np.all(v[rho >= 2.0] == 0.0)
        assert np.all((v >= 0) & (v <= 1))
        assert np.all(np.diff(v) <= 1e-12)
        np.testing.assert_array_equal(a.profile(rho)[0], v)

    def test_derivatives_match_finite_differences(self):
        a = CutoffA()
        rho = np.linspace(1.05, 1.95, 19)
        eps = 1e-5
        fd1 = (a.a(rho + eps) - a.a(rho - eps)) / (2 * eps)
        fd2 = (a.a(rho + eps) - 2 * a.a(rho) + a.a(rho - eps)) / eps**2
        _, da, d2a = a.profile(rho)
        assert np.abs(da - fd1).max() <= 1e-6
        assert np.abs(d2a - fd2).max() <= 1e-4

    def test_reaches_zero_just_inside_outer(self):
        # the ramp formula stops 1e-12 short of t = 1; S is 1 from there on,
        # not 0, so a does not jump back to 1 in that band
        a = CutoffA()
        rho = 2.0 - np.array([2e-11, 1e-11, 2e-12, 1e-12, 5e-13, 1e-13, 0.0])
        v, da, d2a = a.profile(rho)
        assert a.a(2.0 - 5e-13) == 0.0
        assert np.all(v[2:] == 0.0)
        assert np.all(np.diff(v) <= 0.0)
        assert np.all(da[3:] == 0.0) and np.all(d2a[3:] == 0.0)

    @pytest.mark.parametrize("n", [128, 256])
    def test_no_sample_radius_in_the_mended_band(self, n):
        # the band fix leaves the near, mid and far samples (and the q = 4
        # finer near sampling) bit for bit unchanged: no radius falls in it
        cut = CutoffA()
        for m in (n, 4 * n):
            x1, x2 = Grid2D(m, 16.0).coords_centered()
            t = (np.hypot(x1, x2) - cut.inner) / (cut.outer - cut.inner)
            assert not np.any((t >= 1.0 - 1e-12) & (t < 1.0))

    def test_bad_radii(self):
        with pytest.raises(ConfigurationError):
            CutoffA(inner=2.0, outer=1.0)

    @pytest.mark.parametrize("order", [0, 3])
    def test_profile_order_checked(self, order):
        with pytest.raises(ConfigurationError):
            CutoffA().profile(np.linspace(0.0, 3.0, 7), order=order)

    def test_one_bump_for_the_package(self):
        # the kernel cutoff, the low pass and the window are one definition
        assert sqglab.CutoffA is CutoffA is dyadic.CutoffA
        rho = np.linspace(0.0, 5.0, 5001)
        np.testing.assert_array_equal(dyadic.chi_profile(rho), CutoffA(3 / 5, 5 / 6).a(rho))
        for scale in (0.5, 1.0, 2.0):
            np.testing.assert_array_equal(window_profile(rho, scale),
                                          CutoffA(scale, 2 * scale).a(rho))


def _spy_ramp(monkeypatch) -> list:
    """Record every array the exp(-1/t) ramp is evaluated on."""
    seen = []
    ramp = dyadic._ramp

    def spy(t, order=0):
        seen.append(np.array(t, dtype=np.float64))
        return ramp(t, order)

    monkeypatch.setattr(dyadic, "_ramp", spy)
    return seen


class TestRampEvaluation:
    def test_ramp_sees_only_the_open_annulus(self, monkeypatch):
        seen = _spy_ramp(monkeypatch)
        grid = Grid2D(128, 16.0)
        build_split(grid, 0.5, oversample=2).near_potential_transform_max()
        fam = build_partition(Grid2D(128))
        for j in fam.inhomogeneous_js():
            fam.lowpass_multiplier(j)
            fam.block_multiplier(max(j, 0))
        WindowFamily.build(grid).profile_on_patch()
        assert sum(t.size for t in seen) > 0
        for t in seen:
            assert np.all((t > 0.0) & (t < 1.0))

    def test_build_split_evaluates_the_cutoff_once_per_sampled_array(self, monkeypatch):
        seen = _spy_ramp(monkeypatch)
        calls = []
        for name in ("a", "profile"):
            method = getattr(CutoffA, name)

            def spy(self, rho, *args, _method=method, _name=name, **kwargs):
                calls.append((_name, np.array(rho, dtype=np.float64)))
                return _method(self, rho, *args, **kwargs)

            monkeypatch.setattr(CutoffA, name, spy)
        split = build_split(Grid2D(128, 16.0), 0.5, oversample=2)
        # the fine patch of the near transfer (a body and a cell-averaged
        # core), mid, and a Phi_long; then the grid's near samples (body and
        # core) and far, each when first read
        assert [name for name, _ in calls] == ["profile"] * 3 + ["a"]
        split.near, split.far, split.near, split.far
        assert [name for name, _ in calls] == ["profile"] * 3 + ["a"] + ["profile"] * 3
        # each call runs the ramp once, on exactly its annulus points
        assert len(seen) == len(calls)
        cut = CutoffA()
        for (_, rho), t in zip(calls, seen):
            ring = (rho > cut.inner) & (rho < cut.outer)
            np.testing.assert_array_equal(t, (rho[ring] - cut.inner) / (cut.outer - cut.inner))


class TestRieszConstant:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_value(self, beta):
        import math
        expect = math.gamma(beta / 2) / (2 ** (2 - beta) * math.pi * math.gamma(1 - beta / 2))
        assert riesz_constant(beta) == pytest.approx(expect, rel=1e-14)

    def test_gamma_split_reassembles_symbol(self):
        # the production transfer approximates |k|^(beta-2), improving with h
        beta = 0.5
        rels = {}
        for n in (128, 256):
            g = Grid2D(n, 16.0)
            T = riesz_transfer(g, beta)
            kmag = operator_table(g).kmag
            sel = (kmag > 0.3) & (kmag < 6.0)
            rels[n] = float(np.abs(T[sel] - kmag[sel] ** (beta - 2)).max()
                            / kmag[sel][np.argmax(np.abs(T[sel] - kmag[sel] ** (beta - 2)))]
                            ** (beta - 2))
        assert rels[256] <= 2e-2
        assert rels[256] < rels[128]


class TestBuildSplit:
    def test_preconditions(self):
        with pytest.raises(DomainError):
            build_split(Grid2D(256, 16.0), 1.5)
        with pytest.raises(ConfigurationError):
            build_split(Grid2D(64, 16.0), 0.5)  # spacing 1/4 too coarse
        with pytest.raises(ConfigurationError):
            build_split(Grid2D(256, 8.0), 0.5)  # box too small

    @pytest.mark.parametrize("oversample, message", [
        (2.0, "oversample must be an integer >= 1, got 2.0"),
        (0, "oversample must be an integer >= 1, got 0"),
        (3, "oversample must be a power of two, got 3"),
    ])
    def test_oversample_is_a_power_of_two_integer(self, oversample, message):
        with pytest.raises(ConfigurationError, match=message):
            build_split(Grid2D(128, 16.0), 0.5, oversample=oversample)

    def test_near_analytic_value_inside_plateau(self, split256):
        # a = 1 at |x| = 0.5, so the kernel is Phi'(rho) x_perp/rho there
        g = split256.grid
        i = int(round(0.5 / g.spacing))
        x = i * g.spacing
        expect = -split256.c_beta * split256.beta * x ** (-split256.beta - 1.0)
        assert split256.near[0, i, 0] == 0.0
        assert split256.near[1, i, 0] == pytest.approx(expect, rel=1e-12)

    def test_supports_exact(self, split256):
        x1, x2 = split256.grid.coords_centered()
        rho = np.hypot(x1, x2)
        assert np.abs(split256.far[:, :, rho <= 1.0]).max() == 0.0
        assert np.abs(split256.near[:, rho >= 2.0]).max() == 0.0

    def test_far_decay_exponent(self, split256):
        assert split256.far_decay_exponent() == pytest.approx(-(0.5 + 2.0), abs=0.05)

    def test_near_l1_converges_under_refinement(self):
        # |value(h) - value(h/2)| / value(h/2) <= 0.02 at h = 1/32
        beta = 0.5
        c = riesz_constant(beta)
        cutoff = CutoffA()
        vals = {}
        for n, L in ((512, 16.0), (1024, 16.0)):
            g = Grid2D(n, L)
            near = sample_near(g, beta, c, cutoff)
            mag = np.sqrt(near[0] ** 2 + near[1] ** 2)
            vals[n] = float(mag.sum() * g.spacing**2)
        assert abs(vals[512] - vals[1024]) / vals[1024] <= 0.02

    def test_far_disc_integral_matches_flux_constant(self, split256):
        g = split256.grid
        x1, x2 = g.coords_centered()
        rho = np.hypot(x1, x2)
        for R in (4.0, 6.0):
            disc = split256.far[:, :, rho <= R].sum(axis=-1) * g.spacing**2
            oracle = far_flux_integral(0.5, split256.c_beta, R)
            # boundary cells are jagged at scale h; bound the mismatch accordingly
            edge = 2 * np.pi * R * g.spacing * 0.5 * split256.c_beta * (0.5 + 3) * R ** (-2.5)
            assert np.abs(disc - oracle).max() <= 2 * edge

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_near_transfer_matches_fine_grid(self, n, q):
        # oracle: h_f^2 fft2 of the near kernel sampled on the q-times finer
        # grid, restricted to the coarse modes (signed, Nyquist at -n/2), and
        # its Hermitian part (T(k) + conj(T(-k)))/2 on columns 0..n/2
        grid = Grid2D(n, 16.0)
        split = build_split(grid, 0.5, oversample=q)
        fine = Grid2D(q * n, 16.0)
        t_fine = scipy.fft.fft2(sample_near(fine, 0.5, split.c_beta, split.cutoff)) * fine.spacing**2
        idx = grid.mode_indices() % (q * n)
        oracle = t_fine[:, idx[:, None], idx[None, :]]
        oracle[:, 0, 0] = 0.0
        neg = -np.arange(n) % n
        oracle = 0.5 * (oracle[..., : n // 2 + 1]
                        + np.conj(oracle[:, neg[:, None], neg[None, : n // 2 + 1]]))
        assert np.abs(split._near_transfer - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_far_and_mid_samples_match_public_cutoff(self):
        # the samplers evaluate the ramp once and only on inner < rho < outer;
        # beyond outer, 1 - a = 1 and a' = a'' = 0, so the samples keep the
        # bits of the ramp evaluated on every r > inner
        grid = Grid2D(128, 16.0)
        split = build_split(grid, 0.5)
        cut, c = split.cutoff, split.c_beta
        x1, x2 = grid.coords_centered()
        rho = np.hypot(x1, x2)
        mask = rho > cut.inner
        r = rho[mask]
        assert r.max() > cut.outer
        # the ramp on every r > inner, past outer too (where it is 1, flat)
        width = cut.outer - cut.inner
        S, S1, S2 = dyadic._ramp((r - cut.inner) / width, order=2)
        one_a, da, d2a = 1.0 - (1.0 - S), -S1 / width, -S2 / width**2
        p, p1 = _phi_derivs(r, 0.5, c)
        p2 = 0.5 * (0.5 + 1.0) * p / r**2
        Gp = -da * p + one_a * p1
        Gpp = -d2a * p - 2.0 * da * p1 + one_a * p2
        g = Gp / r
        gp = (Gpp * r - Gp) / r**2
        xx = (x1[mask], x2[mask])
        xp = (-xx[1], xx[0])
        eperp = np.array([[0.0, -1.0], [1.0, 0.0]])
        far = np.zeros((2, 2) + rho.shape)
        for i in range(2):
            for j in range(2):
                far[i, j, mask] = gp * xx[j] * xp[i] / r + g * eperp[i, j]
        np.testing.assert_array_equal(split.far, far)
        ps, ps1 = _phi_short_derivs(r, 0.5, c, split.alpha)
        gm = (-da * ps + one_a * ps1) / r
        mid = np.zeros((2,) + rho.shape)
        mid[0, mask] = -x2[mask] * gm
        mid[1, mask] = x1[mask] * gm
        np.testing.assert_array_equal(_mid_samples(x1, x2, rho, 0.5, c, cut, split.alpha), mid)

    @pytest.mark.parametrize("n, box, beta", [(128, 16.0, 0.5), (256, 16.0, 0.25),
                                              (256, 32.0, 0.75)])
    def test_mid_transfer_keeps_the_bits_of_gammaincc_at_every_point(self, monkeypatch, n, box,
                                                                     beta):
        # gammaincc runs once per distinct radius; the mid transfer keeps the
        # bits of the samples with it evaluated at every grid point
        grid = Grid2D(n, box)
        once = build_split(grid, beta)._mid_transfer

        def every_point(rho, beta, c, alpha):
            a2 = beta / 2.0
            z = alpha * rho**2
            Q = scipy.special.gammaincc(a2, z)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                Qp = -np.where(z > 0, z ** (a2 - 1.0), 0.0) * np.exp(-z) / math.gamma(a2)
            p = c * rho ** (-beta)
            return p * Q, -beta * p / rho * Q + p * Qp * (2.0 * alpha * rho)

        monkeypatch.setattr(kernels, "_phi_short_derivs", every_point)
        assert once.tobytes() == build_split(grid, beta)._mid_transfer.tobytes()

    def test_build_split_memory_budget(self, traced_peak):
        # 4x oversampling without the 4x finer grid, whose arrays alone peaked
        # at 58 MiB at this size
        _, peak, _ = traced_peak(lambda: build_split(Grid2D(256, 16.0), 0.5))
        assert peak <= 20 * 2**20

    @pytest.mark.parametrize("beta", [0.25, 0.75])
    def test_near_and_far_computed_on_first_read_with_the_eager_bits(self, beta):
        # build_split used to sample both on the grid's displacements itself
        grid = Grid2D(128, 16.0)
        split = build_split(grid, beta, oversample=2)
        assert "near" not in vars(split) and "far" not in vars(split)
        x1, x2 = grid.coords_centered()
        rho = np.hypot(x1, x2)
        near = _near_samples(x1, x2, rho, grid.spacing, beta, split.c_beta, split.cutoff)
        far = _far_samples(x1, x2, rho, beta, split.c_beta, split.cutoff)
        assert split.near.shape == near.shape and split.near.tobytes() == near.tobytes()
        assert split.far.shape == far.shape and split.far.tobytes() == far.tobytes()
        assert split.near is split.near and split.far is split.far

    def test_fresh_split_retains_only_its_transfers(self, traced_peak):
        # near (2, n, n) and far (2, 2, n, n) would triple what a split keeps
        grid = Grid2D(256, 16.0)
        operator_table(grid)  # the grid's cached table is not the split's
        split, _, retained = traced_peak(lambda: build_split(grid, 0.5))
        _, _, grown = traced_peak(lambda: (split.near, split.far))
        transfers = split._near_transfer.nbytes + split._mid_transfer.nbytes
        assert transfers <= retained <= transfers + 2**16
        assert grown >= split.near.nbytes + split.far.nbytes

    def test_near_potential_transform_finite(self, split256):
        m = split256.near_potential_transform_max()
        assert np.isfinite(m)
        assert 0.0 < m < 50.0


class TestConvolutions:
    def test_zero_field(self, split256):
        z = SpectralField.zeros(split256.grid)
        assert convolve_near(split256, z).linf() == 0.0
        u = SpectralField.zeros(split256.grid, components=2)
        assert convolve_far(split256, z, u).linf() == 0.0

    def test_constant_theta_near_vanishes(self, split256):
        # odd kernel, constant input: symmetric cancellation
        c = SpectralField.from_values(split256.grid, np.ones((256, 256)))
        assert convolve_near(split256, c).linf() <= 1e-10

    def test_near_matches_direct_quadrature(self, split128_raw):
        # spectral circular convolution == the wrapped Riemann sum of the samples
        g = split128_raw.grid
        x1, x2 = g.coords_centered()
        theta = SpectralField.from_values(g, np.exp(-(x1**2 + x2**2) / (2 * 0.5**2)))
        out = convolve_near(split128_raw, theta)
        h = g.spacing
        direct = np.zeros((2, g.n_side, g.n_side))
        reach = int(np.ceil(2.0 / h))
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                k0 = split128_raw.near[0, di % g.n_side, dj % g.n_side]
                k1 = split128_raw.near[1, di % g.n_side, dj % g.n_side]
                if k0 == 0.0 and k1 == 0.0:
                    continue
                rolled = np.roll(theta.values, (di, dj), axis=(0, 1))
                direct[0] += k0 * rolled
                direct[1] += k1 * rolled
        direct *= h**2
        rel = np.abs(out.values - direct).max() / np.abs(direct).max()
        assert rel <= 1e-6

    def test_far_matches_direct_quadrature(self, split128_raw):
        g = split128_raw.grid
        x1, x2 = g.coords_centered()
        theta = SpectralField.from_values(g, np.exp(-(x1**2 + x2**2) / (2 * 0.6**2)))
        u = biot_savart_velocity(theta, split128_raw.beta)
        out = convolve_far(split128_raw, theta, u)
        n = g.n_side
        import scipy.fft
        # the far tensor's transfer is the spectral gradient of the mid transfer
        ops = operator_table(g)
        k = (ops.k1, ops.k2)
        direct = np.zeros((2, n, n))
        for j in range(2):
            pj = dealiased_product(theta, u.component(j)).values
            pj_hat = scipy.fft.rfft2(pj)
            for i in range(2):
                ker_hat = 1j * k[j] * split128_raw._mid_transfer[i]
                direct[i] += scipy.fft.irfft2(ker_hat * pj_hat, s=(n, n))
        rel = np.abs(out.values - direct).max() / max(np.abs(direct).max(), 1e-300)
        assert rel <= 1e-10

    def test_far_transform_budget(self, split128_raw, count_planes):
        # theta holding both representations, u holding samples: theta and u
        # dealiased to samples (1 + 2 + 2), the flux back (2), the result (2)
        g = split128_raw.grid
        theta = random_real_field(g, seed=1)
        theta.coefficients
        u = SpectralField.from_values(g, biot_savart_velocity(theta, 0.5).values)
        planes = count_planes()
        convolve_far(split128_raw, theta, u)
        assert 0 < sum(planes) <= 9

    def test_near_transform_budget(self, split128_raw, count_planes):
        # the convolution is formed on coefficients; its samples cost 2 planes
        # when read
        g = split128_raw.grid
        theta = SpectralField.from_coefficients(g, random_real_field(g, seed=2).coefficients)
        planes = count_planes()
        out = convolve_near(split128_raw, theta)
        assert sum(planes) == 0
        out.values
        assert sum(planes) == 2

    def test_far_leaves_velocity_uncached(self, split128_raw):
        # a caller keeping many velocities (Picard keeps every step's) must
        # not find their coefficients cached on them afterwards
        g = split128_raw.grid
        theta = random_real_field(g, seed=3)
        u = random_real_field(g, seed=4, components=2)
        convolve_far(split128_raw, theta, u)
        assert u._coeffs is None

    @pytest.mark.parametrize("u_holds", ["coefficients", "values"])
    def test_far_with_passed_samples_is_bit_for_bit(self, split128_raw, u_holds):
        # theta holds both representations; u holds one.  Passing either
        # factor's dealiased samples, or both, leaves every bit of the result
        g = split128_raw.grid
        theta = random_real_field(g, seed=5)
        theta.coefficients
        full = random_real_field(g, seed=6, components=2)

        def velocity():
            if u_holds == "values":
                return SpectralField.from_values(g, full.values)
            return SpectralField.from_coefficients(g, full.coefficients)

        expected = convolve_far(split128_raw, theta, velocity()).coefficients
        th_s, u_s = dealiased_samples(theta), dealiased_samples(velocity())
        for kw in ({"theta_samples": th_s}, {"u_samples": u_s},
                   {"theta_samples": th_s, "u_samples": u_s}):
            u = velocity()
            got = convolve_far(split128_raw, theta, u, **kw)
            assert np.array_equal(got.coefficients, expected), sorted(kw)
            if u_holds == "values":
                assert u._coeffs is None

    def test_far_with_passed_samples_skips_their_transforms(self, split128_raw, count_planes):
        # with both factors' samples passed, only the flux's 2 forward planes remain
        g = split128_raw.grid
        theta = random_real_field(g, seed=7)
        u = random_real_field(g, seed=8, components=2)
        th_s, u_s = dealiased_samples(theta), dealiased_samples(u)
        planes = count_planes()
        convolve_far(split128_raw, theta, u, theta_samples=th_s, u_samples=u_s)
        assert sum(planes) == 2

    def test_far_keeps_the_bits_of_its_three_layer_route(self, split128_raw):
        # dealias, divergence and the mid convolution as separate layers; the
        # narrow route leaves zeros of one sign beyond the dealias columns
        g = split128_raw.grid
        theta = random_real_field(g, seed=9)
        u = random_real_field(g, seed=10, components=2)
        flux = SpectralField.from_values(g, dealiased_samples(theta) * dealiased_samples(u))
        ref = kernels._convolve(split128_raw._mid_transfer, divergence(dealias(flux)))
        got = convolve_far(split128_raw, theta, u).coefficients
        assert np.array_equal(got, ref.coefficients)
        beyond = got[..., operator_table(g).dealias_columns:]
        assert not beyond.view(np.float64).any()
        assert not np.signbit(beyond.view(np.float64)).any()

    def test_box_forms_are_the_boxes_of_the_fields(self, split128_raw):
        # a box in (near) or asked for (far) gives the dealias box of the
        # field's coefficients; the far flux needs u or its samples
        g = split128_raw.grid
        ops = operator_table(g)
        theta = random_real_field(g, seed=13)
        u = random_real_field(g, seed=14, components=2)
        near = convolve_near(split128_raw, theta).coefficients
        assert np.array_equal(convolve_near(split128_raw, ops.box(theta.coefficients)),
                              ops.box(near))
        far = convolve_far(split128_raw, theta, u).coefficients
        assert np.array_equal(convolve_far(split128_raw, theta, u, box=True), ops.box(far))
        assert np.array_equal(far, ops.unbox(ops.box(far)))  # zero outside the box
        with pytest.raises(ConfigurationError):
            convolve_near(split128_raw, theta.coefficients)
        with pytest.raises(ConfigurationError):
            convolve_far(split128_raw, theta, theta_samples=dealiased_samples(theta))

    def test_far_peak_memory(self, split256, traced_peak):
        # the flux's samples (16 n^2 bytes) and the coefficients that become
        # the result (16 n^2), with temporaries on the dealias columns only
        g = split256.grid
        theta = random_real_field(g, seed=11)
        u = random_real_field(g, seed=12, components=2)
        th_s, u_s = dealiased_samples(theta), dealiased_samples(u)
        convolve_far(split256, theta, u, theta_samples=th_s, u_samples=u_s)
        _, peak, _ = traced_peak(
            lambda: convolve_far(split256, theta, u, theta_samples=th_s, u_samples=u_s))
        assert peak <= 40 * 256**2

    def test_far_gauge_kills_constants(self, split256):
        ones = SpectralField.from_values(split256.grid, np.ones((256, 256)))
        uc = SpectralField.from_values(
            split256.grid, np.stack([np.full((256, 256), 0.7), np.full((256, 256), -0.4)]))
        out = convolve_far(split256, ones, uc)
        assert out.linf() <= 1e-12


class TestSplitConsistency:
    def test_split_reproduces_multiplier_route(self):
        errs = {}
        for n in (256, 512):
            g = Grid2D(n, 16.0)
            split = build_split(g, 0.5)
            errs[n] = split_consistency_error(split, gaussian_dipole(g, 1.5, 1.28))
        assert errs[512] <= 1e-3
        assert errs[512] < errs[256]  # improving under refinement

    def test_near_operator_bounded_by_l1(self, split256):
        # |near * theta|_inf <= |near|_L1 |theta|_inf on an ensemble
        rng = np.random.default_rng(0)
        l1 = split256.near_l1()
        g = split256.grid
        k = g.mode_indices() * g.k_fundamental
        kmag = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
        for trial in range(4):
            z = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
            env = np.where((kmag > 0) & (kmag < 4.0), 1.0, 0.0)
            c = env * z
            c = 0.5 * (c + np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1))))
            theta = SpectralField.from_coefficients(g, c[:, :129])
            out = convolve_near(split256, theta)
            assert out.linf() <= l1 * theta.linf() * 1.01


class TestFundamentalSolution:
    def test_beta_half_passes_and_decreases(self):
        rep = verify_fundamental_solution(0.5, Grid2D(256, 16 * np.pi))
        assert rep.verdict == "pass"
        assert rep.measured[-1] <= 1e-2

    def test_stability_does_not_read_the_decrease_as_drift(self):
        # the decreasing errors were reported as stability = max/min - 1, so a
        # passing run printed stability=11.301 beside the other checks' drift
        rep = verify_fundamental_solution(0.5, Grid2D(256, 16 * np.pi))
        errs = rep.measured
        assert rep.verdict == "pass" and errs[0] > errs[-1]
        assert rep.stability == 0.0 and "stability=0.000" in rep.summary_line()
        assert rep.details["error_ratio"] == max(errs) / min(errs) > 1.0

    def test_linearity_of_residual(self):
        # residual operator is linear: antisymmetric input pair -> antisymmetric residuals
        g = Grid2D(128, 16 * np.pi)
        x1, x2 = g.coords_centered()
        sig = g.box_length / 20.0
        gplus = SpectralField.from_values(g, np.exp(-(x1**2 + x2**2) / (2 * sig**2)))
        gminus = SpectralField.from_values(g, -gplus.values)
        def residual(f):
            pot = riesz_convolve(f, 0.5)
            back = apply_multiplier(pot, frac_laplacian(1.5))
            return back.values - (f.values - f.mean())
        r1 = residual(gplus)
        r2 = residual(gminus)
        assert np.abs(r1 + r2).max() <= 1e-12 * np.abs(r1).max()

    def test_wrong_constant_inverts_roughly_unit_error(self):
        g = Grid2D(128, 16 * np.pi)
        x1, x2 = g.coords_centered()
        sig = g.box_length / 20.0
        bump = SpectralField.from_values(g, np.exp(-(x1**2 + x2**2) / (2 * sig**2)))
        pot = 2.0 * riesz_convolve(bump, 0.5)  # the transfer is linear in the constant
        back = apply_multiplier(pot, frac_laplacian(1.5))
        target = SpectralField.from_values(g, bump.values - bump.mean())
        err = (back - target).l2() / target.l2()
        assert err == pytest.approx(1.0, abs=0.05)

    def test_beta_domain_checked(self):
        with pytest.raises(DomainError):
            verify_fundamental_solution(1.2, Grid2D(128, 16 * np.pi))
