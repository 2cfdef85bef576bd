import numpy as np
import pytest

from sqglab.dyadic import project_block
from sqglab.errors import ConfigurationError, DomainError
from sqglab.fields import SpectralField
from sqglab.multipliers import (MultiplierSpec, apply_multiplier, bessel, biot_savart_velocity,
                                dealiased_product, derivative, divergence, frac_laplacian,
                                grad_perp, gradient, kato_ponce_commutator)

from conftest import random_real_field


def pure_mode(grid, m1, m2, amplitude=1.0):
    """Exact single cosine mode cos(k.x), built in coefficient space."""
    n = grid.n_side
    c = np.zeros((n, n), dtype=complex)
    c[m1 % n, m2 % n] = amplitude * grid.box_length / 2.0
    c[-m1 % n, -m2 % n] = amplitude * grid.box_length / 2.0
    return SpectralField.from_coefficients(grid, c[:, : n // 2 + 1])


class TestPresets:
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_frac_laplacian_eigenfunction(self, grid64, s):
        X, _ = grid64.coords()
        for k in (1, 3):
            f = pure_mode(grid64, k, 0)
            out = apply_multiplier(f, frac_laplacian(s))
            expect = float(k) ** s * np.cos(k * X)
            rel = np.abs(out.values - expect).max() / float(k) ** s
            assert rel <= 1e-12

    def test_bessel_constant(self, grid64):
        c = SpectralField.from_values(grid64, np.full((64, 64), 4.2))
        out = apply_multiplier(c, bessel(1.7))
        assert np.abs(out.values - 4.2).max() <= 1e-12

    def test_bessel_plane_wave(self, grid64):
        X, _ = grid64.coords()
        f = SpectralField.from_values(grid64, np.sin(2 * X))
        out = apply_multiplier(f, bessel(2.0))
        assert np.abs(out.values - 5.0 * np.sin(2 * X)).max() <= 1e-11

    def test_inverse_composition_mean_zero(self, grid64):
        f = random_real_field(grid64, seed=1)
        f = SpectralField.from_values(grid64, f.values - f.values.mean())
        s = 0.8
        once = apply_multiplier(f, frac_laplacian(s))
        back = apply_multiplier(once, frac_laplacian(-s))
        assert (back - f).linf() / f.linf() <= 1e-10

    def test_grad_perp_divergence_free(self, grid64):
        f = random_real_field(grid64, seed=2)
        u = apply_multiplier(f, grad_perp())
        assert divergence(u).linf() <= 1e-12 * max(u.linf(), 1.0)

    def test_preset_names_and_domain(self, grid64):
        assert frac_laplacian(0.5).name == "frac_laplacian:0.5"
        assert bessel(2).name == "bessel:2"
        assert grad_perp().name == "grad_perp"
        f = random_real_field(grid64, seed=4)
        with pytest.raises(DomainError):
            biot_savart_velocity(f, 1.5)
        with pytest.raises(ConfigurationError):
            biot_savart_velocity(random_real_field(grid64, seed=4, components=2), 0.25)

    def test_singular_symbol_needs_policy(self, grid64):
        f = random_real_field(grid64, seed=3)

        def sym(k1, k2):
            with np.errstate(divide="ignore"):
                return (k1 * k1 + k2 * k2) ** -0.5

        bad = MultiplierSpec("inv", sym, zero_mode=None)
        with pytest.raises(ConfigurationError):
            apply_multiplier(f, bad)


class TestBiotSavart:
    def test_unit_mode(self, grid64):
        X, _ = grid64.coords()
        theta = pure_mode(grid64, 1, 0)
        for beta in (0.25, 0.5, 0.75):
            u = biot_savart_velocity(theta, beta)
            assert np.abs(u.values[0]).max() <= 1e-12
            assert np.abs(u.values[1] - (-np.sin(X))).max() <= 1e-12

    def test_mode_two_closed_form(self, grid64):
        # gain |k|^(beta-1): amplitude 2^(-1/2) at |k|=2, beta=1/2
        X, _ = grid64.coords()
        theta = pure_mode(grid64, 2, 0)
        u = biot_savart_velocity(theta, 0.5)
        expect = -(2.0 ** (-0.5)) * np.sin(2 * X)
        assert np.abs(u.values[1] - expect).max() <= 1e-12 * 2.0 ** (-0.5)
        assert np.abs(u.values[0]).max() <= 1e-14

    def test_radial_advection_vanishes(self, grid256):
        x1, x2 = grid256.coords_centered()
        theta = SpectralField.from_values(grid256, np.exp(-(x1**2 + x2**2) / (2 * 0.1**2)))
        u = biot_savart_velocity(theta, 0.5)
        gt = gradient(theta)
        adv = u.values[0] * gt.values[0] + u.values[1] * gt.values[1]
        rel = np.abs(adv).max() / (u.linf() * gt.linf())
        assert rel <= 1e-6

    def test_divergence_free(self, grid128):
        theta = random_real_field(grid128, seed=4)
        u = biot_savart_velocity(theta, 0.7)
        assert divergence(u).linf() <= 1e-10 * max(u.linf(), 1.0)

    def test_beta_domain(self, grid64):
        theta = random_real_field(grid64, seed=5)
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                biot_savart_velocity(theta, bad)

    def test_single_mode_block_ratio_is_one(self, grid128):
        # the dyadic bound ratio equals 1 exactly on a mode at |k| = 2^j
        X, _ = grid128.coords()
        for j in (1, 2):
            theta = SpectralField.from_values(grid128, np.cos(2**j * X))
            beta = 0.5
            u = biot_savart_velocity(theta, beta)
            uj = project_block(u, j, "homogeneous")
            tj = project_block(theta, j, "homogeneous")
            ratio = uj.linf() / (2.0 ** (j * (beta - 1.0)) * tj.linf())
            assert ratio == pytest.approx(1.0, abs=1e-10)


class TestDerivatives:
    def test_mixed_derivative(self, grid64):
        X, Y = grid64.coords()
        f = SpectralField.from_values(grid64, np.sin(X) * np.cos(2 * Y))
        out = derivative(f, (1, 1))
        expect = np.cos(X) * (-2.0) * np.sin(2 * Y)
        assert np.abs(out.values - expect).max() <= 1e-11

    def test_gradient_matches_components(self, grid64):
        f = random_real_field(grid64, seed=6)
        g = gradient(f)
        assert np.abs(g.values[0] - derivative(f, (1, 0)).values).max() <= 1e-12


class TestKatoPonce:
    def test_constant_f_gives_zero(self, grid64):
        f = SpectralField.from_values(grid64, np.full((64, 64), 1.5))
        g = random_real_field(grid64, seed=7)
        out = kato_ponce_commutator(f, g, 2.0)
        assert out.linf() <= 1e-12 * g.linf()

    def test_constant_g_algebraic_identity(self, grid64):
        # J^s(f c) - f J^s(c) = c (J^s f - f)
        f = random_real_field(grid64, seed=8)
        c = 2.25
        g = SpectralField.from_values(grid64, np.full((64, 64), c))
        out = kato_ponce_commutator(f, g, 1.5)
        fd = dealiased_product(f, SpectralField.from_values(grid64, np.ones((64, 64))))
        direct = c * (apply_multiplier(fd, bessel(1.5)).values - fd.values)
        assert np.abs(out.values - direct).max() <= 1e-10 * np.abs(direct).max()

    def test_nonpositive_s_rejected(self, grid64):
        f = random_real_field(grid64, seed=9)
        with pytest.raises(DomainError):
            kato_ponce_commutator(f, f, 0.0)

    def test_measured_constant_stable(self):
        # C in the commutator bound is O(1) and stable under refinement
        from sqglab.grid import Grid2D
        cs = {}
        for n in (64, 128):
            grid = Grid2D(n)
            f = random_real_field(grid, seed=10)
            g = random_real_field(grid, seed=11)
            from sqglab.fields import dealias
            f, g = dealias(f), dealias(g)
            comm = kato_ponce_commutator(f, g, 2.5)
            rhs = (gradient(f).linf() * apply_multiplier(g, bessel(1.5)).l2()
                   + apply_multiplier(f, bessel(2.5)).l2() * g.linf())
            cs[n] = comm.l2() / rhs
        assert cs[64] <= 20.0
        assert abs(cs[128] - cs[64]) / cs[64] <= 0.5
