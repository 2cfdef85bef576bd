import numpy as np
import pytest

from sqglab.dyadic import project_block
from sqglab.errors import ConfigurationError, DomainError
from sqglab.fields import SpectralField
from sqglab.grid import Grid2D, operator_table
from sqglab.multipliers import (MultiplierSpec, apply_multiplier, bessel, biot_savart_velocity,
                                dealiased_product, derivative, divergence, frac_laplacian,
                                gradient, kato_ponce_commutator, symbol_array)

from sqglab.verify import pure_mode

from conftest import random_real_field


class TestPresets:
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_frac_laplacian_eigenfunction(self, grid64, s):
        X, _ = grid64.coords()
        for k in (1, 3):
            f = pure_mode(grid64, k)
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

    def test_preset_names_and_domain(self, grid64):
        assert frac_laplacian(0.5).name == "frac_laplacian:0.5"
        assert bessel(2).name == "bessel:2"
        f = random_real_field(grid64, seed=4)
        with pytest.raises(DomainError):
            biot_savart_velocity(f, 1.5)
        with pytest.raises(ConfigurationError):
            biot_savart_velocity(random_real_field(grid64, seed=4, components=2), 0.25)


def written_out_symbols(grid):
    """(spec, symbol) per preset, each symbol by the expression its operator
    evaluated before the symbol table: a callable's (k1, k2) on the broadcast
    layout, then the zero mode set; the derivative's and the constitutive
    symbol's own expressions; the gradient's factors i k and the Nyquist mask."""
    ops = operator_table(grid)
    k1, k2 = np.broadcast_arrays(ops.k1, ops.k2)
    out = []
    for s in (0.7, -0.8, 2.0):
        ksq = k1 * k1 + k2 * k2
        with np.errstate(divide="ignore", invalid="ignore"):
            sym = np.array(np.where(ksq > 0, ksq ** (s / 2.0), 0.0), dtype=np.complex128)
        sym[0, 0] = 0.0
        out.append((frac_laplacian(s), sym))
    for s in (1.5, 2.5, -1.0):
        sym = np.array((1.0 + k1 * k1 + k2 * k2) ** (s / 2.0), dtype=np.complex128)
        sym[0, 0] = 1.0
        out.append((bessel(s), sym))
    for a1 in range(4):
        for a2 in range(4 - a1):
            sym = (1j * ops.k1) ** a1 * (1j * ops.k2) ** a2
            if a1 % 2 or a2 % 2:
                sym = sym * ops.nyquist
            out.append((MultiplierSpec("derivative", (a1, a2)), sym))
    out.append((MultiplierSpec("gradient"), np.stack([1j * k1, 1j * k2]) * ops.nyquist))
    for beta in (0.25, 0.5, 0.75):
        with np.errstate(divide="ignore"):
            radial = np.where(ops.ksq > 0, ops.ksq ** ((beta - 2.0) / 2.0), 0.0)
        sym = np.stack([-1j * ops.k2 * radial, 1j * ops.k1 * radial]) * ops.nyquist
        out.append((MultiplierSpec("constitutive", beta), sym))
    return out


class TestSymbolTable:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("box", [2 * np.pi, 16.0])
    def test_presets_have_the_written_out_bits(self, n, box):
        grid = Grid2D(n, box)
        for spec, expect in written_out_symbols(grid):
            got = symbol_array(grid, spec)
            assert got.dtype == np.complex128 and got.shape == expect.shape, spec
            assert got.tobytes() == expect.tobytes(), spec
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[..., 0, 0] = 1.0
            assert symbol_array(Grid2D(n, box), spec) is got

    def test_operators_apply_the_table(self, grid64):
        # gradient and divergence match the former per-call expressions up to
        # the signs of zeros; every other operator to the bit
        f = random_real_field(grid64, seed=12)
        u = random_real_field(grid64, seed=13, components=2)
        ops = operator_table(grid64)
        table = dict((spec.name, sym) for spec, sym in written_out_symbols(grid64))
        c = f.coefficients
        assert (derivative(f, (2, 1)).coefficients.tobytes()
                == (table["derivative:2,1"] * c).tobytes())
        assert (biot_savart_velocity(f, 0.25).coefficients.tobytes()
                == (table["constitutive:0.25"] * c).tobytes())
        masked = c * ops.nyquist
        np.testing.assert_array_equal(gradient(f).coefficients,
                                      np.stack([1j * ops.k1 * masked, 1j * ops.k2 * masked]))
        cu = u.coefficients
        np.testing.assert_array_equal(divergence(u).coefficients,
                                      (1j * ops.k1 * cu[0] + 1j * ops.k2 * cu[1]) * ops.nyquist)

    def test_second_application_builds_nothing(self, grid64):
        f = random_real_field(grid64, seed=14)
        applications = [lambda: apply_multiplier(f, frac_laplacian(0.9)),
                        lambda: apply_multiplier(f, bessel(1.3)),
                        lambda: biot_savart_velocity(f, 0.35),
                        lambda: gradient(f),
                        lambda: derivative(f, (2, 1)),
                        lambda: divergence(biot_savart_velocity(f, 0.35))]
        for apply in applications:
            first = apply()
            built = symbol_array.cache_info().misses
            again = apply()
            assert symbol_array.cache_info().misses == built
            assert again.coefficients.tobytes() == first.coefficients.tobytes()

    @pytest.mark.parametrize("make", [frac_laplacian, bessel,
                                      lambda order: MultiplierSpec("constitutive", order)])
    @pytest.mark.parametrize("order", [np.nan, np.inf, -np.inf])
    def test_non_finite_order_rejected_before_the_cache(self, grid64, make, order):
        # a NaN order never equals itself: each lookup would miss and add an entry
        f = random_real_field(grid64, seed=16)
        before = symbol_array.cache_info()
        for _ in range(3):
            with pytest.raises(ConfigurationError, match=f"needs a finite order, got {order}"):
                apply_multiplier(f, make(order))
        assert symbol_array.cache_info() == before

    def test_unknown_preset_rejected(self, grid64):
        with pytest.raises(ConfigurationError, match="unknown multiplier preset 'curl'"):
            apply_multiplier(random_real_field(grid64, seed=15), MultiplierSpec("curl"))


class TestBiotSavart:
    def test_unit_mode(self, grid64):
        X, _ = grid64.coords()
        theta = pure_mode(grid64, 1)
        for beta in (0.25, 0.5, 0.75):
            u = biot_savart_velocity(theta, beta)
            assert np.abs(u.values[0]).max() <= 1e-12
            assert np.abs(u.values[1] - (-np.sin(X))).max() <= 1e-12

    def test_mode_two_closed_form(self, grid64):
        # gain |k|^(beta-1): amplitude 2^(-1/2) at |k|=2, beta=1/2
        X, _ = grid64.coords()
        theta = pure_mode(grid64, 2)
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
