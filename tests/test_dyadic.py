import pickle

import numpy as np
import pytest

from sqglab.dyadic import (build_partition, chi_profile, phi_profile, project_block,
                           smooth_truncate_initial)
from sqglab.errors import BlockRangeError
from sqglab.fields import SpectralField, dealias
from sqglab.grid import Grid2D, operator_table
from sqglab.multipliers import gradient
from sqglab.norms import WindowFamily, block_sups, sobolev_norm, uniformly_local_norm, zygmund_norm

from conftest import random_real_field


class TestProfiles:
    def test_chi_at_origin(self):
        assert chi_profile(np.array([0.0]))[0] == 1.0

    def test_phi_at_one(self):
        # forced by supp chi inside B_(5/6) and the telescoping construction
        assert phi_profile(np.array([1.0]))[0] == 1.0

    def test_supports(self):
        rho = np.linspace(0, 4, 4001)
        chi = chi_profile(rho)
        phi = phi_profile(rho)
        assert np.all(chi[rho >= 5.0 / 6.0 + 1e-9] == 0.0)
        assert np.all(chi[rho <= 3.0 / 5.0] == 1.0)
        assert np.all(phi[rho <= 3.0 / 5.0] == 0.0)
        assert np.all(phi[rho >= 5.0 / 3.0] == 0.0)
        assert np.all(phi >= 0.0)
        assert np.all(chi >= 0.0)

    def test_profiles_csv_export(self, tmp_path):
        from sqglab.dyadic import export_profiles_csv
        path = tmp_path / "profiles.csv"
        export_profiles_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rho,chi_hat,phi_hat"
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.0]

    def test_partition_residual_random_wavenumbers(self, grid256):
        fam = build_partition(grid256)
        rng = np.random.default_rng(0)
        kmag = operator_table(grid256).kmag
        below = np.argwhere(kmag <= grid256.k_nyquist)
        pick = below[rng.choice(len(below), size=512, replace=False)]
        vals = kmag[pick[:, 0], pick[:, 1]]
        total = chi_profile(vals)
        for j in range(0, fam.j_top + 1):
            total = total + phi_profile(vals / 2.0**j)
        assert np.abs(1.0 - total).max() <= 1e-12


class TestBuildPartition:
    def test_ranges(self, grid256):
        fam = build_partition(grid256)
        assert fam.j_min == 0
        assert fam.j_max == 5
        assert fam.j_top >= fam.j_max
        assert fam.partition_residual() <= 1e-12

    def test_every_valid_grid_hosts_a_block(self):
        # n_side >= 8 guarantees at least one annulus below the dealias cutoff
        for n in (8, 16, 32):
            for L in (0.05, 1.0, 2 * np.pi, 40.0):
                fam = build_partition(Grid2D(n, L))
                assert fam.j_max >= fam.j_min


class TestProjectBlock:
    def test_pure_mode_block_zero(self, grid64):
        X, _ = grid64.coords()
        f = SpectralField.from_values(grid64, np.cos(X))  # |k| = 1, phi(1) = 1
        out = project_block(f, 0, "inhomogeneous")
        assert (out - f).linf() <= 1e-12

    def test_constant_in_lowpass_only(self, grid64):
        fam = build_partition(grid64)
        c = SpectralField.from_values(grid64, np.full((64, 64), 2.0))
        assert (project_block(c, -1, "inhomogeneous") - c).linf() <= 1e-13
        for j in range(0, fam.j_top + 1):
            assert project_block(c, j, "inhomogeneous").linf() <= 1e-13

    def test_reconstruction(self, grid128):
        fam = build_partition(grid128)
        f = dealias(random_real_field(grid128, seed=1))
        rec = project_block(f, -1, "inhomogeneous")
        for j in range(0, fam.j_top + 1):
            rec = rec + project_block(f, j, "inhomogeneous")
        assert (rec - f).linf() <= 1e-10

    def test_block_orthogonality(self, grid128):
        fam = build_partition(grid128)
        f = random_real_field(grid128, seed=2)
        for j in fam.measured_range():
            fj = project_block(f, j, "homogeneous")
            again = project_block(fj, j + 2, "homogeneous")
            assert again.linf() <= 1e-12 * max(fj.linf(), 1.0)

    def test_linearity(self, grid64):
        f = random_real_field(grid64, seed=3)
        g = random_real_field(grid64, seed=4)
        combo = SpectralField.from_values(grid64, 2.0 * f.values + 3.0 * g.values)
        lhs = project_block(combo, 1, "inhomogeneous")
        rhs_vals = (2.0 * project_block(f, 1, "inhomogeneous").values
                    + 3.0 * project_block(g, 1, "inhomogeneous").values)
        assert np.abs(lhs.values - rhs_vals).max() <= 1e-12 * np.abs(rhs_vals).max()

    def test_translation_commutes(self, grid64):
        f = random_real_field(grid64, seed=5)
        shifted = SpectralField.from_values(grid64, np.roll(f.values, (3, -7), axis=(0, 1)))
        lhs = project_block(shifted, 1, "inhomogeneous")
        rhs = project_block(f, 1, "inhomogeneous")
        rhs_shift = np.roll(rhs.values, (3, -7), axis=(0, 1))
        assert np.abs(lhs.values - rhs_shift).max() <= 1e-12 * max(rhs.linf(), 1.0)

    def test_range_errors(self, grid64):
        fam = build_partition(grid64)
        f = random_real_field(grid64, seed=6)
        with pytest.raises(BlockRangeError):
            project_block(f, -2, "inhomogeneous")
        with pytest.raises(BlockRangeError):
            project_block(f, fam.j_top + 1, "inhomogeneous")
        with pytest.raises(BlockRangeError):
            project_block(f, fam.j_min - 1, "homogeneous")


class TestBernsteinProperty:
    def test_gradient_costs_two_to_the_j(self):
        # measured c, C uniform over j; spread must not grow with the grid
        spreads = {}
        for n in (128, 256):
            grid = Grid2D(n)
            fam = build_partition(grid)
            f = dealias(random_real_field(grid, seed=7))
            ratios = []
            for j in fam.measured_range():
                fj = project_block(f, j, "homogeneous")
                if fj.linf() < 1e-14:
                    continue
                ratios.append(gradient(fj).linf() / (2.0**j * fj.linf()))
            spreads[n] = max(ratios) / min(ratios)
        assert spreads[128] <= 4.0
        assert spreads[256] <= 4.0
        assert abs(spreads[256] - spreads[128]) / spreads[128] <= 0.5


class TestSmoothTruncate:
    def test_full_band_lowpass_is_identity(self, grid64):
        fam = build_partition(grid64)
        f = random_real_field(grid64, seed=8)
        out = smooth_truncate_initial(f, fam.j_top + 4)
        assert (out - f).linf() <= 1e-12

    def test_high_mode_killed_at_n0(self, grid64):
        X, _ = grid64.coords()
        f = SpectralField.from_values(grid64, np.cos(4 * X))  # |k|=4 above S_0 support
        out = smooth_truncate_initial(f, 0)
        assert out.linf() <= 1e-13

    def test_negative_n_rejected(self, grid64):
        with pytest.raises(BlockRangeError):
            smooth_truncate_initial(random_real_field(grid64), -1)

    def test_l2ul_bound_uniform_in_n(self, grid128):
        # ||S_n f||_(L2_ul) <= C ||f||_(L2_ul) with C independent of n
        fam = build_partition(grid128)
        f = random_real_field(grid128, seed=9)
        windows = WindowFamily.build(grid128)
        base = uniformly_local_norm(f, 2.0, windows, "Lp_ul").value
        ratios = []
        for n in range(0, fam.j_top + 3):
            sn = smooth_truncate_initial(f, n)
            ratios.append(uniformly_local_norm(sn, 2.0, windows, "Lp_ul").value / base)
        assert max(ratios) <= 1.5  # uniform bound, no n-dependence
        assert ratios[-1] == pytest.approx(1.0, abs=1e-9)  # saturates to identity
        assert all(r <= 1.5 for r in ratios)


def block_outputs(f) -> bytes:
    """The bits of every function that looks a field's dyadic family up."""
    fam = build_partition(f.grid)
    out = []
    for homogeneous in (False, True):
        out.append(block_sups(f, homogeneous=homogeneous))
        for rep in (zygmund_norm(f, 1.5, homogeneous=homogeneous),
                    sobolev_norm(f, 1.5, homogeneous=homogeneous)):
            out.append((rep.kind, rep.value, rep.block_profile, rep.tested_range, rep.extras))
    for mode, js in (("inhomogeneous", fam.inhomogeneous_js()),
                     ("homogeneous", fam.homogeneous_js()), ("lowpass_S_n", range(-1, 4))):
        out += [project_block(f, j, mode).coefficients.tobytes() for j in js]
    out += [smooth_truncate_initial(f, n).coefficients.tobytes() for n in range(4)]
    return pickle.dumps(out)  # floats pickled by their bits


class TestFamilyLookup:
    """Every block operation looks its family up from the field's grid."""

    BOXES = (2 * np.pi, 4.0, 8.0, 16.0, 32.0)  # five grids of n = 64: one more than the cache

    def test_round_robin_past_the_cache_keeps_the_bits(self):
        fields = [random_real_field(Grid2D(64, box), seed=i, components=1 + i % 2)
                  for i, box in enumerate(self.BOXES)]
        first = []
        for f in fields:
            build_partition.cache_clear()  # each grid's first pass builds its own family
            first.append(block_outputs(f))
        for _ in range(2):
            misses = build_partition.cache_info().misses
            for f, expected in zip(fields, first):
                assert block_outputs(f) == expected
            # round robin over five grids evicts each family before it is read again
            assert build_partition.cache_info().misses - misses == len(fields)

    def test_a_positional_family_is_refused(self, grid64):
        f = random_real_field(grid64, seed=2)
        fam = build_partition(Grid2D(64, 16.0))
        for call in (lambda: project_block(f, 0, "inhomogeneous", fam),
                     lambda: smooth_truncate_initial(f, 2, fam),
                     lambda: block_sups(f, fam),
                     lambda: zygmund_norm(f, 1.5, fam),
                     lambda: sobolev_norm(f, 1.5, fam)):
            with pytest.raises(TypeError):
                call()
