"""Property tests of the spectral operators served by the per-grid tables."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from sqglab.fields import dealias, parseval_mismatch
from sqglab.grid import Grid2D, operator_table
from sqglab.multipliers import (_constitutive_symbol, apply_multiplier, biot_savart_velocity,
                                divergence, frac_laplacian)
from sqglab.solver import leray_project

from conftest import random_real_field

PROPERTY = settings(max_examples=25, deadline=None)

grids = st.sampled_from([8, 16, 32, 64]).map(Grid2D) | st.builds(
    Grid2D, st.sampled_from([16, 32]), st.floats(0.5, 40.0))
seeds = st.integers(0, 2**32 - 1)
exponents = st.floats(-2.0, 2.0)


def random_coefficients(grid, seed, components=1):
    """Arbitrary complex coefficients: no Hermitian symmetry."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_side,) * 2 if components == 1 else (2,) + (grid.n_side,) * 2
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]))
def test_parseval(grid, seed, components):
    assert parseval_mismatch(random_real_field(grid, seed, components)) <= 1e-12


@PROPERTY
@given(grids, seeds)
def test_dealias_idempotent(grid, seed):
    once = dealias(random_real_field(grid, seed))
    np.testing.assert_array_equal(dealias(once).coefficients, once.coefficients)


@PROPERTY
@given(grids, seeds)
def test_leray_idempotent_and_divergence_free(grid, seed):
    pu = leray_project(random_real_field(grid, seed, components=2))
    scale = np.abs(pu.coefficients).max() * operator_table(grid).kmag.max()
    assert np.abs(divergence(pu).coefficients).max() <= 1e-14 * scale
    assert np.abs(leray_project(pu).coefficients - pu.coefficients).max() \
        <= 1e-14 * np.abs(pu.coefficients).max()


@PROPERTY
@given(grids, seeds, exponents, exponents)
def test_frac_laplacian_composes(grid, seed, a, b):
    f = random_real_field(grid, seed)
    lhs = apply_multiplier(apply_multiplier(f, frac_laplacian(a)), frac_laplacian(b)).coefficients
    rhs = apply_multiplier(f, frac_laplacian(a + b)).coefficients
    assert np.all(np.abs(lhs - rhs) <= 1e-13 * np.abs(rhs))


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]))
def test_half_spectrum_adapter_matches_complex_transforms(grid, seed, components):
    ops = operator_table(grid)
    n2, L = grid.n_side**2, grid.box_length
    c = random_coefficients(grid, seed, components)
    expected = scipy.fft.ifft2(c).real * (n2 / L)
    assert np.abs(ops.values(c) - expected).max() <= 1e-13 * np.abs(expected).max()
    v = random_real_field(grid, seed, components).values
    expected = scipy.fft.fft2(v) * (L / n2)
    assert np.abs(ops.coefficients(v) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n", [8, 64])
def test_cached_tables_read_only(n):
    grid = Grid2D(n)
    ops = operator_table(grid)
    assert operator_table(Grid2D(n)) is ops
    arrays = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
    arrays += [*grid.wavenumbers(), grid.k_magnitude(), grid.dealias_mask(),
               _constitutive_symbol(grid, 0.5)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    # the cached symbol is the one biot_savart_velocity applies
    f = random_real_field(grid, 1)
    np.testing.assert_array_equal(biot_savart_velocity(f, 0.5).coefficients,
                                  _constitutive_symbol(grid, 0.5) * f.coefficients)

