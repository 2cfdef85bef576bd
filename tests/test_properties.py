"""Property tests of the spectral operators served by the per-grid tables."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sqglab import grid as grid_module
from sqglab.dyadic import CutoffA, build_partition
from sqglab.errors import ConfigurationError
from sqglab.fields import (SpectralField, dealias, full_coefficients, load_field,
                           parseval_mismatch, save_field)
from sqglab.grid import Grid2D, operator_table
from sqglab.multipliers import (_constitutive_symbol, apply_multiplier, biot_savart_velocity,
                                divergence, frac_laplacian)
from sqglab.norms import zygmund_norm
from sqglab.solver import leray_project

from conftest import counting_planes, random_real_field

PROPERTY = settings(max_examples=25, deadline=None)

grids = st.sampled_from([8, 16, 32, 64]).map(Grid2D) | st.builds(
    Grid2D, st.sampled_from([16, 32]), st.floats(0.5, 40.0))
seeds = st.integers(0, 2**32 - 1)
exponents = st.floats(-2.0, 2.0)


def random_coefficients(grid, seed, components=1):
    """Arbitrary complex coefficients in the rfft2 layout: columns 0 and n/2
    not Hermitian either."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_side, grid.n_side // 2 + 1)
    if components == 2:
        shape = (2,) + shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian_extension(c):
    """The n x n array with columns 0..n/2 from c and c_(-k) = conj(c_k) beyond."""
    n = c.shape[-2]
    out = np.empty(c.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : n // 2 + 1] = c
    neg = -np.arange(n) % n
    cols = np.arange(n // 2 + 1, n)
    out[..., cols] = np.conj(c[..., neg[:, None], neg[None, cols]])
    return out


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
def test_full_coefficients_match_complex_transform(grid, seed, components):
    f = random_real_field(grid, seed, components)
    expected = scipy.fft.fft2(f.values) * (grid.box_length / grid.n_side**2)
    assert np.abs(full_coefficients(f) - expected).max() <= 1e-13 * np.abs(expected).max()


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]))
def test_half_layout_parseval_with_column_multiplicity(grid, seed, components):
    f = random_real_field(grid, seed, components)
    phys = np.sum(f.values**2) * grid.spacing**2
    spec = np.sum(operator_table(grid).multiplicity * np.abs(f.coefficients) ** 2)
    assert abs(spec - phys) <= 1e-13 * phys


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]))
def test_any_half_array_has_the_samples_of_its_hermitian_extension(grid, seed, components):
    c = random_coefficients(grid, seed, components)
    expected = scipy.fft.ifft2(hermitian_extension(c)).real * (grid.n_side**2 / grid.box_length)
    got = SpectralField.from_coefficients(grid, c).values
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]))
def test_full_layout_coefficients_rejected(grid, seed, components):
    full = hermitian_extension(random_coefficients(grid, seed, components))
    with pytest.raises(ConfigurationError):
        SpectralField.from_coefficients(grid, full)


@pytest.mark.parametrize("n", [8, 64])
def test_cached_tables_read_only(n):
    grid = Grid2D(n)
    ops = operator_table(grid)
    assert operator_table(Grid2D(n)) is ops
    arrays = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
    fam = build_partition(grid)
    assert build_partition(Grid2D(n)) is fam
    assert fam.block_multiplier(1) is fam.block_multiplier(1)
    arrays += [_constitutive_symbol(grid, 0.5), fam.block_multiplier(1),
               fam.lowpass_multiplier(-1)]
    half = (n, n // 2 + 1)  # every table is on (or broadcasts to) the rfft2 layout
    assert all(np.broadcast_shapes(a.shape[-2:], half) == half for a in arrays)
    assert ops.ksq.shape == half and ops.k2.shape == ops.multiplicity.shape == (1, n // 2 + 1)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    # the cached symbol is the one biot_savart_velocity applies
    f = random_real_field(grid, 1)
    np.testing.assert_array_equal(biot_savart_velocity(f, 0.5).coefficients,
                                  _constitutive_symbol(grid, 0.5) * f.coefficients)



@PROPERTY
@given(st.sampled_from([8, 16]).flatmap(lambda n: st.tuples(
    st.builds(Grid2D, st.just(n), st.floats(1e-3, 1e3)),
    arrays(np.float64, st.sampled_from([(n, n), (2, n, n)]),
           elements=st.floats(allow_nan=False, allow_infinity=False)))))
def test_save_load_round_trip_is_exact(grid_and_values):
    grid, values = grid_and_values
    f = SpectralField.from_values(grid, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fld"
        save_field(f, path)
        back = load_field(path)
    assert back.grid == grid
    assert back.values.tobytes() == f.values.tobytes()


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]), st.booleans())
def test_results_do_not_depend_on_fft_worker_count(grid, seed, components, homogeneous):
    c = random_coefficients(grid, seed, components)
    f = random_real_field(grid, seed, components)
    runs = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_module, "_FFT_WORKERS", workers)
            values = SpectralField.from_coefficients(grid, c).values
            fresh = SpectralField.from_values(grid, f.values)
            runs.append((values, zygmund_norm(fresh, 1.5, homogeneous=homogeneous).block_profile))
    (v1, z1), (v2, z2) = runs
    assert v1.tobytes() == v2.tobytes()
    assert z1 == z2


@PROPERTY
@given(st.sampled_from([8, 16, 32, 64, 128]), st.data(), seeds, st.sampled_from([1, 2]),
       st.floats(0.5, 40.0))
def test_narrow_coefficients_have_the_bits_of_the_padded_transform(n, data, seed, components,
                                                                    box):
    # columns 0..m-1 stand for the array padded with zero columns to n/2 + 1
    m = data.draw(st.integers(1, n // 2 + 1))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((components, n, m)) + 1j * rng.standard_normal((components, n, m))
    padded = np.zeros((components, n, n // 2 + 1), dtype=np.complex128)
    padded[..., :m] = c
    expected = np.stack([scipy.fft.irfft2(p, s=(n, n)) for p in padded]) * (n * n / box)
    if components == 1:
        c, expected = c[0], expected[0]
    assert operator_table(Grid2D(n, box)).values(c).tobytes() == expected.tobytes()



@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("components", [1, 2])
def test_large_grid_coefficients_have_the_bits_of_irfft2(n, components):
    # the full width, and a narrow block's, at the sizes the benchmark runs
    rng = np.random.default_rng(n + components)
    grid = Grid2D(n, 16.0)
    for m in (n // 2 + 1, n // 8):
        c = rng.standard_normal((components, n, m)) + 1j * rng.standard_normal((components, n, m))
        padded = np.zeros((components, n, n // 2 + 1), dtype=np.complex128)
        padded[..., :m] = c
        expected = np.stack([scipy.fft.irfft2(p, s=(n, n)) for p in padded]) * (n * n / 16.0)
        assert operator_table(grid).values(c).tobytes() == expected.tobytes()

def per_plane_values(c, n, box):
    """Samples by the per-plane route: ``ifftn`` over the columns, ``irfft``
    over the rows (padding the zero columns), then the one scale."""
    out = np.empty(c.shape[:-1] + (n,))
    for i in np.ndindex(c.shape[:-2]):
        cols = scipy.fft.ifftn(c[i], axes=(0,), norm="forward")
        out[i] = scipy.fft.irfft(cols, n=n, norm="forward")
    out *= (n * n / box) / (n * n)
    return out


transform_calls = st.tuples(
    st.floats(0.0, 1.0),  # the width, as a fraction of n/2 + 1
    st.sampled_from([(), (2,)]),  # lead shape
    st.sampled_from([None, "dealias", "random"]),  # mask
    st.booleans(),  # real input
    seeds)


@PROPERTY
@given(st.sampled_from([8, 16, 32, 64]), st.floats(0.5, 40.0),
       st.lists(transform_calls, min_size=2, max_size=8))
def test_values_have_the_bits_of_the_per_plane_transform_in_any_call_order(n, box, calls):
    # one table serves every call, so a column a wider call left in its
    # buffer would show in the next, narrower one
    ops = operator_table(Grid2D(n, box))
    for frac, lead, mask_kind, real, seed in calls:
        m = 1 + round(frac * (n // 2))
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(lead + (n, m))
        if not real:
            c = c + 1j * rng.standard_normal(lead + (n, m))
        mask = {None: None, "dealias": ops.dealias,
                "random": rng.random((n, n // 2 + 1)) < 0.5}[mask_kind]
        expected = per_plane_values(c if mask is None else c * mask[:, :m], n, box)
        assert ops.values(c, mask=mask).tobytes() == expected.tobytes()


@PROPERTY
@given(st.sampled_from([8, 16, 32, 64, 128]), st.data(), seeds, st.sampled_from([(), (2,)]),
       st.floats(0.5, 40.0))
def test_row_pruned_coefficients_have_the_bits_of_rfft2(n, data, seed, lead, box):
    # samples that vanish off the given rows (in any order), passed as those
    # rows only, against rfft2 of the full samples times the package scale
    rows = np.array(data.draw(st.one_of(st.just([]), st.just(list(range(n))),
                                        st.lists(st.integers(0, n - 1), unique=True))),
                    dtype=np.intp)
    full = np.zeros(lead + (n, n))
    full[..., rows, :] = np.random.default_rng(seed).standard_normal(lead + (len(rows), n))
    expected = scipy.fft.rfft2(full)
    expected *= box / (n * n)
    got = operator_table(Grid2D(n, box)).coefficients(full[..., rows, :], rows=rows)
    assert got.tobytes() == expected.tobytes()


# -- field arithmetic: the representation rule ---------------------------------

HOLDS = ("values", "coefficients", "both")


def holding(f: SpectralField, holds: str) -> SpectralField:
    """A copy of ``f`` holding only the named representation (or both)."""
    v = f.values if holds != "coefficients" else None
    c = f.coefficients if holds != "values" else None
    return SpectralField(f.grid, values=v, coefficients=c)


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]), st.floats(-1e3, 1e3))
def test_values_arithmetic_is_bit_for_bit_sample_arithmetic(grid, seed, components, s):
    f = random_real_field(grid, seed, components)
    g = random_real_field(grid, seed + 1, components)
    for holds in ("values", "both"):
        a, b = holding(f, holds), holding(g, holds)
        assert (a + b).values.tobytes() == (f.values + g.values).tobytes()
        assert (a - b).values.tobytes() == (f.values - g.values).tobytes()
        assert (s * a).values.tobytes() == (f.values * s).tobytes()
        assert (-a).values.tobytes() == (-f.values).tobytes()


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]), st.floats(-1e3, 1e3))
def test_coefficient_only_arithmetic_costs_no_transform(grid, seed, components, s):
    a = holding(random_real_field(grid, seed, components), "coefficients")
    b = holding(random_real_field(grid, seed + 1, components), "coefficients")
    with pytest.MonkeyPatch.context() as mp:
        planes = counting_planes(mp)
        out = [a + b, a - b, s * a, -a, (a - b) * s + a]
    assert planes == []
    assert all(f._values is None for f in out)


@PROPERTY
@given(grids, seeds, st.sampled_from([1, 2]), st.sampled_from(HOLDS), st.sampled_from(HOLDS),
       st.floats(-1e3, 1e3))
def test_every_route_agrees(grid, seed, components, holds_a, holds_b, s):
    f = random_real_field(grid, seed, components)
    g = random_real_field(grid, seed + 1, components)
    a, b = holding(f, holds_a), holding(g, holds_b)
    for got, expected in ((a + b, f.values + g.values), (a - b, f.values - g.values),
                          (s * a - b, s * f.values - g.values), (-b, -g.values)):
        scale = max(np.abs(expected).max(), np.abs(f.values).max() * max(abs(s), 1.0))
        assert np.abs(got.values - expected).max() <= 1e-13 * scale


@PROPERTY
@given(st.floats(1e-3, 10.0), st.floats(1.01, 10.0),
       arrays(np.float64, st.integers(1, 64), elements=st.floats(0.0, 120.0)))
def test_bump_is_exact_off_its_annulus_and_monotone(inner, ratio, rho):
    cut = CutoffA(inner, inner * ratio)
    a, da, d2a = cut.profile(rho)
    np.testing.assert_array_equal(cut.a(rho), a)
    ball, beyond = rho <= cut.inner, rho >= cut.outer
    assert np.all(a[ball] == 1.0) and np.all(da[ball] == 0.0) and np.all(d2a[ball] == 0.0)
    assert np.all(a[beyond] == 0.0) and np.all(da[beyond] == 0.0) and np.all(d2a[beyond] == 0.0)
    assert np.all((a >= 0.0) & (a <= 1.0)) and np.all(da <= 0.0)
    assert np.all(np.diff(cut.a(np.sort(rho))) <= 0.0)
    # scalar, 1-D and 2-D inputs give the same values
    for got, want in zip(cut.profile(rho.reshape(-1, 1)), (a, da, d2a)):
        np.testing.assert_array_equal(got[:, 0], want)
    for i in range(rho.size):
        for got, want in zip(cut.profile(float(rho[i])), (a, da, d2a)):
            assert np.ndim(got) == 0 and got == want[i]
    # the first-order pair is the triple's first two, bit for bit
    pair = cut.profile(rho, order=1)
    assert len(pair) == 2
    assert pair[0].tobytes() == a.tobytes() and pair[1].tobytes() == da.tobytes()
