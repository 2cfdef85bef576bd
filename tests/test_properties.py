"""Property tests of the spectral operators served by the per-grid tables."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sqglab import grid as grid_module
from sqglab.dyadic import CutoffA, build_partition, project_block
from sqglab.errors import ConfigurationError
from sqglab.fields import SpectralField, dealias, full_coefficients, load_field, save_field
from sqglab.grid import Grid2D, operator_table
from sqglab.multipliers import (MultiplierSpec, apply_multiplier, biot_savart_velocity, divergence,
                                frac_laplacian, gradient, symbol_array)
from sqglab.norms import (WindowFamily, _block_bounds, _hs_patch_weight, block_sups, sobolev_norm,
                          uniformly_local_norm, zygmund_norm, zygmund_value)
from sqglab.solver import FarIntegral, leray_project
from sqglab.verify import EnsembleSpec, check_multiplier_bounds, cumulative_trapezoid, make_field

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
    # the L^2 norm from samples against the spectral one (the H^0 norm)
    f = random_real_field(grid, seed, components)
    phys, spec = f.l2() ** 2, sobolev_norm(f, 0.0).value ** 2
    assert abs(phys - spec) / phys <= 1e-12


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
    constitutive = MultiplierSpec("constitutive", 0.5)
    arrays += [symbol_array(grid, constitutive), fam.block_multiplier(1),
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
                                  symbol_array(grid, constitutive) * f.coefficients)



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
@given(st.sampled_from([16, 32]), seeds, st.sampled_from(["values", "coefficients"]),
       st.lists(st.integers(1, 128).map(lambda m: m / 1024), min_size=1, max_size=6))
def test_far_integral_is_the_cumulative_trapezoid(n, seed, holds, dts):
    # step lengths on a 2^-10 lattice, so the reference's time differences are the dts
    grid = Grid2D(n)
    integs = [holding(random_real_field(grid, seed + i, 2), holds) for i in range(len(dts) + 1)]
    with pytest.MonkeyPatch.context() as mp:
        planes = counting_planes(mp)
        fars = [FarIntegral(SpectralField.zeros(grid, 2), integs[0])]
        for dt, integ in zip(dts, integs[1:]):
            fars.append(fars[-1].advance(dt, integ))
    # the sums stay in the representation of their inputs, at no transform
    assert planes == []
    for far in fars[1:]:
        kept = far.acc._values if holds == "values" else far.acc._coeffs
        dropped = far.acc._coeffs if holds == "values" else far.acc._values
        assert kept is not None and dropped is None
    assert fars[-1].t == sum(dts)
    times = np.concatenate([[0.0], np.cumsum(dts)])
    expected = np.apply_along_axis(lambda v: cumulative_trapezoid(times, v), 0,
                                   np.stack([f.values for f in integs]))
    for far, want in zip(fars, expected):
        assert np.abs(far.acc.values - want).max() <= 1e-14 * np.abs(expected).max()


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


# -- analysis routes: each new route against the old one, written out ---------


def written_out_linf(values):
    """The sup the old routes took: |samples| (or the magnitude), then the max."""
    if values.ndim == 3:
        return float(np.sqrt((values**2).sum(axis=0)).max())
    return float(np.abs(values).max())


def same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@PROPERTY
@given(st.sampled_from([8, 16, 32, 64, 128]), st.data(), seeds, st.sampled_from([(), (2,)]),
       st.floats(0.5, 40.0), st.sampled_from([None, "dealias", "random", "zero"]))
def test_sup_has_the_bits_of_the_max_of_the_samples(n, data, seed, lead, box, mask_kind):
    # the sup with no scaled copy against the max of the scaled samples, over
    # widths, scalar and vector, under masks; all-zero coefficients cost nothing
    ops = operator_table(Grid2D(n, box))
    m = data.draw(st.integers(1, n // 2 + 1))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(lead + (n, m)) + 1j * rng.standard_normal(lead + (n, m))
    mask = {None: None, "dealias": ops.dealias, "random": rng.random((n, n // 2 + 1)),
            "zero": np.zeros((n, n // 2 + 1))}[mask_kind]
    expected = written_out_linf(ops.values(c, mask=mask))
    with pytest.MonkeyPatch.context() as mp:
        planes = counting_planes(mp)
        got = ops.sup(c, mask=mask)
    assert same_float(got, expected)
    assert (planes == []) == (mask_kind == "zero")


@PROPERTY
@example(np.full((1, 8, 8), -0.0))
@example(np.where(np.arange(64).reshape(1, 8, 8) % 3, -0.0, 0.0))
@given(st.sampled_from([1, 2]).flatmap(lambda comps: arrays(
    np.float64, (comps, 8, 8), elements=st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5]),
                                                  st.floats(-1e150, 1e150)))))
def test_linf_has_the_bits_of_the_max_magnitude(values):
    # signed zeros, ties and both signs: max(v.max(), -v.min()) and the sqrt of
    # the max keep the bits of the max of |v| and of the magnitudes
    v = values[0] if len(values) == 1 else values
    assert same_float(SpectralField.from_values(Grid2D(8), v).linf(), written_out_linf(v))


@PROPERTY
@given(st.sampled_from([16, 32, 64, 128]), seeds, st.sampled_from([1, 2]), st.floats(0.63, 1.6),
       st.floats(0.3, 2.5), st.booleans(), st.data())
def test_row_pruned_windows_have_the_bits_of_the_rfft2_route(n, seed, components, scale, s,
                                                             homogeneous, data):
    # full-box windows at any centres, those by the box edge (wrapping round
    # it) included, against rfft2 of the whole windowed box and the weighted
    # sum written out
    grid = Grid2D(n, 2.0 * np.pi)
    built = WindowFamily.build(grid, scale)
    assert built.patch_pts == 0
    edge = [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0), (1, n // 2)]
    more = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=built.n_centers - len(edge),
                              max_size=built.n_centers - len(edge)))
    wf = WindowFamily(grid=grid, scale=scale, centers_idx=np.array(edge + more), patch_pts=0)
    f = random_real_field(grid, seed, components)
    weight = _hs_patch_weight(n, grid.spacing, s, homogeneous)
    expected = []
    for patch in wf.iter_patches(f.values):
        spec = scipy.fft.rfft2(patch)
        expected.append(float(np.sqrt(np.sum(weight * (spec.real**2 + spec.imag**2)))))
    rep = uniformly_local_norm(f, s, wf, "Hs_ul", homogeneous=homogeneous)
    assert np.array(list(rep.block_profile.values())).tobytes() == np.array(expected).tobytes()


def full_width_multiplier_ratios(variant, params, ensemble, n_sides):
    """check_multiplier_bounds' ratios, rows and skip count as it formed them:
    each block projected on the whole layout, each derived field built and
    taken to samples afresh for every p."""
    ps, betas, s_values = params["ps"], params["betas"], params["s_values"]
    measured, rows, skipped = [], [], 0
    for n in n_sides:
        grid = Grid2D(n, params["box_length"])
        fam = build_partition(grid)
        for trial in range(ensemble.count):
            f = make_field(grid, ensemble, trial)
            for j in fam.measured_range():
                fj = project_block(f, j, "homogeneous")
                for p in ps:
                    norm = (lambda g: g.linf()) if np.isinf(p) else (lambda g: g.l2())
                    base = norm(fj)
                    if base < 1e-14:
                        skipped += 1
                        continue
                    if variant == "bernstein":
                        out = [(None, norm(gradient(fj)) / (2.0**j * base))]
                    elif variant == "lemma_3_1":
                        out = [(s, norm(apply_multiplier(fj, frac_laplacian(s)))
                                / (2.0 ** (j * s) * base)) for s in s_values]
                    else:
                        out = [(b, norm(biot_savart_velocity(fj, b))
                                / (2.0 ** (j * (b - 1.0)) * base)) for b in betas]
                    for key, ratio in out:
                        measured.append(float(ratio))
                        rows.append({"key": (n, p, key), "j": j, "trial": trial,
                                     "ratio": float(ratio)})
    return measured, rows[:64], skipped


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["bernstein", "lemma_3_1", "lemma_A_2"]), st.integers(1, 2**31 - 1),
       st.sampled_from([2.0 * np.pi, 16.0]), st.sampled_from([1.0, 3e-14]))
def test_multiplier_ratios_have_the_bits_of_the_full_width_route(variant, seed, box, amplitude):
    # one narrow transform per field, shared by p = 2 and p = inf; a tiny
    # amplitude makes blocks degenerate, so the skip path runs too
    params = {"ps": (2.0, np.inf), "betas": (0.3, 0.6), "s_values": (0.7, 1.3),
              "box_length": box}
    ensemble = EnsembleSpec(count=2, seed=seed, amplitude=amplitude)
    rep = check_multiplier_bounds(variant, params, ensemble, n_sides=(128,))
    measured, rows, skipped = full_width_multiplier_ratios(variant, params, ensemble, (128,))
    assert np.array(rep.measured).tobytes() == np.array(measured).tobytes()
    assert rep.details["rows"] == rows
    assert rep.details["skipped_degenerate"] == skipped


# -- the bounded Zygmund search --------------------------------------------------

zygmund_grids = st.builds(Grid2D, st.sampled_from([16, 32, 64]),
                          st.sampled_from([2.0 * np.pi, 16.0]))
zygmund_orders = st.floats(0.25, 3.5)


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def power_law_field(grid, seed, components, slope, amplitude):
    """Arbitrary (not Hermitian on columns 0 and n/2) coefficients times |k|^-slope."""
    ops = operator_table(grid)
    weight = np.where(ops.kmag > 0, ops.kmag, 1.0) ** -slope
    return SpectralField.from_coefficients(
        grid, amplitude * weight * random_coefficients(grid, seed, components))


@PROPERTY
@given(zygmund_grids, seeds, st.sampled_from([1, 2]), zygmund_orders, st.floats(0.0, 4.0),
       st.sampled_from([1e-12, 1.0, 1e8]), st.booleans())
def test_zygmund_value_has_the_bits_of_zygmund_norm(grid, seed, components, r, slope,
                                                    amplitude, from_samples):
    f = power_law_field(grid, seed, components, slope, amplitude)
    if from_samples:  # a samples-only field, as make_field and Picard's differences are
        f = SpectralField.from_values(grid, f.values)
    assert same_bits(zygmund_value(f, r), zygmund_norm(f, r).value)


def single_mode(grid, m1, m2, amplitudes, phase):
    """sum over components of a_i cos(k.x + phase) e_i, k = (m1, m2) 2 pi / L, on
    one component per amplitude; at phase 0 the sample at x = 0 is the peak."""
    n = grid.n_side
    c = np.zeros((len(amplitudes), n, n // 2 + 1), dtype=np.complex128)
    for comp, amplitude in enumerate(amplitudes):
        a = amplitude * grid.box_length * np.exp(1j * phase)
        if (m1, m2) == (0, 0):
            c[comp, 0, 0] = a.real
        elif m2 == 0:
            c[comp, m1 % n, 0] += 0.5 * a
            c[comp, -m1 % n, 0] += 0.5 * np.conj(a)
        else:
            c[comp, m1 % n, m2] = 0.5 * a
    return SpectralField.from_coefficients(grid, c[0] if len(amplitudes) == 1 else c)


def lattice_mode(n):
    return st.tuples(st.integers(-n // 2 + 1, n // 2 - 1), st.integers(0, n // 2 - 1))


@PROPERTY
@given(zygmund_grids, st.data(), st.sampled_from([1, 2]), zygmund_orders,
       st.sampled_from([0.0, 0.5 * np.pi, 1.0]), st.floats(1e-3, 1e3), st.integers(1, 4))
def test_zygmund_value_of_a_single_mode(grid, data, components, r, phase, amplitude, ulps):
    # at phase 0 the sample at x = 0 attains the ell^1 bound of every block
    # the mode is in, so bound and sup differ only by rounding.  After the
    # same mode scaled up by a few ulps, the floor is the first field's sup,
    # which the second field's bound may not beat without the margin
    m1, m2 = data.draw(lattice_mode(grid.n_side))
    f = single_mode(grid, m1, m2, [amplitude * (1.0 + i) for i in range(components)], phase)
    assert same_bits(zygmund_value(f, r), zygmund_norm(f, r).value)
    g = f * (1.0 + ulps * 2.0**-52)
    for fields in ([f, g], [g, f]):
        assert same_bits(zygmund_value(fields, r), max(zygmund_norm(h, r).value for h in fields))


@PROPERTY
@given(zygmund_grids, st.data(), seeds, st.sampled_from([1, 2]), st.floats(0.0, 4.0))
def test_block_bounds_hold_and_single_modes_attain_them(grid, data, seed, components, slope):
    # the bound of every block is at least its sup; on a peaked single mode
    # (both components on one mode, or each on its own) it is the sup itself
    fam = build_partition(grid)
    f = power_law_field(grid, seed, components, slope, 1.0)
    sups, bounds = block_sups(f), _block_bounds(f)
    assert all(sups[j] <= bounds[j] * (1.0 + 1e-12) for j in fam.block_js())
    modes = [data.draw(lattice_mode(grid.n_side)) for _ in range(components)]
    amplitudes = data.draw(st.lists(st.floats(0.1, 10.0), min_size=components,
                                    max_size=components))
    parts = [single_mode(grid, m1, m2, [a], 0.0).coefficients
             for (m1, m2), a in zip(modes, amplitudes)]
    f = SpectralField.from_coefficients(grid, parts[0] if components == 1 else np.stack(parts))
    sups, bounds = block_sups(f), _block_bounds(f)
    for j in fam.block_js():
        assert abs(sups[j] - bounds[j]) <= 1e-12 * max(bounds.values())


@PROPERTY
@given(zygmund_grids, st.lists(st.tuples(seeds, st.floats(0.0, 4.0)), min_size=1, max_size=4),
       st.sampled_from([1, 2]), zygmund_orders, st.booleans())
def test_zygmund_value_of_fields_is_the_max_of_their_values(grid, specs, components, r, lazily):
    # each field's search starts from the max of those before it; a
    # generator of fields gives the same value
    fields = [power_law_field(grid, seed, components, slope, 1.0) for seed, slope in specs]
    expected = max(zygmund_norm(f, r).value for f in fields)
    given_fields = (f for f in fields) if lazily else fields
    assert same_bits(zygmund_value(given_fields, r), expected)


@PROPERTY
@given(zygmund_grids, seeds, st.sampled_from([1, 2]), zygmund_orders,
       st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_zygmund_value_of_non_finite_coefficients(grid, seed, components, r, bad, data):
    # a non-finite bound proves nothing: every block is transformed, and the
    # value is zygmund_norm's, whatever it makes of the NaN or Inf
    c = random_coefficients(grid, seed, components)
    n = grid.n_side
    index = (data.draw(st.integers(0, components - 1)), data.draw(st.integers(0, n - 1)),
             data.draw(st.integers(0, n // 2)))
    c.reshape((components, n, n // 2 + 1))[index] = bad
    f = SpectralField.from_coefficients(grid, c)
    g = SpectralField.from_coefficients(grid, random_coefficients(grid, seed + 1, components))
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_bits(zygmund_value(f, r), zygmund_norm(f, r).value)
        # among other fields, the value is the max of the single values in order
        for fields in ([f, g], [g, f]):
            assert same_bits(zygmund_value(fields, r),
                             max(zygmund_norm(h, r).value for h in fields))
