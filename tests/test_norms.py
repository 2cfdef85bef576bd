import numpy as np
import pytest
import scipy.fft

from sqglab.dyadic import build_partition, chi_profile, phi_profile
from sqglab.errors import QuadratureBudgetError
from sqglab.fields import SpectralField, dealias
from sqglab.grid import Grid2D, operator_table, rfft2
from sqglab.multipliers import derivative
from sqglab.norms import (WindowFamily, _holder_offsets, _hs_patch_weight, _seminorm_near,
                          block_sups, classical_holder_norm, sobolev_norm, uniformly_local_norm,
                          window_profile, zygmund_norm)

from conftest import random_real_field


def full_layout_coefficients(f):
    """Package-normalized coefficients by the complex full-layout transform."""
    return scipy.fft.fft2(f.values) * (f.grid.box_length / f.grid.n_side**2)


def reference_zygmund_profile(f, r, homogeneous):
    """Block profile by the full-layout route: Re(ifft2(c * multiplier)) per block,
    with the multiplier evaluated afresh from the profiles."""
    grid = f.grid
    fam = build_partition(grid)
    k = grid.mode_indices() * grid.k_fundamental
    kmag = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
    c = full_layout_coefficients(f)
    js = fam.homogeneous_js() if homogeneous else fam.inhomogeneous_js()
    profile = {}
    for j in js:
        mult = chi_profile(kmag) if j == -1 and not homogeneous else phi_profile(kmag / 2.0**j)
        vals = scipy.fft.ifft2(c * mult).real * (grid.n_side**2 / grid.box_length)
        sup = np.sqrt((vals**2).sum(axis=0)).max() if vals.ndim == 3 else np.abs(vals).max()
        profile[j] = sup if homogeneous else 2.0 ** (j * r) * sup
    return profile


def reference_hs_ul_profile(f, s, windows, homogeneous):
    """Per-window H^s norms by the full-layout route: a k meshgrid and a complex
    fft2 for every window."""
    h = f.grid.spacing
    out = []
    for patch in windows.iter_patches(f.values):
        pts = patch.shape[-1]
        k = 2.0 * np.pi * np.fft.fftfreq(pts, d=h)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        ksq = k1 * k1 + k2 * k2
        weight = ksq**s if homogeneous else (1.0 + ksq) ** s
        c = scipy.fft.fft2(patch) * (pts * h / pts**2)
        comps = c if c.ndim == 3 else c[None]
        out.append(np.sqrt(sum(np.sum(weight * np.abs(cc) ** 2) for cc in comps)))
    return np.asarray(out)


def rolled_seminorm_near(values, sigma, grid, budget):
    """The near Holder seminorm by one full-field ``np.roll`` per offset."""
    best = 0.0
    for di, dj in _holder_offsets(grid, 1.0, budget):
        diff = np.roll(values, (-int(di), -int(dj)), axis=(-2, -1)) - values
        gap = np.sqrt((diff**2).sum(axis=0)).max() if values.ndim == 3 else np.abs(diff).max()
        best = max(best, float(gap) / (np.hypot(di, dj) * grid.spacing) ** sigma)
    return best


class TestZygmund:
    def test_constant(self, grid64):
        c = 2.3
        f = SpectralField.from_values(grid64, np.full((64, 64), c))
        rep = zygmund_norm(f, 2.0)
        assert rep.value == pytest.approx(2.0**-2 * c, rel=1e-12)

    def test_pure_mode(self, grid64):
        X, _ = grid64.coords()
        f = SpectralField.from_values(grid64, 1.7 * np.cos(X))
        for r in (0.5, 1.5, 3.0):
            assert zygmund_norm(f, r).value == pytest.approx(1.7, rel=1e-12)

    def test_dominated_by_classical_for_noninteger_r(self, grid128):
        # C^r and the classical norm are equivalent for non-integer r
        ratios = []
        for seed in range(6):
            f = dealias(random_real_field(grid128, seed=seed))
            f = f * (1.0 / f.linf())
            ratios.append(zygmund_norm(f, 1.5).value / classical_holder_norm(f, 1.5).value)
        assert max(ratios) <= 2.0  # stable O(1) comparison constant

    def test_block_profile_monotonicity(self, grid128):
        # per block: 2^(j r) weight grows with r for j >= 0
        f = random_real_field(grid128, seed=3)
        lo = zygmund_norm(f, 1.0)
        hi = zygmund_norm(f, 2.0)
        for j, v in lo.block_profile.items():
            if j >= 0:
                assert v <= hi.block_profile[j] * (1 + 1e-12)

    def test_homogeneity(self, grid64):
        f = random_real_field(grid64, seed=4)
        a = zygmund_norm(f, 1.2).value
        b = zygmund_norm(f * 3.0, 1.2).value
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_zero_iff_zero(self, grid64):
        z = SpectralField.zeros(grid64)
        assert zygmund_norm(z, 1.5).value == 0.0


    # the box of 16 puts homogeneous blocks at j <= -1 on the grid
    @pytest.mark.parametrize("n, box", [(64, 2 * np.pi), (128, 2 * np.pi), (64, 16.0)])
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_matches_full_layout_reference(self, n, box, components, homogeneous):
        f = random_real_field(Grid2D(n, box), seed=n + components, components=components)
        rep = zygmund_norm(f, 1.5, homogeneous=homogeneous)
        ref = reference_zygmund_profile(f, 1.5, homogeneous)
        assert list(rep.block_profile) == list(ref)
        for j, v in ref.items():
            assert abs(rep.block_profile[j] - v) <= 1e-13 * v
        assert abs(rep.value - max(ref.values())) <= 1e-13 * rep.value

    # homogeneous blocks reach j <= -1 at L = 16; the top blocks of a dealiased
    # field hold no coefficient
    @pytest.mark.parametrize("n, box", [(64, 2 * np.pi), (128, 2 * np.pi), (64, 16.0)])
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize("dealiased", [False, True])
    def test_block_sups_have_the_bits_of_the_full_width_route(self, n, box, components,
                                                              homogeneous, dealiased):
        grid = Grid2D(n, box)
        f = random_real_field(grid, seed=n + 3 * components, components=components)
        if dealiased:
            f = dealias(f)
        fam = build_partition(grid)
        expected = {}
        for j in fam.block_js(homogeneous):
            block = f.coefficients * fam.delta_multiplier(j, homogeneous)
            vals = np.stack([scipy.fft.irfft2(b, s=(n, n)) for b in block.reshape(-1, n, n // 2 + 1)])
            vals *= n * n / box
            expected[j] = (float(np.sqrt((vals**2).sum(axis=0)).max()) if components == 2
                           else float(np.abs(vals[0]).max()))
        assert block_sups(f, fam, homogeneous) == expected

    @pytest.mark.parametrize("box, some_empty", [(2 * np.pi, True), (16.0, False)])
    def test_empty_blocks_cost_no_transform(self, box, some_empty, count_planes):
        # a block transforms the columns its multiplier occupies, one plane per
        # scalar block; a block past the dealias cutoff holds nothing and is 0
        # (at L = 16 every block reaches below the cutoff)
        grid = Grid2D(128, box)
        f = dealias(random_real_field(grid, seed=9))
        f.coefficients
        fam = build_partition(grid)
        mask = operator_table(grid).dealias
        js = list(fam.block_js())
        empty = [j for j in js if not np.any(fam.delta_multiplier(j)[mask])]
        assert bool(empty) == some_empty
        planes = count_planes()
        rep = zygmund_norm(f, 1.5, fam)
        assert sum(planes) == len(js) - len(empty)
        assert all(rep.block_profile[j] == 0.0 for j in empty)


class TestClassicalHolder:
    def test_constant(self, grid64):
        f = SpectralField.from_values(grid64, np.full((64, 64), -2.3))
        assert classical_holder_norm(f, 1.5).value == pytest.approx(2.3, rel=1e-12)

    def test_sin_seminorm_against_dense_oracle(self, grid128):
        # 1-D analytic oracle by dense search over separations <= 1
        X, _ = grid128.coords()
        f = SpectralField.from_values(grid128, np.sin(X))
        rep = classical_holder_norm(f, 1.5)
        a = np.linspace(0, 2 * np.pi, 4001)
        oracle = 0.0
        for d in np.linspace(1e-3, 1.0, 1500):
            oracle = max(oracle, np.abs(np.cos(a + d) - np.cos(a)).max() / np.sqrt(d))
        near = rep.extras["semi_near(1, 0)"]
        assert near == pytest.approx(oracle, rel=0.02)
        # full value: |f| + |d1 f| + |d2 f| + seminorm terms (far bound included)
        expected = 1.0 + 1.0 + 0.0 + (near + 2.0) + 0.0
        assert rep.value == pytest.approx(expected, rel=1e-9)

    def test_scaling(self, grid64):
        f = random_real_field(grid64, seed=5)
        v1 = classical_holder_norm(f, 1.5, pair_budget=512).value
        v2 = classical_holder_norm(f * 4.0, 1.5, pair_budget=512).value
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_integer_order_has_no_seminorm(self, grid64):
        f = random_real_field(grid64, seed=6)
        rep = classical_holder_norm(f, 1.0)
        assert not any(k.startswith("semi") for k in rep.block_profile)

    @pytest.mark.parametrize("box", [2 * np.pi, 16.0])
    @pytest.mark.parametrize("budget", [2048, 100])
    def test_seminorm_has_the_bits_of_the_rolled_differences(self, box, budget):
        grid = Grid2D(64, box)
        f = random_real_field(grid, seed=13)
        rep = classical_holder_norm(f, 1.5, pair_budget=budget)
        vec = random_real_field(grid, seed=14, components=2).values
        for beta in ((1, 0), (0, 1)):
            expected = rolled_seminorm_near(derivative(f, beta).values, 0.5, grid, budget)
            assert rep.extras[f"semi_near{beta}"] == expected
        assert _seminorm_near(vec, 0.5, grid, budget) == rolled_seminorm_near(vec, 0.5, grid,
                                                                               budget)


class TestSobolev:
    def test_single_mode_exact_value(self):
        # ||J^2 sin(x1)||_L2 on the 2pi box: (1+1)^1 * pi*sqrt(2) = 2 pi sqrt(2)
        g = Grid2D(64, 2 * np.pi)
        X, _ = g.coords()
        f = SpectralField.from_values(g, np.sin(X))
        rep = sobolev_norm(f, 2.0)
        assert rep.value == pytest.approx(2.0 * np.pi * np.sqrt(2.0), rel=1e-12)

    def test_homogeneous_s0_is_l2(self, grid64):
        f = random_real_field(grid64, seed=7)
        f = SpectralField.from_values(grid64, f.values - f.values.mean())
        assert sobolev_norm(f, 0.0, homogeneous=True).value == pytest.approx(f.l2(), rel=1e-12)

    def test_block_variant_equivalent(self, grid128):
        ratios = []
        for seed in range(8):
            f = random_real_field(grid128, seed=seed)
            rep = sobolev_norm(f, 1.5)
            ratios.append(rep.extras["lp_block_variant"] / rep.value)
        assert 0.3 <= min(ratios) and max(ratios) <= 3.0
        assert max(ratios) / min(ratios) <= 1.5  # tight on a fixed ensemble

    def test_triangle_inequality(self, grid64):
        f = random_real_field(grid64, seed=8)
        g = random_real_field(grid64, seed=9)
        s = 1.7
        lhs = sobolev_norm(f + g, s).value
        rhs = sobolev_norm(f, s).value + sobolev_norm(g, s).value
        assert lhs <= rhs * (1 + 1e-12)


class TestWindows:
    def test_covering(self, grid128):
        wf = WindowFamily.build(grid128)
        assert wf.covering_radius() <= wf.scale

    def test_profile_smoothness(self, grid128):
        wf = WindowFamily.build(grid128)
        assert np.isfinite(wf.profile_fd_bound(order=4))

    @pytest.mark.parametrize("components", [1, 2])
    def test_full_box_patches_have_the_bits_of_the_rolled_profile(self, grid64, components):
        windows = WindowFamily.build(grid64, 1.0)
        assert windows.patch_pts == 0  # L = 2 pi: the patch would cover the box
        values = random_real_field(grid64, seed=15, components=components).values
        n = grid64.n_side
        base = np.roll(windows.profile_on_patch(n), (-(n // 2), -(n // 2)), axis=(0, 1))
        count = 0
        for (ci, cj), patch in zip(windows.centers_idx, windows.iter_patches(values)):
            expected = values * np.roll(base, (ci, cj), axis=(0, 1))
            assert patch.tobytes() == expected.tobytes()
            count += 1
        assert count == windows.n_centers == 49

    def test_profile_shape(self):
        rho = np.linspace(0, 3, 301)
        p = window_profile(rho)
        assert np.all(p[rho <= 1.0] == 1.0)
        assert np.all(p[rho >= 2.0] == 0.0)
        assert np.all(np.diff(p) <= 1e-12)  # monotone on the transition


class TestUniformlyLocal:
    def test_constant_l2ul(self, grid64):
        c = 1.9
        f = SpectralField.from_values(grid64, np.full((64, 64), c))
        wf = WindowFamily.build(grid64)
        rep = uniformly_local_norm(f, 2.0, wf, "Lp_ul")
        x1, x2 = grid64.coords_centered()
        wnorm = np.sqrt(np.sum(window_profile(np.hypot(x1, x2)) ** 2) * grid64.spacing**2)
        assert rep.value == pytest.approx(c * wnorm, rel=1e-10)
        vals = list(rep.block_profile.values())
        assert max(vals) - min(vals) <= 1e-10 * max(vals)  # translation invariance

    def test_linf_window(self, grid64):
        f = random_real_field(grid64, seed=10)
        wf = WindowFamily.build(grid64)
        rep = uniformly_local_norm(f, np.inf, wf, "Lp_ul")
        assert rep.value == pytest.approx(f.linf(), rel=1e-9)

    def test_window_scale_equivalence(self, grid128):
        wf1 = WindowFamily.build(grid128)
        wf2 = WindowFamily.build(grid128, scale=2.0)
        ratios = []
        for seed in range(6):
            f = random_real_field(grid128, seed=seed)
            a = uniformly_local_norm(f, 1.5, wf1, "Hs_ul").value
            b = uniformly_local_norm(f, 1.5, wf2, "Hs_ul").value
            ratios.append(b / a)
        assert 0.5 <= min(ratios) and max(ratios) <= 2.5
        assert max(ratios) / min(ratios) <= 1.6

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_hs_ul_matches_full_layout_reference(self, grid64, homogeneous):
        f = random_real_field(grid64, seed=21, components=2)
        wf = WindowFamily.build(grid64)
        rep = uniformly_local_norm(f, 1.5, wf, "Hs_ul", homogeneous=homogeneous)
        ref = reference_hs_ul_profile(f, 1.5, wf, homogeneous)
        got = np.asarray(list(rep.block_profile.values()))
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("components", [1, 2])
    def test_hs_ul_odd_patch_matches_full_layout_reference(self, components):
        grid = Grid2D(128, 16.0)
        built = WindowFamily.build(grid)
        assert 0 < built.patch_pts < grid.n_side
        wf = WindowFamily(grid=grid, scale=built.scale, centers_idx=built.centers_idx,
                          patch_pts=built.patch_pts + 1 - built.patch_pts % 2)
        assert wf.patch_pts % 2 == 1
        f = random_real_field(grid, seed=22, components=components)
        rep = uniformly_local_norm(f, 1.2, wf, "Hs_ul")
        ref = reference_hs_ul_profile(f, 1.2, wf, False)
        got = np.asarray(list(rep.block_profile.values()))
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("box", [2 * np.pi, 16.0])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_window_tables_built_once_with_the_bits_of_fresh_ones(self, box, homogeneous,
                                                                   monkeypatch):
        # the profile is built once per family and the H^s weight once per
        # (pts, h, s, homogeneous), read-only; every window keeps the bits of
        # a freshly built profile and weight (full box at L = 2 pi, patches at 16)
        grid = Grid2D(64 if box < 16.0 else 128, box)
        wf = WindowFamily.build(grid)
        f = random_real_field(grid, seed=23, components=2)
        n, pts = grid.n_side, wf.patch_pts or grid.n_side
        prof = window_profile(wf._patch_coords(pts), wf.scale)
        weight = _hs_patch_weight.__wrapped__(pts, grid.spacing, 1.5, homogeneous)
        expected = []
        for ci, cj in wf.centers_idx:
            if wf.patch_pts == 0:
                patch = f.values * np.roll(prof, (ci - n // 2, cj - n // 2), axis=(0, 1))
            else:
                r = (ci + np.arange(pts) - pts // 2) % n
                c = (cj + np.arange(pts) - pts // 2) % n
                patch = f.values[..., r[:, None], c[None, :]] * prof
            spec = rfft2(patch)
            expected.append(float(np.sqrt(np.sum(weight * (spec.real**2 + spec.imag**2)))))
        built = []
        spy = WindowFamily.profile_on_patch
        monkeypatch.setattr(WindowFamily, "profile_on_patch",
                            lambda self, p=None: built.append(p) or spy(self, p))
        for _ in range(2):
            rep = uniformly_local_norm(f, 1.5, wf, "Hs_ul", homogeneous=homogeneous)
            assert list(rep.block_profile.values()) == expected
        uniformly_local_norm(f, 2.0, wf, "Lp_ul")
        assert len(built) == 1
        assert not wf._window.flags.writeable
        table = _hs_patch_weight(pts, grid.spacing, 1.5, homogeneous)
        assert table is _hs_patch_weight(pts, grid.spacing, 1.5, homogeneous)
        assert not table.flags.writeable

    def test_slobodeckij_matches_bessel_bracket(self):
        grid = Grid2D(64)
        wf = WindowFamily.build(grid)
        s = 2.5
        t = np.linspace(0, 50, 100001)
        sym = (1 + t**4 + t ** (2 * s)) / (1 + t**2) ** s
        c1, c2 = sym.min(), sym.max()
        for seed in (0, 1, 2):
            f = dealias(random_real_field(grid, seed=seed))
            hs = uniformly_local_norm(f, s, wf, "Hs_ul").value
            ws = uniformly_local_norm(f, s, wf, "Ws2_ul").value
            ratio_sq = (ws / hs) ** 2
            assert c1 * 0.9 <= ratio_sq <= c2 * 1.1

    def test_quadrature_budget_refusal(self):
        grid = Grid2D(256)
        f = random_real_field(grid, seed=1)
        wf = WindowFamily.build(grid)
        with pytest.raises(QuadratureBudgetError):
            uniformly_local_norm(f, 2.5, wf, "Ws2_ul")

    def test_triangle_inequality(self, grid64):
        wf = WindowFamily.build(grid64)
        f = random_real_field(grid64, seed=11)
        g = random_real_field(grid64, seed=12)
        lhs = uniformly_local_norm(f + g, 1.5, wf, "Hs_ul").value
        rhs = (uniformly_local_norm(f, 1.5, wf, "Hs_ul").value
               + uniformly_local_norm(g, 1.5, wf, "Hs_ul").value)
        assert lhs <= rhs * (1 + 1e-9)

    def test_homogeneity(self, grid64):
        wf = WindowFamily.build(grid64)
        f = random_real_field(grid64, seed=13)
        a = uniformly_local_norm(f, 2.0, wf, "Hs_ul").value
        b = uniformly_local_norm(f * 2.5, 2.0, wf, "Hs_ul").value
        assert b == pytest.approx(2.5 * a, rel=1e-10)


class TestSobolevEmbedding:
    def test_holder_controlled_by_hsul(self):
        # ||f||_C~1 <= C ||f||_(H^(1+s)_ul), s = 1.1 > d/2, C stable across grids
        cs = {}
        for n in (64, 128):
            grid = Grid2D(n)
            wf = WindowFamily.build(grid)
            vals = []
            for seed in range(5):
                f = dealias(random_real_field(grid, seed=seed))
                lhs = classical_holder_norm(f, 1.0).value
                rhs = uniformly_local_norm(f, 2.1, wf, "Hs_ul").value
                vals.append(lhs / rhs)
            cs[n] = max(vals)
        assert cs[128] <= 20.0
        assert abs(cs[128] - cs[64]) / cs[64] <= 0.5
