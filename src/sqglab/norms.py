"""Norm estimators: Zygmund, classical Holder, Sobolev, and uniformly local.

Conventions shared by all estimators:

* L^2 norms are continuum box norms, computed spectrally (Parseval is exact
  under the package normalization, with the rfft2 column multiplicity).
* L-infinity of a vector field is the max pointwise Euclidean magnitude.
* The Zygmund norm is sup over blocks of 2^(j r) ||Delta_j f||_inf including
  the weight at j = -1; the homogeneous variant follows the stated
  definition literally and carries no weight.  Each block is transformed
  over the coefficient columns its multiplier occupies only, with the bits
  of the full-width transform; a block holding no coefficient costs none.
  ``zygmund_norm`` reports the whole block profile.  A caller that reads
  only the value calls ``zygmund_value``, which returns the same bits from
  a bounded search: ||Delta_j f||_inf <= (1/L) sum_k |mult_j(k) c_k|, so a
  block whose weighted bound cannot beat the largest weighted sup found so
  far is never transformed.  ``zygmund_values`` reads one field's values at
  several orders from one set of bounds, each block transformed at most once.
* The classical Holder seminorm is an upper-bound estimator: a sampled sup
  over grid-pair offsets with |x-y| <= 1 plus the 2||D^b f||_inf bound for
  the far pairs (the two pieces are recorded separately in the report).
* Uniformly local norms take the sup of windowed norms over a lattice of
  centers.  The window of scale s is the package's one radial bump,
  ``dyadic.CutoffA(s, 2s)``, read for its values only.  Windowed H^s norms
  are computed on a cropped patch (exact for the compactly supported
  windowed field up to the exponentially small periodization of the
  Bessel weight).
* Block estimators look up the grid's dyadic family (``build_partition``);
  a window family carries its own scale, so it is passed, and must be of the field's grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .dyadic import CutoffA, build_partition
from .errors import ConfigurationError, QuadratureBudgetError
from .fields import SpectralField
from .grid import Grid2D, _read_only, operator_table, rfft2
from .multipliers import bessel, derivative, frac_laplacian, apply_multiplier

HOLDER_PAIR_BUDGET = 2048  # grid-pair offsets the Holder seminorm samples
PATCH_MARGIN = 3.0  # scales of padding on each side of a window's support in a patch
# relative widening of a block's ell^1 bound, far above the rounding of the
# bound's sum and of the block's transform (both about log2(n^2) ulps of it)
ZYGMUND_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class NormReport:
    """A measured norm plus the profile it was maximized over."""

    kind: str
    value: float
    block_profile: dict = field(default_factory=dict)
    tested_range: tuple = ()
    extras: dict = field(default_factory=dict)

    def csv_rows(self):
        yield (self.kind, "", self.value)
        for key, v in self.block_profile.items():
            yield (self.kind, key, v)


def _sum_sq(c: np.ndarray, grid: Grid2D) -> float:
    """sum_k |c_k|^2 over every mode of coefficients c in the rfft2 layout."""
    return float(np.sum(operator_table(grid).multiplicity * (c.real**2 + c.imag**2)))


def _multiindices(m: int):
    return [(m - i, i) for i in range(m + 1)]


def _multinomial(a: int, b: int) -> float:
    return math.factorial(a + b) / (math.factorial(a) * math.factorial(b))


# -- Zygmund ------------------------------------------------------------------


def block_sups(f: SpectralField, *, homogeneous: bool = False) -> dict:
    """||Delta_j f||_inf for every realizable block j, keyed by j.

    Each block is one real inverse transform per component of the
    coefficients times the grid family's cached multiplier, taken over the
    columns the multiplier occupies only (``DyadicFamily.delta_band``) and
    reduced to its sup without a scaled copy (``OperatorTable.sup``); a
    block with no nonzero coefficient costs no transform.  The sups have the
    bits of the full-width transforms.
    """
    fam = build_partition(f.grid)
    ops = operator_table(f.grid)
    c = f.coefficients
    sups = {}
    for j in fam.block_js(homogeneous):
        mult, m = fam.delta_band(j, homogeneous)
        sups[j] = ops.sup(c[..., :m], mask=mult)
    return sups


def zygmund_norm(f: SpectralField, r: float, *, homogeneous: bool = False) -> NormReport:
    """Holder-Zygmund norm sup_j 2^(jr) ||Delta_j f||_inf over realizable blocks."""
    sups = block_sups(f, homogeneous=homogeneous)
    if homogeneous:
        profile = sups
        kind = f"zygmund_hom:{r:g}"
    else:
        profile = {j: 2.0 ** (j * r) * sup for j, sup in sups.items()}
        kind = f"zygmund:{r:g}"
    return NormReport(kind=kind, value=max(profile.values()), block_profile=profile,
                      tested_range=(min(sups), max(sups)))


def _block_bounds(f: SpectralField) -> dict:
    """An upper bound of ||Delta_j f||_inf for every block j of the inhomogeneous
    profile: (1/L) sum_k |mult_j(k) c_k| over the whole lattice, the rfft2
    column multiplicity standing for the unstored columns; for a vector field
    the Euclidean norm of the component bounds.

    Every block multiplier is nonnegative, so the sum is formed as one
    contraction of the multiplier with multiplicity |c| over the block's
    columns, with no array per block.
    """
    fam = build_partition(f.grid)
    weighted = np.abs(f.coefficients)
    weighted *= operator_table(f.grid).multiplicity
    bounds = {}
    for j in fam.block_js():
        mult, m = fam.delta_band(j)
        parts = np.einsum("ij,...ij->...", mult[:, :m], weighted[..., :m]) / f.grid.box_length
        bounds[j] = float(parts) if parts.ndim == 0 else math.hypot(*parts)
    return bounds


def _zygmund_search(f: SpectralField, r: float, floor: float, bounds: dict | None = None,
                    sups: dict | None = None) -> float:
    """max_j 2^(jr) ||Delta_j f||_inf where that exceeds ``floor``, else a
    number no larger than ``floor``.

    Blocks are visited in decreasing order of their weighted bound
    (``bounds``, :func:`_block_bounds` of f when not given), and a block is
    transformed only while its bound, widened by ``ZYGMUND_BOUND_MARGIN``,
    beats the largest weighted sup found so far (branch and bound): a block
    that is skipped cannot hold the max.  ``sups`` holds block sups of f
    already made: the search starts from their weighted max, and adds each
    block it transforms.  Non-finite bounds prove nothing, so then every
    block is transformed (``zygmund_norm``).
    """
    bounds = _block_bounds(f) if bounds is None else bounds
    if not all(map(math.isfinite, bounds.values())):
        return zygmund_norm(f, r).value
    fam = build_partition(f.grid)
    ops = operator_table(f.grid)
    c = f.coefficients
    sups = {} if sups is None else sups
    weighted = sorted(((2.0 ** (j * r) * b, j) for j, b in bounds.items()), reverse=True)
    best = max([floor] + [2.0 ** (j * r) * sup for j, sup in sups.items()])
    for bound, j in weighted:
        if bound * (1.0 + ZYGMUND_BOUND_MARGIN) <= best:
            break
        if j not in sups:
            mult, m = fam.delta_band(j)
            sups[j] = ops.sup(c[..., :m], mask=mult)
        best = max(best, 2.0 ** (j * r) * sups[j])
    return best


def zygmund_value(fields, r: float) -> float:
    """``zygmund_norm(f, r).value`` bit for bit, by a bounded block search.

    ``fields`` is one field or an iterable of fields; for an iterable the
    result is ``max`` of the single values in their order, each field's
    search starting from the max of those before it, so only one field of an
    iterable (a generator, say) need exist at a time.  Each block's sup has
    the bits ``block_sups`` gives it, and a block is transformed only when
    its ell^1 bound (:func:`_block_bounds`) could beat the running max; the
    block profile is :func:`zygmund_norm`'s report.
    """
    if isinstance(fields, SpectralField):
        fields = (fields,)
    value = None
    for f in fields:
        v = _zygmund_search(f, r, 0.0 if value is None else value)
        if value is None or v > value:
            value = v
    return value


def zygmund_values(f: SpectralField, rs) -> list:
    """``[zygmund_value(f, r) for r in rs]`` bit for bit, from one computation
    of the block bounds, each block transformed at most once: a search starts
    from the sups the searches before it made."""
    bounds = _block_bounds(f)
    sups = {}
    return [_zygmund_search(f, r, 0.0, bounds, sups) for r in rs]


# -- classical Holder ---------------------------------------------------------


def _holder_offsets(grid: Grid2D, max_sep: float, budget: int) -> np.ndarray:
    """Integer offsets (di, dj) with 0 < |d|*h <= max_sep, subsampled to budget."""
    reach = int(np.floor(max_sep / grid.spacing))
    reach = min(reach, grid.n_side // 2 - 1)
    d = np.arange(-reach, reach + 1)
    di, dj = np.meshgrid(d, d, indexing="ij")
    rad = np.hypot(di, dj) * grid.spacing
    sel = (rad > 0) & (rad <= max_sep)
    offs = np.stack([di[sel], dj[sel], rad[sel] / grid.spacing], axis=1)
    if len(offs) > budget:
        order = np.lexsort((np.arctan2(offs[:, 1], offs[:, 0]), offs[:, 2]))
        offs = offs[order][:: max(1, len(offs) // budget)]
    return offs[:, :2].astype(int)


def _seminorm_near(values: np.ndarray, sigma: float, grid: Grid2D, budget: int) -> float:
    """Sampled sup of |u(x+d)-u(x)| / |d|^sigma over wrapped offsets |d| <= 1.

    The offsets are taken by column shift: u(x + (0, dj)) is written once
    per dj into a reused array, and each row shift di of it is two
    contiguous row blocks, subtracted into a second reused array.  Each
    difference has the bits of ``np.roll(u, -d) - u``, and the sup does not
    depend on the order of the offsets.
    """
    n = grid.n_side
    offsets = _holder_offsets(grid, 1.0, budget)
    shifted = np.empty_like(values)
    diff = np.empty_like(values)
    best = 0.0
    for dj in np.unique(offsets[:, 1]):
        b = int(dj) % n
        shifted[..., :n - b] = values[..., b:]
        shifted[..., n - b:] = values[..., :b]
        for di in offsets[offsets[:, 1] == dj, 0]:
            a = int(di) % n
            np.subtract(shifted[..., a:, :], values[..., :n - a, :], out=diff[..., :n - a, :])
            np.subtract(shifted[..., :a, :], values[..., n - a:, :], out=diff[..., n - a:, :])
            if values.ndim == 3:
                np.square(diff, out=diff)
                np.add(diff[0], diff[1], out=diff[0])
                gap = np.sqrt(diff[0].max())  # sqrt is monotone: sqrt of the max is the max
            else:
                gap = np.abs(diff, out=diff).max()
            sep = np.hypot(di, dj) * grid.spacing
            best = max(best, float(gap) / sep**sigma)
    return best


def classical_holder_norm(f: SpectralField, r: float) -> NormReport:
    """Classical C^r norm: derivative sup norms plus the sampled Holder seminorm."""
    if r < 0:
        raise ConfigurationError(f"Holder order must be nonnegative, got {r}")
    m = int(np.floor(r))
    sigma = r - m
    profile = {}
    total = 0.0
    derivs = {}
    for order in range(m + 1):
        for alpha in _multiindices(order):
            g = f if order == 0 else derivative(f, alpha)
            derivs[alpha] = g
            sup = g.linf()
            profile[f"D{alpha}"] = sup
            total += sup
    extras = {}
    if sigma > 0.0:
        for beta in _multiindices(m):
            near = _seminorm_near(derivs[beta].values, sigma, f.grid, HOLDER_PAIR_BUDGET)
            far = 2.0 * profile[f"D{beta}"]
            profile[f"semi{beta}"] = near + far
            extras[f"semi_near{beta}"] = near
            extras[f"semi_far_bound{beta}"] = far
            total += near + far
    return NormReport(kind=f"holder:{r:g}", value=total, block_profile=profile,
                      tested_range=(m, sigma), extras=extras)


# -- Sobolev ------------------------------------------------------------------


def sobolev_norm(f: SpectralField, s: float, *, homogeneous: bool = False) -> NormReport:
    """H^s norm via the multiplier route, with the dyadic block sum recorded."""
    op = frac_laplacian(s) if homogeneous else bessel(s)
    value = math.sqrt(_sum_sq(apply_multiplier(f, op).coefficients, f.grid))

    fam = build_partition(f.grid)
    js = fam.block_js(homogeneous)
    block_sq = {j: 2.0 ** (2 * j * s)
                * _sum_sq(f.coefficients * fam.delta_multiplier(j, homogeneous), f.grid)
                for j in js}
    lp_variant = float(np.sqrt(sum(block_sq.values())))
    kind = f"sobolev{'_hom' if homogeneous else ''}:{s:g}"
    return NormReport(kind=kind, value=value,
                      block_profile={j: float(np.sqrt(v)) for j, v in block_sq.items()},
                      tested_range=(min(js), max(js)),
                      extras={"lp_block_variant": lp_variant})


# -- uniformly local ----------------------------------------------------------


def window_profile(rho: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The window: the package's radial bump with radii ``scale`` and 2 ``scale``."""
    return CutoffA(scale, 2.0 * scale).a(rho)


@dataclass(frozen=True)
class WindowFamily:
    """Lattice of window centers plus the sampled bump profile."""

    grid: Grid2D
    scale: float
    centers_idx: np.ndarray = field(repr=False)
    patch_pts: int = 0  # 0 means "use the full box"

    @classmethod
    def build(cls, grid: Grid2D, scale: float = 1.0) -> "WindowFamily":
        m = int(np.ceil(grid.box_length / scale))
        step = grid.n_side / m
        idx = (np.round(np.arange(m) * step).astype(int)) % grid.n_side
        ci, cj = np.meshgrid(idx, idx, indexing="ij")
        centers = np.stack([ci.ravel(), cj.ravel()], axis=1)
        want = (4.0 + 2.0 * PATCH_MARGIN) * scale
        pts = int(np.ceil(want / grid.spacing))
        patch = 0 if pts >= grid.n_side else scipy.fft.next_fast_len(pts)
        return cls(grid=grid, scale=scale, centers_idx=centers, patch_pts=patch)

    @property
    def n_centers(self) -> int:
        return len(self.centers_idx)

    def covering_radius(self) -> float:
        """Max distance from any torus point to its nearest center."""
        spacing = self.grid.box_length / round(np.sqrt(self.n_centers))
        return spacing * np.sqrt(2.0) / 2.0

    def _patch_coords(self, pts: int) -> np.ndarray:
        off = (np.arange(pts) - pts // 2) * self.grid.spacing
        d1, d2 = np.meshgrid(off, off, indexing="ij")
        return np.hypot(d1, d2)

    def profile_on_patch(self, pts: int | None = None) -> np.ndarray:
        pts = pts or (self.patch_pts if self.patch_pts else self.grid.n_side)
        return window_profile(self._patch_coords(pts), self.scale)

    @functools.cached_property
    def _window(self) -> np.ndarray:
        """The profile ``iter_patches`` multiplies by, built once per family and
        read-only: on the patch, or on the full box tiled 2 x 2."""
        prof = self.profile_on_patch()
        return _read_only(np.tile(prof, (2, 2)) if self.patch_pts == 0 else prof)

    @functools.cached_property
    def _row_offsets(self) -> np.ndarray:
        """Offsets from its centre row of the rows a full-box window is nonzero
        on: one run of consecutive rows, since the window is a disc."""
        n = self.grid.n_side
        return _read_only(np.flatnonzero(self._window[:n, :n].any(axis=1)) - n // 2)

    def iter_row_patches(self, values: np.ndarray):
        """Full box only: yield (rows, windowed samples on those rows) per center,
        the rows the window is nonzero on, shape (..., len(rows), n).

        Each row has the bits of the same row of the :meth:`iter_patches`
        patch; the others are zero there.  A window's rows are consecutive
        modulo n, so they are read as at most two slices of ``values``,
        multiplied straight into the patch.  The array is reused: use it
        before drawing the next one."""
        n = self.grid.n_side
        offs = self._row_offsets
        count = len(offs)
        band = self._window[n // 2 + offs]  # the window's rows, tiled along the row
        patch = np.empty(values.shape[:-2] + (count, n))
        for ci, cj in self.centers_idx:
            first = (ci + offs[0]) % n
            j = (n // 2 - cj) % n
            head = min(count, n - first)  # rows before the wrap
            np.multiply(values[..., first:first + head, :], band[:head, j:j + n],
                        out=patch[..., :head, :])
            np.multiply(values[..., :count - head, :], band[head:, j:j + n],
                        out=patch[..., head:, :])
            yield (first + np.arange(count)) % n, patch

    def iter_patches(self, values: np.ndarray):
        """Yield windowed patch arrays (profile already applied) per center.

        On the full box every patch is the same array, overwritten by the
        next: use each before drawing the next one."""
        n = self.grid.n_side
        if self.patch_pts == 0:
            # the profile centred at (ci, cj) is the n x n view of the 2 x 2
            # tiled profile (centred at n/2) from ((n/2 - ci) % n, (n/2 - cj) % n)
            tiled = self._window
            patch = np.empty_like(values)
            for ci, cj in self.centers_idx:
                i, j = (n // 2 - ci) % n, (n // 2 - cj) % n
                np.multiply(values, tiled[i:i + n, j:j + n], out=patch)
                yield patch
        else:
            p = self.patch_pts
            prof = self._window
            rows = np.arange(p) - p // 2
            for ci, cj in self.centers_idx:
                r = (ci + rows) % n
                c = (cj + rows) % n
                patch = values[..., r[:, None], c[None, :]]
                yield patch * prof


@functools.lru_cache(maxsize=16)
def _hs_patch_weight(pts: int, h: float, s: float, homogeneous: bool) -> np.ndarray:
    """Weight w with ||patch||_(H^s)^2 = sum w |rfft2(patch)|^2 for real patches.

    The Bessel (or |k|^(2s)) weight on the rfft2 layout, times the Hermitian
    column multiplicity (1 for column 0 and, for even ``pts``, the Nyquist
    column; 2 for the rest, which stand for their unstored mirrors), times the
    squared package normalization (length / pts^2)^2.  Built once per
    argument tuple and read-only.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(pts, d=h)
    k_half = 2.0 * np.pi * np.fft.rfftfreq(pts, d=h)
    ksq = k[:, None] ** 2 + k_half[None, :] ** 2
    weight = ksq**s if homogeneous else (1.0 + ksq) ** s
    mult = np.full(len(k_half), 2.0)
    mult[0] = 1.0
    if pts % 2 == 0:
        mult[-1] = 1.0
    return _read_only(weight * mult * (h / pts) ** 2)


def _slobodeckij_parts(vals: np.ndarray, grid: Grid2D, s: float,
                       reach_len: float = 4.0) -> tuple[float, float, float]:
    """(||g||_L2^2, |grad^m g|_L2^2, weighted quadrature seminorm^2) on the box.

    Pairs beyond ``reach_len`` are accounted for by the exact tail term,
    which is valid when the support diameter is at most ``reach_len``.
    """
    m = int(np.floor(s))
    sigma = s - m
    if sigma <= 0:
        raise ConfigurationError(f"Slobodeckij order must be non-integer, got {s}")
    ops = operator_table(grid)
    f = SpectralField.from_values(grid, vals)  # a copy: vals may be a reused patch
    l2sq = _sum_sq(f.coefficients, grid)
    gradm_sq = 0.0
    semi_quad = 0.0
    h = grid.spacing
    reach = int(np.floor(reach_len / h))
    reach = min(reach, grid.n_side // 2)
    d = np.arange(-reach, reach + 1)
    di, dj = np.meshgrid(d, d, indexing="ij")
    rad = np.hypot(di, dj) * h
    sel = (rad > 0) & (rad <= reach_len)
    weight = np.zeros_like(rad)
    weight[sel] = rad[sel] ** (-(2.0 + 2.0 * sigma))
    full = np.zeros((grid.n_side, grid.n_side))
    full[d[:, None] % grid.n_side, d[None, :] % grid.n_side] = weight
    for beta in _multiindices(m):
        w = _multinomial(*beta)
        db = derivative(f, beta)
        c = db.coefficients
        power = c.real**2 + c.imag**2
        gradm_sq += w * float(np.sum(ops.multiplicity * power))
        v = db.values
        # sum_x |v(x+d)-v(x)|^2 = 2||v||^2 - 2 autocorr(d), all offsets at once:
        # autocorr = (L / h^2) * samples of |coefficients|^2
        ac = ops.values(power) * (grid.box_length / h**2)
        sums = 2.0 * (float(np.sum(v**2)) * full - ac * full)
        acc = float(np.sum(sums))
        # exact tail: beyond reach_len the supports of the two copies are disjoint
        tail = 2.0 * float(np.sum(v**2)) * h**2 * np.pi * reach_len ** (-2 * sigma) / sigma
        semi_quad += w * (acc * h**4 + tail)
    c_sigma = 4.0**sigma * sigma * math.gamma(1.0 + sigma) / (np.pi * math.gamma(1.0 - sigma))
    return l2sq, gradm_sq, (c_sigma / 2.0) * semi_quad


def uniformly_local_norm(f: SpectralField, param: float, windows: WindowFamily,
                         kind: str, homogeneous: bool = False) -> NormReport:
    """Sup over window centers of the windowed norm of the given kind.

    ``kind`` is one of ``"Hs_ul"`` (param = s), ``"Lp_ul"`` (param = p, with
    ``np.inf`` allowed), or ``"Ws2_ul"`` (param = s, direct Slobodeckij
    quadrature, coarse grids only).
    """
    grid = f.grid
    if windows.grid != grid:
        raise ConfigurationError(f"window family of {windows.grid} applied to a field on {grid}")
    if windows.covering_radius() > windows.scale:
        raise ConfigurationError("window lattice does not cover the torus")
    per_window = []
    if kind == "Hs_ul":
        pts = windows.patch_pts or grid.n_side
        weight = _hs_patch_weight(pts, grid.spacing, param, homogeneous)
        shape = f.values.shape[:-2] + weight.shape
        power, work = np.empty(shape), np.empty(shape)
        if windows.patch_pts == 0:
            # the row pass runs on the rows the window is nonzero on only
            ops = operator_table(grid)
            spec = np.empty(shape, dtype=np.complex128)
            spectra = (ops.rfft2_rows(patch, rows, out=spec)
                       for rows, patch in windows.iter_row_patches(f.values))
        else:
            spectra = (rfft2(patch) for patch in windows.iter_patches(f.values))
        for c in spectra:
            # weight * (c.real**2 + c.imag**2), summed, in the two reused arrays
            np.square(c.real, out=power)
            np.add(power, np.square(c.imag, out=work), out=power)
            np.multiply(weight, power, out=power)
            per_window.append(float(np.sqrt(np.sum(power))))
    elif kind == "Lp_ul":
        h2 = grid.spacing**2
        for patch in windows.iter_patches(f.values):
            mag = np.sqrt((patch**2).sum(axis=0)) if patch.ndim == 3 else np.abs(patch)
            if np.isinf(param):
                per_window.append(float(mag.max()))
            else:
                per_window.append(float((np.sum(mag**param) * h2) ** (1.0 / param)))
    elif kind == "Ws2_ul":
        if grid.n_side > 128:
            raise QuadratureBudgetError(
                f"W^(s,2)_ul direct quadrature is limited to n_side <= 128, "
                f"got n_side={grid.n_side}; use Hs_ul instead"
            )
        if f.components != 1:
            raise ConfigurationError("Ws2_ul expects a scalar field")
        # quadrature needs the full box so the windowed field keeps the grid shape
        full = WindowFamily(grid=grid, scale=windows.scale,
                            centers_idx=windows.centers_idx, patch_pts=0)
        reach = 4.0 * windows.scale
        for patch in full.iter_patches(f.values):
            l2sq, gmsq, semisq = _slobodeckij_parts(patch, grid, param, reach_len=reach)
            per_window.append(float(np.sqrt(l2sq + gmsq + semisq)))
    else:
        raise ConfigurationError(f"unknown uniformly local norm kind {kind!r}")

    values = np.asarray(per_window)
    imax = int(values.argmax())
    return NormReport(
        kind=f"{kind}:{param:g}{'_hom' if homogeneous else ''}",
        value=float(values.max()),
        block_profile={i: float(v) for i, v in enumerate(values)},
        tested_range=(windows.n_centers, windows.scale),
        extras={"argmax_center": tuple(int(x) for x in windows.centers_idx[imax])},
    )
