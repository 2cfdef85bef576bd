"""The radial bump, the Littlewood-Paley partition of unity and dyadic blocks.

``CutoffA(inner, outer)`` is the package's one C-infinity radial bump: 1 on
B_inner, 0 outside B_outer, with the exp(-1/t) ramp between.  It is the
low pass chi_hat here (radii 3/5, 5/6), the uniformly local window
(``norms.window_profile``, radii s, 2s) and the kernel cutoff ``a``
(``kernels``, radii 1, 2).  ``a`` gives its values and ``profile`` the
triple (a, a', a'') or the pair (a, a'), each from one evaluation of the
ramp on the annulus.

The annulus profile is the telescoping difference

    phi_hat(xi) = chi_hat(xi/2) - chi_hat(xi),

supported in the annulus 3/5 < |xi| < 5/3, nonnegative, with
chi_hat + sum_{j>=0} phi_hat(2^-j xi) = 1 identically (exact telescoping,
so the residual on the grid is pure roundoff).  Blocks are realized as
Fourier multipliers: Delta_j = phi_hat(|k|/2^j), Delta_{-1} = chi_hat(|k|),
S_n = chi_hat(|k|/2^(n+1)).  The family of a grid is built once
(``build_partition`` is cached per grid) and builds each multiplier once, on
first use, on the ``rfft2`` layout of the coefficients; the multipliers are
read-only and shared by every caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import BlockRangeError, ConfigurationError
from .fields import SpectralField
from .grid import Grid2D, _read_only, operator_table

CHI_FLAT_RADIUS = 3.0 / 5.0
CHI_SUPPORT_RADIUS = 5.0 / 6.0


def _ramp(t: np.ndarray, order: int = 0):
    """The exp(-1/t) smoothstep S, 0 for t <= 0 and 1 for t >= 1, alone
    (``order`` 0) or with its derivatives up to ``order``: (S, S') or
    (S, S', S'').  The formula runs on 1e-12 < t < 1 - 1e-12 only, stable at
    the endpoints; exp(-1/t) underflows long before.
    """
    t = np.asarray(t, dtype=np.float64)
    S = np.where(t >= 1.0 - 1e-12, 1.0, 0.0)  # 1 from where the formula stops
    inside = (t > 1e-12) & (t < 1.0 - 1e-12)
    ti = t[inside]
    p = np.exp(-1.0 / ti)
    q = np.exp(-1.0 / (1.0 - ti))
    S[inside] = p / (p + q)
    if order == 0:
        return S
    S1 = np.zeros_like(t)
    it2 = 1.0 / ti**2
    im2 = 1.0 / (1.0 - ti) ** 2
    w = p * q
    D = (p + q) ** 2
    u = it2 + im2
    S1[inside] = w * u / D
    if order == 1:
        return S, S1
    S2 = np.zeros_like(t)
    wp = w * (it2 - im2)
    up = -2.0 / ti**3 + 2.0 / (1.0 - ti) ** 3
    DpD = 2.0 * (p * it2 - q * im2) / (p + q)
    S2[inside] = (wp * u + w * up) / D - (w * u / D) * DpD
    return S, S1, S2


@dataclass(frozen=True)
class CutoffA:
    """Radial bump: 1 on B_inner, 0 outside B_outer, monotone between.

    Each call evaluates the ramp once, on the annulus inner < rho < outer
    only; off it the bump is exactly 1 or 0 and its derivatives exactly 0.
    """

    inner: float = 1.0
    outer: float = 2.0

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ConfigurationError(f"need 0 < inner < outer, got {self.inner}, {self.outer}")

    def _annulus(self, rho):
        """The bump off the annulus, the annulus mask, and the ramp variable on it."""
        rho = np.asarray(rho, dtype=np.float64)
        ring = (rho > self.inner) & (rho < self.outer)
        t = (rho[ring] - self.inner) / (self.outer - self.inner)
        return np.where(rho <= self.inner, 1.0, 0.0), ring, t

    def a(self, rho) -> np.ndarray:
        """The bump's values alone."""
        a, ring, t = self._annulus(rho)
        a[ring] = 1.0 - _ramp(t)
        return a

    def profile(self, rho, order: int = 2) -> tuple[np.ndarray, ...]:
        """(a, a', a'') at the radii ``rho``, or (a, a') for ``order`` 1."""
        if order not in (1, 2):
            raise ConfigurationError(f"profile order must be 1 or 2, got {order}")
        a, ring, t = self._annulus(rho)
        S = _ramp(t, order)
        width = self.outer - self.inner
        a[ring] = 1.0 - S[0]
        derivs = [np.zeros_like(a) for _ in range(order)]
        for k, d in enumerate(derivs, 1):
            d[ring] = -S[k] / width**k
        return (a, *derivs)


# the radial low-pass profile chi_hat(|xi|)
chi_profile = CutoffA(CHI_FLAT_RADIUS, CHI_SUPPORT_RADIUS).a


def phi_profile(rho) -> np.ndarray:
    """Radial annulus profile phi_hat(|xi|) = chi_hat(|xi|/2) - chi_hat(|xi|)."""
    rho = np.asarray(rho, dtype=np.float64)
    return chi_profile(rho / 2.0) - chi_profile(rho)


@dataclass(frozen=True)
class DyadicFamily:
    """Partition profiles bound to a grid, with the realizable block range.

    ``j_min`` is the smallest homogeneous block containing a nonzero grid
    wavenumber, ``j_max`` the largest whose annulus lies entirely below the
    dealias cutoff, and ``j_top`` the largest with any grid support at all
    (blocks up to ``j_top`` are needed to reconstruct every representable
    mode).  Measured "for all j" statements use ``measured_range()``, i.e.
    j in [j_min, j_max - 1].
    """

    grid: Grid2D
    j_min: int
    j_max: int
    j_top: int
    _kmag: np.ndarray = field(repr=False)
    _multipliers: dict = field(default_factory=dict, repr=False, compare=False)

    def _cached(self, key: tuple, build) -> tuple[np.ndarray, int]:
        """The multiplier of ``key`` and its column extent (last nonzero column + 1)."""
        entry = self._multipliers.get(key)
        if entry is None:
            m = _read_only(build())
            cols = np.flatnonzero(m.any(axis=0))
            entry = self._multipliers[key] = (m, int(cols[-1]) + 1 if cols.size else 0)
        return entry

    def _block(self, j: int) -> tuple[np.ndarray, int]:
        return self._cached(("phi", j), lambda: phi_profile(self._kmag / 2.0**j))

    def _lowpass(self, n: int) -> tuple[np.ndarray, int]:
        return self._cached(("chi", n), lambda: chi_profile(self._kmag / 2.0 ** (n + 1)))

    def block_multiplier(self, j: int) -> np.ndarray:
        """phi_hat(|k|/2^j) on the coefficient layout (read-only, built once)."""
        return self._block(j)[0]

    def lowpass_multiplier(self, n: int) -> np.ndarray:
        """chi_hat(|k|/2^(n+1)) on the coefficient layout (read-only, built once)."""
        return self._lowpass(n)[0]

    def delta_band(self, j: int, homogeneous: bool = False) -> tuple[np.ndarray, int]:
        """Delta_j's multiplier and its column extent m: columns m.. are zero.

        Delta_j is the low pass chi_hat(|k|) at j = -1 unless ``homogeneous``.
        """
        if j == -1 and not homogeneous:
            return self._lowpass(-1)
        return self._block(j)

    def delta_multiplier(self, j: int, homogeneous: bool = False) -> np.ndarray:
        """Delta_j: the low pass chi_hat(|k|) at j = -1 unless ``homogeneous``."""
        return self.delta_band(j, homogeneous)[0]

    def block_js(self, homogeneous: bool = False) -> range:
        return self.homogeneous_js() if homogeneous else self.inhomogeneous_js()

    def inhomogeneous_js(self) -> range:
        return range(-1, self.j_top + 1)

    def homogeneous_js(self) -> range:
        return range(self.j_min, self.j_top + 1)

    def measured_range(self) -> range:
        return range(self.j_min, self.j_max)

    def partition_residual(self) -> float:
        """Max |1 - chi_hat - sum_j phi_hat_j| over grid wavenumbers below Nyquist."""
        total = chi_profile(self._kmag)
        for j in range(0, self.j_top + 1):
            total = total + self.block_multiplier(j)
        below = self._kmag <= self.grid.k_nyquist
        return float(np.abs(1.0 - total[below]).max())


@functools.lru_cache(maxsize=4)
def build_partition(grid: Grid2D) -> DyadicFamily:
    """The dyadic family realizable on ``grid`` (cached per grid).

    Raises ``ConfigurationError`` if the grid cannot host a single annulus
    below the dealias cutoff.
    """
    kmag = operator_table(grid).kmag
    k_fund = grid.k_fundamental
    k_cut = grid.dealias_k_cutoff

    # largest j with the full annulus below the dealias cutoff
    j_max = int(np.floor(np.log2(k_cut / (5.0 / 3.0))))
    # smallest j whose annulus contains the fundamental wavenumber
    j_min = int(np.ceil(np.log2(k_fund / (5.0 / 3.0))))
    while phi_profile(np.array([k_fund / 2.0**j_min]))[0] <= 0.0:
        j_min += 1
    # blocks needed to cover every grid mode (corners reach sqrt(2)*Nyquist)
    k_abs_max = float(kmag.max())
    j_top = int(np.ceil(np.log2(k_abs_max / CHI_FLAT_RADIUS))) - 1
    while chi_profile(np.array([k_abs_max / 2.0 ** (j_top + 1)]))[0] < 1.0:
        j_top += 1

    if j_max < j_min:
        raise ConfigurationError(
            f"grid too coarse to host a dyadic annulus below the dealias cutoff "
            f"(n={grid.n_side}, L={grid.box_length:g})"
        )
    return DyadicFamily(grid=grid, j_min=j_min, j_max=j_max, j_top=j_top, _kmag=kmag)


def _apply(f: SpectralField, mult: np.ndarray) -> SpectralField:
    c = f.coefficients
    if f.components == 2:
        mult = mult[None, :, :]
    return SpectralField._adopt(f.grid, coefficients=c * mult)


def project_block(f: SpectralField, j: int, mode: str = "inhomogeneous",
                  family: DyadicFamily | None = None) -> SpectralField:
    """Apply Delta_j (inhomogeneous), homogeneous Delta_j, or the low-pass S_j."""
    fam = family if family is not None else build_partition(f.grid)
    if mode == "inhomogeneous":
        if j < -1 or j > fam.j_top:
            raise BlockRangeError(f"j={j} outside inhomogeneous range [-1, {fam.j_top}]")
        mult = fam.delta_multiplier(j)
    elif mode == "homogeneous":
        if j < fam.j_min or j > fam.j_top:
            raise BlockRangeError(f"j={j} outside homogeneous range [{fam.j_min}, {fam.j_top}]")
        mult = fam.block_multiplier(j)
    elif mode == "lowpass_S_n":
        if j < -1:
            raise BlockRangeError(f"S_n requires n >= -1, got {j}")
        mult = fam.lowpass_multiplier(j)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _apply(f, mult)


def smooth_truncate_initial(f: SpectralField, n: int,
                            family: DyadicFamily | None = None) -> SpectralField:
    """Smoothed initial data S_n f used to seed the approximation sequence."""
    if n < 0:
        raise BlockRangeError(f"smooth truncation requires n >= 0, got {n}")
    return project_block(f, n, mode="lowpass_S_n", family=family)


def export_profiles_csv(path, rho_max: float = 2.0, samples: int = 401) -> None:
    """Write (radius, chi_hat, phi_hat) rows for plotting."""
    rho = np.linspace(0.0, rho_max, samples)
    rows = np.column_stack([rho, chi_profile(rho), phi_profile(rho)])
    np.savetxt(path, rows, delimiter=",", header="rho,chi_hat,phi_hat", comments="")
