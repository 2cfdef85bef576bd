"""Littlewood-Paley partition of unity and dyadic block operators.

The low-pass profile chi_hat is a radial C-infinity transition built from
the standard bump exp(-1/t): identically 1 for |xi| <= 3/5 and 0 for
|xi| >= 5/6.  The annulus profile is the telescoping difference

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


def _ramp(t: np.ndarray) -> np.ndarray:
    """C-infinity increasing step: 0 for t<=0, 1 for t>=1, exp(-1/t) based."""
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t >= 1.0, 1.0, 0.0)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    g_lo = np.exp(-1.0 / ti)
    g_hi = np.exp(-1.0 / (1.0 - ti))
    out[inside] = g_lo / (g_lo + g_hi)
    return out


def chi_profile(rho) -> np.ndarray:
    """Radial low-pass profile chi_hat(|xi|)."""
    rho = np.asarray(rho, dtype=np.float64)
    t = (rho - CHI_FLAT_RADIUS) / (CHI_SUPPORT_RADIUS - CHI_FLAT_RADIUS)
    return 1.0 - _ramp(t)


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
