"""Periodic grid, wavenumber lattice, and the dealiasing contract.

Every other module builds on the conventions fixed here: the box is
[0, L)^2 sampled at n_side points per dimension (a power of two), the
wavenumbers are (2*pi/L) times the signed integer lattice with Nyquist
index n_side/2, and quadratic products are protected by the 2/3 rule
(modes with max(|k1|, |k2|) above two thirds of the Nyquist wavenumber
are zeroed).  The spectral arrays of a grid are built once, cached and
read-only (``operator_table``).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import ConfigurationError

# pocketfft splits work along transform lines, so the worker count does not
# change summation order or results.
_FFT_WORKERS = int(os.environ.get("SQGLAB_FFT_WORKERS", "0")) or min(4, os.cpu_count() or 1)


def rfft2(a: np.ndarray) -> np.ndarray:
    """Half spectrum of real samples over the last two axes, of any size (e.g. a patch)."""
    return scipy.fft.rfft2(a, workers=_FFT_WORKERS)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Square periodic grid on [0, L)^2.

    Parameters
    ----------
    n_side : int
        Samples per dimension; must be a power of two, at least 8.
    box_length : float
        Physical side length L (dimensionless).
    """

    n_side: int
    box_length: float = 2.0 * np.pi
    spacing: float = field(init=False)

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n_side) or self.n_side < 8:
            raise ConfigurationError(
                f"n_side must be a power of two >= 8, got {self.n_side}"
            )
        if not self.box_length > 0:
            raise ConfigurationError(f"box_length must be positive, got {self.box_length}")
        object.__setattr__(self, "spacing", self.box_length / self.n_side)

    # -- coordinates -------------------------------------------------------

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (x1, x2) of sample coordinates in [0, L)."""
        x = np.arange(self.n_side) * self.spacing
        return np.meshgrid(x, x, indexing="ij")

    def coords_centered(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of signed displacement coordinates wrapped to [-L/2, L/2)."""
        x = np.arange(self.n_side) * self.spacing
        x = (x + self.box_length / 2.0) % self.box_length - self.box_length / 2.0
        return np.meshgrid(x, x, indexing="ij")

    # -- wavenumbers -------------------------------------------------------

    @property
    def k_fundamental(self) -> float:
        """Smallest positive wavenumber 2*pi/L."""
        return 2.0 * np.pi / self.box_length

    @property
    def k_nyquist(self) -> float:
        return self.k_fundamental * (self.n_side // 2)

    def mode_indices(self) -> np.ndarray:
        """Signed integer frequencies per axis, fft layout (Nyquist at -n/2)."""
        return np.fft.fftfreq(self.n_side, d=1.0 / self.n_side).astype(np.int64)

    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """(k1, k2) of physical wavenumbers in fft layout, as read-only (n, n) views."""
        ops = operator_table(self)
        shape = (self.n_side, self.n_side)
        return np.broadcast_to(ops.k1, shape), np.broadcast_to(ops.k2, shape)

    def k_magnitude(self) -> np.ndarray:
        """|k| in fft layout (read-only, shared by every caller)."""
        return operator_table(self).kmag

    # -- dealiasing --------------------------------------------------------

    @property
    def dealias_index_cutoff(self) -> int:
        """Largest retained integer mode index under the 2/3 rule."""
        return int(np.floor((2.0 / 3.0) * (self.n_side // 2)))

    @property
    def dealias_k_cutoff(self) -> float:
        return self.dealias_index_cutoff * self.k_fundamental

    def dealias_mask(self) -> np.ndarray:
        """True on the modes the 2/3 rule keeps (read-only, shared by every caller)."""
        return operator_table(self).dealias

    def __str__(self) -> str:  # pragma: no cover
        return f"Grid2D(n={self.n_side}, L={self.box_length:.6g})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class OperatorTable:
    """The spectral arrays of one grid, and the half-spectrum adapter.

    Built once per grid by :func:`operator_table`.  Every array is read-only
    and shared by all callers: multiply by them, never write into them.

    ``k`` is the 1-D wavenumber vector in fft layout; ``k1`` (shape (n, 1))
    and ``k2`` (shape (1, n)) are views of it that broadcast to the lattice.
    ``ksq`` and ``kmag`` are |k|^2 and |k|; ``dealias`` is the 2/3-rule mask
    and ``nyquist`` is True away from the unpaired Nyquist lines.  The
    ``*_half`` arrays are their columns 0..n/2, the layout of ``rfft2``.
    """

    def __init__(self, grid: Grid2D):
        n = grid.n_side
        self.n_side = n
        self.box_length = grid.box_length
        m = grid.mode_indices()
        self.k = _read_only(m * grid.k_fundamental)
        self.k1 = self.k[:, None]
        self.k2 = self.k[None, :]
        self.ksq = _read_only(self.k1 * self.k1 + self.k2 * self.k2)
        self.kmag = _read_only(np.sqrt(self.ksq))
        keep = np.abs(m) <= grid.dealias_index_cutoff
        self.dealias = _read_only(np.logical_and.outer(keep, keep))
        paired = m != -(n // 2)
        self.nyquist = _read_only(np.logical_and.outer(paired, paired))
        half = n // 2 + 1
        self.k2_half = self.k2[:, :half]
        self.dealias_half = _read_only(self.dealias[:, :half])

    # The adapter between the full ``coefficients`` layout of a real field and
    # the half spectrum that real transforms use.  c_(-k) = conj(c_k) for real
    # samples, so columns 0..n/2 determine the rest.

    def half_spectrum(self, c: np.ndarray) -> np.ndarray:
        """Hermitian part (c_k + conj(c_-k)) / 2 of full-layout coefficients,
        on columns 0..n/2.  Its samples equal Re(ifft2(c)) to rounding, so any
        complex input is accepted."""
        n = self.n_side
        out = np.empty(c.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
        # c at -k: row and column indices negated modulo n
        cols = slice(n - 1, n // 2 - 1, -1)
        out[..., 0, 0] = c[..., 0, 0]
        out[..., 0, 1:] = c[..., 0, cols]
        out[..., 1:, 0] = c[..., :0:-1, 0]
        out[..., 1:, 1:] = c[..., :0:-1, cols]
        np.conjugate(out, out=out)
        out += c[..., : n // 2 + 1]
        out *= 0.5
        return out

    def values_from_half(self, half: np.ndarray) -> np.ndarray:
        """Real samples of a Hermitian half spectrum, shape (..., n, n)."""
        n = self.n_side
        out = np.empty(half.shape[:-1] + (n,))
        # one plane per call: a stacked irfft2 ran about twice as slow as this
        # loop at n = 256 (scipy 1.17, x86-64)
        for i in np.ndindex(half.shape[:-2]):
            out[i] = scipy.fft.irfft2(half[i], s=(n, n), workers=_FFT_WORKERS)
        out *= n * n / self.box_length
        return out

    def values(self, c: np.ndarray) -> np.ndarray:
        """Re(ifft2) of full-layout coefficients, in package normalization."""
        return self.values_from_half(self.half_spectrum(c))

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """Full-layout coefficients of real samples, in package normalization."""
        n = self.n_side
        half = rfft2(v)
        half *= self.box_length / (n * n)
        out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
        out[..., : n // 2 + 1] = half
        np.conjugate(half[..., 0, n // 2 - 1:0:-1], out=out[..., 0, n // 2 + 1:])
        np.conjugate(half[..., :0:-1, n // 2 - 1:0:-1], out=out[..., 1:, n // 2 + 1:])
        return out


@functools.lru_cache(maxsize=8)
def operator_table(grid: Grid2D) -> OperatorTable:
    """The cached :class:`OperatorTable` of ``grid`` (frozen, so a cache key)."""
    return OperatorTable(grid)
