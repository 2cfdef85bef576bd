"""Periodic grid, wavenumber lattice, and the dealiasing contract.

Every other module builds on the conventions fixed here: the box is
[0, L)^2 sampled at n_side points per dimension (a power of two), the
wavenumbers are (2*pi/L) times the signed integer lattice with Nyquist
index n_side/2, and quadratic products are protected by the 2/3 rule
(modes with max(|k1|, |k2|) above two thirds of the Nyquist wavenumber
are zeroed).  Coefficients live in the layout of ``rfft2``: rows 0..n-1,
columns 0..n/2.  The spectral arrays of a grid are built once, in that
layout, cached and read-only (``operator_table``).
"""

from __future__ import annotations

import functools
import numbers
import os
import threading
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


def _require_integer(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
        _require_integer("n_side", self.n_side, 8)
        if self.n_side & (self.n_side - 1):
            raise ConfigurationError(f"n_side must be a power of two >= 8, got {self.n_side}")
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

    # -- dealiasing --------------------------------------------------------

    @property
    def dealias_index_cutoff(self) -> int:
        """Largest retained integer mode index under the 2/3 rule."""
        return int(np.floor((2.0 / 3.0) * (self.n_side // 2)))

    @property
    def dealias_k_cutoff(self) -> float:
        return self.dealias_index_cutoff * self.k_fundamental

    def __str__(self) -> str:  # pragma: no cover
        return f"Grid2D(n={self.n_side}, L={self.box_length:.6g})"


def abs_max(v: np.ndarray) -> float:
    """max |v| with the bits of ``np.abs(v).max()``, without an array of |v|:
    abs is monotone, so it is |max(v.max(), -v.min())|, the outer abs only
    turning -0.0 into 0.0."""
    return float(abs(max(v.max(), -v.min())))


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class _Scratch(threading.local):
    """One thread's transform buffers, by lead shape, and the columns in use."""

    def __init__(self):
        self.buffers: dict[tuple, np.ndarray] = {}
        self.width: dict[tuple, int] = {}


class OperatorTable:
    """The spectral arrays of one grid, in the ``rfft2`` layout, and its transforms.

    Built once per grid by :func:`operator_table`.  Every array is read-only
    and shared by all callers: multiply by them, never write into them.

    Coefficients of real fields are stored on rows 0..n-1 (fft layout) and
    columns 0..n/2; c_(-k) = conj(c_k) determines the rest.  ``k1`` (shape
    (n, 1)) and ``k2`` (shape (1, n/2 + 1)) are the wavenumbers, signed with
    the Nyquist index at -n/2, and broadcast to the layout.  ``ksq`` and
    ``kmag`` are |k|^2 and |k|; ``dealias`` is the 2/3-rule mask, True on
    the dealias box (:meth:`box`): rows ``dealias_rows``, the indices -K..K
    with K = floor(n/3), and columns 0..K, ``dealias_columns`` = K + 1 of them.
    ``nyquist`` is False on the unpaired Nyquist lines (row n/2, column n/2).
    ``multiplicity`` (shape (1, n/2 + 1)) is 1 on columns 0 and n/2 and 2 on
    the others, which stand for their unstored mirrors as well, so
    sum_k |c_k|^2 over all modes is sum(multiplicity * |c|^2).
    """

    def __init__(self, grid: Grid2D):
        n = grid.n_side
        self.n_side = n
        self.box_length = grid.box_length
        half = n // 2 + 1
        m = grid.mode_indices()
        k = m * grid.k_fundamental
        self.k1 = _read_only(k[:, None])
        self.k2 = _read_only(k[None, :half])
        self.ksq = _read_only(self.k1 * self.k1 + self.k2 * self.k2)
        self.kmag = _read_only(np.sqrt(self.ksq))
        keep = np.abs(m) <= grid.dealias_index_cutoff
        self.dealias = _read_only(np.logical_and.outer(keep, keep[:half]))
        self.dealias_rows = range(-grid.dealias_index_cutoff, grid.dealias_index_cutoff + 1)
        self.dealias_columns = grid.dealias_index_cutoff + 1
        paired = m != -(n // 2)
        self.nyquist = _read_only(np.logical_and.outer(paired, paired[:half]))
        multiplicity = np.full((1, half), 2.0)
        multiplicity[0, [0, -1]] = 1.0
        self.multiplicity = _read_only(multiplicity)
        # irfft2's 1/n^2 and the package's n^2/L, as the one scale of values()
        self.sample_scale = (n * n / grid.box_length) / (n * n)
        self._zero_row = _read_only(scipy.fft.rfft(np.zeros(n), workers=_FFT_WORKERS))
        self._scratch = _Scratch()

    def box(self, c: np.ndarray) -> np.ndarray:
        """A fresh copy of the dealias box of coefficients c, shape (..., 2K + 1, K + 1)."""
        return c[..., self.dealias_rows, :self.dealias_columns]

    def unbox(self, box: np.ndarray, rest: np.ndarray) -> np.ndarray:
        """A fresh copy of coefficients ``rest``, their dealias box replaced by ``box``."""
        c = rest.copy()
        c[..., self.dealias_rows, :self.dealias_columns] = box
        return c

    def values(self, c: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Real samples of coefficients c (times ``mask``), shape (..., n, n):
        irfft2(c) n^2/L.

        On the self-mirrored columns 0 and n/2 the transform keeps the
        Hermitian part of c, so any complex c has the samples Re(ifft2) of
        its Hermitian extension.  A narrow c, holding only columns 0..m-1
        (m <= n/2 + 1), stands for c padded with zero columns.  ``mask``, an
        array of the layout, transforms c * mask without forming the product;
        under ``dealias`` only the dealias box's columns are transformed.

        c (times the mask) is copied into this thread's complex buffer for the
        lead shape of c, whose other columns are zero; the column transforms
        run in place on the copied columns only, and one stacked row pass
        makes the returned samples, so the call makes no other array.
        """
        out = self._unscaled_values(c, mask)
        out *= self.sample_scale
        return out

    def sup(self, c: np.ndarray, mask: np.ndarray | None = None) -> float:
        """max |values(c, mask)|, the Euclidean magnitude over the lead axis of a
        (2, n, m) c, with the bits of the max of the returned samples.

        A scalar's sup is ``abs_max`` of the unscaled samples v times
        ``sample_scale`` (rounding is monotone, so that is the max of the
        rounded |v sample_scale|).  A vector's samples are scaled, squared and
        summed in the transform's own output, and the sqrt is taken of the max
        (sqrt is monotone).  Coefficients that are all zero (after the mask)
        have sup 0.0 and cost no transform.
        """
        v = self._unscaled_values(c, mask, skip_zero=True)
        if v is None:
            return 0.0
        if v.ndim == 2:
            return abs_max(v) * self.sample_scale
        v *= self.sample_scale
        np.square(v, out=v)
        np.add(v[0], v[1], out=v[0])
        return float(np.sqrt(v[0].max()))

    def _unscaled_values(self, c: np.ndarray, mask: np.ndarray | None,
                         skip_zero: bool = False) -> np.ndarray | None:
        """:meth:`values` before its one scale, ``sample_scale``; with
        ``skip_zero``, None for coefficients that are all zero."""
        n = self.n_side
        m = min(c.shape[-1], self.dealias_columns) if mask is self.dealias else c.shape[-1]
        buf, head = self._buffer(c.shape[:-2], m)
        src = c[..., :m]
        # pocketfft's own two passes of irfft2, unscaled: the columns, then the
        # rows, the zero columns standing for irfft's padding.  n is a power of
        # two, so moving irfft2's 1/n^2 into the one scale changes no bit.
        if np.iscomplexobj(src):
            if mask is None:
                np.copyto(head, src)
            else:
                np.multiply(src, mask[..., :m], out=head)
            if skip_zero and not head.any():
                return None
            cols = scipy.fft.ifftn(head, axes=(-2,), norm="forward", overwrite_x=True,
                                   workers=_FFT_WORKERS)
            if not np.may_share_memory(cols, head):  # overwrite_x permits, not promises
                head[...] = cols
        else:
            # real c takes scipy's real-input column pass, whose bits differ
            # from the complex pass on the same numbers
            head[...] = scipy.fft.ifftn(src if mask is None else src * mask[..., :m],
                                        axes=(-2,), norm="forward", workers=_FFT_WORKERS)
        return scipy.fft.irfft(buf, n=n, norm="forward", workers=_FFT_WORKERS)

    def _buffer(self, lead: tuple, m: int) -> tuple[np.ndarray, np.ndarray]:
        """This thread's buffer for lead shape ``lead``, zero from column m on,
        and its view on columns 0..m-1."""
        scratch = self._scratch
        buf = scratch.buffers.get(lead)
        if buf is None:
            buf = scratch.buffers[lead] = np.zeros(lead + (self.n_side, self.n_side // 2 + 1),
                                                   dtype=np.complex128)
        stale = scratch.width.get(lead, 0)
        if stale > m:  # columns an earlier, wider call wrote
            buf[..., m:stale] = 0.0
        scratch.width[lead] = m
        return buf, buf[..., :m]

    def coefficients(self, v: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of real samples v, in package normalization: rfft2(v) L/n^2.

        With ``rows`` (distinct row indices), v holds only those rows of
        samples that vanish on every other row, shape (..., len(rows), n):
        see :meth:`rfft2_rows`, whose bits the result keeps before its scale.
        """
        c = rfft2(v) if rows is None else self.rfft2_rows(v, rows)
        c *= self.box_length / (self.n_side * self.n_side)
        return c

    def rfft2_rows(self, v: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """rfft2 of (..., n, n) samples that vanish off ``rows`` (distinct row
        indices), given as those rows only, v of shape (..., len(rows), n).

        The row transforms run on the given rows alone and the column pass on
        the full spectrum, pocketfft's own two passes of rfft2, so the result
        has the bits of ``rfft2`` of the full samples.  The other rows hold
        the transform of a zero row, whose signed zeros rfft2's row pass
        leaves there too.  ``out``, a complex (..., n, n/2 + 1) array, is
        written and returned in place of a new one.
        """
        if out is None:
            out = np.empty(v.shape[:-2] + (self.n_side, self.n_side // 2 + 1), dtype=np.complex128)
        out[...] = self._zero_row
        out[..., rows, :] = scipy.fft.rfft(v, axis=-1, workers=_FFT_WORKERS)
        c = scipy.fft.fftn(out, axes=(-2,), overwrite_x=True, workers=_FFT_WORKERS)
        if not np.may_share_memory(c, out):  # overwrite_x permits, not promises
            out[...] = c
        return out


@functools.lru_cache(maxsize=8)
def operator_table(grid: Grid2D) -> OperatorTable:
    """The cached :class:`OperatorTable` of ``grid`` (frozen, so a cache key)."""
    return OperatorTable(grid)
