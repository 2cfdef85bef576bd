"""Real/spectral field container and the operations tied to it.

A ``SpectralField`` holds a real scalar (shape ``(n, n)``) or vector
(shape ``(2, n, n)``) sample array together with its Fourier coefficients
under the package normalization

    c_k = (L / n^2) * sum_x f(x) exp(-i k.x),

stored in the layout of ``rfft2``: shape ``(n, n/2 + 1)`` or
``(2, n, n/2 + 1)``, columns 0..n/2 of the lattice, since c_(-k) =
conj(c_k) for a real field.  Parseval reads ``sum_k |c_k|^2 = spacing^2 *
sum_x |f(x)|^2``, where each stored column other than 0 and n/2 counts
twice (``OperatorTable.multiplicity``).  The full n x n layout exists only
through :func:`full_coefficients`, for tests and inspection.
Representations are computed lazily and cached, through the real
transforms of the grid's operator table; fields are immutable (arrays are
marked read-only, and a caller's writeable array is copied first) and every
operation returns a new field.
"""

from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

from .errors import ConfigurationError
from .grid import Grid2D, _read_only, abs_max, operator_table

_MAGIC = b"SQGF"


def _frozen(a, dtype, adopt: bool) -> np.ndarray | None:
    """``a`` as a read-only ``dtype`` array; a writeable array is copied unless adopted."""
    if a is None:
        return None
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable and not adopt:
        a = a.copy()  # freezing it in place would freeze the caller's own array
    return _read_only(a)


class SpectralField:
    """Immutable field on a :class:`Grid2D` with cached dual representation."""

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid: Grid2D, values: np.ndarray | None = None,
                 coefficients: np.ndarray | None = None):
        self._init(grid, values, coefficients, adopt=False)

    @classmethod
    def _adopt(cls, grid: Grid2D, values: np.ndarray | None = None,
               coefficients: np.ndarray | None = None) -> "SpectralField":
        """Wrap freshly made arrays that nothing else holds, without copying them."""
        f = cls.__new__(cls)
        f._init(grid, values, coefficients, adopt=True)
        return f

    def _init(self, grid, values, coefficients, adopt: bool) -> None:
        if values is None and coefficients is None:
            raise ValueError("need values or coefficients")
        self.grid = grid
        n = grid.n_side
        for a, name, m in ((values, "values", n), (coefficients, "coefficients", n // 2 + 1)):
            if a is not None and np.shape(a) not in ((n, m), (2, n, m)):
                raise ConfigurationError(f"{name} shape {np.shape(a)} does not match grid n={n}")
        self._values = _frozen(values, np.float64, adopt)
        self._coeffs = _frozen(coefficients, np.complex128, adopt)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_values(cls, grid: Grid2D, values: np.ndarray) -> "SpectralField":
        return cls(grid, values=values)

    @classmethod
    def from_coefficients(cls, grid: Grid2D, coefficients: np.ndarray) -> "SpectralField":
        return cls(grid, coefficients=coefficients)

    @classmethod
    def zeros(cls, grid: Grid2D, components: int = 1) -> "SpectralField":
        """The zero field, holding both representations: it never costs a transform."""
        n = grid.n_side
        lead = () if components == 1 else (2,)
        return cls._adopt(grid, values=np.zeros(lead + (n, n)),
                          coefficients=np.zeros(lead + (n, n // 2 + 1), dtype=np.complex128))

    # -- representations -------------------------------------------------

    @property
    def components(self) -> int:
        a = self._values if self._values is not None else self._coeffs
        return 1 if a.ndim == 2 else 2

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _read_only(operator_table(self.grid).values(self._coeffs))
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = _read_only(operator_table(self.grid).coefficients(self._values))
        return self._coeffs

    # -- arithmetic (pointwise, grid-preserving) ---------------------------
    #
    # Linear operations stay in the representations the operands already
    # hold: samples when both hold samples (bit for bit the sample
    # arithmetic), else coefficients when both hold coefficients, else the
    # missing samples are computed.  So sums of coefficient-only fields
    # (convolutions, multipliers) cost no transform.

    def _shallow(self) -> "SpectralField":
        """A new wrapper of the same arrays: what it computes is cached on it alone."""
        return SpectralField._adopt(self.grid, values=self._values, coefficients=self._coeffs)

    def _like(self, values=None, coefficients=None) -> "SpectralField":
        return SpectralField._adopt(self.grid, values=values, coefficients=coefficients)

    def _combine(self, other: "SpectralField", op) -> "SpectralField":
        if self._values is not None and other._values is not None:
            return self._like(values=op(self._values, other._values))
        if self._coeffs is not None and other._coeffs is not None:
            return self._like(coefficients=op(self._coeffs, other._coeffs))
        return self._like(values=op(self.values, other.values))

    def _map(self, op) -> "SpectralField":
        if self._values is not None:
            return self._like(values=op(self._values))
        return self._like(coefficients=op(self._coeffs))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "SpectralField":
        scalar = float(scalar)
        return self._map(lambda a: a * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self._map(np.negative)

    def component(self, i: int) -> "SpectralField":
        if self.components == 1:
            raise ValueError("scalar field has no components to select")
        # slice whichever representations are cached, transforming nothing
        v, c = (None if a is None else a[i] for a in (self._values, self._coeffs))
        return self._like(values=v, coefficients=c)

    # -- diagnostics --------------------------------------------------------

    def linf(self) -> float:
        """Max pointwise magnitude (Euclidean over components for vectors).

        A scalar's is :func:`~sqglab.grid.abs_max`; sqrt is monotone, so a
        vector's is the sqrt of the max of v0^2 + v1^2, the max of the
        magnitudes bit for bit, with no array of them."""
        v = self.values
        if self.components == 2:
            sq = np.square(v[0])
            sq += np.square(v[1])
            return float(np.sqrt(sq.max()))
        return abs_max(v)

    def l2(self) -> float:
        """Continuum L^2 norm over the box, h * sqrt(sum |f|^2)."""
        return float(np.sqrt(np.sum(self.values**2)) * self.grid.spacing)

    def mean(self) -> float:
        return float(np.mean(self.values))


# -- module operations -------------------------------------------------------


def full_coefficients(f: SpectralField) -> np.ndarray:
    """The coefficients of ``f`` in the full n x n fft layout, shape (n, n) or
    (2, n, n): the stored columns 0..n/2, and c_(-k) = conj(c_k) on the rest.

    For tests and inspection; no computation in the package uses it.
    """
    c = f.coefficients
    neg = -np.arange(f.grid.n_side) % f.grid.n_side  # the index of -k
    return np.concatenate([c, np.conj(c[..., neg[:, None], neg[None, c.shape[-1]:]])], axis=-1)


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes with max(|k1|, |k2|) above the 2/3-Nyquist cutoff."""
    return SpectralField._adopt(f.grid,
                                coefficients=f.coefficients * operator_table(f.grid).dealias)


def dealiased_samples(f: SpectralField) -> np.ndarray:
    """Samples of dealias(f), one real inverse transform per component, of
    the coefficients under the dealias mask (the product is never formed).

    The one definition of a dealiased factor: ``dealiased_product``, the far
    flux and the advecting velocity of the transport step take their factors
    from here, so samples one caller hands another have the bits the other
    would have computed.
    """
    ops = operator_table(f.grid)
    return ops.values(f.coefficients, mask=ops.dealias)


# -- serialization -----------------------------------------------------------
#
# Flat binary container: magic 'SQGF', then header of three little-endian
# 64-bit values (n_side: uint64, box_length: float64, components: uint64),
# then row-major float64 samples.


def save_field(f: SpectralField, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QdQ", f.grid.n_side, f.grid.box_length, f.components))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ConfigurationError(f"not a field container: bad magic {magic!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise ConfigurationError(f"truncated field header: {len(header)} of 24 bytes")
        n, L, comps = struct.unpack("<QdQ", header)
        if comps not in (1, 2) or not math.isfinite(L):
            raise ConfigurationError(f"bad field header: components={comps}, box_length={L}")
        grid = Grid2D(int(n), float(L))
        count = comps * n * n
        # compare sizes before reading, so an absurd n_side allocates nothing
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != count * 8:
            raise ConfigurationError(f"field payload has {size} bytes, header declares {count * 8}")
        data = fh.read(size)
    shape = (n, n) if comps == 1 else (2, n, n)
    payload = np.frombuffer(data, dtype="<f8", count=count)
    return SpectralField._adopt(grid, values=payload.reshape(shape).astype(np.float64))


def field_to_csv(f: SpectralField, path) -> None:
    """Write samples as CSV for inspection (one block per component).

    Kept although only tests call it: it is the one text export of samples
    (``save_field`` writes binary), for reading a field outside Python."""
    with open(path, "w") as fh:
        v = f.values if f.components == 2 else f.values[None, :, :]
        for c in range(v.shape[0]):
            fh.write(f"# component {c}, n_side={f.grid.n_side}, L={f.grid.box_length!r}\n")
            buf = io.StringIO()
            np.savetxt(buf, v[c], delimiter=",")
            fh.write(buf.getvalue())
