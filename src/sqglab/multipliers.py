"""Fourier-multiplier operators.

Presets: ``frac_laplacian(s)`` with symbol |k|^s and zero mode 0,
``bessel(s)`` with symbol (1+|k|^2)^(s/2), ``grad_perp`` with vector symbol
i(-k2, k1), and the constitutive map ``biot_savart_velocity`` realizing
u = grad_perp (-Laplace)^(-1+beta/2) theta, i.e. the vector symbol
i(-k2, k1)|k|^(beta-2) with the k = 0 mode gauged to zero (velocity is
computed from the mean-free part of the scalar).  Symbols are evaluated
on the ``rfft2`` layout of the coefficients (``OperatorTable``), so they must
be those of real operators, symbol(-k) = conj(symbol(k)); odd
(derivative-like) symbols are zeroed on the unpaired Nyquist lines so real
fields stay real.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError
from .fields import SpectralField, dealias, dealiased_samples
from .grid import _read_only, operator_table


@dataclass(frozen=True)
class MultiplierSpec:
    """A diagonal Fourier operator: symbol(k1, k2) plus explicit zero-mode value."""

    name: str
    symbol: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero_mode: complex | None = 0.0


def frac_laplacian(s: float) -> MultiplierSpec:
    def sym(k1, k2):
        ksq = k1 * k1 + k2 * k2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(ksq > 0, ksq ** (s / 2.0), 0.0)
        return out

    return MultiplierSpec(f"frac_laplacian:{s:g}", sym, zero_mode=0.0)


def bessel(s: float) -> MultiplierSpec:
    def sym(k1, k2):
        return (1.0 + k1 * k1 + k2 * k2) ** (s / 2.0)

    return MultiplierSpec(f"bessel:{s:g}", sym, zero_mode=1.0)


def grad_perp() -> MultiplierSpec:
    def sym(k1, k2):
        return np.stack([-1j * k2, 1j * k1])

    return MultiplierSpec("grad_perp", sym, zero_mode=0.0)


def symbol_array(grid, m: MultiplierSpec) -> np.ndarray:
    """The symbol of ``m`` on the coefficient layout of ``grid``, checked
    finite, zero mode set per policy.

    Odd (vector) symbols are zeroed on the unpaired Nyquist lines.
    """
    ops = operator_table(grid)
    sym = np.array(m.symbol(*np.broadcast_arrays(ops.k1, ops.k2)), dtype=np.complex128)
    vector_out = sym.ndim == 3

    check = sym.reshape(-1, ops.ksq.size)[:, 1:]  # every wavenumber but k = 0
    if not np.all(np.isfinite(check)):
        raise ConfigurationError(f"symbol {m.name!r} not finite at a nonzero wavenumber")
    if m.zero_mode is None:
        at_zero = sym[..., 0, 0]
        if not np.all(np.isfinite(np.atleast_1d(at_zero))):
            raise ConfigurationError(
                f"symbol {m.name!r} is singular at k=0 and no zero_mode policy was given"
            )
    else:
        sym[..., 0, 0] = m.zero_mode
    if vector_out:
        sym *= ops.nyquist
    return sym


def apply_multiplier(f: SpectralField, m: MultiplierSpec) -> SpectralField:
    """Multiply the coefficients of ``f`` by the symbol; set k=0 per policy."""
    sym = symbol_array(f.grid, m)
    if sym.ndim == 3 and f.components != 1:
        raise ConfigurationError("vector-valued symbols act on scalar fields")
    return SpectralField._adopt(f.grid, coefficients=sym * f.coefficients)


@functools.lru_cache(maxsize=4)
def _constitutive_symbol(grid, beta: float) -> np.ndarray:
    """i(-k2, k1)|k|^(beta-2), zero at k = 0 and on the Nyquist lines."""
    ops = operator_table(grid)
    with np.errstate(divide="ignore"):
        radial = np.where(ops.ksq > 0, ops.ksq ** ((beta - 2.0) / 2.0), 0.0)
    return _read_only(np.stack([-1j * ops.k2 * radial, 1j * ops.k1 * radial]) * ops.nyquist)


def velocity_symbol(grid, beta: float) -> np.ndarray:
    """The constitutive symbol of ``grid`` and ``beta`` (cached, read-only);
    beta must lie in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    return _constitutive_symbol(grid, beta)


def biot_savart_velocity(theta: SpectralField, beta: float) -> SpectralField:
    """Velocity from the constitutive law, as a divergence-free vector field."""
    symbol = velocity_symbol(theta.grid, beta)
    if theta.components != 1:
        raise ConfigurationError("constitutive law takes a scalar field")
    return SpectralField._adopt(theta.grid, coefficients=symbol * theta.coefficients)


# -- derivative helpers -------------------------------------------------------


def gradient_coefficients(c: np.ndarray, grid) -> np.ndarray:
    """The gradient's coefficients from a scalar's coefficients ``c``, which
    may hold only the layout's first columns (the result holds the same)."""
    ops = operator_table(grid)
    m = c.shape[-1]
    c = c * ops.nyquist[:, :m]
    return np.stack([1j * ops.k1 * c, 1j * ops.k2[:, :m] * c])


def gradient(f: SpectralField) -> SpectralField:
    """Spectral gradient of a scalar field."""
    if f.components != 1:
        raise ConfigurationError("vector-valued symbols act on scalar fields")
    return SpectralField._adopt(f.grid, coefficients=gradient_coefficients(f.coefficients, f.grid))


def derivative(f: SpectralField, alpha: tuple[int, int]) -> SpectralField:
    """Mixed partial derivative D^alpha of a scalar field; the unpaired
    Nyquist lines are zeroed when either order is odd."""
    a1, a2 = alpha
    ops = operator_table(f.grid)
    sym = (1j * ops.k1) ** a1 * (1j * ops.k2) ** a2
    if a1 % 2 or a2 % 2:
        sym = sym * ops.nyquist
    return SpectralField._adopt(f.grid, coefficients=sym * f.coefficients)


def divergence(u: SpectralField) -> SpectralField:
    """Spectral divergence of a vector field."""
    if u.components != 2:
        raise ConfigurationError("divergence takes a vector field")
    ops = operator_table(u.grid)
    c = u.coefficients
    out = 1j * ops.k1 * c[0] + 1j * ops.k2 * c[1]
    return SpectralField._adopt(u.grid, coefficients=out * ops.nyquist)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product formed in physical space after dealiasing both factors."""
    return dealias(SpectralField._adopt(f.grid, values=dealiased_samples(f) * dealiased_samples(g)))


def kato_ponce_commutator(f: SpectralField, g: SpectralField, s: float) -> SpectralField:
    """Commutator J^s(fg) - f J^s(g) with dealiased products."""
    if s <= 0:
        raise DomainError(f"commutator order s must be positive, got {s}")
    if f.components != 1 or g.components != 1:
        raise ConfigurationError("commutator takes scalar fields")
    js = bessel(s)
    lhs = apply_multiplier(dealiased_product(f, g), js)
    rhs = dealiased_product(f, apply_multiplier(g, js))
    return lhs - rhs
