"""Fourier-multiplier operators, read from one symbol table.

A ``MultiplierSpec`` names an operator: a preset and its order.  The presets
are ``frac_laplacian`` (order s: |k|^s, zero at k = 0), ``bessel`` (order s:
(1+|k|^2)^(s/2)), ``derivative`` (order (a1, a2): (ik1)^a1 (ik2)^a2),
``gradient`` (vector symbol i(k1, k2)) and ``constitutive`` (order beta in
(0, 1): the vector symbol i(-k2, k1)|k|^(beta-2) of the constitutive map,
u the perpendicular gradient of (-Laplace)^(-1+beta/2) theta, with the
k = 0 mode gauged to zero, so velocity comes from the mean-free part of the
scalar).

``symbol_array(grid, spec)`` builds each symbol once per (grid, operator), on
the ``rfft2`` layout of the coefficients (``OperatorTable``), and caches it
read-only; every operator here multiplies by that array.  The symbols are
those of real operators, symbol(-k) = conj(symbol(k)); odd (derivative-like)
symbols are zeroed on the unpaired Nyquist lines so real fields stay real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .fields import SpectralField, dealias, dealiased_samples
from .grid import _read_only, operator_table


@dataclass(frozen=True)
class MultiplierSpec:
    """A diagonal Fourier operator, named by its preset and order; hashable,
    so with the grid it keys the symbol table."""

    preset: str
    order: float | tuple[int, int] | None = None

    def __post_init__(self):
        # a NaN order never equals itself, so it would miss the cache on every
        # lookup and fill it with symbols no later call can find
        parts = self.order if isinstance(self.order, tuple) else (self.order,)
        if not all(a is None or math.isfinite(a) for a in parts):
            raise ConfigurationError(f"{self.preset} needs a finite order, got {self.order}")

    @property
    def name(self) -> str:
        """``preset:order``, e.g. ``bessel:2.5`` or ``derivative:1,0``."""
        if self.order is None:
            return self.preset
        order = self.order if isinstance(self.order, tuple) else (self.order,)
        return f"{self.preset}:" + ",".join(f"{a:g}" for a in order)


def frac_laplacian(s: float) -> MultiplierSpec:
    return MultiplierSpec("frac_laplacian", s)


def bessel(s: float) -> MultiplierSpec:
    return MultiplierSpec("bessel", s)


@functools.lru_cache(maxsize=16)
def symbol_array(grid, m: MultiplierSpec) -> np.ndarray:
    """The symbol of ``m`` on the coefficient layout of ``grid`` (cached, read-only)."""
    ops = operator_table(grid)
    k1, k2, ksq = ops.k1, ops.k2, ops.ksq
    if m.preset == "frac_laplacian":
        with np.errstate(divide="ignore", invalid="ignore"):
            sym = np.where(ksq > 0, ksq ** (m.order / 2.0), 0.0)
    elif m.preset == "bessel":
        sym = (1.0 + k1 * k1 + k2 * k2) ** (m.order / 2.0)
    elif m.preset == "derivative":
        a1, a2 = m.order
        sym = (1j * k1) ** a1 * (1j * k2) ** a2
        if a1 % 2 or a2 % 2:
            sym = sym * ops.nyquist
    elif m.preset == "gradient":
        sym = np.stack(np.broadcast_arrays(1j * k1, 1j * k2)) * ops.nyquist
    elif m.preset == "constitutive":
        beta = m.order
        if not 0.0 < beta < 1.0:
            raise DomainError(f"beta must lie in (0, 1), got {beta}")
        with np.errstate(divide="ignore"):
            radial = np.where(ksq > 0, ksq ** ((beta - 2.0) / 2.0), 0.0)
        sym = np.stack([-1j * k2 * radial, 1j * k1 * radial]) * ops.nyquist
    else:
        raise ConfigurationError(f"unknown multiplier preset {m.preset!r}")
    return _read_only(sym.astype(np.complex128, copy=False))


def apply_multiplier(f: SpectralField, m: MultiplierSpec) -> SpectralField:
    """Multiply the coefficients of ``f`` by the symbol of ``m``."""
    sym = symbol_array(f.grid, m)
    if sym.ndim == 3 and f.components != 1:
        raise ConfigurationError("vector-valued symbols act on scalar fields")
    return SpectralField._adopt(f.grid, coefficients=sym * f.coefficients)


def biot_savart_velocity(theta: SpectralField, beta: float) -> SpectralField:
    """Velocity from the constitutive law, as a divergence-free vector field."""
    return apply_multiplier(theta, MultiplierSpec("constitutive", beta))


def gradient(f: SpectralField) -> SpectralField:
    """Spectral gradient of a scalar field."""
    return apply_multiplier(f, MultiplierSpec("gradient"))


def derivative(f: SpectralField, alpha: tuple[int, int]) -> SpectralField:
    """Mixed partial derivative D^alpha; the unpaired Nyquist lines are zeroed
    when either order is odd."""
    return apply_multiplier(f, MultiplierSpec("derivative", tuple(alpha)))


def divergence(u: SpectralField) -> SpectralField:
    """Spectral divergence of a vector field."""
    if u.components != 2:
        raise ConfigurationError("divergence takes a vector field")
    sym = symbol_array(u.grid, MultiplierSpec("gradient"))
    c = u.coefficients
    return SpectralField._adopt(u.grid, coefficients=sym[0] * c[0] + sym[1] * c[1])


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
