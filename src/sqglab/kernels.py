"""The power-law kernel, its smooth cutoff, and the near/far split.

The kernel is Phi(x) = c_beta |x|^(-beta) with c_beta the classical Riesz
constant for the operator (-Laplace)^(1 - beta/2) in two dimensions,

    c_beta = Gamma(beta/2) / (2^(2-beta) * pi * Gamma(1 - beta/2)),

validated numerically by ``verify.verify_fundamental_solution``.  With the
radial cutoff ``a`` = ``CutoffA(1, 2)`` (1 on B_1, 0 outside B_2; the bump
that ``dyadic`` defines for the whole package) the velocity kernel splits into

    near = grad_perp(a Phi)            (integrable, supported in B_2)
    far  = grad grad_perp((1 - a) Phi) (smooth, decays like |x|^(-beta-2))

All radial profiles are differentiated in closed form, to the order their
sampler reads, and sampled on the wrapped displacement grid; the near
kernel is cell-averaged around its |x|^(-beta-1) singularity.  Each
sampler reads (a, a') or (a, a', a'') from one ``CutoffA.profile`` call on
its displacement array, or the values alone from ``CutoffA.a``.

Near transfer.  The near kernel's transform decays only like |k|^(beta-1),
so its transfer is taken from a q-times finer sampling.  That grid is never
formed: writing a fine index as X = q a + s, the fine transform at a coarse
mode m is the twiddled sum over the q^2 cosets s of their size-n transforms,
T(m) = (h/q)^2 sum_s exp(-2 pi i m.s/(q n)) F_s(m), and each coset is
sampled only where the kernel is supported and row-transformed only on the
rows it occupies.  Every transfer is built from real transforms of size n
and stored on the rfft2 layout of the coefficients as its Hermitian part
(T(k) + conj(T(-k)))/2, which is all a convolution of real fields keeps
(``_convolve``).

Periodization.  (1-a)Phi and its first derivative are not absolutely
integrable at infinity, so box truncation of the far-side kernels leaves
an O(1) error at the lowest wavenumbers.  The cached convolution transfer
functions therefore use a Gamma-function (Ewald) split

    Phi = Phi_short + Phi_long,
    Phi_short(x)   = Phi(x) * Q(beta/2, alpha |x|^2)        (upper tail)
    FT(Phi_long)(k) = pi c_beta / Gamma(beta/2)
                      * (|k|/2)^(beta-2) * Gamma(1-beta/2, |k|^2/(4 alpha)),

where Q is the regularized upper incomplete gamma.  Short parts decay like
exp(-alpha |x|^2) and are sampled exactly (no wrap images); long parts are
handled analytically in Fourier space.  The k = 0 mode of every transfer
is gauged to zero (the continuum integrals vanish by the divergence
theorem; compare ``far_flux_integral``).  The far contraction is taken
through the mid transfer, far * (theta u) = mid * div(theta u), which is
the structure the integration by parts produces, so no far transfer is
stored.  The flux theta u is formed from the dealiased samples of its
factors (``fields.dealiased_samples``); a caller that already holds them,
as the serfati step does, passes them to ``convolve_far``, which then
transforms only the flux, with the same bits, and returns the dealias box
of the contraction's coefficients, outside which it is zero.
``KernelSplit.near`` and ``.far``, the plain one-period samplings of the
analytic kernels, are computed on first read; no solve or convolution
reads them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaincc

from .dyadic import CutoffA
from .errors import ConfigurationError, DomainError
from .fields import SpectralField, dealiased_samples
from .grid import Grid2D, _require_integer, operator_table
from .multipliers import biot_savart_velocity

_EPERP = np.array([[0.0, -1.0], [1.0, 0.0]])  # d(x_perp)_i / dx_j
_AVG_RADIUS = 0.45  # samples this close to a kernel singularity are cell averages


def riesz_constant(beta: float) -> float:
    """Classical constant of the fundamental solution of (-Laplace)^(1-beta/2)."""
    return math.gamma(beta / 2.0) / (2.0 ** (2.0 - beta) * math.pi * math.gamma(1.0 - beta / 2.0))


# -- radial profiles ----------------------------------------------------------


def _phi_derivs(rho: np.ndarray, beta: float, c: float):
    """Phi and Phi' for Phi = c rho^(-beta), rho > 0."""
    p = c * rho ** (-beta)
    return p, -beta * p / rho


def _phi_short_values(rho: np.ndarray, beta: float, c: float, alpha: float) -> np.ndarray:
    """Phi_short = c rho^(-beta) Q(beta/2, alpha rho^2) alone; valid for rho > 0."""
    return c * rho ** (-beta) * gammaincc(beta / 2.0, alpha * rho**2)


def _phi_short_derivs(rho: np.ndarray, beta: float, c: float, alpha: float):
    """Phi_short and its first derivative; valid for rho > 0.

    ``gammaincc`` runs once per distinct radius: a grid's displacements
    repeat each radius up to eight times.
    """
    a2 = beta / 2.0
    z = alpha * rho**2
    distinct, where = np.unique(z, return_inverse=True)
    Q = gammaincc(a2, distinct)[where].reshape(z.shape)
    g = math.gamma(a2)
    # dQ/dz of the regularized upper incomplete gamma
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Qp = -np.where(z > 0, z ** (a2 - 1.0), 0.0) * np.exp(-z) / g
    p = c * rho ** (-beta)
    dz = 2.0 * alpha * rho
    return p * Q, -beta * p / rho * Q + p * Qp * dz


def phi_long_values(rho: np.ndarray, beta: float, c: float, alpha: float) -> np.ndarray:
    """Smooth complement Phi - Phi_short = c rho^(-beta) P(beta/2, alpha rho^2)."""
    rho = np.asarray(rho, dtype=np.float64)
    out = np.empty_like(rho)
    zero = rho == 0.0
    rz = rho[~zero]
    out[~zero] = c * rz ** (-beta) * gammainc(beta / 2.0, alpha * rz**2)
    out[zero] = c * alpha ** (beta / 2.0) / math.gamma(beta / 2.0 + 1.0)
    return out


def phi_long_hat(kmag: np.ndarray, beta: float, c: float, alpha: float) -> np.ndarray:
    """Exact continuum transform of Phi_long at the given wavenumbers; 0 at k=0."""
    out = np.zeros_like(kmag)
    nz = kmag > 0
    k = kmag[nz]
    pref = math.pi * c * math.gamma(1.0 - beta / 2.0) / math.gamma(beta / 2.0)
    out[nz] = pref * (k / 2.0) ** (beta - 2.0) * gammaincc(1.0 - beta / 2.0, k**2 / (4.0 * alpha))
    return out


# -- kernel samplers ----------------------------------------------------------


def _cell_average(profile, cx: np.ndarray, cy: np.ndarray, h: float) -> np.ndarray:
    """6x6 Gauss-Legendre averages of ``profile(X, Y, R)`` over the h-cells
    centred at (cx, cy), with R = |(X, Y)| kept off zero.

    The caller selects the cells from its own displacement arrays; the
    profile may carry leading axes, which the result keeps, shape (..., m).
    """
    x, w = np.polynomial.legendre.leggauss(6)
    nodes, weights = 0.5 * x * h, 0.5 * w  # on [-h/2, h/2]; weights of the unit cell
    X, Y = np.broadcast_arrays(cx[:, None, None] + nodes[None, :, None],
                               cy[:, None, None] + nodes[None, None, :])
    R = np.maximum(np.hypot(X, Y), 1e-300)
    return (np.outer(weights, weights) * profile(X, Y, R)).sum(axis=(-2, -1))


def _near_samples(x1: np.ndarray, x2: np.ndarray, rho: np.ndarray, h: float,
                  beta: float, c: float, cutoff: CutoffA) -> np.ndarray:
    """grad_perp(a Phi) at the displacements (x1, x2) with |x| = rho, the
    samples within ``_AVG_RADIUS`` of the singularity averaged over h-cells.

    The origin cell integrates to zero exactly (odd kernel), matching the
    assigned sample 0.
    """
    def n_rad_over_rho(r):
        p, p1 = _phi_derivs(r, beta, c)
        a, da = cutoff.profile(r, order=1)
        return (da * p + a * p1) / r

    out = np.zeros((2,) + rho.shape)
    body = (rho > 0) & (rho < cutoff.outer)
    g = np.zeros_like(rho)
    g[body] = n_rad_over_rho(rho[body])
    out[0] = -x2 * g
    out[1] = x1 * g

    # cell averages near the singularity (midpoint elsewhere); a = a' = 0
    # beyond outer, so the radial factor is 0 there.  It is formed first, so
    # the stacked (-Y, X) does not coexist with its temporaries
    cells = (rho <= _AVG_RADIUS) & (rho > 0)
    out[:, cells] = _cell_average(lambda X, Y, R: n_rad_over_rho(R) * np.stack([-Y, X]),
                                  x1[cells], x2[cells], h)
    return out


def _far_samples(x1: np.ndarray, x2: np.ndarray, rho: np.ndarray,
                 beta: float, c: float, cutoff: CutoffA) -> np.ndarray:
    """grad grad_perp((1-a) Phi) at the displacements: entry (i, j) is
    d_j (grad_perp G)_i = g'(r) x_j (x_perp)_i / r + g(r) E_ij with g = G'/r."""
    mask = rho > cutoff.inner
    r = rho[mask]
    p, p1 = _phi_derivs(r, beta, c)
    p2 = beta * (beta + 1.0) * p / r**2
    a, da, d2a = cutoff.profile(r)
    one_a = 1.0 - a
    Gp = -da * p + one_a * p1
    Gpp = -d2a * p - 2.0 * da * p1 + one_a * p2
    del p, p1, p2, a, one_a, da, d2a  # seven fewer n^2 arrays alive at the peak
    g = Gp / r
    gp = (Gpp * r - Gp) / r**2
    xx = (x1[mask], x2[mask])
    xp = (-xx[1], xx[0])
    out = np.zeros((2, 2) + rho.shape)
    for i in range(2):
        for j in range(2):
            out[i, j, mask] = gp * xx[j] * xp[i] / r + g * _EPERP[i, j]
    return out


def _mid_samples(x1: np.ndarray, x2: np.ndarray, rho: np.ndarray,
                 beta: float, c: float, cutoff: CutoffA, alpha: float) -> np.ndarray:
    """The short part grad_perp((1-a) Phi_short) at the displacements."""
    mask = rho > cutoff.inner
    r = rho[mask]
    p, p1 = _phi_short_derivs(r, beta, c, alpha)
    a, da = cutoff.profile(r, order=1)
    g = (-da * p + (1.0 - a) * p1) / r
    out = np.zeros((2,) + rho.shape)
    out[0, mask] = -x2[mask] * g
    out[1, mask] = x1[mask] * g
    return out


def _displacements(grid: Grid2D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x1, x2 = grid.coords_centered()
    return x1, x2, np.hypot(x1, x2)


def sample_near(grid: Grid2D, beta: float, c: float, cutoff: CutoffA) -> np.ndarray:
    """Sample grad_perp(a Phi) on wrapped displacements, cell-averaging the core."""
    return _near_samples(*_displacements(grid), grid.spacing, beta, c, cutoff)


def far_flux_integral(beta: float, c: float, radius: float) -> np.ndarray:
    """Exact integral of the far kernel over the disc of the given radius.

    By the divergence theorem each entry reduces to a boundary flux of
    grad_perp(Phi); the result is -pi beta c radius^(-beta) E with
    E = [[0,-1],[1,0]], and it tends to the zero matrix as radius grows.
    """
    return -math.pi * beta * c * radius ** (-beta) * _EPERP


# -- the split ----------------------------------------------------------------


@dataclass(frozen=True)
class KernelSplit:
    """Cached convolution transfer functions of the near/far split.

    The sampled kernels ``near`` and ``far``, which no convolution reads, are
    computed on first read and then kept.
    """

    grid: Grid2D
    beta: float
    c_beta: float
    cutoff: CutoffA
    alpha: float
    tail_bound: float = 0.0
    _near_transfer: np.ndarray = field(repr=False, default=None)
    _mid_transfer: np.ndarray = field(repr=False, default=None)

    def check_fits(self, grid: Grid2D, beta: float):
        """Refuse a run on another grid or at another beta than the split's."""
        if self.grid != grid or self.beta != beta:
            raise ConfigurationError(f"kernel split for {self.grid}, beta={self.beta:g} "
                                     f"passed to a run on {grid}, beta={beta:g}")

    @functools.cached_property
    def near(self) -> np.ndarray:
        """grad_perp(a Phi) on the wrapped displacements, shape (2, n, n)."""
        return sample_near(self.grid, self.beta, self.c_beta, self.cutoff)

    @functools.cached_property
    def far(self) -> np.ndarray:
        """grad grad_perp((1-a) Phi) on the wrapped displacements, shape (2, 2, n, n)."""
        return _far_samples(*_displacements(self.grid), self.beta, self.c_beta, self.cutoff)

    def near_l1(self) -> float:
        mag = np.sqrt(self.near[0] ** 2 + self.near[1] ** 2)
        return float(np.sum(mag) * self.grid.spacing**2)

    def far_decay_exponent(self) -> float:
        """Log-log slope of |far| over the outermost resolved dyadic shell."""
        rho = _displacements(self.grid)[2]
        mag = np.sqrt((self.far**2).sum(axis=(0, 1)))
        r_hi = self.grid.box_length / 2.0
        r_lo = r_hi / 2.0
        sel = (rho >= r_lo) & (rho < r_hi)
        lr = np.log(rho[sel])
        lm = np.log(mag[sel])
        slope = np.polyfit(lr, lm, 1)[0]
        return float(slope)

    def near_potential_transform_max(self) -> float:
        """Max over the grid of |F((-Laplace)^(1-beta/2)(a Phi))| (finite by
        the near-field estimate; reported as its measured value)."""
        rho = np.maximum(_displacements(self.grid)[2], 1e-300)
        apot = self.cutoff.a(rho) * self.c_beta * rho ** (-self.beta)
        # average the singular origin cell
        origin = np.zeros(1)
        apot[0, 0] = _cell_average(lambda X, Y, R: self.c_beta * R ** (-self.beta),
                                   origin, origin, self.grid.spacing)[0]
        ops = operator_table(self.grid)
        t = self.grid.box_length * ops.coefficients(apot)
        return float(np.abs(ops.kmag ** (2.0 - self.beta) * t).max())


def _ewald_alpha(L: float, core: float) -> float:
    # exp(-alpha d^2) <= ~1e-13 at the worst wrapped distance d = L/2 - core
    d = L / 2.0 - core
    return max(0.25, 30.0 / d**2)


def _near_transfer(grid: Grid2D, beta: float, c: float, cutoff: CutoffA, q: int) -> np.ndarray:
    """Hermitian part of h_f^2 fft2 of the near kernel sampled on the q-times
    finer grid (spacing h_f = L/(q n)), at the coarse modes m of the rfft2
    layout, without forming the fine grid.

    With fine index X = q a + s (a in [0, n)^2, coset s in [0, q)^2), the fine
    transform at m splits into the size-n transforms F_s of the cosets:

        T(m) = h_f^2 sum_s w_s(m) F_s(m mod n),   w_s(m) = exp(-2 pi i m.s / (q n)),

    one radix-q decimation-in-time step (Cooley & Tukey 1965).  m is signed,
    Nyquist at -n/2, as ``m % (q n)`` picks the fine modes.  As F_s(-m) =
    conj(F_s(m)), the Hermitian part (T(m) + conj(T(-m)))/2 is the same sum
    with (w_s(m) + conj(w_s(-m)))/2, whose two twiddles differ only on the
    Nyquist index, the one signed index that is its own mirror.  A coset is
    nonzero only on the offset rows a the kernel's support meets, so only
    those rows are row-transformed.
    """
    n, L = grid.n_side, grid.box_length
    ops = operator_table(grid)
    # the fine grid's wrapped coordinates, as Grid2D(q n, L).coords_centered()
    xf = np.arange(q * n) * (L / (q * n))
    xf = (xf + L / 2.0) % L - L / 2.0
    # the kernel vanishes for rho >= cutoff.outer: only offsets |a| <= reach
    # carry samples, so sample the fine points q a + s of those a only, once
    reach = math.ceil(cutoff.outer / grid.spacing) + 1
    a = np.unique(np.r_[0:reach + 1, -reach:0] % n)
    xs = xf[(q * a[:, None] + np.arange(q)).ravel()]  # s runs fastest: coset s is xs[s::q]
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    patch = _near_samples(x1, x2, np.hypot(x1, x2), L / (q * n), beta, c, cutoff)
    half, nyq = n // 2 + 1, n // 2
    w = np.exp(-2j * np.pi * np.outer(np.arange(q), grid.mode_indices()) / (q * n))
    w_mirror = w.copy()  # conj(w_s(-m)): w_s(m) but on the Nyquist index
    w_mirror[:, nyq] = np.conj(w[:, nyq])
    coset = np.zeros((2, len(a), n))  # coset s on its rows a; zero off the columns a
    transfer = np.zeros((2, n, half), dtype=np.complex128)
    for s1 in range(q):
        for s2 in range(q):
            coset[:, :, a] = patch[:, s1::q, s2::q]
            f = ops.coefficients(coset, rows=a)  # F_s in package normalization, L/n^2 F_s
            # w_s(m) + conj(w_s(-m)) is 2 w_s(m) off the Nyquist row and column,
            # where it is the sum of the two twiddles' outer products
            twiddle = np.outer(2.0 * w[s1], w[s2, :half])
            twiddle[nyq] = w[s1, nyq] * w[s2, :half] + w_mirror[s1, nyq] * w_mirror[s2, :half]
            twiddle[:, nyq] = w[s1] * w[s2, nyq] + w_mirror[s1] * w_mirror[s2, nyq]
            f *= twiddle
            transfer += f
    transfer *= L / (2 * q**2)  # h_f^2 = (L/n^2) (L/q^2), and the 1/2 of the Hermitian part
    transfer[:, 0, 0] = 0.0
    return transfer


def build_split(grid: Grid2D, beta: float, oversample: int = 4) -> KernelSplit:
    """Build the sampled kernel split with cached convolution transfers.

    The mid transfer (of grad_perp((1-a) Phi)) is corrected with the
    analytic long-range transform.  The near transfer is that of an
    ``oversample``-times-refined sampling of the singular kernel (its
    transform decays only like |k|^(beta-1), so plain-rate sampling aliases
    visibly), summed from the transforms of the fine grid's oversample^2
    cosets, each of size n (``_near_transfer``); the fine grid itself is
    never formed.  ``oversample=1`` transforms the plain ``near`` sampling.
    Every transfer comes from real transforms of size n.  The split holds
    the two transfers only; its ``near`` and ``far`` samples are computed
    on first read.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if grid.spacing > 1.0 / 8.0 + 1e-12:
        raise ConfigurationError(
            f"grid spacing {grid.spacing:.4g} too coarse for the cutoff transition "
            f"(need <= 1/8)"
        )
    if grid.box_length < 16.0:
        raise ConfigurationError(
            f"box length {grid.box_length:.4g} too small for the far field (need >= 16)"
        )
    _require_integer("oversample", oversample, 1)
    if oversample & (oversample - 1):
        raise ConfigurationError(f"oversample must be a power of two, got {oversample}")
    cutoff = CutoffA()  # the kernel cutoff a, 1 on B_1 and 0 outside B_2
    c = riesz_constant(beta)
    L = grid.box_length
    ops = operator_table(grid)

    near_transfer = _near_transfer(grid, beta, c, cutoff, oversample)
    x1, x2, rho = _displacements(grid)

    # h^2 fft2(v) of real samples v is L times their package coefficients
    alpha = _ewald_alpha(L, cutoff.outer)
    mid_transfer = L * ops.coefficients(_mid_samples(x1, x2, rho, beta, c, cutoff, alpha))
    a_phi_long = np.zeros_like(rho)
    core = rho < cutoff.outer  # a = 0 beyond
    a_phi_long[core] = cutoff.a(rho[core]) * phi_long_values(rho[core], beta, c, alpha)
    long_hat = phi_long_hat(ops.kmag, beta, c, alpha) - L * ops.coefficients(a_phi_long)
    # i k_perp long_hat, k_perp = (-k2, k1), in its Hermitian part: i k1 has
    # none on the Nyquist row, i k2 none on the Nyquist column
    k1, k2 = ops.k1.copy(), ops.k2.copy()
    k1[grid.n_side // 2] = 0.0
    k2[0, grid.n_side // 2] = 0.0
    mid_transfer[0] += -1j * k2 * long_hat
    mid_transfer[1] += 1j * k1 * long_hat
    mid_transfer[..., 0, 0] = 0.0

    tail = 2.0 * math.pi * c * (beta + 3.0) * (L / 2.0) ** (-beta)
    return KernelSplit(
        grid=grid, beta=beta, c_beta=c, cutoff=cutoff, alpha=alpha, tail_bound=tail,
        _near_transfer=near_transfer, _mid_transfer=mid_transfer,
    )


# -- convolutions -------------------------------------------------------------


def _convolve(transfer: np.ndarray, theta: SpectralField) -> SpectralField:
    """Periodic convolution by a transfer function h^2 fft2(kernel), stored
    on the rfft2 layout as its Hermitian part Th = (T(k) + conj(T(-k)))/2.

    Package coefficients times the transfer are the convolution's
    coefficients: for a real theta, Th * coefficients are those of
    Re(ifft2(T * fft2(theta))), so no other layout is needed.  The result
    holds coefficients only; its samples are computed when read.
    """
    return SpectralField._adopt(theta.grid, coefficients=transfer * theta.coefficients)


def convolve_near(split: KernelSplit, theta: SpectralField | np.ndarray):
    """Periodic convolution of the near kernel with a scalar field.

    ``theta`` may also be the dealias box of a scalar's coefficients
    (``OperatorTable.box``); the transfer acts mode by mode, so the result is
    then the box of the convolution's coefficients, with their bits.
    """
    if isinstance(theta, np.ndarray):
        ops = operator_table(split.grid)
        if theta.shape != ops.box_ksq.shape:
            raise ConfigurationError(f"convolve_near takes a scalar's dealias box, shape "
                                     f"{ops.box_ksq.shape}; got {theta.shape}")
        return ops.box_product(split._near_transfer, theta)
    if theta.components != 1:
        raise ConfigurationError("convolve_near takes a scalar field")
    return _convolve(split._near_transfer, theta)


def convolve_mid(split: KernelSplit, theta: SpectralField) -> SpectralField:
    """Periodic convolution of grad_perp((1-a) Phi) with a scalar field."""
    if theta.components != 1:
        raise ConfigurationError("convolve_mid takes a scalar field")
    return _convolve(split._mid_transfer, theta)


def convolve_far(split: KernelSplit, theta: SpectralField, u: SpectralField | None = None, *,
                 theta_samples: np.ndarray | None = None,
                 u_samples: np.ndarray | None = None) -> np.ndarray:
    """Far-field contraction: component i is sum_j far_ij * (theta u_j).

    Computed as mid * div(theta u), with the flux theta u dealiased.  A
    caller that already holds ``dealiased_samples`` of theta or u passes
    them, and the contraction skips those transforms; the result has the
    same bits either way.  Given ``u_samples``, u itself is not read.  The
    result is zero outside the dealias box, so it is returned as the box of
    its coefficients (``OperatorTable.box``), shape (2, 2K + 1, K + 1).
    """
    if theta.components != 1 or (u is not None and u.components != 2):
        raise ConfigurationError("convolve_far takes (scalar, vector)")
    if u is None and u_samples is None:
        raise ConfigurationError("convolve_far takes the velocity u or its dealiased samples")
    if theta_samples is None:
        theta_samples = dealiased_samples(theta)
    if u_samples is None:
        # dealias a shallow copy: the caller's u must not cache its coefficients,
        # or every velocity a caller keeps (Picard keeps each step's) keeps them;
        # the product is formed over these samples, which nothing else holds
        product = dealiased_samples(u._shallow())
        product *= theta_samples
    else:
        product = theta_samples * u_samples
    # the divergence and the mid transfer's product, each with its own
    # operations, on the dealias box only, where the mask is 1; the result
    # overwrites the flux's box
    ops = operator_table(theta.grid)
    flux = ops.box_coefficients(product)
    del product
    div = (1j * ops.box_k1) * flux[0] + (1j * ops.box_k2) * flux[1]
    return ops.box_product(split._mid_transfer, div, out=flux)


def split_consistency_error(split: KernelSplit, theta: SpectralField) -> float:
    """Relative sup gap between near+mid convolution and the multiplier route."""
    u_split = convolve_near(split, theta) + convolve_mid(split, theta)
    u_direct = biot_savart_velocity(theta, split.beta)
    return (u_split - u_direct).linf() / max(u_direct.linf(), 1e-300)


# -- the fundamental solution ------------------------------------------------


def riesz_transfer(grid: Grid2D, beta: float) -> np.ndarray:
    """Transfer function of torus convolution with Phi_beta, by the Gamma split.

    The singular short-range part is sampled in physical space with cell
    averages around the core (carrying the classical constant c_beta); the
    smooth long-range part enters through its closed-form transform.  The
    k = 0 mode is gauged to zero.  The result approximates |k|^(beta-2) to
    quadrature accuracy.
    """
    c = riesz_constant(beta)
    alpha = _ewald_alpha(grid.box_length, 0.0)
    x1, x2, rho = _displacements(grid)
    short = np.zeros_like(rho)
    nz = rho > 0
    short[nz] = _phi_short_values(rho[nz], beta, c, alpha)
    cells = rho <= _AVG_RADIUS
    short[cells] = _cell_average(lambda X, Y, R: _phi_short_values(R, beta, c, alpha),
                                 x1[cells], x2[cells], grid.spacing)
    ops = operator_table(grid)
    transfer = grid.box_length * ops.coefficients(short) + phi_long_hat(ops.kmag, beta, c, alpha)
    transfer[0, 0] = 0.0
    return transfer


def riesz_convolve(theta: SpectralField, beta: float) -> SpectralField:
    """Torus convolution Phi_beta * theta (see ``riesz_transfer``)."""
    return _convolve(riesz_transfer(theta.grid, beta), theta)
