"""Transport time-stepping, both constitutive laws, and the Picard scheme.

The scalar obeys d(theta)/dt = -dealias(u . grad theta), advanced with RK4
on its Fourier coefficients (the rfft2 layout of ``fields``).
The velocity comes either from the direct multiplier (``constitutive =
'direct'``) or from the kernel-split reconstruction

    u(t) = u0 + near * (theta(t) - theta0) - int_0^t far *. (theta u) dtau,

with the time integral held by :class:`FarIntegral`, the trapezoid rule at
step boundaries.  In serfati mode the advecting field is additionally Leray-
projected: the reconstruction is divergence-free in the continuum, and the
projection removes the sampling residue so transport stays conservative
(the raw reconstruction is what ``velocity_serfati`` returns).  The
reconstruction is linear, so it is formed on coefficients: the kernel
convolutions return coefficient fields, and the far accumulator, the
reconstructed velocity and its projection live in coefficients, taken to
samples only where a caller reads them.  A serfati step advects by the
projection the previous step stored (u0 is projected once, before the
first step); its dealiased samples serve the transport step and the
predictor's far flux, and the new theta's the predictor and the corrector.
A step holds only the arrays it still reads: its sums are formed in place
with the plain expressions' bits, and each temporary is dropped after its
last read.  A step adds only dealiased terms, so a stored sample after
t = 0 keeps the 2/3-rule box of its arrays and a read fills the rest in
from t = 0 (:class:`Trajectory`): under both laws the box of the state's
theta coefficients, of which a direct-law u is made on read; under serfati
also the box of u.
A transport step takes its velocity one way: ``velocity(t, theta)`` returns
the dealiased samples advecting the stage ``theta`` at time ``t``, and the
caller sets the new state's u.  The Picard sequence keeps its
reconstruction on samples and steps theta by the previous iterate's
velocity through :func:`frozen_velocity`.  An iterate is one pass over the
steps, each transport step followed by the reconstruction step of the
theta it made, so it keeps u at every step but theta only at the sample
times; the trace keeps D_n of every iterate and the fields of the last one
only (:class:`IterationTrace`).

The approximation sequence follows the iteration the existence proof
uses: theta^(n+1) solves transport by the frozen previous velocity from
smoothed initial data S_(n+2) theta0, and u^(n+1) is rebuilt from the
reconstruction with theta^(n+1) and u^n in the far integrand.  Successive
gaps are measured by D_n(t) = ||u^n - u^(n-1)||_inf + ||theta^n -
theta^(n-1)||_(C^(r-1)).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dyadic import smooth_truncate_initial
from .errors import ConfigurationError, DomainError, SimulationError
from .fields import SpectralField, _operands_into, dealiased_samples
from .grid import Grid2D, _require_integer, abs_max, operator_table
from .kernels import KernelSplit, build_split, convolve_far, convolve_near
from .multipliers import biot_savart_velocity, gradient, divergence
from .norms import WindowFamily, classical_holder_norm, uniformly_local_norm, zygmund_value

CFL_NUMBER = 0.5
PICARD_SAMPLES = 8  # times D_n is recorded at, t = 0 to t_end


@dataclass
class SolverConfig:
    beta: float
    r: float = 2.5
    dt: float = 1e-2
    t_end: float = 0.5
    constitutive: str = "direct"
    n_side: int = 256
    box_length: float = 2.0 * np.pi
    record_norms: tuple = ("linf:theta", "l2:theta")
    c_existence: float = 1.0  # simulate: 0 disables the existence-time cap; picard needs > 0
    sample_every: int = 0  # 0: pick automatically (<= ~64 stored samples)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if self.constitutive not in ("direct", "serfati"):
            raise ConfigurationError(f"unknown constitutive law {self.constitutive!r}")
        for name in ("dt", "t_end", "r", "c_existence"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.t_end < 0:
            raise ConfigurationError("need dt > 0 and t_end >= 0")
        _require_integer("sample_every", self.sample_every, 0)

    def grid(self) -> Grid2D:
        return Grid2D(self.n_side, self.box_length)


@dataclass(frozen=True)
class FarIntegral:
    """int_0^t far *. (theta u) dtau by the trapezoid rule: the sum ``acc`` and
    the integrand ``prev`` at ``t``.  Its sums are ``SpectralField`` sums, so
    they stay in the representation of the integrands."""

    acc: SpectralField
    prev: SpectralField
    t: float = 0.0

    def advance(self, dt: float, integ: SpectralField) -> "FarIntegral":
        """The integral at t + dt, acc + 0.5 dt (prev + integ).

        Formed in one fresh array w, in this order: w = prev + integ, w *=
        0.5 dt, w = acc + w, each sum in the representation ``SpectralField``
        arithmetic chooses for it; so the bits are the plain expression's.
        """
        kind, prev, new = self.prev._operands(integ)
        w = prev + new
        w *= 0.5 * dt
        kind, w, acc = _operands_into(w, kind, self.acc)
        np.add(acc, w, out=w)
        return FarIntegral(SpectralField._adopt(integ.grid, **{kind: w}), integ, self.t + dt)


@dataclass
class SimState:
    t: float
    theta: SpectralField
    u: SpectralField | None = None
    far: FarIntegral | None = None
    theta0_linf: float = 0.0


class TrajectoryFields(Sequence):
    """A trajectory's fields at its sample times, read-only.  A field (u0, or
    serfati's last u) is returned as it is; an array (theta0's coefficients,
    or the dealias box of a later sample's) is made into a fresh field by
    ``read`` on each read, which fills a box in from t = 0
    (``OperatorTable.unbox``), so no read caches anything on the trajectory."""

    def __init__(self, read=None):
        self._read = read
        self._stored = []

    def append(self, entry):
        self._stored.append(entry)

    def __len__(self) -> int:
        return len(self._stored)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        entry = self._stored[i]
        return entry if isinstance(entry, SpectralField) else self._read(entry)


@dataclass
class Trajectory:
    """Fields and norms of a ``simulate`` run at its sample times.

    A sample after t = 0 keeps the dealias box (``OperatorTable.box``) of
    the coefficients it stores, the only ones a step changes (signed zeros
    aside); a read (:class:`TrajectoryFields`) fills the rest in from t = 0.
    ``thetas[0]`` holds theta0's coefficients and ``thetas[i]`` the box of
    its state's.  Under the direct law ``us[i]`` (i >= 1) is the constitutive
    velocity of ``thetas[i]``; under serfati it holds the box of the state's
    Leray projection, filled from u0's, the last being ``final_state.u``.
    ``us[0]`` is u0 as it arrived.  ``final_state`` is the whole last state,
    with the ``far`` integral that ``velocity_serfati`` reads under a split.
    """

    times: list = dc_field(default_factory=list)
    thetas: TrajectoryFields = dc_field(default_factory=TrajectoryFields)
    us: TrajectoryFields = dc_field(default_factory=TrajectoryFields)
    norms: list = dc_field(default_factory=list)  # (t, kind, value)
    diagnostics: dict = dc_field(default_factory=dict)
    final_state: "SimState" = None

    def norm_series(self, kind: str):
        ts = [t for t, k, _ in self.norms if k == kind]
        vs = [v for _, k, v in self.norms if k == kind]
        return np.asarray(ts), np.asarray(vs)


@dataclass
class IterationTrace:
    # the last iterate only, {"n", "theta", "u"}: lists of fresh fields at the
    # sample times holding samples only, theta's (those D_n read) and u's
    final: dict = None
    decrements: dict = dc_field(default_factory=dict)  # n -> array of D_n at sample times
    sample_times: np.ndarray = None
    time_bound: float = 0.0
    norm_bound_curve: np.ndarray = None
    verdict: str = "ok"

    def contraction_ratios(self) -> dict:
        """rho_n = D_(n+1)(T)/D_n(T) at the last sample time T, where D_n(T) > 0."""
        d = self.decrements
        ns = sorted(d)
        return {a: d[b][-1] / d[a][-1] for a, b in zip(ns, ns[1:]) if d[a][-1] > 0}


# -- basic operators -----------------------------------------------------------


def advection_tendency(theta: SpectralField, u_samples: np.ndarray) -> SpectralField:
    """-dealias(u . grad theta), products formed in physical space.

    ``u_samples`` are the dealiased velocity samples,
    ``fields.dealiased_samples(u)``.  The dealiased gradient goes to samples
    through two real inverse transforms and the product comes back through
    one real forward transform.  The gradient is formed on the columns of
    the dealias box only.
    """
    ops = operator_table(theta.grid)
    m = ops.dealias_columns
    th = theta.coefficients[:, :m] * ops.dealias[:, :m]
    grad = np.empty((2,) + th.shape, dtype=np.complex128)
    np.multiply(1j * ops.k1, th, out=grad[0])
    np.multiply(1j * ops.k2[:, :m], th, out=grad[1])
    adv = ops.values(grad)  # products and sign in place: no further n^2 temporaries
    adv *= u_samples
    adv[0] += adv[1]
    np.negative(adv[0], out=adv[0])
    c = ops.coefficients(adv[0])
    c *= ops.dealias
    return SpectralField._adopt(theta.grid, coefficients=c)


def leray_project(u: SpectralField, *, overwrite: bool = False) -> SpectralField:
    """c - k (k . c) / |k|^2, the divergence-free part, on coefficients:
    formed in a copy of u's coefficients or, with ``overwrite`` (as scipy's
    ``overwrite_x``: the caller gives u up), in u's own array.  Rows go in
    blocks with two block-sized scratch arrays; each coefficient sees the
    plain expression's operations in its order, so it has its bits."""
    grid = u.grid
    c = u.coefficients
    if overwrite:
        c.flags.writeable = True
    else:
        c = c.copy()
    ops = operator_table(grid)
    k1, k2 = ops.k1, ops.k2
    rows = min(32, grid.n_side)  # per block
    scratch = np.empty((2, rows, c.shape[-1]), dtype=np.complex128)
    for lo in range(0, grid.n_side, rows):
        block = slice(lo, lo + rows)
        c0, c1 = c[0, block], c[1, block]
        div, prod = scratch[:, :len(c0)]
        np.multiply(k1[block], c0, out=div)
        np.multiply(k2, c1, out=prod)
        div += prod
        with np.errstate(invalid="ignore"):
            div /= ops.ksq[block]
        if lo == 0:
            div[0, 0] = 0.0
        np.multiply(k2, div, out=prod)
        c1 -= prod
        np.multiply(k1[block], div, out=div)
        c0 -= div
    return SpectralField._adopt(grid, coefficients=c)


def cfl_dt(u: SpectralField | float, grid: Grid2D, dt: float) -> float:
    umax = u if isinstance(u, float) else u.linf()
    if umax == 0.0:
        return dt
    return min(dt, CFL_NUMBER * grid.spacing / umax)


def _check_blowup(theta: SpectralField, last: SimState):
    # numpy's max and min propagate NaN, so a NaN or +-Inf sample leaves
    # max |theta| not finite: one abs_max decides both tests, with no n^2 mask
    peak = abs_max(theta.values)
    if not math.isfinite(peak):
        cause = "NaN/Inf in the advected scalar"
    elif last.theta0_linf > 0 and peak > 10.0 * last.theta0_linf:
        cause = (f"blow-up detected: ||theta||_inf exceeded 10x its initial value "
                 f"({peak:.3g} vs {last.theta0_linf:.3g})")
    else:
        return
    raise SimulationError(f"{cause}; last good state t={last.t:.6g}, "
                          f"||theta||_inf={last.theta.linf():.3g}")


def frozen_velocity(u_of):
    """``(t, theta) -> dealiased_samples(u(t))`` of a trajectory ``t -> u(t)``,
    keeping the last time: a transport step asks for t, t + dt/2 twice and
    t + dt, and the next step starts at that same t + dt."""
    last = {}

    def at(t: float, theta: SpectralField) -> np.ndarray:
        if t not in last:
            last.clear()
            last[t] = dealiased_samples(u_of(t))
        return last[t]

    return at


def step_transport(state: SimState, velocity, dt: float) -> SimState:
    """One RK4 step of the transport equation; the input state is left as it is.

    ``velocity(t, theta)`` returns the dealiased samples
    (``fields.dealiased_samples``) of the velocity advecting the stage
    ``theta`` at time ``t``: the constitutive velocity of the stage, samples
    the caller holds, or those :func:`frozen_velocity` makes of a trajectory.
    The new state's ``u`` is None; the caller sets it.

    The step holds only the arrays it still reads.  Each stage input c + h k
    is formed in one array (h k, then c + it); the increment is accumulated
    as the stages are made, ((k1 + 2 k2) + 2 k3) + k4, then scaled by dt/6,
    and each k is dropped once its stage input and its term exist.  These
    are the operations and the order of (dt/6) (k1 + 2 k2 + 2 k3 + k4), so
    the step has that expression's bits.
    """
    th = state.theta
    t = state.t
    grid = th.grid
    c = th.coefficients
    shape = (2, grid.n_side, grid.n_side)

    def tendency(coeffs: np.ndarray, tt: float) -> np.ndarray:
        stage = SpectralField._adopt(grid, coefficients=coeffs)
        u_samples = velocity(tt, stage)
        if not (isinstance(u_samples, np.ndarray) and u_samples.shape == shape):
            got = u_samples.shape if isinstance(u_samples, np.ndarray) else type(u_samples)
            raise ConfigurationError(
                f"velocity(t, theta) returns the dealiased velocity samples, an array of "
                f"shape {shape} such as fields.dealiased_samples(u); got {got}")
        return advection_tendency(stage, u_samples).coefficients

    def stage_input(h: float, k: np.ndarray) -> np.ndarray:
        y = np.multiply(h, k)
        return np.add(c, y, out=y)

    k1 = tendency(c, t)
    k2 = tendency(stage_input(0.5 * dt, k1), t + 0.5 * dt)
    inc = np.multiply(2, k2)
    np.add(k1, inc, out=inc)  # k1 + 2 k2
    y = stage_input(0.5 * dt, k2)
    del k1, k2
    k3 = tendency(y, t + 0.5 * dt)
    y = stage_input(dt, k3)
    inc += np.multiply(2, k3)
    del k3
    inc += tendency(y, t + dt)  # k4
    inc *= dt / 6.0
    # samples advance by the increment's samples (the one transform the blow-up
    # check needs), so a zero tendency leaves them bit for bit unchanged
    values = operator_table(grid).values(inc)
    np.add(th.values, values, out=values)
    new_theta = SpectralField._adopt(grid, values=values, coefficients=np.add(c, inc, out=inc))
    _check_blowup(new_theta, state)
    return SimState(t=t + dt, theta=new_theta, theta0_linf=state.theta0_linf)


def velocity_serfati(state: SimState, u0: SpectralField, theta0: SpectralField,
                     split: KernelSplit) -> SpectralField:
    """Reconstructed velocity u0 + near*(theta - theta0) - the far integral.

    Linear in its terms, so it is formed on coefficients: the result holds
    coefficients only, and costs no transform when its inputs hold
    coefficients.

    Formed in one array w, the near convolution's own (a fresh field this
    call made and nothing else reads), in this order: w = u0 + near, then
    w = w - acc, each sum in the representation ``SpectralField``
    arithmetic chooses for it; so the bits are those of ``u0 + near - acc``.
    """
    far = state.far
    if far is not None and abs(far.t - state.t) > 1e-9 * max(1.0, abs(state.t)):
        raise SimulationError(f"far accumulator at t={far.t} but state at t={state.t}")
    # theta - theta0 is read once, by the convolution, and dies with it
    near = convolve_near(split, SpectralField._adopt(
        u0.grid, coefficients=state.theta.coefficients - theta0.coefficients))
    kind, a, w = u0._operands(near)
    w.flags.writeable = True  # near's array, private to this call
    np.add(a, w, out=w)
    if far is not None:
        kind, w, acc = _operands_into(w, kind, far.acc)
        np.subtract(w, acc, out=w)
    return SpectralField._adopt(u0.grid, **{kind: w})


# -- existence time -------------------------------------------------------------


def existence_time(u0_linf: float, theta0_cr: float, c: float = 1.0) -> float:
    """T = ln 2 / (c M) with M = 2c (||theta0||_C^r + ||u0||_inf)."""
    if u0_linf < 0 or theta0_cr < 0:
        raise DomainError("norms must be nonnegative")
    total = u0_linf + theta0_cr
    if total == 0.0 or c <= 0.0:
        return math.inf
    m = 2.0 * c * total
    return math.log(2.0) / (c * m)


# -- norm recording -------------------------------------------------------------


# the kinds of a norm descriptor kind:target, and their values on a field f
_NORMS = {
    "linf": lambda f: f.linf(),
    "l2": lambda f: f.l2(),
    "mean": lambda f: f.mean(),
    "ctilde1": lambda f: classical_holder_norm(f, 1.0).value,
    "w1inf": lambda f: f.linf() + gradient(f).linf(),  # of theta only: u is not scalar
    "div": lambda f: divergence(f).linf(),
}
# the kinds of a descriptor kind:target:order, and their values at that order
_ORDERED_NORMS = {
    "cr": lambda f, order, rec: zygmund_value(f, order),
    "holder": lambda f, order, rec: classical_holder_norm(f, order).value,
    "hsul": lambda f, order, rec: uniformly_local_norm(f, order, rec.windows, "Hs_ul").value,
    "hsul_hom": lambda f, order, rec: uniformly_local_norm(f, order, rec.windows, "Hs_ul",
                                                          homogeneous=True).value,
}


def _parse_descriptor(desc) -> tuple:
    """``kind:target[:order]`` as (desc, kind, target, order or None)."""
    parts = desc.split(":") if isinstance(desc, str) else []
    ordered = len(parts) == 3
    if (len(parts) not in (2, 3) or parts[0] not in (_ORDERED_NORMS if ordered else _NORMS)
            or parts[1] not in ("theta", "u") or parts[:2] == ["w1inf", "u"]):
        raise ConfigurationError(
            f"norm descriptor {desc!r} is neither kind:target with a kind of {sorted(_NORMS)} "
            f"nor kind:target:order with a kind of {sorted(_ORDERED_NORMS)}, where the "
            f"target is theta or u (theta for w1inf)")
    try:
        return desc, parts[0], parts[1], float(parts[2]) if ordered else None
    except ValueError:
        raise ConfigurationError(f"norm descriptor {desc!r}: the order must be a number") from None


class NormRecorder:
    """Maps descriptor strings to norm evaluations on (theta, u).

    The descriptors are parsed on construction, so a malformed one is a
    ``ConfigurationError`` before any step runs."""

    def __init__(self, descriptors, grid: Grid2D):
        if not isinstance(descriptors, (list, tuple)):
            raise ConfigurationError(f"record_norms is a list of descriptors, got {descriptors!r}")
        self.descriptors = [_parse_descriptor(desc) for desc in descriptors]
        self.grid = grid

    @functools.cached_property
    def windows(self) -> WindowFamily:
        """The unit-scale window family, built on first use."""
        return WindowFamily.build(self.grid)

    def record(self, out: list, t: float, theta: SpectralField, u: SpectralField):
        for desc, kind, target, order in self.descriptors:
            f = theta if target == "theta" else u
            out.append((t, desc, _NORMS[kind](f) if order is None
                        else _ORDERED_NORMS[kind](f, order, self)))


# -- simulation ------------------------------------------------------------------


def _check_initial_data(grid: Grid2D, theta0: SpectralField, u0: SpectralField | None):
    """Reject a theta0 or u0 off the run's grid, or a u0 that is not a velocity."""
    if theta0.grid != grid:
        raise ConfigurationError(f"theta0 on {theta0.grid} passed to a run on {grid}")
    if u0 is not None and (u0.grid != grid or u0.components != 2):
        raise ConfigurationError(f"u0 must be a velocity on {grid}, got a "
                                 f"{u0.components}-component field on {u0.grid}")


def simulate(config: SolverConfig, theta0: SpectralField, u0: SpectralField | None = None,
             split: KernelSplit | None = None) -> Trajectory:
    """Advance the system to min(t_end, existence-time estimate).

    Records the requested norms at the sample cadence and returns the full
    trajectory (fields stored at sample times).  Passing a kernel split
    with the direct law keeps the state's far integral (``far``) up to date
    along the run, so ``velocity_serfati`` can be evaluated on the final
    state for identity-consistency measurements.
    """
    grid = config.grid()
    _check_initial_data(grid, theta0, u0)
    recorder = NormRecorder(config.record_norms, grid)
    if u0 is None:
        u0 = biot_savart_velocity(theta0, config.beta)
    # every read of u0 caches on this wrapper, so u0 is stored as it came
    u0_read = u0._shallow()
    ops = operator_table(grid)
    u0_linf = ops.sup(u0_read.coefficients)  # makes no samples of u0 to keep alive
    direct = config.constitutive == "direct"
    if direct:
        gap = (u0_read - biot_savart_velocity(theta0, config.beta)).linf()
        if gap > 1e-6 * max(u0_linf, 1e-300):
            raise ConfigurationError(
                f"u0 inconsistent with theta0 under the direct law (rel gap {gap:.2e})"
            )
    if split is not None:
        split.check_fits(grid, config.beta)
    elif not direct:
        split = build_split(grid, config.beta)

    dt = cfl_dt(u0_linf, grid, config.dt)
    t_stop = config.t_end
    if config.c_existence > 0:
        t_reach = existence_time(u0_linf, zygmund_value(theta0, config.r),
                                 config.c_existence)
        t_stop = min(t_stop, t_reach)
    n_steps = max(1, int(round(t_stop / dt)))
    dt = t_stop / n_steps
    sample_every = config.sample_every or max(1, n_steps // 64)

    c0 = theta0.coefficients  # theta is stored as theta0's, then as its box

    def theta_of(c):
        return SpectralField._adopt(grid, coefficients=c if c is c0 else ops.unbox(c, c0))
    traj = Trajectory(thetas=TrajectoryFields(theta_of))
    if direct:  # u is made of theta's box on read
        traj.us = TrajectoryFields(lambda c: biot_savart_velocity(theta_of(c), config.beta))
    else:  # the box of u's projection, filled in from u0's, made by the run's call
        traj.us = TrajectoryFields(lambda c: SpectralField._adopt(
            grid, coefficients=ops.unbox(c, leray_project(u0._shallow()).coefficients)))

    state = SimState(t=0.0, theta=theta0, u=u0, theta0_linf=theta0.linf())
    if split is not None:
        state.far = FarIntegral(SpectralField.zeros(grid, components=2),
                                convolve_far(split, theta0, u0_read))

    def store(state: SimState, theta, u):
        traj.times.append(state.t)
        recorder.record(traj.norms, state.t, state.theta, state.u)
        traj.thetas.append(theta)
        traj.us.append(u)

    store(state, c0, u0)
    l2_0 = theta0.l2()
    if not direct:
        u_adv = leray_project(u0_read)  # the first step's; later steps advect by state.u

    for k in range(n_steps):
        if direct:
            state.u = None  # every stage makes its own velocity
            new = step_transport(
                state, lambda t, th: dealiased_samples(biot_savart_velocity(th, config.beta)), dt)
            new.u = biot_savart_velocity(new.theta, config.beta)
            if split is not None:
                new.far = state.far.advance(dt, convolve_far(split, new.theta, new.u))
        else:
            # u_adv's dealiased samples serve the transport step and the
            # predictor's far flux; the new theta's, predictor and corrector.
            # Each is dropped after its last read, as are the predictor's
            # integrand (u_star reads the predicted sum alone), that sum
            # (read by u_star) and u_star (read by the corrector)
            adv = dealiased_samples(u_adv)
            new = step_transport(state, lambda t, th: adv, dt)
            theta_samples = dealiased_samples(new.theta)
            # the new-boundary integrand: predicted with u_adv, corrected with u_star
            pred = state.far.advance(dt, convolve_far(
                split, new.theta, u_adv, theta_samples=theta_samples, u_samples=adv))
            new.far = FarIntegral(pred.acc, None, pred.t)
            del adv, pred
            u_star = velocity_serfati(new, u0_read, theta0, split)
            new.far = None
            integ = convolve_far(split, new.theta, u_star, theta_samples=theta_samples)
            del u_star, theta_samples
            new.far = state.far.advance(dt, integ)
            # the reconstruction is divergence-free in the continuum; project
            # away the sampling residue so the state velocity stays solenoidal,
            # in the reconstruction's own array, and advect the next step by
            # that stored projection
            new.u = u_adv = leray_project(velocity_serfati(new, u0_read, theta0, split),
                                          overwrite=True)
        state = new
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            theta = ops.box(state.theta.coefficients)
            if direct:  # u is made of theta's box
                u = theta
            else:  # its projection's box; the last sample shares the final state's u
                u = state.u if k == n_steps - 1 else ops.box(state.u.coefficients)
            store(state, theta, u)

    traj.diagnostics = {
        "dt": dt,
        "n_steps": n_steps,
        "t_final": state.t,
        "l2_drift": abs(state.theta.l2() - l2_0) / max(l2_0, 1e-300),
        "linf_growth": state.theta.linf() / max(state.theta0_linf, 1e-300),
        "div_u_final": divergence(state.u).linf(),
    }
    traj.final_state = state
    return traj


# -- flow map --------------------------------------------------------------------


def _catmull_rom_weights(times: np.ndarray, t: float) -> tuple[list, np.ndarray]:
    """Sample indices and weights of Catmull-Rom interpolation in time at ``t``.

    The interpolant is sum_i w_i p_(idx_i): the cubic Hermite on the interval
    of ``times`` (increasing, not necessarily evenly spaced) that holds ``t``,
    with tangents (p_(i+1) - p_(i-1)) / (t_(i+1) - t_(i-1)).  Past either end
    the missing neighbour is the end sample mirrored in time.  At a sample
    time the weights are 1 on that sample and 0 elsewhere.
    """
    n = len(times)
    if n == 1:
        return [0], np.ones(1)
    k = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), n - 2)
    h = times[k + 1] - times[k]
    x = (t - times[k]) / h
    x2, x3 = x * x, x * x * x
    # slots 0..3 hold samples k-1..k+2 (clipped at the ends, where they carry 0)
    idx = [min(max(i, 0), n - 1) for i in range(k - 1, k + 3)]
    w = np.array([0.0, 2 * x3 - 3 * x2 + 1, 3 * x2 - 2 * x3, 0.0])
    for i, basis in ((k, x3 - 2 * x2 + x), (k + 1, x3 - x2)):
        # basis times h times the tangent at sample i
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        t_lo = times[lo] if lo < i else 2 * times[i] - times[hi]
        t_hi = times[hi] if hi > i else 2 * times[i] - times[lo]
        scale = basis * h / (t_hi - t_lo)
        w[hi - k + 1] += scale
        w[lo - k + 1] -= scale
    return idx, w


def _interp_velocity_time(times: np.ndarray, u_vals, t: float) -> np.ndarray:
    """Catmull-Rom interpolation in time (:func:`_catmull_rom_weights`) of a
    sequence of sample arrays; where the weights are a unit vector (at a
    sample time) it returns that stored array itself."""
    idx, w = _catmull_rom_weights(times, t)
    hot = np.flatnonzero(w)
    if len(hot) == 1 and w[hot[0]] == 1.0:
        return u_vals[idx[hot[0]]]
    out = w[0] * u_vals[idx[0]]
    for i, wi in zip(idx[1:], w[1:]):
        out += wi * u_vals[i]
    return out


def _bilinear_sample(planes, pts: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Periodic bilinear interpolation at points (m, 2) of each velocity in
    ``planes``, given as its samples of shape (2, n^2); shape (len(planes), m, 2)."""
    n = grid.n_side
    q = pts / grid.spacing
    # [lower or upper neighbour, point, axis]: the grid indices and the weights
    idx = np.empty((2,) + q.shape, dtype=int)
    lin = np.empty((2,) + q.shape)
    i0 = idx[0]
    i0[...] = np.floor(q)
    np.subtract(q, i0, out=lin[1])
    np.subtract(1, lin[1], out=lin[0])
    i0 %= n
    np.add(i0, 1, out=idx[1])
    idx[1] %= n
    # the 4 corners, (0, 0), (1, 0), (0, 1), (1, 1), as flat indices into a
    # plane, and their weights (1 - fx)(1 - fy), fx (1 - fy), (1 - fx) fy, fx fy
    flat = (idx[None, :, :, 0] * n + idx[:, None, :, 1]).reshape(4, -1)
    wgt = (lin[None, :, :, 0] * lin[:, None, :, 1]).reshape(4, -1)
    corners = np.empty((len(planes), 2) + flat.shape)
    for out, vals in zip(corners, planes):
        vals.take(flat, axis=1, out=out)
    corners *= wgt
    return corners.sum(axis=2).transpose(0, 2, 1)


def flow_map(u_trajectory, particles, dt: float, t_end: float | None = None):
    """Integrate particle paths dX/dt = u(t, X) with RK4 from t = 0 to
    ``t_end``, at most the last sample time (its default).

    ``u_trajectory`` is a ``Trajectory`` (its ``us``) or a pair (times,
    fields); ``particles`` is a finite (m, 2) array.
    Velocity is bilinear in space and Catmull-Rom (cubic) in time; each
    evaluation samples the (at most 4) time nodes at the particles and then
    combines them in time, so it costs O(particles), not O(n^2).  The time
    weights are computed once per distinct time: a step's two midpoint
    stages share them, and its end time is the next step's start.  A node's
    velocity samples are made when a step first needs them, through a
    shallow read that caches nothing on the stored or caller's field, and
    dropped once the window has passed the node, so about 5 are held.
    Returns an array of positions (n_times, n_particles, 2) including t=0.
    """
    times, fields = ((u_trajectory.times, u_trajectory.us)
                     if isinstance(u_trajectory, Trajectory) else u_trajectory)
    times = np.asarray(times, dtype=np.float64)
    grid = fields[0].grid
    t_end = times[-1] if t_end is None else t_end
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_end) and t_end >= 0):
        raise ConfigurationError(f"flow_map needs finite dt > 0 and t_end >= 0, got {dt}, {t_end}")
    if t_end > times[-1] + 1e-12 * max(1.0, abs(times[-1])):
        raise ConfigurationError(
            f"flow_map t_end={t_end} lies past the trajectory's last time {times[-1]}")
    try:
        pts = np.array(particles, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"flow_map particles are not an array of numbers: {exc}") from None
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise ConfigurationError(f"flow_map particles must be a finite (m, 2) array, got shape "
                                 f"{pts.shape} with {np.count_nonzero(~np.isfinite(pts))} not finite")

    L = grid.box_length
    out = [pts.copy()]
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps
    t = 0.0

    kept = {}  # node index -> its velocity samples as (2, n^2) planes

    def nodes(tq):
        # the clamp absorbs the ulp by which accumulated steps overshoot t_end
        idx, w = _catmull_rom_weights(times, min(tq, times[-1]))
        for i in [i for i in kept if i < idx[0]]:  # passed: later times read later nodes
            del kept[i]
        for i in idx:
            if i not in kept:
                kept[i] = fields[i]._shallow().values.reshape(2, -1)
        return [kept[i] for i in idx], w[None]

    def vel(node, p):
        at, w = node
        samples = _bilinear_sample(at, p % L, grid)
        # the product np.tensordot(w, samples, axes=1) forms
        return np.dot(w, samples.reshape(len(at), -1)).reshape(p.shape)

    start = nodes(t)
    for _ in range(n_steps):
        mid, end = nodes(t + dt / 2), nodes(t + dt)
        k1 = vel(start, pts)
        k2 = vel(mid, pts + dt / 2 * k1)
        k3 = vel(mid, pts + dt / 2 * k2)
        k4 = vel(end, pts + dt * k3)
        pts = pts + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(pts)):
            raise SimulationError("particle position became NaN/Inf")
        t += dt  # the time ``end`` was computed at
        start = end
        out.append(pts.copy())
    return np.stack(out)


def polygon_area(points: np.ndarray) -> float:
    """Shoelace area of a polygon given as (m, 2) vertices."""
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# -- Picard iteration ------------------------------------------------------------


def _trace_entry(n: int, grid: Grid2D, thetas, us) -> dict:
    """Iterate n's record: fresh fields holding samples only, theta's that D_n
    was measured from and u's (a transported iterate's u holds its samples)."""
    return {"n": n,
            "theta": [SpectralField._adopt(grid, values=v) for v in thetas],
            "u": [SpectralField._adopt(grid, values=u.values) for u in us]}


def picard_iterate(config: SolverConfig, theta0: SpectralField,
                   u0: SpectralField | None = None, n_max: int = 8,
                   split: KernelSplit | None = None) -> IterationTrace:
    """Build the approximating sequence and record the decrements D_n.

    theta^1 = S_2 theta0 and u^1 = S_2 u0, both frozen in time; for n >= 1,
    theta^(n+1) solves transport by the frozen u^n from initial data
    S_(n+2) theta0, and u^(n+1) comes from the reconstruction recursion with
    the far integrand theta^(n+1) u^n.  The trace keeps D_n for every n and
    the fields of iterate ``n_max`` only (``IterationTrace.final``).
    """
    _require_integer("n_max", n_max, 2)
    if config.c_existence <= 0:
        raise ConfigurationError(
            f"picard_iterate needs c_existence > 0 for its time bound, got {config.c_existence}")
    grid = config.grid()
    _check_initial_data(grid, theta0, u0)
    if u0 is None:
        u0 = biot_savart_velocity(theta0, config.beta)
    u0 = u0._shallow()  # what the reads compute caches here, not on the caller's u0
    if split is None:
        split = build_split(grid, config.beta)
    split.check_fits(grid, config.beta)

    theta0_cr = zygmund_value(theta0, config.r)
    u0_linf = u0.linf()
    t_bound = existence_time(u0_linf, theta0_cr, config.c_existence)
    t_end = config.t_end
    dt = cfl_dt(u0, grid, config.dt)
    n_steps = max(2, int(round(t_end / dt)))
    dt = t_end / n_steps
    step_times = np.arange(n_steps + 1) * dt
    sample_idx = np.unique(np.linspace(0, n_steps, PICARD_SAMPLES).round().astype(int))
    sample_times = step_times[sample_idx]

    def frozen_interp(fields):
        vals = [f.values for f in fields]
        return frozen_velocity(lambda t: SpectralField._adopt(
            grid, values=_interp_velocity_time(step_times, vals, min(t, t_end))))

    def far_samples(theta, u, u_samples=None):  # as samples only, so the sums are on samples
        return SpectralField._adopt(
            grid, values=convolve_far(split, theta, u, u_samples=u_samples).values)

    keep = set(sample_idx.tolist())
    trace = IterationTrace(sample_times=sample_times, time_bound=t_bound)
    c = config.c_existence
    denom = 1.0 - c * sample_times * (u0_linf + theta0_cr)
    with np.errstate(divide="ignore"):
        curve = np.where(denom > 0, c * (u0_linf + theta0_cr) / denom, np.inf)
    trace.norm_bound_curve = curve

    # n = 1: time-frozen smoothed data; theta is kept as its samples at the
    # sample times, u at every step
    th_prev = [smooth_truncate_initial(theta0, 2).values] * len(sample_idx)
    u_prev = [smooth_truncate_initial(u0, 2)] * (n_steps + 1)

    increase_streak = 0
    prev_dn_final = None
    for n in range(1, n_max):
        u_interp = frozen_interp(u_prev)
        th_init = smooth_truncate_initial(theta0, n + 2)
        u_new = [smooth_truncate_initial(u0, n + 2)]
        th_new = [th_init.values]  # theta at the sample times, which start at step 0
        state = SimState(t=0.0, theta=th_init, theta0_linf=theta0.linf())
        far = FarIntegral(SpectralField.zeros(grid, components=2), far_samples(th_init, u_prev[0]))
        for k in range(1, n_steps + 1):
            # transport step k, then reconstruction step k from its theta
            state = step_transport(state, u_interp, dt)
            # stage 4 asked the frozen velocity for u at state.t; where that is
            # step time k, the interpolant is u_prev[k]'s own samples and it
            # holds their dealiased samples, which the far flux takes.  A
            # u_prev[k] holding coefficients (the first iterate's) is dealiased
            # from them, other bits, so its flux makes its own
            at_node = min(state.t, t_end) == step_times[k] and u_prev[k]._coeffs is None
            shared = u_interp(state.t, state.theta) if at_node else None
            far = far.advance(dt, far_samples(state.theta, u_prev[k], shared))
            near = convolve_near(split, state.theta - th_init)
            # u0 + near - acc, in one array
            w = np.add(u_new[0].values, near.values)
            np.subtract(w, far.acc.values, out=w)
            u_new.append(SpectralField._adopt(grid, values=w))
            if k in keep:
                th_new.append(state.theta.values)

        dn = np.empty(len(sample_idx))
        for m, idx in enumerate(sample_idx):
            v = (u_new[idx] - u_prev[idx]).linf()
            dth = SpectralField._adopt(grid, values=th_new[m] - th_prev[m])
            eta = zygmund_value(dth, config.r - 1.0)
            dn[m] = v + eta
        trace.decrements[n + 1] = dn

        if prev_dn_final is not None and dn[-1] >= prev_dn_final:
            increase_streak += 1
            if increase_streak >= 3:
                trace.verdict = "warning"
        else:
            increase_streak = 0
        prev_dn_final = dn[-1]

        th_prev, u_prev = th_new, u_new

    trace.final = _trace_entry(n_max, grid, th_prev, [u_prev[i] for i in sample_idx])
    return trace
