import dataclasses
import inspect
import re
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from sqglab import kernels, multipliers, solver
from sqglab.dyadic import smooth_truncate_initial
from sqglab.errors import ConfigurationError, DomainError, SimulationError
from sqglab.fields import SpectralField, dealias, dealiased_samples
from sqglab.grid import Grid2D, operator_table
from sqglab.kernels import build_split, convolve_far, convolve_near
from sqglab.multipliers import biot_savart_velocity, divergence, gradient
from sqglab.norms import zygmund_norm
from sqglab.solver import (FarIntegral, SimState, SolverConfig, _interp_velocity_time,
                           existence_time, flow_map, frozen_velocity, leray_project,
                           picard_iterate, polygon_area, simulate, step_transport,
                           velocity_serfati)
from sqglab.verify import gaussian_dipole

from conftest import random_real_field


def dipole(grid, separation=0.6, amplitude=1.0):
    x1, x2 = grid.coords_centered()
    return SpectralField.from_values(
        grid, amplitude * (np.exp(-((x1 - separation) ** 2 + x2**2) / 0.245)
                           - np.exp(-((x1 + separation) ** 2 + (x2 - 0.1) ** 2) / 0.245)))


def single_shell_state(grid, m=4, amplitude=1.0):
    """Scalar supported on one |k| shell: an exact discrete steady state."""
    X, Y = grid.coords()
    kf = grid.k_fundamental
    vals = amplitude * (np.cos(m * kf * X) + np.cos(m * kf * Y))
    return SpectralField.from_values(grid, vals)


class TestExistenceTime:
    def test_unit_case(self):
        assert existence_time(1.0, 1.0, 1.0) == pytest.approx(np.log(2) / 4.0, rel=1e-12)

    def test_doubling_halves(self):
        t1 = existence_time(1.0, 1.0, 1.0)
        t2 = existence_time(2.0, 2.0, 1.0)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_zero_data_sentinel(self):
        assert existence_time(0.0, 0.0, 1.0) == np.inf

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            existence_time(-1.0, 0.0, 1.0)


class TestSolverConfig:
    @pytest.mark.parametrize("name", ["dt", "t_end", "r", "c_existence"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ConfigurationError):
            SolverConfig(beta=0.5, **{name: bad})

    @pytest.mark.parametrize("bad", [-1, -2, 2.5, 3.0, "3", True, None])
    def test_sample_every_must_be_a_nonnegative_integer(self, bad):
        with pytest.raises(ConfigurationError, match=f"sample_every.*{bad!r}"):
            SolverConfig(beta=0.5, sample_every=bad)

    @pytest.mark.parametrize("good", [0, 1, 7, np.int64(3)])
    def test_sample_every_integers_accepted(self, good):
        assert SolverConfig(beta=0.5, sample_every=good).sample_every == good


def values_space_rk4_step(theta, beta, dt):
    """Reference: RK4 with stages formed from samples, complex transforms only."""
    grid = theta.grid

    def tendency(vals):
        th = SpectralField.from_values(grid, vals)
        gt = dealias(gradient(th))
        ud = dealias(biot_savart_velocity(th, beta))
        adv = ud.values[0] * gt.values[0] + ud.values[1] * gt.values[1]
        return dealias(SpectralField.from_values(grid, -adv)).values

    v = theta.values
    k1 = tendency(v)
    k2 = tendency(v + 0.5 * dt * k1)
    k3 = tendency(v + 0.5 * dt * k2)
    k4 = tendency(v + dt * k3)
    return SpectralField.from_values(grid, v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def direct_law(beta):
    """The direct law as a velocity: the constitutive velocity of each stage."""
    return lambda t, theta: dealiased_samples(biot_savart_velocity(theta, beta))


def direct_step(state, dt, beta=0.5):
    """A direct-law step as ``simulate`` takes it: the new velocity from the new theta."""
    new = step_transport(state, direct_law(beta), dt)
    new.u = biot_savart_velocity(new.theta, beta)
    return new


def held(u):
    """A velocity fixed over the step: its dealiased samples, taken once."""
    samples = dealiased_samples(u)
    return lambda t, theta: samples


def reference_rk4_step(theta, velocity, t, dt):
    """RK4 on theta's coefficients, written out: the stage velocities asked of
    ``velocity(t, stage)``, samples advanced by the increment's samples.
    Returns the new samples and coefficients."""
    grid = theta.grid
    c = theta.coefficients

    def rate(coeffs, tt):
        stage = SpectralField.from_coefficients(grid, coeffs)
        return solver.advection_tendency(stage, velocity(tt, stage)).coefficients

    k1 = rate(c, t)
    k2 = rate(c + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rate(c + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rate(c + dt * k3, t + dt)
    inc = (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return theta.values + operator_table(grid).values(inc), c + inc


@settings(max_examples=25, deadline=None)
@given(n=strategies.sampled_from([16, 32]), dt=strategies.floats(1e-3, 0.05),
       t0=strategies.floats(0.0, 1.0), seed=strategies.integers(0, 2**32 - 1),
       mode=strategies.sampled_from(["law", "trajectory", "held"]))
def test_every_velocity_steps_with_the_bits_of_the_written_out_rk4(n, dt, t0, seed, mode):
    # the protocol's three callers, stepped 3 times; each reference stage
    # computes its velocity afresh, with no memo and no held samples
    grid = Grid2D(n)
    theta = dealias(random_real_field(grid, seed=seed))
    u = dealias(random_real_field(grid, seed=seed + 1, components=2))
    velocity, expected = {
        "law": (direct_law(0.5), direct_law(0.5)),
        "trajectory": (frozen_velocity(lambda t: (1.0 + t) * u),
                       lambda t, th: dealiased_samples((1.0 + t) * u)),
        "held": (held(u), lambda t, th: dealiased_samples(u)),
    }[mode]
    st = SimState(t=t0, theta=theta, theta0_linf=theta.linf())
    for _ in range(3):
        values, coeffs = reference_rk4_step(st.theta, expected, st.t, dt)
        st = step_transport(st, velocity, dt)
        assert st.theta.values.tobytes() == values.tobytes()
        assert st.theta.coefficients.tobytes() == coeffs.tobytes()


@settings(max_examples=15, deadline=None)
@given(n=strategies.sampled_from([16, 32]), seed=strategies.integers(0, 2**32 - 1),
       mode=strategies.sampled_from(["law", "trajectory", "held"]))
def test_every_velocity_leaves_theta_outside_the_dealias_box(n, seed, mode):
    # a stored sample keeps only the dealias box of its coefficients and takes
    # the rest from t = 0 (simulate), so a step must add zero outside the box,
    # here to a theta that is not band-limited
    grid = Grid2D(n)
    theta = 0.1 * random_real_field(grid, seed=seed)
    u = dealias(random_real_field(grid, seed=seed + 1, components=2))
    velocity = {"law": direct_law(0.5), "trajectory": frozen_velocity(lambda t: (1.0 + t) * u),
                "held": held(u)}[mode]
    outside = ~operator_table(grid).dealias
    st = SimState(t=0.0, theta=theta, theta0_linf=theta.linf())
    for _ in range(3):
        st = step_transport(st, velocity, 1e-3)
        assert np.array_equal(st.theta.coefficients[outside], theta.coefficients[outside])


class TestStepTransport:
    def test_matches_values_space_reference(self, grid64):
        theta0 = dipole(grid64)
        st = SimState(t=0, theta=theta0, u=biot_savart_velocity(theta0, 0.5),
                      theta0_linf=theta0.linf())
        ref = theta0
        for _ in range(10):
            st = direct_step(st, 0.02)
            ref = values_space_rk4_step(ref, 0.5, 0.02)
        assert (st.theta - ref).linf() <= 1e-13 * theta0.linf()
        assert (st.u - biot_savart_velocity(ref, 0.5)).linf() <= 1e-13 * st.u.linf()

    def test_transform_budget(self, grid64, count_planes):
        # one direct step: 5 transform planes per RK4 stage, 1 for the blow-up check
        theta0 = dipole(grid64)
        st = SimState(t=0, theta=theta0, u=biot_savart_velocity(theta0, 0.5),
                      theta0_linf=theta0.linf())
        st = direct_step(st, 0.02)  # a running state holds both representations
        planes = count_planes()
        direct_step(st, 0.02)
        assert 0 < sum(planes) <= 21

    def test_direct_step_memory_budget(self, traced_peak):
        # one direct step on a running state at n = 256 keeps its coefficient
        # arrays at n x (n/2 + 1): 9.3 MiB in the full n x n layout
        grid = Grid2D(256)
        theta0 = dipole(grid)
        st = SimState(t=0, theta=theta0, u=biot_savart_velocity(theta0, 0.5),
                      theta0_linf=theta0.linf())
        st = direct_step(st, 0.01)
        _, peak, _ = traced_peak(lambda: direct_step(st, 0.01))
        assert peak <= 7 * 2**20

    def test_serfati_mode_transform_budget(self, grid64, count_planes):
        # a velocity fixed over the step goes to samples once (2 planes); each
        # stage then costs 3 planes (grad theta and the product), plus 1 for
        # the blow-up check
        theta0 = dipole(grid64)
        u = leray_project(biot_savart_velocity(theta0, 0.5))
        st = SimState(t=0, theta=theta0, u=u, theta0_linf=theta0.linf())
        st = step_transport(st, held(u), 0.02)
        planes = count_planes()
        step_transport(st, held(u), 0.02)
        assert 0 < sum(planes) <= 15

    def test_picard_mode_transform_budget(self, grid64, count_planes):
        # on a running state, stage 1 reuses the velocity samples of the
        # previous step's stage 4: 2 new times x (2 forward + 2 inverse), then
        # 3 planes per stage and 1 for the blow-up check
        theta0 = dipole(grid64)
        u = biot_savart_velocity(theta0, 0.5).values

        def traj(scale):
            return lambda t: SpectralField.from_values(grid64, (1.0 + scale * t) * u)

        u_of = frozen_velocity(traj(1.0))
        st = SimState(t=0.0, theta=theta0, theta0_linf=theta0.linf())
        st = step_transport(st, u_of, 0.02)
        planes = count_planes()
        reused = step_transport(st, u_of, 0.02)
        assert 0 < sum(planes) <= 21

        # two wrappers stepping the same state share nothing: each gives the
        # bits of a new wrapper stepping a new state
        def fresh_step(scale):
            fresh = SimState(t=st.t, theta=st.theta, theta0_linf=st.theta0_linf)
            return step_transport(fresh, frozen_velocity(traj(scale)), 0.02).theta.values

        other = step_transport(st, frozen_velocity(traj(-3.0)), 0.02)
        np.testing.assert_array_equal(reused.theta.values, fresh_step(1.0))
        np.testing.assert_array_equal(other.theta.values, fresh_step(-3.0))
        assert not np.array_equal(other.theta.values, reused.theta.values)

    def test_fixed_velocity_samples_handed_to_the_next_step(self, grid64, count_planes):
        # a caller that holds a fixed velocity's samples hands them to every
        # step by it: 4 stages of 3 planes and the blow-up check, with the bits
        # of a step that takes the field to samples itself
        theta0 = dipole(grid64)
        u = leray_project(biot_savart_velocity(theta0, 0.5))
        samples = dealiased_samples(u)
        st = step_transport(SimState(t=0, theta=theta0, u=u, theta0_linf=theta0.linf()),
                            held(u), 0.02)
        planes = count_planes()
        reused = step_transport(st, lambda t, theta: samples, 0.02)
        assert sum(planes) == 13
        assert reused.u is None  # the new state's velocity is the caller's to set
        np.testing.assert_array_equal(reused.theta.values,
                                      step_transport(st, held(u), 0.02).theta.values)

    @pytest.mark.parametrize("mode", ["direct", "fixed", "trajectory"])
    def test_input_state_left_as_it_is(self, grid64, mode):
        # from a running state, so a step that kept anything on it would show
        theta0 = dipole(grid64)
        u = biot_savart_velocity(theta0, 0.5)
        velocity = {"direct": direct_law(0.5), "fixed": held(u),
                    "trajectory": frozen_velocity(lambda t: (1.0 + t) * u)}[mode]
        st = SimState(t=0.0, theta=theta0, u=u, theta0_linf=theta0.linf())
        st = step_transport(st, velocity, 0.02)
        before = dict(vars(st))
        theta_bits = st.theta.values.tobytes()
        step_transport(st, velocity, 0.02)
        assert vars(st).keys() == before.keys()
        assert all(vars(st)[name] is obj for name, obj in before.items())
        assert st.theta.values.tobytes() == theta_bits

    PROTOCOL = r"velocity\(t, theta\) returns the dealiased velocity samples"

    def test_callable_returning_a_bare_field_rejected(self, grid64):
        theta0 = dipole(grid64)
        u = biot_savart_velocity(theta0, 0.5)
        st = SimState(t=0.0, theta=theta0, theta0_linf=theta0.linf())
        with pytest.raises(ConfigurationError, match=self.PROTOCOL):
            step_transport(st, lambda t, theta: u, 0.02)

    @pytest.mark.parametrize("returned", ["pair", "scalar samples"])
    def test_callable_returning_other_samples_rejected(self, grid64, returned):
        # the old (u, samples) pair, and scalar samples, which the (2, n, n)
        # product would broadcast against without a word
        theta0 = dipole(grid64)
        u = biot_savart_velocity(theta0, 0.5)
        out = {"pair": (u, dealiased_samples(u)),
               "scalar samples": dealiased_samples(theta0)}[returned]
        st = SimState(t=0.0, theta=theta0, theta0_linf=theta0.linf())
        with pytest.raises(ConfigurationError, match=self.PROTOCOL):
            step_transport(st, lambda t, theta: out, 0.02)

    def test_frozen_trajectory_evaluated_once_per_time(self, grid64):
        # stages 2 and 3 share t + dt/2; t + dt is asked by stage 4 alone
        theta0 = dipole(grid64)
        u = biot_savart_velocity(theta0, 0.5)
        calls = []

        def u_of(t):
            calls.append(t)
            return u

        st = SimState(t=0.1, theta=theta0, u=u, theta0_linf=theta0.linf())
        fixed = step_transport(st, held(u), 0.02)
        frozen = step_transport(st, frozen_velocity(u_of), 0.02)
        assert sorted(calls) == [0.1, 0.1 + 0.01, 0.1 + 0.02]
        assert frozen.u is None
        np.testing.assert_array_equal(frozen.theta.values, fixed.theta.values)

    def test_zero_velocity(self, grid64):
        th = random_real_field(grid64, seed=1)
        u0 = SpectralField.zeros(grid64, components=2)
        st = SimState(t=0, theta=th, u=u0, theta0_linf=th.linf())
        out = step_transport(st, held(u0), 0.05)
        assert (out.theta - th).linf() == 0.0
        assert out.t == pytest.approx(0.05)

    def test_uniform_translation(self, grid64):
        X, Y = grid64.coords()
        th = SpectralField.from_values(grid64, np.cos(X) * np.sin(2 * Y))
        c = (0.7, -0.3)
        uc = SpectralField.from_values(
            grid64, np.stack([np.full((64, 64), c[0]), np.full((64, 64), c[1])]))
        st = SimState(t=0, theta=th, u=uc, theta0_linf=th.linf())
        for _ in range(50):
            st = step_transport(st, held(uc), 0.01)
        t = st.t
        exact = np.cos(X - c[0] * t) * np.sin(2 * (Y - c[1] * t))
        assert np.abs(st.theta.values - exact).max() <= 1e-10

    def test_blowup_aborts(self, grid64):
        th = random_real_field(grid64, seed=2)
        big = SpectralField.from_values(grid64, 100.0 * th.values)
        st = SimState(t=0.25, theta=big, u=SpectralField.zeros(grid64, 2), theta0_linf=th.linf())
        with pytest.raises(SimulationError, match="blow-up detected") as err:
            step_transport(st, held(SpectralField.zeros(grid64, 2)), 0.01)
        # the last good state is the step's input: its time and sup norm
        assert f"last good state t=0.25, ||theta||_inf={big.linf():.3g}" in str(err.value)

    @pytest.mark.parametrize("theta0_linf", [0.0, 1e3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_single_non_finite_sample_aborts(self, grid64, bad, theta0_linf):
        vals = random_real_field(grid64, seed=2).values.copy()
        vals[17, 5] = bad
        th = SpectralField.from_values(grid64, vals)
        last = SimState(t=0.375, theta=random_real_field(grid64, seed=3),
                        u=SpectralField.zeros(grid64, 2), theta0_linf=theta0_linf)
        with pytest.raises(SimulationError, match="NaN/Inf in the advected scalar") as err:
            solver._check_blowup(th, last)
        assert f"last good state t=0.375, ||theta||_inf={last.theta.linf():.3g}" in str(err.value)

    def test_blowup_message_reports_the_peak(self, grid64):
        th = random_real_field(grid64, seed=4)
        peak = float(np.abs(th.values).max())

        def last(theta0_linf):
            return SimState(t=1.5, theta=th, u=SpectralField.zeros(grid64, 2),
                            theta0_linf=theta0_linf)

        solver._check_blowup(th, last(0.101 * peak))  # within the bound: no error
        with pytest.raises(SimulationError) as err:
            solver._check_blowup(th, last(0.099 * peak))
        assert f"({peak:.3g} vs {0.099 * peak:.3g})" in str(err.value)
        assert "last good state t=1.5" in str(err.value)

    def test_blowup_check_memory_budget(self, traced_peak):
        # the check reads max |theta| from the samples, with no n^2 mask or |theta|
        # array: at n = 256 those were 64 KiB and 512 KiB
        th = random_real_field(Grid2D(256), seed=5)
        last = SimState(t=0.0, theta=th, u=None, theta0_linf=1e3)
        solver._check_blowup(th, last)
        _, peak, _ = traced_peak(lambda: solver._check_blowup(th, last))
        assert peak <= 4096

    def test_velocity_callable_is_the_one_form(self, grid64):
        # no beta switch, no None (law) mode and no fixed-field mode
        assert list(inspect.signature(step_transport).parameters) == ["state", "velocity", "dt"]
        th = random_real_field(grid64, seed=3)
        st = SimState(t=0, theta=th, theta0_linf=th.linf())
        for velocity in (None, SpectralField.zeros(grid64, 2)):
            with pytest.raises(TypeError, match="not callable"):
                step_transport(st, velocity, 0.01)


class TestNormRecorder:
    def test_windows_built_once_on_first_use(self, grid64, monkeypatch):
        built = []
        build = solver.WindowFamily.build
        monkeypatch.setattr(solver.WindowFamily, "build",
                            lambda grid: built.append(grid) or build(grid))
        rec = solver.NormRecorder(("linf:theta", "hsul:theta:2", "hsul_hom:theta:2"), grid64)
        theta = random_real_field(grid64, seed=8)
        assert built == []
        out = []
        rec.record(out, 0.0, theta, None)
        rec.record(out, 1.0, theta, None)
        assert built == [grid64] and rec.windows.scale == 1.0
        assert out[1][2] == out[4][2] > 0.0

    @pytest.mark.parametrize("record, named", [
        (("linf:thetaa",), "linf:thetaa"),  # an unknown target used to read u
        (("lnf:theta",), "lnf:theta"),
        (("cr:theta",), "cr:theta"),  # a missing order used to end in an IndexError
        (("cr:theta:x",), "cr:theta:x"),
        ("linf:theta", "linf:theta"),  # a string, not a list of descriptors
    ])
    def test_malformed_descriptor_rejected_before_any_step(self, grid64, monkeypatch,
                                                           record, named):
        monkeypatch.setattr(solver, "step_transport", None)  # raising on any step
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.02, n_side=64, c_existence=0,
                           record_norms=record)
        with pytest.raises(ConfigurationError, match=re.escape(repr(named))):
            simulate(cfg, random_real_field(grid64, seed=8))


class TestSimulate:
    def test_zero_data(self, grid64):
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.1, n_side=64, c_existence=0)
        traj = simulate(cfg, SpectralField.zeros(grid64))
        assert traj.thetas[-1].linf() == 0.0
        assert traj.final_state.t == pytest.approx(0.1)

    def test_single_mode_stationary(self, grid64):
        X, _ = grid64.coords()
        theta0 = SpectralField.from_values(grid64, np.cos(X))
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.3, n_side=64, c_existence=0)
        traj = simulate(cfg, theta0)
        assert (traj.thetas[-1] - theta0).linf() <= 1e-13

    def test_single_shell_stationary(self, grid64):
        theta0 = single_shell_state(grid64, m=3)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.3, n_side=64, c_existence=0)
        traj = simulate(cfg, theta0)
        assert (traj.thetas[-1] - theta0).linf() / theta0.linf() <= 1e-12

    def test_inconsistent_u0_rejected(self, grid64):
        theta0 = random_real_field(grid64, seed=4)
        bad = SpectralField.from_values(
            grid64, biot_savart_velocity(theta0, 0.5).values + 0.1)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.1, n_side=64)
        with pytest.raises(ConfigurationError):
            simulate(cfg, theta0, u0=bad)

    def test_divergence_free_and_conservation(self):
        theta0 = gaussian_dipole(Grid2D(128), 0.5, 0.18)
        cfg = SolverConfig(beta=0.5, dt=2e-3, t_end=0.2, n_side=128, c_existence=0,
                           record_norms=("linf:theta", "l2:theta", "div:u"))
        traj = simulate(cfg, theta0)
        assert traj.diagnostics["div_u_final"] <= 1e-8
        assert traj.diagnostics["l2_drift"] <= 1e-4 * 0.2 * 10
        assert traj.diagnostics["linf_growth"] <= 1.0 + 1e-3 * 0.2 * 10

    def test_theta0_off_the_config_grid_rejected(self, grid64):
        # this run used to take n = 64, L = 2 pi from theta0 and run 4 steps
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.04, n_side=256, box_length=16.0,
                           c_existence=0)
        message = re.escape(f"theta0 on {grid64} passed to a run on {Grid2D(256, 16.0)}")
        with pytest.raises(ConfigurationError, match=message):
            simulate(cfg, dipole(grid64))

    def test_existence_cap_limits_run(self, grid64):
        theta0 = single_shell_state(grid64, m=3)
        cfg = SolverConfig(beta=0.5, dt=0.005, t_end=50.0, n_side=64, c_existence=1.0)
        traj = simulate(cfg, theta0)
        assert traj.final_state.t < 1.0  # capped by the existence-time estimate


@pytest.fixture(scope="module")
def split128():
    return build_split(Grid2D(128, 16.0), 0.5, oversample=2)


def dipole16(grid):
    return gaussian_dipole(grid, 1.5, 1.28)


def split_config(mode, steps, dt=0.0125):
    return SolverConfig(beta=0.5, dt=dt, t_end=steps * dt, constitutive=mode, n_side=128,
                        box_length=16.0, c_existence=0.0)


def plain_reconstruction(state, u0, theta0, split):
    """u0 + near * (theta - theta0) - accumulator, by plain field arithmetic."""
    dtheta = SpectralField._adopt(u0.grid,
                                  coefficients=state.theta.coefficients - theta0.coefficients)
    u = u0 + convolve_near(split, dtheta)
    return u if state.far is None else u - state.far.acc


def bits(a):
    """An array's bits, which ``np.array_equal`` compares exactly (signed zeros too)."""
    return np.ascontiguousarray(a).view(np.int64)


def assert_same_field(got, expected):
    """Same representations held, with the same bits."""
    for a, b in ((got._values, expected._values), (got._coeffs, expected._coeffs)):
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(bits(a), bits(b))


def holding(f, kind):
    """A fresh field holding f's ``kind`` representation(s): values, coefficients or both."""
    return SpectralField._adopt(f.grid, values=f.values if kind != "coefficients" else None,
                                coefficients=f.coefficients if kind != "values" else None)


def values_space_reconstruction(state, u0, theta0, split):
    """u0 + near * (theta - theta0) - accumulator, every sum formed on samples."""
    grid = u0.grid
    near = convolve_near(split, SpectralField.from_values(grid, state.theta.values - theta0.values))
    return SpectralField.from_values(grid, u0.values + near.values - state.far.acc.values)


def values_space_serfati_run(theta0, split, dt, n_steps):
    """The serfati loop of ``simulate`` with the reconstruction, its trapezoid
    accumulator and every sum formed on samples."""
    grid, n = theta0.grid, theta0.grid.n_side
    u0 = biot_savart_velocity(theta0, 0.5)
    state = SimState(t=0.0, theta=theta0, u=u0, theta0_linf=theta0.linf(),
                     far=FarIntegral(SpectralField.from_values(grid, np.zeros((2, n, n))),
                                     convolve_far(split, theta0, u0)))

    def leg(far, integ):
        acc = far.acc.values + 0.5 * dt * (far.prev.values + integ.values)
        return FarIntegral(SpectralField.from_values(grid, acc), integ, far.t + dt)

    for _ in range(n_steps):
        u_adv = leray_project(state.u)
        new = step_transport(state, held(u_adv), dt)
        new.far = leg(state.far, convolve_far(split, new.theta, u_adv))
        new.far = leg(state.far, convolve_far(
            split, new.theta, values_space_reconstruction(new, u0, theta0, split)))
        new.u = leray_project(values_space_reconstruction(new, u0, theta0, split))
        state = new
    return state, u0


def rel_gap(f, g):
    return (f - g).linf() / g.linf()


class TestSerfati:
    def test_velocity_at_t0_is_u0(self):
        grid = Grid2D(128, 16.0)
        split = build_split(grid, 0.5, oversample=2)
        x1, x2 = grid.coords_centered()
        theta0 = SpectralField.from_values(grid, np.exp(-(x1**2 + x2**2) / 0.5))
        u0 = biot_savart_velocity(theta0, 0.5)
        st = SimState(t=0.0, theta=theta0, u=u0,
                      far=FarIntegral(SpectralField.zeros(grid, 2), SpectralField.zeros(grid, 2)),
                      theta0_linf=theta0.linf())
        out = velocity_serfati(st, u0, theta0, split)
        assert (out - u0).linf() == 0.0

    def test_accumulator_time_mismatch(self):
        grid = Grid2D(128, 16.0)
        split = build_split(grid, 0.5, oversample=2)
        theta0 = SpectralField.zeros(grid)
        u0 = SpectralField.zeros(grid, 2)
        st = SimState(t=0.5, theta=theta0, u=u0,
                      far=FarIntegral(SpectralField.zeros(grid, 2), SpectralField.zeros(grid, 2)),
                      theta0_linf=1.0)
        with pytest.raises(SimulationError):
            velocity_serfati(st, u0, theta0, split)

    def test_serfati_mode_tracks_direct_mode(self):
        # same initial data, the two constitutive laws agree over a short run
        grid = Grid2D(128, 16.0)
        split = build_split(grid, 0.5, oversample=2)
        theta0 = gaussian_dipole(grid, 1.2, 0.72)
        kw = dict(beta=0.5, dt=0.02, t_end=0.3, n_side=128, box_length=16.0,
                  c_existence=0.0, record_norms=("linf:theta",))
        direct = simulate(SolverConfig(constitutive="direct", **kw), theta0, split=split)
        serf = simulate(SolverConfig(constitutive="serfati", **kw), theta0, split=split)
        gap = (direct.thetas[-1] - serf.thetas[-1]).linf() / theta0.linf()
        assert gap <= 5e-3
        assert divergence(serf.final_state.u).linf() <= 1e-6

    def test_leray_projection_idempotent_divfree(self, grid64):
        u = random_real_field(grid64, seed=5, components=2)
        pu = leray_project(u)
        assert divergence(pu).linf() <= 1e-10 * max(pu.linf(), 1.0)
        assert (leray_project(pu) - pu).linf() <= 1e-12

    def test_leray_projection_bit_for_bit_plain_expression(self, grid64):
        u = random_real_field(grid64, seed=6, components=2)
        ops = operator_table(grid64)
        c = u.coefficients
        with np.errstate(invalid="ignore"):
            div = (ops.k1 * c[0] + ops.k2 * c[1]) / ops.ksq
        div[0, 0] = 0.0
        expected = np.stack([c[0] - ops.k1 * div, c[1] - ops.k2 * div])
        assert leray_project(u).coefficients.tobytes() == expected.tobytes()

    def test_serfati_step_transform_budget(self, split128, count_planes):
        # the reconstruction, its accumulator and the projection stay on
        # coefficients: a step costs the transport step (15 planes) and two
        # far contractions (5 each); 39 planes when they went through samples
        grid = split128.grid
        vals = dipole16(grid).values
        planes = count_planes()
        simulate(split_config("serfati", 1), SpectralField.from_values(grid, vals), split=split128)
        one = sum(planes)
        planes.clear()
        simulate(split_config("serfati", 2), SpectralField.from_values(grid, vals), split=split128)
        assert sum(planes) - one <= 25

    def test_serfati_step_reuses_the_far_flux_samples(self, split128, count_planes):
        # the far flux takes u_adv's samples from the transport step and the new
        # theta's once for predictor and corrector: 25 - 3 planes per step
        grid = split128.grid
        vals = dipole16(grid).values
        planes = count_planes()
        simulate(split_config("serfati", 1), SpectralField.from_values(grid, vals), split=split128)
        one = sum(planes)
        planes.clear()
        simulate(split_config("serfati", 2), SpectralField.from_values(grid, vals), split=split128)
        assert sum(planes) - one <= 22

    def test_serfati_sample_reuse_is_bit_for_bit(self, split128, monkeypatch):
        # each step hands convolve_far the dealiased samples it holds, of the
        # advecting velocity or u_star (made from their boxes) and of the new
        # theta, and no velocity field; a flux made from such samples has the
        # bits of the flux made from the fields
        grid = split128.grid
        ops = operator_table(grid)
        passing = []

        def passed(split, theta, u=None, **kw):
            passing.append((u is None, sorted(kw)))
            return convolve_far(split, theta, u, **kw)

        monkeypatch.setattr(solver, "convolve_far", passed)
        st = simulate(split_config("serfati", 3), dipole16(grid), split=split128).final_state
        # the initial integrand has no samples at hand; each step's two do
        held = ["box", "theta_samples", "u_samples"]
        assert passing == [(False, ["box"])] + [(True, held)] * 6
        theta, u = st.theta, st.u
        theta_samples = dealiased_samples(theta)
        u_samples = ops.box_values(ops.box(u.coefficients))
        from_fields = convolve_far(split128, theta, u).coefficients
        kw = dict(theta_samples=theta_samples, u_samples=u_samples)
        assert np.array_equal(convolve_far(split128, theta, **kw).coefficients, from_fields)
        assert np.array_equal(convolve_far(split128, theta, box=True, **kw), ops.box(from_fields))
        with pytest.raises(ConfigurationError):
            convolve_far(split128, theta, theta_samples=theta_samples)

    def test_serfati_projects_once_per_step(self, split128, monkeypatch):
        # one projection, on the dealias box of u0 before the loop and of the
        # state's velocity once per step (the next step advects by it), then
        # on the whole u0 once, whose projection fills in the final u
        n = 3
        counts = count_public_calls(monkeypatch, solver.leray_project, solver._project)
        traj = simulate(split_config("serfati", n), dipole16(split128.grid), split=split128)
        assert traj.diagnostics["n_steps"] == n
        assert counts == {"leray_project": 1, "_project": n + 2}
        u = traj.final_state.u
        gap = (solver.leray_project(u) - u).linf()
        assert gap <= 1e-15 * u.linf()

    def test_reconstruction_matches_values_space_formulas(self, split128):
        grid = split128.grid
        theta0 = dipole16(grid)
        traj = simulate(split_config("serfati", 3), theta0, split=split128)
        st = traj.final_state
        ref, u0 = values_space_serfati_run(theta0, split128, traj.diagnostics["dt"],
                                           traj.diagnostics["n_steps"])
        assert rel_gap(st.far.acc, ref.far.acc) <= 1e-13
        assert rel_gap(st.far.prev, ref.far.prev) <= 1e-13
        assert rel_gap(st.u, ref.u) <= 1e-13
        assert rel_gap(velocity_serfati(st, traj.us[0], theta0, split128),
                       values_space_reconstruction(ref, u0, theta0, split128)) <= 1e-13

    def test_direct_accumulator_matches_values_space_formula(self, split128):
        grid = split128.grid
        theta0 = dipole16(grid)
        traj = simulate(split_config("direct", 3), theta0, split=split128)
        dt = traj.diagnostics["dt"]
        acc = np.zeros((2, grid.n_side, grid.n_side))
        prev = convolve_far(split128, theta0, traj.us[0]).values
        for th, u in zip(traj.thetas[1:], traj.us[1:]):
            integ = convolve_far(split128, th, u).values
            acc = acc + 0.5 * dt * (prev + integ)
            prev = integ
        expected = SpectralField.from_values(grid, acc)
        assert rel_gap(traj.final_state.far.acc, expected) <= 1e-13


def full_state_run(cfg, theta0, split):
    """``simulate``'s loop written out, keeping every step's state whole
    (theta with its coefficients as well as its samples) and its norms; the
    serfati leg's transport step, far integral and reconstruction are the
    plain expressions."""
    grid = theta0.grid
    u0 = biot_savart_velocity(theta0, cfg.beta)
    dt = solver.cfl_dt(u0, grid, cfg.dt)
    n_steps = max(1, int(round(cfg.t_end / dt)))
    dt = cfg.t_end / n_steps
    recorder = solver.NormRecorder(cfg.record_norms, grid)
    state = SimState(t=0.0, theta=theta0, u=u0, theta0_linf=theta0.linf(),
                     far=FarIntegral(SpectralField.zeros(grid, components=2),
                                     convolve_far(split, theta0, u0)))

    def leg(far, integ):
        return FarIntegral(far.acc + 0.5 * dt * (far.prev + integ), integ, far.t + dt)

    states, norms = [state], []
    recorder.record(norms, state.t, theta0, u0)
    u_adv = leray_project(u0)
    for _ in range(n_steps):
        if cfg.constitutive == "direct":
            new = direct_step(state, dt, cfg.beta)
            new.far = leg(state.far, convolve_far(split, new.theta, new.u))
        else:
            values, coeffs = reference_rk4_step(state.theta, held(u_adv), state.t, dt)
            new = SimState(t=state.t + dt, theta0_linf=state.theta0_linf,
                           theta=SpectralField._adopt(grid, values=values, coefficients=coeffs))
            new.far = leg(state.far, convolve_far(split, new.theta, u_adv))
            new.far = leg(state.far, convolve_far(
                split, new.theta, plain_reconstruction(new, u0, theta0, split)))
            new.u = u_adv = leray_project(plain_reconstruction(new, u0, theta0, split))
        state = new
        states.append(state)
        recorder.record(norms, state.t, state.theta, state.u)
    return states, norms


@settings(max_examples=20, deadline=None)
@given(law=strategies.sampled_from([("direct", False), ("direct", True), ("serfati", True)]),
       given_as=strategies.sampled_from(["samples", "coefficients"]),
       seed=strategies.integers(0, 2**32 - 1), steps=strategies.integers(1, 3))
def test_stored_samples_are_the_states_with_sample_0_outside_the_box(split128, law, given_as,
                                                                      seed, steps):
    # a sample keeps the dealias box of its array and a read fills the rest in
    # from t = 0: each read is the state full_state_run keeps whole, and the
    # states agree with sample 0 outside the box.  A theta0 given as samples
    # has coefficients there; band-limited coefficients have signed zeros
    mode, with_split = law
    grid = split128.grid
    ops = operator_table(grid)
    band = random_real_field(grid, seed=seed).coefficients * (ops.kmag <= 6 * grid.k_fundamental)
    theta0 = SpectralField.from_coefficients(grid, band / ops.sup(band))
    if given_as == "samples":
        theta0 = SpectralField.from_values(grid, theta0.values)
    cfg = dataclasses.replace(split_config(mode, steps), sample_every=1)
    traj = simulate(cfg, theta0, split=split128 if with_split else None)
    states, _ = full_state_run(cfg, theta0, split128)
    assert len(traj.thetas) == len(traj.us) == len(states) == steps + 1
    outside = ~ops.dealias
    u_rest = (states[0].u if mode == "direct" else leray_project(states[0].u)).coefficients
    for i, st in enumerate(states):
        theta = traj.thetas[i]
        assert np.array_equal(st.theta.coefficients[outside], theta0.coefficients[outside])
        assert np.array_equal(theta.coefficients, st.theta.coefficients)
        assert np.array_equal(bits(theta.values), bits(ops.values(st.theta.coefficients)))
        if i:
            u = traj.us[i]
            assert np.array_equal(st.u.coefficients[..., outside], u_rest[..., outside])
            assert np.array_equal(u.coefficients, st.u.coefficients)
            assert np.array_equal(bits(u.values), bits(st.u.values))


class TestStoredSamples:
    """A trajectory keeps each sampled theta once, under both laws, as the
    state's coefficients: theta0's array, then the dealias box of each
    later state's."""

    @pytest.mark.parametrize("mode", ["direct", "serfati"])
    def test_thetas_keep_theta0s_coefficients_then_boxes(self, split128, mode, monkeypatch):
        made = []
        step = solver.step_transport
        monkeypatch.setattr(solver, "step_transport",
                            lambda *args, **kw: made.append(step(*args, **kw)) or made[-1])
        theta0 = dipole16(split128.grid)
        traj = simulate(split_config(mode, 4), theta0, split=split128)
        assert len(traj.thetas) == len(made) + 1 == 5
        K = split128.grid.dealias_index_cutoff
        for i, theta in enumerate([theta0] + [st.theta for st in made]):
            stored = traj.thetas[i]
            assert stored is not theta
            # theta0's own coefficient array, then the box of each state's
            # coefficients, (2K + 1)(K + 1) of them; a fresh field per read
            kept = traj.thetas._stored[i]
            if i == 0:
                assert kept is theta0._coeffs
            else:
                assert kept.shape == (2 * K + 1, K + 1)
            assert stored._values is None
            assert np.array_equal(stored.coefficients, theta.coefficients)
            assert traj.thetas[i] is not stored
        assert traj.final_state.theta._coeffs is not None

    @pytest.mark.parametrize("mode", ["direct", "serfati"])
    def test_u0_stored_as_it_arrived(self, split128, mode):
        # the run's reads of u0 (the CFL step, the existence cap, the direct
        # law's check, serfati's projection and reconstruction) cache nothing
        # on the stored u0
        theta0 = dipole16(split128.grid)
        cfg = dataclasses.replace(split_config(mode, 2), c_existence=1.0)
        made = simulate(cfg, theta0, split=split128).us[0]
        assert made._values is None and made._coeffs is not None
        u = biot_savart_velocity(theta0, 0.5)
        for kind in ("values", "coefficients"):
            given = holding(u, kind)
            values, coeffs = given._values, given._coeffs
            assert simulate(cfg, theta0, u0=given, split=split128).us[0] is given
            assert given._values is values and given._coeffs is coeffs

    def test_direct_trajectory_memory_budget(self, grid128, traced_peak):
        n, steps = 128, 20
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=steps * 0.01, n_side=n, c_existence=0.0,
                           sample_every=1)
        theta0 = dipole(grid128)
        simulate(cfg, theta0)  # fills the grid's caches
        traj, _, retained = traced_peak(lambda: simulate(cfg, theta0))
        # per sample: theta's samples (n^2 floats) and coefficients (n (n/2 + 1)
        # complex), from which u is derived on read; at t = 0 theta0 is the
        # caller's and u0, which the run made, takes that share; the final
        # state adds its u's coefficients
        samples = len(traj.thetas)
        assert samples == steps + 1
        per_sample = (n * n + n * (n // 2 + 1) * 2) * 8
        bound = samples * per_sample * 1.05 + traj.final_state.u.coefficients.nbytes
        assert retained <= bound

    def test_direct_trajectory_keeps_one_word_per_point_per_sample(self, grid128, traced_peak):
        n, steps = 128, 32
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=steps * 0.01, n_side=n, c_existence=0.0,
                           sample_every=1)
        theta0 = dipole(grid128)
        simulate(cfg, theta0)  # fills the grid's caches and theta0's coefficients
        traj, _, retained = traced_peak(lambda: simulate(cfg, theta0))
        # a sample keeps the dealias box of theta's coefficients, (2K + 1)(K + 1)
        # complex with K = floor(n/3), 4/9 of a float64 word per grid point
        # (0.466 measured); beside them the run keeps u0, which it made, and
        # the final state's theta samples and u coefficients.  A whole array
        # per sample read 0.987
        final = traj.final_state
        assert len(traj.thetas) == steps + 1
        words = (retained - traj.us[0].coefficients.nbytes - final.theta.values.nbytes
                 - final.u.coefficients.nbytes) / 8
        assert words <= 0.5 * n * n * len(traj.thetas)

    def test_serfati_trajectory_keeps_under_two_words_per_point_per_sample(self, split128,
                                                                          traced_peak):
        n, steps = 128, 16
        cfg = dataclasses.replace(split_config("serfati", steps), sample_every=1)
        theta0 = dipole16(split128.grid)
        simulate(cfg, theta0, split=split128)  # fills the grid's caches
        traj, _, retained = traced_peak(lambda: simulate(cfg, theta0, split=split128))
        # a sample keeps the dealias boxes of theta's coefficients, 4/9 of a
        # word per grid point, and of u's projection, 8/9 of a word (1.27
        # together measured); beside them the run keeps u0, which it made,
        # and the final state's theta coefficients, far integral and u,
        # which the last sample shares.  Theta's samples in place of its box
        # read 1.73, and a whole projection beside them 2.74
        final = traj.final_state
        assert len(traj.us) == steps + 1 and traj.us[-1] is final.u
        kept = (traj.us[0], final.theta, final.u, final.far.acc, final.far.prev)
        words = (retained - sum(f.coefficients.nbytes for f in kept)) / 8
        assert words <= 1.05 * (4 / 9 + 8 / 9) * n * n * len(traj.thetas)

    @pytest.mark.parametrize("with_split", [False, True])
    def test_direct_velocities_have_the_bits_of_the_states_u(self, split128, with_split):
        # us[i] for i >= 1 is the multiply the run made, of the same theta
        # coefficients; a samples read keeps the samples, not the coefficients
        cfg = split_config("direct", 4)
        theta0 = dipole16(split128.grid)
        u0 = biot_savart_velocity(theta0, 0.5)
        traj = simulate(cfg, theta0, u0=u0, split=split128 if with_split else None)
        states, _ = full_state_run(cfg, theta0, split128)
        assert traj.us[0] is u0
        assert len(traj.us) == len(list(traj.us)) == len(states) == 5
        for i, st in enumerate(states[1:], 1):
            assert traj.us[i]._values is None
            for u in (traj.us[i], traj.us[i - len(states)], traj.us[i:i + 1][0]):
                assert np.array_equal(u.coefficients, st.u.coefficients)
                assert np.array_equal(u.values, st.u.values)
            # a read caches nothing on the trajectory
            assert traj.us[i]._values is None
        with pytest.raises(IndexError):
            traj.us[len(states)]

    def test_second_flow_map_transforms_nothing(self, grid64, count_planes):
        # every call makes each node's samples again, 2 planes per
        # node it reads, and leaves none of them on the trajectory
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=64, c_existence=0.0,
                           sample_every=1)
        traj = simulate(cfg, dipole(grid64))
        pts = np.random.default_rng(4).uniform(0.0, grid64.box_length, size=(16, 2))
        first = flow_map(traj, pts, 0.01)
        planes = count_planes()
        assert np.array_equal(flow_map(traj, pts, 0.01), first)
        assert sum(planes) == 2 * len(traj.us) == 12
        assert traj.us[0]._values is None

    def test_flow_map_keeps_u_samples_without_coefficients(self, grid128, traced_peak,
                                                           count_planes):
        # a flow map leaves no samples behind, on the trajectory or u0
        n, steps = 128, 8
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=steps * 0.01, n_side=n, c_existence=0.0,
                           sample_every=1)
        theta0 = dipole(grid128)
        pts = np.random.default_rng(5).uniform(0.0, grid128.box_length, size=(4, 2))
        flow_map(simulate(cfg, theta0), pts, 0.01)  # fills the grid's caches
        traj = simulate(cfg, theta0)
        planes = count_planes()
        paths, _, retained = traced_peak(lambda: flow_map(traj, pts, 0.01))
        assert sum(planes) == 2 * (steps + 1)
        # the paths and small change: far below one velocity's samples, 2 n^2 floats
        assert retained <= paths.nbytes + 4096 < 2 * n * n * 8
        assert traj.us[0]._values is None

    def test_flow_map_peak_does_not_grow_with_samples(self, grid128, traced_peak):
        # a step reads at most 4 nodes and the window drops the nodes it has
        # passed: at most 5 nodes' samples are alive, and the coefficients and
        # samples of the node being made.  Keeping every node's samples read
        # 10 and 34 velocity arrays here
        n = 128
        pts = np.random.default_rng(6).uniform(0.0, grid128.box_length, size=(8, 2))
        peaks = {}
        for samples in (9, 33):
            cfg = SolverConfig(beta=0.5, dt=0.005, t_end=(samples - 1) * 0.005, n_side=n,
                               c_existence=0.0, sample_every=1)
            traj = simulate(cfg, dipole(grid128))
            assert len(traj.us) == samples
            flow_map(traj, pts, 0.005)  # fills the grid's caches
            paths, peak, retained = traced_peak(lambda: flow_map(traj, pts, 0.005))
            assert retained <= paths.nbytes + 4096
            peaks[samples] = peak / (2 * n * n * 8)  # in velocity sample arrays
        assert peaks[33] <= peaks[9] * 1.01
        assert peaks[33] <= 7.5

    @pytest.mark.parametrize("mode", ["direct", "serfati"])
    def test_outputs_keep_the_bits_of_full_stored_states(self, split128, mode):
        cfg = dataclasses.replace(split_config(mode, 4),
                                  record_norms=("linf:theta", "l2:theta", "cr:theta:1.5",
                                                "linf:u"))
        theta0 = dipole16(split128.grid)
        traj = simulate(cfg, theta0, split=split128)
        states, norms = full_state_run(cfg, theta0, split128)
        assert traj.times == [st.t for st in states]
        assert traj.norms == norms
        for stored, st in zip(traj.thetas, states):
            # the state's coefficients, taken to samples on read
            assert np.array_equal(stored.coefficients, st.theta.coefficients)
            assert np.array_equal(bits(stored.values),
                                  bits(operator_table(stored.grid).values(st.theta.coefficients)))
        pts = np.random.default_rng(3).uniform(0.0, 16.0, size=(40, 2))
        assert np.array_equal(flow_map(traj, pts, 0.01),
                              flow_map((traj.times, [st.u for st in states]), pts, 0.01))
        got = velocity_serfati(traj.final_state, traj.us[0], theta0, split128)
        ref = velocity_serfati(states[-1], states[0].u, theta0, split128)
        assert np.array_equal(got.coefficients, ref.coefficients)


class TestWorkingSet:
    """A step holds only the arrays it still reads."""

    @staticmethod
    def warm_solve(split, mode, traced_peak):
        """A warm 4-step solve's traced peak, in V, the bytes of one vector
        field's coefficients."""
        theta0 = dipole16(split.grid)
        simulate(split_config(mode, 4), theta0, split=split)  # fills the grid's caches
        traj, peak, _ = traced_peak(lambda: simulate(split_config(mode, 4), theta0, split=split))
        assert traj.diagnostics["n_steps"] == 4
        n = split.grid.n_side
        return peak / (2 * n * (n // 2 + 1) * 16)

    def test_serfati_solve_peak(self, split128, traced_peak):
        # the whole peak of a warm solve, samples included (9.68 V measured).
        # Earlier layouts read: the far integral, reconstruction and
        # projection on the whole layout, with the previous state's theta and
        # u alive through the step, 11.97 V; theta's samples kept in place of
        # their box, 12.29 V.  Above what the solve retained: a fresh array
        # per sum, with the predicted integral, the advecting samples and
        # u_star alive into the corrector, 8.3 V; a reconstruction and its
        # projection formed in fresh arrays beside the near convolution,
        # 4.99 V; the predicted integrand alive while u_star is formed,
        # 4.49 V; the whole-layout step, 4.75 V
        peak = self.warm_solve(split128, "serfati", traced_peak)
        assert peak <= 9.75

    def test_u_star_is_formed_without_the_predicted_integrand(self, split128, monkeypatch):
        # u_star reads the predicted integral's sum alone, so the predictor's
        # integrand, one box, is gone by then; the state's reconstruction
        # keeps the corrected one, the next step's prev.  Integrand 0 is
        # t = 0's; step j's predictor makes integrand 2j - 1, its corrector 2j
        made, alive = [], []
        far, reconstruct = solver.convolve_far, solver._reconstruct

        def far_made(*args, **kw):
            out = far(*args, **kw)
            made.append(weakref.ref(out))
            return out

        def reconstruct_seen(*args):
            alive.append([i for i, ref in enumerate(made) if ref() is not None])
            return reconstruct(*args)

        monkeypatch.setattr(solver, "convolve_far", far_made)
        monkeypatch.setattr(solver, "_reconstruct", reconstruct_seen)
        simulate(split_config("serfati", 3), dipole16(split128.grid), split=split128)
        assert alive == [[0], [2], [2], [4], [4], [6]]

    def test_direct_solve_peak(self, split128, traced_peak):
        # the whole peak of a direct solve with a split, samples included
        # (7.49 V measured): a step that kept the previous state's theta, a
        # tendency and far flux formed on the whole layout and the far
        # integral kept whole read 9.64 V, a step that also held the previous
        # state's u 10.65 V, a trajectory that kept theta's samples beside
        # its coefficients 12.96 V, one that kept whole coefficients 11.97 V
        peak = self.warm_solve(split128, "direct", traced_peak)
        assert peak <= 7.55


class TestPlainExpressions:
    """The sums formed in place have the bits of the plain expressions, in
    the representations field arithmetic chooses.  ``step_transport``'s
    reference is ``reference_rk4_step``, in the Hypothesis test above and
    in the serfati leg of ``full_state_run``."""

    @pytest.mark.parametrize("acc_kind", ["both", "values", "coefficients"])
    @pytest.mark.parametrize("integ_kind", ["coefficients", "values"])
    def test_far_integral_advance(self, grid64, acc_kind, integ_kind):
        # coefficient integrands as simulate's, sample integrands as Picard's;
        # an accumulator of the other representation moves the sum to samples
        def field(seed):
            return holding(random_real_field(grid64, seed=seed, components=2), integ_kind)

        far = FarIntegral(holding(random_real_field(grid64, seed=1, components=2), acc_kind),
                          field(2))
        for k in range(3):
            integ = field(3 + k)
            expected = far.acc._shallow() + 0.5 * 0.0125 * (far.prev._shallow()
                                                            + integ._shallow())
            far = far.advance(0.0125, integ)
            assert_same_field(far.acc, expected)
            assert far.prev is integ

    @pytest.mark.parametrize("u0_kind", ["coefficients", "values"])
    @pytest.mark.parametrize("acc_kind", ["coefficients", "values", None])
    def test_velocity_serfati(self, split128, u0_kind, acc_kind):
        grid = split128.grid
        theta0 = dipole16(grid)
        st = simulate(split_config("serfati", 3), theta0, split=split128).final_state
        u0 = holding(biot_savart_velocity(theta0, 0.5), u0_kind)
        far = None if acc_kind is None else FarIntegral(holding(st.far.acc, acc_kind),
                                                       st.far.prev, st.far.t)
        st = dataclasses.replace(st, far=far)
        plain_state = dataclasses.replace(st, far=None if far is None else FarIntegral(
            far.acc._shallow(), far.prev, far.t))
        expected = plain_reconstruction(plain_state, u0._shallow(), theta0, split128)
        assert_same_field(velocity_serfati(st, u0, theta0, split128), expected)


def count_public_calls(monkeypatch, *functions):
    """Count calls of package functions under every name a package module
    binds them to, as the traced benchmark counts its spans."""
    counts = dict.fromkeys((fn.__name__ for fn in functions), 0)
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sqglab" or mod_name.startswith("sqglab."):
                for name, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, name, counted)
    return counts


class TestPublicCallCounts:
    """The exact span counts the benchmark's traced self-test pins per solve."""

    def test_serfati_simulate(self, split128, monkeypatch):
        n = 3
        counts = count_public_calls(monkeypatch, kernels.convolve_far, kernels.convolve_near)
        traj = simulate(split_config("serfati", n), dipole16(split128.grid), split=split128)
        assert traj.diagnostics["n_steps"] == n
        # far: the initial integrand, then predictor and corrector per step;
        # near: the corrector's reconstruction and the state's
        assert counts == {"convolve_far": 2 * n + 1, "convolve_near": 2 * n}

    def test_direct_simulate(self, grid64, monkeypatch):
        n = 4
        counts = count_public_calls(monkeypatch, multipliers.biot_savart_velocity)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=n * 0.01, n_side=64, c_existence=0.0)
        traj = simulate(cfg, dipole(grid64))
        assert traj.diagnostics["n_steps"] == n
        # u0, the u0 consistency check, then 4 RK4 stages and the new velocity
        assert counts == {"biot_savart_velocity": 5 * n + 2}


def reference_flow_map(times, fields, particles, dt, t_end):
    """RK4 particle paths by the whole-field route: Catmull-Rom-interpolate the
    stacked (T, 2, n, n) velocity samples in time, then sample bilinearly."""
    times = np.asarray(times)
    grid = fields[0].grid
    u_vals = np.stack([f.values for f in fields])
    n_t, n, h, L = len(times), grid.n_side, grid.spacing, grid.box_length

    def interp(t):
        k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, n_t - 2))
        step = times[k + 1] - times[k]

        def scaled_tangent(i):
            lo, hi = max(i - 1, 0), min(i + 1, n_t - 1)
            t_lo = times[lo] if lo < i else 2 * times[i] - times[hi]
            t_hi = times[hi] if hi > i else 2 * times[i] - times[lo]
            return (step / (t_hi - t_lo)) * (u_vals[hi] - u_vals[lo])

        x = (t - times[k]) / step
        return ((2 * x**3 - 3 * x**2 + 1) * u_vals[k] + (x**3 - 2 * x**2 + x) * scaled_tangent(k)
                + (3 * x**2 - 2 * x**3) * u_vals[k + 1] + (x**3 - x**2) * scaled_tangent(k + 1))

    def vel(t, p):
        v = interp(min(t, times[-1]))
        q = (p % L) / h
        i0 = np.floor(q).astype(int)
        fx, fy = (q - i0).T
        i0 %= n
        i1 = (i0 + 1) % n
        return np.stack([(1 - fx) * (1 - fy) * v[c][i0[:, 0], i0[:, 1]]
                         + fx * (1 - fy) * v[c][i1[:, 0], i0[:, 1]]
                         + (1 - fx) * fy * v[c][i0[:, 0], i1[:, 1]]
                         + fx * fy * v[c][i1[:, 0], i1[:, 1]] for c in range(2)], axis=1)

    pts = np.asarray(particles, dtype=np.float64)
    out = [pts]
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = vel(t, pts)
        k2 = vel(t + dt / 2, pts + dt / 2 * k1)
        k3 = vel(t + dt / 2, pts + dt / 2 * k2)
        k4 = vel(t + dt, pts + dt * k3)
        pts = pts + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        out.append(pts)
    return np.stack(out)


def per_evaluation_flow_map(times, fields, particles, dt, t_end):
    """RK4 particle paths as flow_map formed them with the time weights found
    afresh at every evaluation, the corners gathered by np.stack and the time
    combination by np.tensordot: the bits flow_map must keep."""
    times = np.asarray(times)
    grid = fields[0].grid
    u_vals = [f.values for f in fields]
    n, h, L = grid.n_side, grid.spacing, grid.box_length

    def bilinear(fields_vals, pts):
        q = pts / h
        i0 = np.floor(q).astype(int)
        frac = q - i0
        i0 %= n
        i1 = (i0 + 1) % n
        fx, fy = frac[:, 0], frac[:, 1]
        flat = np.stack([i0[:, 0] * n + i0[:, 1], i1[:, 0] * n + i0[:, 1],
                         i0[:, 0] * n + i1[:, 1], i1[:, 0] * n + i1[:, 1]])
        wgt = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy])
        corners = np.stack([vals.reshape(2, -1)[:, flat] for vals in fields_vals])
        return (corners * wgt).sum(axis=2).transpose(0, 2, 1)

    def vel(tq, p):
        idx, w = solver._catmull_rom_weights(times, min(tq, times[-1]))
        return np.tensordot(w, bilinear([u_vals[i] for i in idx], p % L), axes=1)

    pts = np.asarray(particles, dtype=np.float64).copy()
    out = [pts.copy()]
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = vel(t, pts)
        k2 = vel(t + dt / 2, pts + dt / 2 * k1)
        k3 = vel(t + dt / 2, pts + dt / 2 * k2)
        k4 = vel(t + dt, pts + dt * k3)
        pts = pts + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        out.append(pts.copy())
    return np.stack(out)


@settings(max_examples=20, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), samples=strategies.integers(1, 9),
       dt=strategies.floats(0.003, 0.2), uniform=strategies.booleans())
def test_streaming_flow_map_keeps_the_bits_of_reading_every_node_first(seed, samples, dt,
                                                                      uniform):
    # flow_map makes each node when a step first needs it and drops the nodes
    # it has passed; the reference reads every node's samples up front
    grid = Grid2D(16, 2.0)
    rng = np.random.default_rng(seed)
    gaps = np.full(samples - 1, 0.1) if uniform else rng.uniform(0.02, 0.2, samples - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    fields = [dealias(random_real_field(grid, seed=seed % 1000 + i, components=2))
              for i in range(samples)]
    fields = [SpectralField.from_coefficients(grid, f.coefficients) for f in fields]
    t_end = times[-1] or 0.0
    pts = rng.uniform(-1.0, 3.0, size=(5, 2))
    paths = flow_map((times, fields), pts, dt, t_end)
    assert all(f._values is None for f in fields)  # a shallow read of every node
    assert paths.tobytes() == per_evaluation_flow_map(times, fields, pts, dt, t_end).tobytes()


class TestFlowMap:
    @pytest.mark.parametrize("times", [[0.0], [0.0, 1.0], np.linspace(0.0, 0.5, 6),
                                       np.array([0.0, 0.05, 0.2, 0.23, 0.4, 0.5])],
                             ids=["one", "two", "uniform", "non_uniform"])
    @pytest.mark.parametrize("count", [1, 3, 64])
    @pytest.mark.parametrize("dt, t_end", [(0.01, None), (0.0037, 0.3), (0.02, 0.9)])
    def test_paths_keep_the_bits_of_the_per_evaluation_route(self, grid64, times, count, dt,
                                                             t_end):
        # weights once per distinct time, corners without stacks, the dot
        # tensordot reaches
        fields = [dealias(random_real_field(grid64, seed=60 + i, components=2)) * 4.0
                  for i in range(len(times))]
        pts = np.random.default_rng(count).uniform(-1.0, 8.0, size=(count, 2))
        t_end = t_end if t_end is not None else (times[-1] or 0.1)
        if t_end > times[-1]:
            # a t_end past the last sample raises: hold the last field with a node at t_end
            times, fields = np.append(times, t_end), fields + [fields[-1]]
        paths = flow_map((times, fields), pts, dt, t_end)
        ref = per_evaluation_flow_map(times, fields, pts, dt, t_end)
        assert paths.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("times", [np.linspace(0.0, 0.5, 6),
                                       np.array([0.0, 0.05, 0.2, 0.23, 0.4, 0.5])],
                             ids=["uniform", "non_uniform"])
    def test_matches_whole_field_reference(self, grid64, times):
        fields = [dealias(random_real_field(grid64, seed=40 + i, components=2)) * 4.0
                  for i in range(len(times))]
        pts = np.random.default_rng(5).uniform(0.0, grid64.box_length, size=(32, 2))
        paths = flow_map((times, fields), pts, dt=0.01)
        ref = reference_flow_map(times, fields, pts, 0.01, times[-1])
        assert np.abs(paths - ref).max() <= 1e-12
        assert np.abs(paths[-1] - pts).max() > 0.1  # the particles did move

    def test_interpolant_hits_off_cadence_samples(self, grid64):
        # 131 steps sampled every 2: the last sample is 0.01 after the one before
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=1.31, n_side=64, c_existence=0,
                           sample_every=2, record_norms=())
        traj = simulate(cfg, dipole(grid64, amplitude=0.5))
        times = np.asarray(traj.times)
        gaps = np.diff(times)
        assert gaps[-1] == pytest.approx(0.5 * gaps[-2])
        u_vals = np.stack([u.values for u in traj.us])
        for i, t in enumerate(times):
            np.testing.assert_array_equal(_interp_velocity_time(times, u_vals, t), u_vals[i])

    @pytest.mark.parametrize("dt, t_end", [(0.0, 0.05), (np.nan, 0.05), (np.inf, 0.05),
                                           (-0.01, 0.05), (0.01, -1.0), (0.01, np.nan),
                                           (0.01, np.inf)])
    def test_bad_step_or_end_rejected(self, grid64, dt, t_end):
        # these overflowed, ran a step forward for a negative dt, or
        # extrapolated the cubic backward in time
        u = SpectralField.zeros(grid64, 2)
        with pytest.raises(ConfigurationError, match="finite dt > 0 and t_end >= 0"):
            flow_map(([0.0, 1.0], [u, u]), np.zeros((1, 2)), dt, t_end)

    @pytest.mark.parametrize("particles", [np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2)),
                                           [[0.0, 1.0], [2.0]], [["a", "b"]], None,
                                           [[0.0, np.nan]], [[np.inf, 1.0]]],
                             ids=["flat", "three_columns", "stacked", "ragged", "strings",
                                  "none", "nan", "inf"])
    def test_bad_particles_rejected(self, grid64, particles):
        # these raised IndexError or ValueError, or (NaN) warned in a cast and
        # then raised SimulationError
        u = SpectralField.zeros(grid64, 2)
        with pytest.raises(ConfigurationError, match="particles"):
            flow_map(([0.0, 1.0], [u, u]), particles, 0.1)

    def test_t_end_past_the_last_time_rejected(self, grid64):
        # the last velocity was frozen past the trajectory's end
        u = SpectralField.zeros(grid64, 2)
        with pytest.raises(ConfigurationError, match="past the trajectory's last time"):
            flow_map(([0.0, 1.0], [u, u]), np.zeros((1, 2)), 0.1, 1.1)

    def test_t_end_an_ulp_past_the_last_time_accepted(self, grid64):
        # a t_end summed from steps may miss the last sample time by rounding
        u = dealias(random_real_field(grid64, seed=8, components=2))
        times = [0.0, 0.1, 0.2, 0.30000000000000004]
        pts = np.array([[1.0, 2.0]])
        paths = flow_map((times, [u] * 4), pts, 0.1, 0.30000000000000004 + 1e-16)
        assert paths.shape == (4, 1, 2) and np.all(np.isfinite(paths))

    def test_zero_velocity_fixes_points(self, grid64):
        u = SpectralField.zeros(grid64, 2)
        pts = np.array([[1.0, 2.0], [3.0, 0.5]])
        paths = flow_map(([0.0, 1.0], [u, u]), pts, dt=0.1)
        np.testing.assert_allclose(paths[-1], pts, atol=1e-14)

    def test_constant_velocity(self, grid64):
        c = (0.8, -0.2)
        u = SpectralField.from_values(
            grid64, np.stack([np.full((64, 64), c[0]), np.full((64, 64), c[1])]))
        pts = np.array([[1.0, 2.0]])
        paths = flow_map(([0.0, 0.5, 1.0], [u, u, u]), pts, dt=0.05)
        np.testing.assert_allclose(paths[-1], pts + np.array(c), atol=1e-12)

    def test_circles_and_area_preservation(self):
        # steady radial flow: particles orbit with tiny radius drift,
        # and a small advected square keeps its area
        grid = Grid2D(256)
        x1, x2 = grid.coords_centered()
        theta = SpectralField.from_values(grid, np.exp(-(x1**2 + x2**2) / (2 * 0.35**2)))
        u = biot_savart_velocity(theta, 0.5)
        L = grid.box_length
        center = np.array([L / 2, L / 2])  # physical coords of the bump center
        r0 = 0.35
        pts = center + np.array([[r0, 0.0]])
        times = [0.0, 100.0]
        speed = np.abs(u.values[1][int(round(r0 / grid.spacing)), 0])
        period = 2 * np.pi * r0 / speed
        paths = flow_map((times, [u, u]), pts, dt=1e-3, t_end=period)
        radii = np.hypot(*(paths[:, 0, :] - center).T)
        assert np.abs(radii - r0).max() <= 1e-4

        side = 0.1
        sq = center + np.array([[0, 0], [side, 0], [side, side], [0, side]]) - side / 2
        end = flow_map((times, [u, u]), sq, dt=1e-3, t_end=1.0)[-1]
        assert polygon_area(end) == pytest.approx(side**2, rel=1e-3)


@pytest.fixture(scope="module")
def picard_grid():
    return Grid2D(128, 16.0)


@pytest.fixture(scope="module")
def picard_split(picard_grid):
    return build_split(picard_grid, 0.5, oversample=2)


def picard_dipole(grid):
    return gaussian_dipole(grid, 1.6, 1.28, 0.8)


def two_pass_picard(cfg, theta0, u0, n_max, split, n_samples=8):
    """Reference Picard sequence in two passes per iterate, every step of both
    iterates kept: all transport steps, then all reconstruction steps.

    Returns the decrements and the last iterate's samples of theta and u at
    the sample times."""
    grid = theta0.grid
    dt = solver.cfl_dt(u0, grid, cfg.dt)
    n_steps = max(2, int(round(cfg.t_end / dt)))
    dt = cfg.t_end / n_steps
    step_times = np.arange(n_steps + 1) * dt
    sample_idx = np.unique(np.linspace(0, n_steps, n_samples).round().astype(int))

    def frozen_interp(fields):
        vals = [f.values for f in fields]
        return frozen_velocity(lambda t: SpectralField.from_values(
            grid, _interp_velocity_time(step_times, vals, min(t, cfg.t_end))))

    th_prev = [smooth_truncate_initial(theta0, 2)] * (n_steps + 1)
    u_prev = [smooth_truncate_initial(u0, 2)] * (n_steps + 1)
    decrements = {}
    for n in range(1, n_max):
        u_interp = frozen_interp(u_prev)
        th_new = [smooth_truncate_initial(theta0, n + 2)]
        state = SimState(t=0.0, theta=th_new[0], theta0_linf=theta0.linf())
        for _ in range(n_steps):
            state = step_transport(state, u_interp, dt)
            th_new.append(state.theta)

        u_new = [smooth_truncate_initial(u0, n + 2)]
        acc = SpectralField.zeros(grid, components=2)
        integ_prev = convolve_far(split, th_new[0], u_prev[0])
        for k in range(1, n_steps + 1):
            integ = convolve_far(split, th_new[k], u_prev[k])
            acc = SpectralField.from_values(
                grid, acc.values + 0.5 * dt * (integ_prev.values + integ.values))
            integ_prev = integ
            near = convolve_near(split, th_new[k] - th_new[0])
            u_new.append(SpectralField.from_values(
                grid, u_new[0].values + near.values - acc.values))

        decrements[n + 1] = np.array([
            (u_new[i] - u_prev[i]).linf()
            + zygmund_norm(SpectralField.from_values(grid, th_new[i].values - th_prev[i].values),
                           cfg.r - 1.0).value
            for i in sample_idx])
        th_prev, u_prev = th_new, u_new
    return decrements, ([th_prev[i].values for i in sample_idx],
                        [u_prev[i].values for i in sample_idx])


class TestPicard:

    @pytest.mark.parametrize("kind", ["values", "coefficients"])
    def test_caller_u0_keeps_its_representations(self, picard_grid, picard_split, kind):
        # the sup norm, the CFL step and the smoothed data read u0; none of
        # them caches on the caller's field
        theta0 = picard_dipole(picard_grid)
        given = holding(biot_savart_velocity(theta0, 0.5), kind)
        values, coeffs = given._values, given._coeffs
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=0.03, n_side=128, box_length=16.0)
        picard_iterate(cfg, theta0, u0=given, n_max=3, split=picard_split)
        assert given._values is values and given._coeffs is coeffs

    @pytest.mark.parametrize("n_steps", [3, 5])
    def test_one_pass_has_the_bits_of_the_two_pass_reference(self, picard_grid, picard_split,
                                                              n_steps):
        theta0 = picard_dipole(picard_grid)
        u0 = biot_savart_velocity(theta0, 0.5)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=n_steps * 0.01, n_side=128,
                           box_length=16.0)
        trace = picard_iterate(cfg, theta0, u0=u0, n_max=4, split=picard_split)
        ref_dn, (thetas, us) = two_pass_picard(cfg, theta0, u0, 4, picard_split)
        assert sorted(trace.decrements) == sorted(ref_dn) == [2, 3, 4]
        assert trace.decrements[4][-1] > 0.0
        for n, dn in ref_dn.items():
            assert np.array_equal(trace.decrements[n], dn)
        assert trace.final["n"] == 4
        for key, ref in (("theta", thetas), ("u", us)):
            assert len(trace.final[key]) == len(ref)
            assert all(np.array_equal(f.values, v) for f, v in zip(trace.final[key], ref))

    def test_trace_holds_fresh_fields_of_one_representation(self, picard_grid, picard_split,
                                                            monkeypatch):
        # the fields an iterate computes with (its transported thetas, the
        # velocities it integrates against, the smoothed data) hold both
        # representations along the way; the trace keeps none of them, only
        # fresh fields of the last iterate's samples
        own = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                own.extend(a for a in args + (out,) if isinstance(a, SpectralField))
                if isinstance(out, SimState):
                    own.append(out.theta)
                return out
            return wrapped

        for name in ("step_transport", "convolve_far", "convolve_near",
                     "smooth_truncate_initial"):
            monkeypatch.setattr(solver, name, recording(getattr(solver, name)))
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=0.05, n_side=128, box_length=16.0)
        trace = picard_iterate(cfg, picard_dipole(picard_grid), n_max=4, split=picard_split)
        assert trace.final["n"] == 4
        entries = [f for key in ("theta", "u") for f in trace.final[key]]
        assert len(entries) == 2 * len(trace.sample_times)
        assert not {id(f) for f in own} & {id(f) for f in entries}
        assert all(f._values is not None and f._coeffs is None for f in entries)

    def test_trace_retains_its_samples_only(self, picard_grid, picard_split, traced_peak):
        theta0 = picard_dipole(picard_grid)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=0.05, n_side=128, box_length=16.0)
        picard_iterate(cfg, theta0, n_max=4, split=picard_split)  # fills the grid's caches
        trace, _, retained = traced_peak(
            lambda: picard_iterate(cfg, theta0, n_max=4, split=picard_split))
        # the last iterate's samples only, per sample time theta's (8 n^2 bytes)
        # and u's (16 n^2), with the decrements and Python objects under n^2
        per_sample = 24 * 128**2
        assert retained <= len(trace.sample_times) * per_sample + 128**2

    def test_trace_size_does_not_grow_with_the_iterate_count(self, picard_grid, picard_split,
                                                             traced_peak):
        # a longer sequence adds only its decrements, one array of D_n per iterate
        theta0 = picard_dipole(picard_grid)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=0.05, n_side=128, box_length=16.0)
        for n_max in (4, 8):  # fills the grid's caches, the smoothing blocks up to n_max + 1
            picard_iterate(cfg, theta0, n_max=n_max, split=picard_split)
        retained = {}
        for n_max in (4, 8):
            trace, _, retained[n_max] = traced_peak(
                lambda: picard_iterate(cfg, theta0, n_max=n_max, split=picard_split))
            assert trace.final["n"] == n_max and len(trace.decrements) == n_max - 1
        assert abs(retained[8] - retained[4]) < 24 * 128**2

    def test_band_limited_data_saturates_projection(self, picard_grid):
        # S_(n+2) theta0 = theta0 for data below block 0, so eta^(n+1)(0) = 0
        theta0 = single_shell_state(picard_grid, m=4, amplitude=0.5)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=0.05, n_side=128,
                           box_length=16.0)
        split = build_split(picard_grid, 0.5, oversample=2)
        trace = picard_iterate(cfg, theta0, n_max=4, split=split)
        # differences at t = 0 vanish: only transported differences remain
        for n, dn in trace.decrements.items():
            assert dn[0] <= 1e-12

    def test_fixed_point_data_has_vanishing_decrements(self, picard_grid):
        # single-shell data is a discrete steady state: all iterates coincide
        theta0 = single_shell_state(picard_grid, m=4, amplitude=0.5)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=0.05, n_side=128,
                           box_length=16.0)
        split = build_split(picard_grid, 0.5, oversample=2)
        trace = picard_iterate(cfg, theta0, n_max=5, split=split)
        for n in sorted(trace.decrements)[1:]:  # n >= 3: past the first correction
            assert trace.decrements[n].max() <= 1e-8

    def test_generic_contraction(self, picard_grid):
        theta0 = picard_dipole(picard_grid)
        u0 = biot_savart_velocity(theta0, 0.5)
        from sqglab.norms import zygmund_norm
        T = existence_time(u0.linf(), zygmund_norm(theta0, 2.5).value, 1.0)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=T / 16, t_end=T / 2, n_side=128,
                           box_length=16.0)
        split = build_split(picard_grid, 0.5, oversample=2)
        trace = picard_iterate(cfg, theta0, n_max=7, split=split)
        ratios = trace.contraction_ratios()
        ns = sorted(ratios)
        assert all(ratios[n] < 1.0 for n in ns[1:])
        assert trace.verdict == "ok"

    def test_transported_iterate_step_transform_budget(self, picard_grid, picard_split,
                                                       count_planes, monkeypatch):
        # dt = 2^-7: the stage times t + dt that accumulate are the step times
        # exactly, so every step of iterate 3 ends on a node, where the far
        # flux takes the frozen velocity's samples of u_prev[k]: 29 planes per
        # step, 33 when the flux made them again.  Iterate 2's u_prev holds
        # coefficients, which the flux dealiases without a forward transform
        marks = []
        planes = count_planes()
        step = solver.step_transport
        monkeypatch.setattr(solver, "step_transport",
                            lambda *args: marks.append(sum(planes)) or step(*args))
        cfg = SolverConfig(beta=0.5, r=2.5, dt=2.0**-7, t_end=8 * 2.0**-7, n_side=128,
                           box_length=16.0)
        picard_iterate(cfg, picard_dipole(picard_grid), n_max=3, split=picard_split)
        assert len(marks) == 16  # 8 steps in each of iterates 2 and 3
        # steps 2-7 of iterate 3: step 1 also makes the stage-1 velocity at t = 0
        per_step = np.diff(marks[9:])
        assert per_step.max() <= 29

    def test_node_samples_shared_with_the_far_flux(self, picard_grid, picard_split, monkeypatch):
        # the far flux of a samples-only u_prev[k] at a node gets the frozen
        # velocity's samples of it; iterate 2's fluxes (by iterate 1's
        # coefficient-held u), the flux at t = 0 and off-node fluxes (dt =
        # 0.01, where t + dt misses some step times) make their own
        given = []
        far = solver.convolve_far
        monkeypatch.setattr(solver, "convolve_far", lambda *args, **kwargs: given.append(
            kwargs.get("u_samples") is not None) or far(*args, **kwargs))
        theta0 = picard_dipole(picard_grid)
        for dt, n_steps in ((2.0**-7, 8), (0.01, 8)):
            given.clear()
            cfg = SolverConfig(beta=0.5, r=2.5, dt=dt, t_end=n_steps * dt, n_side=128,
                               box_length=16.0)
            picard_iterate(cfg, theta0, n_max=3, split=picard_split)
            # per iterate: the flux at t = 0, then one per step
            iterate2, iterate3 = given[:n_steps + 1], given[n_steps + 1:]
            assert not any(iterate2) and not iterate3[0]
            assert all(iterate3[1:]) == (dt == 2.0**-7) and any(iterate3[1:])

    @pytest.mark.parametrize("n_steps", [3, 5])
    def test_trajectory_interpolated_once_per_time(self, picard_grid, monkeypatch, n_steps):
        # each step's stage 1 reuses the previous step's stage 4, so an
        # iterate's transport interpolates its 2N + 1 distinct times, not 3N
        calls = []
        interp = solver._interp_velocity_time
        monkeypatch.setattr(solver, "_interp_velocity_time",
                            lambda *args: calls.append(args[-1]) or interp(*args))
        theta0 = single_shell_state(picard_grid, m=4, amplitude=0.5)
        cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=n_steps * 0.01, n_side=128,
                           box_length=16.0)
        split = build_split(picard_grid, 0.5, oversample=2)
        trace = picard_iterate(cfg, theta0, n_max=4, split=split)
        assert trace.final["n"] == 4  # the smoothed data, then 3 transported iterates
        assert len(calls) == 3 * (2 * n_steps + 1)

    def test_theta0_off_the_config_grid_rejected(self, picard_grid, picard_split):
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=128, box_length=32.0)
        message = re.escape(f"theta0 on {picard_grid} passed to a run on {Grid2D(128, 32.0)}")
        with pytest.raises(ConfigurationError, match=message):
            picard_iterate(cfg, picard_dipole(picard_grid), n_max=2, split=picard_split)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_existence_constant_rejected(self, picard_grid, c):
        theta0 = single_shell_state(picard_grid)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=128, box_length=16.0,
                           c_existence=c)
        with pytest.raises(ConfigurationError):
            picard_iterate(cfg, theta0, n_max=2)

    def test_requires_two_iterates(self, picard_grid):
        theta0 = single_shell_state(picard_grid)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=128, box_length=16.0)
        with pytest.raises(ConfigurationError):
            picard_iterate(cfg, theta0, n_max=1)

    @pytest.mark.parametrize("n_max", [4.0, 3.5, True])
    def test_n_max_must_be_an_integer(self, picard_grid, n_max):
        theta0 = single_shell_state(picard_grid)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=128, box_length=16.0)
        message = f"n_max must be an integer >= 2, got {n_max}"
        with pytest.raises(ConfigurationError, match=message):
            picard_iterate(cfg, theta0, n_max=n_max)


class TestSplitFitsTheRun:
    """A kernel split carries its grid and beta: a run of another refuses it,
    naming both."""

    @staticmethod
    def message(split_grid, split_beta, grid, beta):
        return re.escape(f"kernel split for {split_grid}, beta={split_beta:g} "
                         f"passed to a run on {grid}, beta={beta:g}")

    @pytest.mark.parametrize("mode", ["direct", "serfati"])
    def test_simulate_refuses_a_split_of_another_beta(self, mode):
        # a beta = 0.25 split in this beta = 0.5 serfati run used to run to the
        # end, with u 8.5e-4 (relative) off the run with its own split
        grid = Grid2D(128, 16.0)
        split = build_split(grid, 0.25, oversample=2)
        with pytest.raises(ConfigurationError, match=self.message(grid, 0.25, grid, 0.5)):
            simulate(split_config(mode, 4), dipole16(grid), split=split)

    def test_picard_refuses_a_split_of_another_beta(self, picard_grid):
        split = build_split(picard_grid, 0.25, oversample=2)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=128, box_length=16.0)
        with pytest.raises(ConfigurationError,
                           match=self.message(picard_grid, 0.25, picard_grid, 0.5)):
            picard_iterate(cfg, picard_dipole(picard_grid), n_max=2, split=split)

    def test_runs_refuse_a_split_of_another_grid(self):
        # the same n on another box: every array has the run's shape
        split = build_split(Grid2D(256, 16.0), 0.5, oversample=1)
        grid = Grid2D(256, 32.0)
        theta0 = dipole16(grid)
        message = self.message(split.grid, 0.5, grid, 0.5)
        for mode in ("direct", "serfati"):
            cfg = SolverConfig(beta=0.5, dt=0.0125, t_end=0.05, constitutive=mode, n_side=256,
                               box_length=32.0, c_existence=0.0)
            with pytest.raises(ConfigurationError, match=message):
                simulate(cfg, theta0, split=split)
        cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, n_side=256, box_length=32.0)
        with pytest.raises(ConfigurationError, match=message):
            picard_iterate(cfg, theta0, n_max=2, split=split)


@pytest.mark.parametrize("run", [simulate, picard_iterate], ids=lambda run: run.__name__)
@pytest.mark.parametrize("u0_grid, components", [
    # a serfati run took the first u0 to the end; the second ended in numpy's
    # broadcast error, the scalar in convolve_far's (scalar, vector) message
    (Grid2D(128, 32.0), 2), (Grid2D(64, 16.0), 2), (Grid2D(128, 16.0), 1),
], ids=["other_box", "other_n", "scalar"])
def test_u0_must_be_a_velocity_on_the_run_grid(run, u0_grid, components, picard_grid):
    cfg = SolverConfig(beta=0.5, dt=0.01, t_end=0.05, constitutive="serfati", n_side=128,
                       box_length=16.0)
    message = re.escape(f"u0 must be a velocity on {picard_grid}, got a "
                        f"{components}-component field on {u0_grid}")
    with pytest.raises(ConfigurationError, match=message):
        run(cfg, picard_dipole(picard_grid), u0=SpectralField.zeros(u0_grid, components))
