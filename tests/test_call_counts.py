"""Calls per solve of the layer functions whose counts the benchmark's traced
self-test pins: a change that moves one of them shows here, not only there.

Each count is taken as a tracer sees it: a counting wrapper is rebound on
every ``sqglab`` module attribute that refers to the function, so a call
reaches it under whichever name it was imported.
"""

import functools
import sys

import numpy as np
import pytest

from sqglab import kernels, multipliers, solver
from sqglab.fields import SpectralField
from sqglab.grid import Grid2D
from sqglab.kernels import build_split
from sqglab.solver import SolverConfig, picard_iterate, simulate


def count_calls(monkeypatch, func) -> list:
    """Count calls of ``func`` under every name the package binds it to;
    returns the list that grows by one entry per call."""
    calls = []

    @functools.wraps(func)
    def counting(*args, **kwargs):
        calls.append(None)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "sqglab" or name.startswith("sqglab."):
            for attr, obj in list(vars(mod).items()):
                if obj is func:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def dipole(grid, separation, amplitude=1.0):
    x1, x2 = grid.coords_centered()
    return SpectralField.from_values(
        grid, amplitude * (np.exp(-((x1 - separation) ** 2 + x2**2) / 1.28)
                           - np.exp(-((x1 + separation) ** 2 + (x2 - 0.1) ** 2) / 1.28)))


@pytest.mark.parametrize("steps", [1, 3])
def test_direct_biot_savart_calls(monkeypatch, steps):
    # u0, the u0 consistency check, then 4 RK4 stages plus the new velocity
    grid = Grid2D(32)
    calls = count_calls(monkeypatch, multipliers.biot_savart_velocity)
    cfg = SolverConfig(beta=0.5, dt=0.01, t_end=steps * 0.01, n_side=32, c_existence=0.0)
    traj = simulate(cfg, dipole(grid, 0.6))
    assert traj.diagnostics["n_steps"] == steps
    assert len(calls) == 5 * steps + 2


def test_direct_velocities_derived_on_read(monkeypatch):
    # the run stores theta's coefficients; each read of us[i], i >= 1, is one
    # multiply, us[0] (u0) none, and every flow map reads each node once
    grid = Grid2D(32)
    steps = 3
    calls = count_calls(monkeypatch, multipliers.biot_savart_velocity)
    cfg = SolverConfig(beta=0.5, dt=0.01, t_end=steps * 0.01, n_side=32, c_existence=0.0,
                       sample_every=1)
    traj = simulate(cfg, dipole(grid, 0.6))
    assert len(calls) == 5 * steps + 2
    traj.us[0]
    assert len(calls) == 5 * steps + 2
    traj.us[-1]
    assert len(calls) == 5 * steps + 3
    list(traj.us)
    assert len(calls) == 6 * steps + 3
    for i in range(2):
        solver.flow_map(traj, np.zeros((1, 2)), 0.01)
        assert len(calls) == (7 + i) * steps + 3


@pytest.mark.parametrize("steps", [1, 3])
def test_serfati_convolution_calls(monkeypatch, steps):
    # far: the initial integrand, then predictor and corrector per step;
    # near: one reconstruction for the corrector and one for the state
    grid = Grid2D(128, 16.0)
    split = build_split(grid, 0.5, oversample=2)
    far = count_calls(monkeypatch, kernels.convolve_far)
    near = count_calls(monkeypatch, kernels.convolve_near)
    cfg = SolverConfig(beta=0.5, dt=0.0125, t_end=steps * 0.0125, constitutive="serfati",
                       n_side=128, box_length=16.0, c_existence=0.0)
    traj = simulate(cfg, dipole(grid, 1.5), split=split)
    assert traj.diagnostics["n_steps"] == steps
    assert (len(far), len(near)) == (2 * steps + 1, 2 * steps)


@pytest.mark.parametrize("steps", [1, 3])
def test_direct_with_split_convolution_calls(monkeypatch, steps):
    # criterion 5's run: the far integrand at t = 0 and at every step's new
    # state; the reconstruction is left to velocity_serfati, so no near call
    grid = Grid2D(128, 16.0)
    split = build_split(grid, 0.5, oversample=2)
    far = count_calls(monkeypatch, kernels.convolve_far)
    near = count_calls(monkeypatch, kernels.convolve_near)
    cfg = SolverConfig(beta=0.5, dt=0.0125, t_end=steps * 0.0125, n_side=128,
                       box_length=16.0, c_existence=0.0)
    traj = simulate(cfg, dipole(grid, 1.5), split=split)
    assert traj.diagnostics["n_steps"] == steps
    assert (len(far), len(near)) == (steps + 1, 0)


@pytest.mark.parametrize("steps, n_max", [(2, 2), (3, 4)])
def test_picard_convolution_calls(monkeypatch, steps, n_max):
    # per iterate: the far integrand at every step boundary, the near
    # reconstruction at every step after the first
    grid = Grid2D(128, 16.0)
    split = build_split(grid, 0.5, oversample=2)
    far = count_calls(monkeypatch, kernels.convolve_far)
    near = count_calls(monkeypatch, kernels.convolve_near)
    transport = count_calls(monkeypatch, solver.step_transport)
    cfg = SolverConfig(beta=0.5, r=2.5, dt=0.01, t_end=steps * 0.01, n_side=128,
                       box_length=16.0)
    picard_iterate(cfg, dipole(grid, 1.6, amplitude=0.8), n_max=n_max, split=split)
    iterates = n_max - 1
    assert len(transport) == iterates * steps
    assert (len(far), len(near)) == (iterates * (steps + 1), iterates * steps)
