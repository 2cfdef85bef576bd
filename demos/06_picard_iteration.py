"""The approximation sequence: smoothed data, frozen velocities, contraction.

Run:  python demos/06_picard_iteration.py
"""
import numpy as np

from sqglab import Grid2D, SolverConfig, existence_time, picard_iterate, zygmund_norm
from sqglab.multipliers import biot_savart_velocity
from sqglab.verify import gaussian_dipole

grid = Grid2D(128, 16.0)
theta0 = gaussian_dipole(grid, 1.6, 1.28, 0.8)
u0 = biot_savart_velocity(theta0, 0.5)

T = existence_time(u0.linf(), zygmund_norm(theta0, 2.5).value, 1.0)
print(f"existence-time estimate: T = {T:.4f}; iterating on [0, T/2]")

cfg = SolverConfig(beta=0.5, r=2.5, dt=T / 28, t_end=T / 2, n_side=128, box_length=16.0)
trace = picard_iterate(cfg, theta0, u0=u0, n_max=10)

print("\n n    D_n(T/2)       ratio to previous")
ns = sorted(trace.decrements)
prev = None
for n in ns:
    d = trace.decrements[n][-1]
    ratio = "" if prev is None or prev == 0 else f"{d/prev:.3f}"
    print(f"{n:2d}   {d:.6e}   {ratio}")
    prev = d

partial = np.cumsum([trace.decrements[n][-1] for n in ns])
print(f"\npartial sums of D_n: last increment {partial[-1]-partial[-2]:.2e} "
      f"(summability in action)")
print(f"verdict: {trace.verdict}")
