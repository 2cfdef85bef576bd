"""Transport run with the reconstruction identity tracked along the way.

A compact scalar is advected under the direct constitutive law while the
near/far reconstruction accumulates its time integral; at the end the two
velocity routes are compared.  Halving dt quarters the gap (trapezoid).

Run:  python demos/05_serfati_identity_run.py
"""
from sqglab import Grid2D, SolverConfig, build_split, simulate, velocity_serfati
from sqglab.multipliers import biot_savart_velocity
from sqglab.verify import gaussian_dipole

beta = 0.5
grid = Grid2D(256, 16.0)
split = build_split(grid, beta)
theta0 = gaussian_dipole(grid, 1.5, 1.28)

for dt in (0.025, 0.0125):
    cfg = SolverConfig(beta=beta, dt=dt, t_end=0.5, n_side=256, box_length=16.0,
                       c_existence=0.0, record_norms=("linf:theta",))
    traj = simulate(cfg, theta0, split=split)
    state = traj.final_state
    u_rec = velocity_serfati(state, traj.us[0], theta0, split)
    u_dir = biot_savart_velocity(state.theta, beta)
    gap = (u_rec - u_dir).linf() / u_dir.linf()
    print(f"dt={dt:7.4f}: identity gap {gap:.3e}, L2 drift {traj.diagnostics['l2_drift']:.2e}")

print("\nThe same comparison in 'serfati' mode (velocity FROM the identity):")
cfg = SolverConfig(beta=beta, dt=0.0125, t_end=0.5, n_side=256, box_length=16.0,
                   constitutive="serfati", c_existence=0.0, record_norms=("linf:theta",))
traj = simulate(cfg, theta0, split=split)
u_dir = biot_savart_velocity(traj.final_state.theta, beta)
gap = (traj.final_state.u - u_dir).linf() / u_dir.linf()
print(f"serfati-mode velocity vs direct law at t=0.5: {gap:.3e}")
