"""The near/far kernel split and the fundamental-solution validation.

Run:  python demos/04_kernel_split.py
"""
import numpy as np

from sqglab import Grid2D, build_split, verify_fundamental_solution
from sqglab.kernels import far_flux_integral, split_consistency_error
from sqglab.verify import gaussian_dipole

beta = 0.5
grid = Grid2D(256, 16.0)
split = build_split(grid, beta)

print(f"c_beta = {split.c_beta:.6f}")
print(f"near kernel L1 norm (quadrature): {split.near_l1():.4f}")
print(f"far kernel decay exponent: {split.far_decay_exponent():.3f}  (expect {-(beta+2)})")
print(f"|F((-Lap)^(1-beta/2)(a Phi))|_max = {split.near_potential_transform_max():.3f}  (finite)")
print(f"far-field tail L1 bound beyond L/2: {split.tail_bound:.4f}")

# Discrete integral of the sampled far kernel over a disc matches the
# divergence-theorem flux constant.
x1, x2 = grid.coords_centered()
rho = np.hypot(x1, x2)
R = 6.0
disc_sum = split.far[:, :, rho <= R].sum(axis=-1) * grid.spacing**2
print("\nfar kernel disc integral vs flux constant (R=6):")
print(np.round(disc_sum, 5))
print(np.round(far_flux_integral(beta, split.c_beta, R), 5))

# Split consistency: near + mid convolution reproduces the multiplier velocity.
err = split_consistency_error(split, gaussian_dipole(grid, 1.5, 1.0))
print(f"\nsplit consistency (near+far routes vs multiplier): {err:.2e}")

# Phi_beta really is the fundamental solution, with the classical constant.
rep = verify_fundamental_solution(beta, Grid2D(512, 16 * np.pi))
print(f"\nfundamental solution check: {rep.summary_line()}")
for n, e in rep.details["errors_by_n"].items():
    print(f"  n={n}: relative L2 error {e:.3e}")
