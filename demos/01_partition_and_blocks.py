"""Tour of the dyadic partition: profiles, block projections, Bernstein ratios.

Run:  python demos/01_partition_and_blocks.py
"""
import numpy as np

from sqglab import Grid2D, SpectralField, build_partition, project_block
from sqglab.dyadic import chi_profile, phi_profile
from sqglab.multipliers import gradient

grid = Grid2D(256)
# The grid fixes its dyadic family: build_partition looks it up (built once per
# grid), and project_block and the norms look it up from their field's grid.
fam = build_partition(grid)
print(f"grid: {grid}, realizable blocks j in [{fam.j_min}, {fam.j_max}], "
      f"top grid-supported block {fam.j_top}")

# The partition telescopes exactly: chi + sum_j phi_j = 1 at every mode.
print(f"partition-of-unity residual: {fam.partition_residual():.3e}")

# Profile values at the landmarks the construction pins down.
print(f"chi(0) = {chi_profile(np.array([0.0]))[0]},  phi(1) = {phi_profile(np.array([1.0]))[0]}")

# Reconstruction: summing all blocks recovers a band-limited field.
rng = np.random.default_rng(1)
f = SpectralField.from_values(grid, rng.standard_normal((256, 256)))
from sqglab.fields import dealias
f = dealias(f)
rec = project_block(f, -1, "inhomogeneous")
for j in range(0, fam.j_top + 1):
    rec = rec + project_block(f, j, "inhomogeneous")
print(f"reconstruction error: {(rec - f).linf():.3e}")

# Bernstein: a derivative costs ~2^j on block j.
print("\n j   |grad D_j f| / (2^j |D_j f|)   (sup norms)")
for j in fam.measured_range():
    fj = project_block(f, j, "homogeneous")
    ratio = gradient(fj).linf() / (2.0**j * fj.linf())
    print(f"{j:2d}   {ratio:.4f}")

# Export the radial profiles for plotting.
from sqglab.dyadic import export_profiles_csv
export_profiles_csv("partition_profiles.csv")
print("\nwrote partition_profiles.csv")
