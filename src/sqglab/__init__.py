"""Pseudo-spectral laboratory for the generalized surface quasi-geostrophic model.

The package implements, on a periodic square box, the gSQG transport system
with velocity u = perp-gradient of the inverse fractional Laplacian of the
advected scalar, together with the analysis toolbox needed to measure it:
dyadic (Littlewood-Paley) block operators, fractional/Bessel multipliers,
Holder-Zygmund and uniformly local Sobolev norm estimators, the near/far
kernel split behind the Serfati velocity identity, a Picard approximation
scheme, and a harness that turns inequalities into measured-constant checks.

Transform normalization (used everywhere): for a field f sampled on an
n x n grid over [0, L)^2 with spacing h = L/n, the coefficients are

    c_k = (L / n^2) * sum_x f(x) exp(-i k.x),

i.e. the continuum Fourier integral over the box divided by L.  They are
stored in the layout of ``rfft2``, columns 0..n/2 of the lattice (shape
(n, n/2 + 1)), since c_(-k) = conj(c_k) for a real field.  With this
choice Parseval reads  sum_k |c_k|^2 = h^2 * sum_x |f(x)|^2  exactly, where
the sum over all modes counts each stored column other than 0 and n/2
twice; the k = 0 coefficient of a constant c equals c*L, and L^2 norms
computed in either representation agree.  The full n x n layout exists
only through ``fields.full_coefficients``.
"""

from .grid import Grid2D
from .fields import SpectralField
from .dyadic import DyadicFamily, build_partition, project_block, smooth_truncate_initial
from .multipliers import (
    MultiplierSpec,
    apply_multiplier,
    frac_laplacian,
    bessel,
    biot_savart_velocity,
    kato_ponce_commutator,
)
from .norms import (
    NormReport,
    WindowFamily,
    zygmund_norm,
    classical_holder_norm,
    sobolev_norm,
    uniformly_local_norm,
)
from .kernels import CutoffA, KernelSplit, build_split, convolve_near, convolve_far
from .solver import (
    SolverConfig,
    SimState,
    IterationTrace,
    step_transport,
    velocity_serfati,
    simulate,
    flow_map,
    picard_iterate,
    existence_time,
)
from .verify import (
    VerificationReport,
    EnsembleSpec,
    check_multiplier_bounds,
    check_commutators,
    check_velocity_regularity,
    check_apriori_bounds,
    verify_fundamental_solution,
)

__all__ = [
    "Grid2D",
    "SpectralField",
    "DyadicFamily",
    "build_partition",
    "project_block",
    "smooth_truncate_initial",
    "MultiplierSpec",
    "apply_multiplier",
    "frac_laplacian",
    "bessel",
    "biot_savart_velocity",
    "kato_ponce_commutator",
    "NormReport",
    "WindowFamily",
    "zygmund_norm",
    "classical_holder_norm",
    "sobolev_norm",
    "uniformly_local_norm",
    "CutoffA",
    "KernelSplit",
    "build_split",
    "convolve_near",
    "convolve_far",
    "verify_fundamental_solution",
    "SolverConfig",
    "SimState",
    "IterationTrace",
    "step_transport",
    "velocity_serfati",
    "simulate",
    "flow_map",
    "picard_iterate",
    "existence_time",
    "VerificationReport",
    "EnsembleSpec",
    "check_multiplier_bounds",
    "check_commutators",
    "check_velocity_regularity",
    "check_apriori_bounds",
]

__version__ = "0.1.0"
