"""Spectral phase portraits of rank-one and rank-two matrix perturbations.

Subpackage map:
  kernel     - polynomial values and derivatives, elliptic functions
  lowrank    - the four-polynomial determinant decomposition
  curves     - constant-eigenvalue, envelope, Hopf and triple-point loci
  phase      - region classification over the (rho1, rho2) plane
  integrator - line-attractor network models and stacked gain analysis
  continuum  - integral-coupled diffusion eigenbranches
  allencahn  - nonlocal reaction-diffusion front stability; it calls LAPACK
               directly: stebz counts, gtsv solves, geev turning points
  cli        - command line front end; imports allencahn only for rs
"""

from .kernel import Poly
from .lowrank import (
    AKDecomposition,
    LowRankProblem,
    decompose_cofactor,
    perturbed_matrix,
)

__all__ = [
    "Poly",
    "AKDecomposition",
    "LowRankProblem",
    "decompose_cofactor",
    "perturbed_matrix",
]

__version__ = "0.1.0"
