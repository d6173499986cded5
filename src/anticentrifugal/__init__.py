"""Radial quantum mechanics of the attractive -1/(4 r^2) effective term.

A zero-angular-momentum free particle in two dimensions feels an inverse-
square attraction of purely quantum origin. This package evaluates the
cylinder special functions from scratch, builds the effective potentials
in any dimension, integrates the radial equation, measures node bunching
statistics, and solves the contact-potential bound states whose density
rings around the attracting point. Units are hbar = M = 1 throughout.
"""

from .boundstate import (
    DeltaCoupling2D,
    assemble_phi2,
    coupling_from_k,
    coupling_residual,
    cutoff_integral,
    density,
    density_maximum,
    density_profile,
    k_from_coupling,
    normalize_check,
    one_three_d_bound_energy,
    ring_peak_parameter,
)
from .nodes import (
    BracketingError,
    ZeroTable,
    bunching_verdict,
    find_zeros,
    node_density,
    solve_in_brackets,
)
from .potentials import (
    UNITS,
    EffectivePotentialSpec,
    PotentialFamily,
    SignClass,
    classify_potential,
    eval_potential,
)
from .quadrature import QuadratureError, gauss_kronrod_15, integrate_adaptive
from .radial import (
    Direction,
    RadialGrid,
    SolutionFamily,
    analytic_radial,
    integrate_radial,
    laplacian_reduction_check,
    ode_residual,
)
from .specfun import (
    CylinderFamily,
    besseli,
    besselj,
    besselk,
    bessely,
    cylinder_slope,
    sommerfeld_j0,
)
from .verify import SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "CylinderFamily",
    "DeltaCoupling2D",
    "Direction",
    "EffectivePotentialSpec",
    "PotentialFamily",
    "QuadratureError",
    "RadialGrid",
    "SignClass",
    "SolutionFamily",
    "SuiteResult",
    "UNITS",
    "ZeroTable",
    "analytic_radial",
    "assemble_phi2",
    "besseli",
    "besselj",
    "besselk",
    "bessely",
    "bunching_verdict",
    "classify_potential",
    "coupling_from_k",
    "coupling_residual",
    "cutoff_integral",
    "cylinder_slope",
    "density",
    "density_maximum",
    "density_profile",
    "eval_potential",
    "find_zeros",
    "gauss_kronrod_15",
    "integrate_adaptive",
    "integrate_radial",
    "k_from_coupling",
    "laplacian_reduction_check",
    "node_density",
    "normalize_check",
    "ode_residual",
    "one_three_d_bound_energy",
    "ring_peak_parameter",
    "run_all",
    "solve_in_brackets",
    "sommerfeld_j0",
    "__version__",
]
