"""Radial quantum mechanics of the attractive -1/(4 r^2) effective term.

A zero-angular-momentum free particle in two dimensions feels an inverse-
square attraction of purely quantum origin. This package evaluates the
cylinder special functions from scratch, builds the effective potentials
in any dimension, integrates the radial equation, measures node bunching
statistics, and solves the contact-potential bound states whose density
rings around the attracting point. Units are hbar = M = 1 throughout.

Importing the package loads none of its modules: each exported name, and
each submodule, is imported on first access (PEP 562) and then kept in
the package's namespace.
"""

from importlib import import_module as _import_module

#: Each exported name, by the module that defines it.
_HOMES = {
    "boundstate": (
        "DeltaCoupling2D",
        "assemble_phi2",
        "coupling_from_k",
        "coupling_residual",
        "cutoff_integral",
        "density",
        "density_maximum",
        "density_profile",
        "k_from_coupling",
        "normalize_check",
        "one_three_d_bound_energy",
        "ring_peak_parameter",
    ),
    "nodes": (
        "BracketingError",
        "ZeroTable",
        "bunching_verdict",
        "find_zeros",
        "node_density",
        "solve_in_brackets",
    ),
    "potentials": (
        "UNITS",
        "EffectivePotentialSpec",
        "PotentialFamily",
        "RadialGrid",
        "SignClass",
        "classify_potential",
        "eval_potential",
    ),
    "quadrature": ("QuadratureError", "gauss_kronrod_15", "integrate_adaptive"),
    "radial": (
        "Direction",
        "SolutionFamily",
        "analytic_radial",
        "integrate_radial",
        "laplacian_reduction_check",
        "ode_residual",
    ),
    "specfun": (
        "CylinderFamily",
        "besseli",
        "besselj",
        "besselk",
        "bessely",
        "cylinder_slope",
        "sommerfeld_j0",
    ),
    "verify": ("SuiteResult", "run_all"),
}

_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOMES or name == "cli":
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
