"""Effective radial potentials of inverse-square form.

After separating angular variables and rescaling the radial wavefunction so
that the first-derivative term drops out, every free Schroedinger problem in
N spatial dimensions leaves a one-dimensional problem with an effective
potential

    V_eff(r) = strength / r**2

in units hbar = M = 1 (so energies carry a factor hbar^2 / (2 M length^2)).
The strength depends only on the dimension and the angular momentum, and its
sign decides whether the term pushes probability outward or pulls it inward.
The notable member of the family is the planar zero-angular-momentum case,
whose strength is -1/4: an attractive term of purely quantum origin.

The module also defines the uniform radial grid on which the potential,
the planar bound state and the radial solvers are sampled.
"""

from __future__ import annotations

import math
from enum import Enum, unique
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record

if TYPE_CHECKING:
    from fractions import Fraction

UNITS = "hbar = M = 1; V(r) in units hbar^2 / (2 M length^2)"


@unique
class PotentialFamily(Enum):
    """Which inverse-square coefficient to use."""

    PLANAR_WAVE = "planar"            # 2D, integer angular momentum m
    SPATIAL_WAVE = "spatial"          # 3D, integer angular momentum l
    ZERO_MOMENTUM_NDIM = "ndim"       # N dimensions, zero angular momentum
    CLASSICAL = "classical"           # classical centrifugal barrier L^2/r^2
    QUANTUM_ANTICENTRIFUGAL = "quantum-anti"  # the bare -1/(4 r^2) term


@unique
class SignClass(Enum):
    ATTRACTIVE = "attractive"
    REPULSIVE = "repulsive"
    VANISHING = "vanishing"


class EffectivePotentialSpec(Record):
    """Parameters selecting one member of the inverse-square family.

    Exactly the fields relevant to the chosen family are read:
    ``angular_momentum`` for the planar and spatial waves,
    ``n_dim`` for the zero-angular-momentum N-dimensional case and
    ``classical_l_squared`` for the classical barrier.
    """

    family: PotentialFamily
    angular_momentum: int = 0
    n_dim: int = 2
    classical_l_squared: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.family, PotentialFamily):
            raise TypeError(f"family must be a PotentialFamily, got {self.family!r}")
        m = self.angular_momentum
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError(f"angular_momentum must be an int, got {m!r}")
        if m < 0:
            raise ValueError(f"angular_momentum must be non-negative, got {m}")
        n = self.n_dim
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"n_dim must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"n_dim must be at least 1, got {n}")
        l2 = self.classical_l_squared
        if not (isinstance(l2, (int, float)) and math.isfinite(l2)):
            raise ValueError(f"classical_l_squared must be finite, got {l2!r}")
        if l2 < 0:
            raise ValueError(f"classical_l_squared must be non-negative, got {l2}")

    def _ratio(self) -> tuple[int, int]:
        """Exact coefficient of 1/r^2 as an integer numerator and a positive
        integer denominator.

        Integer arithmetic here keeps the sign classification exact; the
        classical case is the only one with a free real parameter, whose
        float or int value has an exact ratio of its own.
        """
        if self.family is PotentialFamily.PLANAR_WAVE:
            return 4 * self.angular_momentum**2 - 1, 4
        if self.family is PotentialFamily.SPATIAL_WAVE:
            return self.angular_momentum * (self.angular_momentum + 1), 1
        if self.family is PotentialFamily.ZERO_MOMENTUM_NDIM:
            return (self.n_dim - 1) * (self.n_dim - 3), 4
        if self.family is PotentialFamily.CLASSICAL:
            return self.classical_l_squared.as_integer_ratio()
        return -1, 4

    def strength_quarters(self) -> Fraction:
        """Exact coefficient of 1/r^2, returned as a fraction."""
        from fractions import Fraction

        return Fraction(*self._ratio())

    @property
    def strength(self) -> float:
        """Coefficient of 1/r^2 as a float: the correctly rounded quotient."""
        num, den = self._ratio()
        return num / den


def eval_potential(spec: EffectivePotentialSpec, r):
    """Evaluate V_eff(r) = strength / r^2 at positive radii.

    Accepts a scalar or an array; the return type matches. A scalar radius
    runs as a one-element array: it gives that array's value, or raises its
    error, under any np.seterr setting.  Radii must be strictly positive
    and finite; ValueError names the first that is not.  Where r * r
    underflows or overflows, a nonzero strength gives +-inf or 0 and a
    vanishing one exact zeros, silently.
    """
    coeff = spec.strength
    radii = np.asarray(r, dtype=float)
    lanes = np.atleast_1d(radii)
    bad = ~(np.isfinite(lanes) & (lanes > 0.0))
    if bad.any():
        raise ValueError(f"radius must be positive and finite, got {lanes[bad][0].item()!r}")
    with np.errstate(all="ignore"):
        v = coeff / (lanes * lanes) if coeff else np.zeros(lanes.shape)
    return v if radii.ndim else v.item()


def classify_potential(spec: EffectivePotentialSpec) -> SignClass:
    """Attractive, repulsive or vanishing, decided by the exact strength."""
    num, _ = spec._ratio()
    if num < 0:
        return SignClass.ATTRACTIVE
    if num > 0:
        return SignClass.REPULSIVE
    return SignClass.VANISHING


class RadialGrid(Record):
    """Uniform grid on [r_min, r_max], bounded away from the origin."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ValueError("grid endpoints must be finite")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(
                f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]"
            )
        if not isinstance(self.n_points, int) or isinstance(self.n_points, bool):
            raise TypeError(f"n_points must be an int, got {self.n_points!r}")
        if self.n_points < 3:
            raise ValueError(f"n_points must be at least 3, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)


def default_grid(k: float) -> RadialGrid:
    """The 2000-point grid spanning the natural window for wavenumber k."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    return RadialGrid(0.05 / k, 20.0 / k, 2000)
