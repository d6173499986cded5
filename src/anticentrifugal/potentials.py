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

from enum import Enum, unique
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record, check_int, check_real, check_reals

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
        m = check_int("angular_momentum", self.angular_momentum, 0)
        n = check_int("n_dim", self.n_dim, 1)
        l2 = check_real("classical_l_squared", self.classical_l_squared, sign="non-negative")
        # numpy integers as ints, whose products in _ratio cannot wrap
        self.__dict__.update(angular_momentum=m, n_dim=n, classical_l_squared=l2)

    def _ratio(self) -> tuple[int, int]:
        """Exact coefficient of 1/r^2 as an integer numerator and a positive
        integer denominator.

        Integer arithmetic here keeps the sign classification exact; the
        classical case is the only one with a free real parameter, whose
        float value has an exact ratio of its own.
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
    radii = check_reals("radius", r, sign="positive")
    lanes = np.atleast_1d(radii)
    with np.errstate(all="ignore"):
        v = coeff / (lanes * lanes) if coeff else np.zeros(lanes.shape)
    return v if np.ndim(radii) else v.item()


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
        r_min, r_max = check_real("r_min", self.r_min), check_real("r_max", self.r_max)
        if not (0.0 < r_min < r_max):
            raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
        n = check_int("n_points", self.n_points, 3)
        self.__dict__.update(r_min=r_min, r_max=r_max, n_points=n)

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)


def default_grid(k: float) -> RadialGrid:
    """The 2000-point grid spanning the natural window for wavenumber k."""
    k = check_real("wavenumber", k, sign="positive")
    r_max = 20.0 / k
    if r_max == np.inf:
        raise ValueError(f"wavenumber {k!r} is too small: the default window 20 / k overflows")
    return RadialGrid(0.05 / k, r_max, 2000)
