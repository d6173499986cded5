"""Radial Schroedinger problem for the inverse-square potentials.

Substituting u(r) = sqrt(r) * Phi(r) into the planar Schroedinger equation
removes the first-derivative term and leaves

    u''(r) = [v(r) - 2 E] u(r),      v(r) = (m^2 - 1/4) / r^2

in units hbar = M = 1, where v is the effective potential measured in
hbar^2/(2M) (exactly what ``eval_potential`` returns, i.e. twice the
energy). At positive energy E = k^2/2 the solutions are
sqrt(r) times the oscillatory cylinder functions of argument k r; at
negative energy E = -k^2/2 they are sqrt(r) times the modified ones, and
only the decaying branch with m = 0 survives as a bound state.

The module provides the analytic solutions, a fourth-order Numerov
integrator for the same equation, and finite-difference residual checks
that tie the two together.
"""

from __future__ import annotations

import math
import sys
from enum import Enum, unique

import numpy as np

from ._record import Record, check_real
from .potentials import EffectivePotentialSpec, RadialGrid, eval_potential
from .specfun import CylinderFamily, besseli, besselj, besselk, bessely, cylinder_rows

_OVERFLOW_LIMIT = 1e250


@unique
class EnergySign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@unique
class SolutionFamily(Enum):
    """Which analytic branch (or a numeric integration) produced the wave."""

    OSCILLATORY_REGULAR = "J"    # finite at the origin, positive energy
    OSCILLATORY_SINGULAR = "Y"   # log- or power-singular at the origin
    GROWING_MODIFIED = "I"       # negative energy, grows with r
    DECAYING_MODIFIED = "K"      # negative energy, decays with r
    NUMERIC = "numeric"


@unique
class Direction(Enum):
    OUTWARD = "outward"
    INWARD = "inward"


class RadialWave(Record):
    """Samples of the half-power radial function u(r) = sqrt(r) * Phi(r)."""

    grid: RadialGrid
    values: np.ndarray
    wavenumber: float
    energy_sign: EnergySign
    family: SolutionFamily

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        k = check_real("wavenumber", self.wavenumber, sign="positive")
        self.__dict__.update(values=vals, wavenumber=k)
        osc = (SolutionFamily.OSCILLATORY_REGULAR, SolutionFamily.OSCILLATORY_SINGULAR)
        mod = (SolutionFamily.GROWING_MODIFIED, SolutionFamily.DECAYING_MODIFIED)
        if self.energy_sign is EnergySign.NEGATIVE and self.family in osc:
            raise ValueError("oscillatory branches carry positive energy only")
        if self.energy_sign is EnergySign.POSITIVE and self.family in mod:
            raise ValueError("modified branches carry negative energy only")


_ANALYTIC = {
    SolutionFamily.OSCILLATORY_REGULAR: (besselj, EnergySign.POSITIVE),
    SolutionFamily.OSCILLATORY_SINGULAR: (bessely, EnergySign.POSITIVE),
    SolutionFamily.GROWING_MODIFIED: (besseli, EnergySign.NEGATIVE),
    SolutionFamily.DECAYING_MODIFIED: (besselk, EnergySign.NEGATIVE),
}


def analytic_radial(
    family: SolutionFamily, order: int, k: float, grid: RadialGrid
) -> RadialWave:
    """Exact solution u(r) = sqrt(r) * C_order(k r) on the given grid."""
    if family not in _ANALYTIC:
        raise ValueError(f"no closed form for family {family!r}")
    fn, sign = _ANALYTIC[family]
    k = check_real("wavenumber", k, sign="positive")
    r = grid.points
    u = np.sqrt(r) * fn(order, k * r)
    return RadialWave(grid, u, k, sign, family)


def integrate_radial(
    spec: EffectivePotentialSpec,
    energy: float,
    grid: RadialGrid,
    seeds: tuple[float, float],
    direction: Direction = Direction.OUTWARD,
) -> RadialWave:
    """Numerov integration of u'' = (v - 2 E) u across the grid, with v
    the potential in hbar^2/(2M) units as returned by ``eval_potential``.

    ``seeds`` are the first two samples in marching order: (u[0], u[1]) for
    outward runs, (u[-1], u[-2]) for inward ones. The scheme is fourth
    order in the spacing. Growth past 1e250 raises OverflowError, which for
    this equation signals that the exponentially growing branch dominates.
    A step coefficient that is not finite, as where r^2 underflows, raises
    ValueError at its radius.
    """
    energy = check_real("energy", energy)
    if energy == 0.0:
        raise ValueError(f"energy must be nonzero, got {energy!r}")
    s0, s1 = check_real("seeds[0]", seeds[0]), check_real("seeds[1]", seeds[1])
    r = grid.points
    f = eval_potential(spec, r) - 2.0 * energy
    c = grid.spacing ** 2 / 12.0
    # the step's coefficients 2 + 10 c f and 1 - c f, rounded as on floats
    with np.errstate(over="ignore", invalid="ignore"):
        a = 2.0 + 10.0 * c * f
        g = 1.0 - c * f
    # an inward run marches the reversed grid outward, and reverses back
    inward = direction is not Direction.OUTWARD
    if inward:
        a, g, r = a[::-1], g[::-1], r[::-1]
    bad = np.flatnonzero(~(np.isfinite(a) & np.isfinite(g)))
    if bad.size:
        raise ValueError(f"the Numerov coefficients are not finite at r = {float(r[bad[0]])!r}")
    # the march streams the coefficients from memoryviews, whose items are
    # Python floats, into one np.fromiter; it stops before its first zero
    # divisor 1 - c f, where float division would raise
    zero = np.flatnonzero(g[2:] == 0.0)
    stop = 2 + int(zero[0]) if zero.size else grid.n_points
    a, g = memoryview(a), memoryview(g)
    # the march runs on past an overflow, through inf and nan; growth is
    # checked once at its end, so an overflow before a zero divisor is
    # reported in place of the division by zero
    values = np.fromiter(_march(a[1 : stop - 1], g, g[2:stop], s0, s1), float, stop)
    _check_growth(values, r)
    if zero.size:
        raise ZeroDivisionError("float division by zero")
    if inward:
        values = values[::-1].copy()
    sign = EnergySign.POSITIVE if energy > 0 else EnergySign.NEGATIVE
    return RadialWave(grid, values, math.sqrt(2.0 * abs(energy)), sign, SolutionFamily.NUMERIC)


def _march(a, g_back, g_next, prev: float, cur: float):
    """The seeds, then u_{i+1} = (a_i u_i - g_{i-1} u_{i-1}) / g_{i+1} for
    each step of the zipped coefficients, one float at a time."""
    yield prev
    yield cur
    for ai, gb, gf in zip(a, g_back, g_next):
        prev, cur = cur, (ai * cur - gb * prev) / gf
        yield cur


def _check_growth(u: np.ndarray, r: np.ndarray) -> None:
    """OverflowError at the radius of the first marched sample of u (seeds
    excluded) past the limit, or nan from an overflowed step; u and r are
    in marching order."""
    grown = ~(np.abs(u[2:]) <= _OVERFLOW_LIMIT)
    if grown.any():
        at = r[2 + np.argmax(grown)]
        raise OverflowError(
            f"radial solution exceeded {_OVERFLOW_LIMIT:.0e} at r = {at:.6g}; "
            "the growing branch dominates this integration direction"
        )


def five_point_derivatives(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of samples spaced h apart, from the
    five-point central stencils, on all but the two outermost samples at
    each end; both are fourth order in h."""
    if u.shape[0] < 5:
        raise ValueError("residual stencil needs at least 5 grid points")
    d1 = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    d2 = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1] - u[4:]) / (12.0 * h * h)
    return d1, d2


def ode_residual(
    wave: RadialWave, spec: EffectivePotentialSpec, energy: float
) -> float:
    """Max absolute defect of u'' - (v - 2 E) u on the interior points,
    with v the potential in hbar^2/(2M) units.

    The second derivative is taken with the five-point central stencil, so
    an analytic solution sampled on a grid of spacing h leaves a residual
    of order h^4 times the sixth derivative.
    """
    u = wave.values
    r = wave.grid.points
    d2 = five_point_derivatives(u, wave.grid.spacing)[1]
    rhs = (eval_potential(spec, r[2:-2]) - 2.0 * energy) * u[2:-2]
    return float(np.max(np.abs(d2 - rhs)))


def laplacian_reduction_check(k: float, grid: RadialGrid) -> float:
    """Max polar-equation defect of Phi = K_m(k r) over the orders m = 0
    and 1, after an identity check.

    Each defect is Phi'' + Phi'/r - (m^2/r^2 + k^2) Phi on the interior
    points, with both derivatives from five-point stencils.  Before
    reporting, verify on the same stencil data that multiplying the polar
    defect by sqrt(r) reproduces the defect of the half-power equation
    term by term: the two formulations differ only by the exact
    cancellation of the +1/(4r^2) and -1/(4r^2) pieces, so any mismatch
    beyond rounding means the reduction was implemented inconsistently.

    k r_min must be a normal double and k^2 finite.  K_0 and K_1 come from
    one cylinder_rows pass, besselk's values bit for bit below k r = 705
    and zeros from there on, where both are below 1e-306.  A defect or
    mismatch that leaves the double range, as where K_1(k r_min) nears it
    (k below about 1e-306 with r_min = 0.5), raises ValueError.
    """
    k = check_real("wavenumber", k, sign="positive")
    if not (k * grid.r_min >= sys.float_info.min and math.isfinite(k * k)):
        raise ValueError(f"need k r_min normal and k^2 finite, got k = {k!r}")
    r = grid.points
    rc = r[2:-2]
    root = np.sqrt(rc)
    defects = []
    for m, phi in enumerate(cylinder_rows(CylinderFamily.MODIFIED_K, k * r, 2)):
        # an overflow is refused below, and underflow rounds silently
        with np.errstate(all="ignore"):
            d1, d2 = five_point_derivatives(phi, grid.spacing)
            phic = phi[2:-2]
            polar = d2 + d1 / rc - (m * m / (rc * rc) + k * k) * phic
            half_power = root * (d2 + d1 / rc - 0.25 * phic / (rc * rc)) - (
                (m * m - 0.25) / (rc * rc) + k * k
            ) * (root * phic)
            scale = 1.0 + float(np.max(np.abs(root * polar)))
            mismatch = float(np.max(np.abs(half_power - root * polar)))
        defect = float(np.max(np.abs(polar)))
        if not (math.isfinite(defect) and math.isfinite(mismatch)):
            raise ValueError(f"the order-{m} stencils leave the double range at k = {k!r}")
        if mismatch > 1e-8 * scale:
            raise ArithmeticError(
                f"half-power reduction is inconsistent with the polar form "
                f"(mismatch {mismatch:.3e})"
            )
        defects.append(defect)
    return max(defects)
