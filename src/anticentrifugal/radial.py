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
integrator for the same equation, finite-difference residual checks that
tie the two together, and the normalized bound-state amplitude.
"""

from __future__ import annotations

import math
import sys
from enum import Enum, unique

import numpy as np

from ._record import Record
from .potentials import EffectivePotentialSpec, eval_potential
from .specfun import EULER_GAMMA, _besselk_float, besseli, besselj, besselk, bessely

_OVERFLOW_LIMIT = 1e250

#: K_0(x) = (ln 2 - gamma) - ln x + O(x^2 ln x) as x -> 0
_K0_LOG_OFFSET = math.log(2.0) - EULER_GAMMA


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


def default_grid(k: float, n_points: int = 2000) -> RadialGrid:
    """Grid spanning the natural window for wavenumber k."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    return RadialGrid(0.05 / k, 20.0 / k, n_points)


def energy_from_wavenumber(k: float, sign: EnergySign) -> float:
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    half = 0.5 * k * k
    return half if sign is EnergySign.POSITIVE else -half


def wavenumber_from_energy(energy: float) -> float:
    if not (math.isfinite(energy) and energy != 0.0):
        raise ValueError(f"energy must be nonzero and finite, got {energy!r}")
    return math.sqrt(2.0 * abs(energy))


class RadialWave(Record):
    """Samples of the half-power radial function u(r) = sqrt(r) * Phi(r)."""

    grid: RadialGrid
    values: np.ndarray
    wavenumber: float
    energy_sign: EnergySign
    family: SolutionFamily

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not (math.isfinite(self.wavenumber) and self.wavenumber > 0.0):
            raise ValueError(f"wavenumber must be positive, got {self.wavenumber!r}")
        osc = (SolutionFamily.OSCILLATORY_REGULAR, SolutionFamily.OSCILLATORY_SINGULAR)
        mod = (SolutionFamily.GROWING_MODIFIED, SolutionFamily.DECAYING_MODIFIED)
        if self.energy_sign is EnergySign.NEGATIVE and self.family in osc:
            raise ValueError("oscillatory branches carry positive energy only")
        if self.energy_sign is EnergySign.POSITIVE and self.family in mod:
            raise ValueError("modified branches carry negative energy only")

    @property
    def energy(self) -> float:
        return energy_from_wavenumber(self.wavenumber, self.energy_sign)

    def full_wave(self) -> np.ndarray:
        """Phi(r) = u(r) / sqrt(r)."""
        return self.values / np.sqrt(self.grid.points)


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
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"wavenumber must be positive, got {k!r}")
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
    """
    return _integrate_runs(spec, energy, grid, (seeds,), direction)[0]


def _integrate_runs(
    spec: EffectivePotentialSpec, energy: float, grid: RadialGrid, seed_pairs, direction: Direction
) -> list[RadialWave]:
    """integrate_radial for each pair of *seed_pairs*, every march on one
    build of the step coefficients, which depend on the seeds not at all."""
    if not (math.isfinite(energy) and energy != 0.0):
        raise ValueError(f"energy must be nonzero and finite, got {energy!r}")
    pairs = []
    for seeds in seed_pairs:
        s0, s1 = float(seeds[0]), float(seeds[1])
        if not (math.isfinite(s0) and math.isfinite(s1)):
            raise ValueError(f"seed values must be finite, got {seeds!r}")
        pairs.append((s0, s1))
    r = grid.points
    f = eval_potential(spec, r) - 2.0 * energy
    c = grid.spacing ** 2 / 12.0
    # the step's coefficients 2 + 10 c f and 1 - c f, rounded as on floats;
    # an overflowed f gives inf or nan silently, as float arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        a = (2.0 + 10.0 * c * f).tolist()
        g = (1.0 - c * f).tolist()
    # an inward run marches the reversed grid outward, and reverses back
    inward = direction is not Direction.OUTWARD
    if inward:
        a.reverse()
        g.reverse()
        r = r[::-1]
    sign = EnergySign.POSITIVE if energy > 0 else EnergySign.NEGATIVE
    k = wavenumber_from_energy(energy)
    waves = []
    for s0, s1 in pairs:
        # the march runs on past an overflow, through inf and nan; growth
        # is checked once at the end, and before a division by zero
        u = [s0, s1]
        prev, cur = s0, s1
        try:
            for ai, gb, gf in zip(a[1:-1], g, g[2:]):
                prev, cur = cur, (ai * cur - gb * prev) / gf
                u.append(cur)
        except ZeroDivisionError:
            _check_growth(np.array(u), r)
            raise
        values = np.fromiter(u, float, len(u))
        _check_growth(values, r)
        if inward:
            values = values[::-1].copy()
        waves.append(RadialWave(grid, values, k, sign, SolutionFamily.NUMERIC))
    return waves


def _check_growth(u: np.ndarray, r: np.ndarray) -> None:
    """OverflowError at the radius of the first marched sample of u (seeds
    excluded) that exceeds the limit; u and r are in marching order."""
    grown = np.abs(u[2:]) > _OVERFLOW_LIMIT
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


def _polar_stencil(m: int, k: float, grid: RadialGrid, phi: np.ndarray):
    """Phi = K_m(k r), given on the grid's points, on the interior points
    with its five-point first and second derivatives, and the polar defect
    they give."""
    r = grid.points
    d1, d2 = five_point_derivatives(phi, grid.spacing)
    rc = r[2:-2]
    phic = phi[2:-2]
    polar = d2 + d1 / rc - (m * m / (rc * rc) + k * k) * phic
    return rc, phic, d1, d2, polar


def polar_mode_residual(m: int, k: float, grid: RadialGrid) -> np.ndarray:
    """Defect of the full polar equation for Phi(r) = K_m(k r).

    Returns Phi'' + Phi'/r - (m^2/r^2 + k^2) Phi on the interior points,
    with both derivatives from five-point stencils.
    """
    return _polar_stencil(m, k, grid, besselk(m, k * grid.points))[-1]


def laplacian_reduction_check(m: int, k: float, grid: RadialGrid) -> float:
    """Max polar-equation defect for Phi = K_m(k r), after an identity check.

    Before reporting, verify on the same stencil data that multiplying the
    polar defect by sqrt(r) reproduces the defect of the half-power
    equation term by term: the two formulations differ only by the exact
    cancellation of the +1/(4r^2) and -1/(4r^2) pieces, so any mismatch
    beyond rounding means the reduction was implemented inconsistently.
    """
    return _reduction_check(m, k, grid, besselk(m, k * grid.points))


def _reduction_check(m: int, k: float, grid: RadialGrid, phi: np.ndarray) -> float:
    """laplacian_reduction_check on samples phi = K_m(k r) on the grid's
    points, however computed."""
    rc, phic, d1, d2, polar = _polar_stencil(m, k, grid, phi)
    root = np.sqrt(rc)
    half_power = root * (d2 + d1 / rc - 0.25 * phic / (rc * rc)) - (
        (m * m - 0.25) / (rc * rc) + k * k
    ) * (root * phic)
    scale = 1.0 + float(np.max(np.abs(root * polar)))
    mismatch = float(np.max(np.abs(half_power - root * polar)))
    if mismatch > 1e-8 * scale:
        raise ArithmeticError(
            f"half-power reduction is inconsistent with the polar form "
            f"(mismatch {mismatch:.3e})"
        )
    return float(np.max(np.abs(polar)))


def assemble_phi2(k: float, grid: RadialGrid) -> np.ndarray:
    """Normalized planar bound-state amplitude (k / sqrt(pi)) K_0(k r).

    With this prefactor the integral of 2 pi r |Phi|^2 over the plane
    equals one.
    """
    return _phi2_and_k0(k, grid.points)[0]


def _phi2_and_k0(k: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k / sqrt(pi)) K_0(k r) and the K_0(k r) it was scaled from."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    k0 = _k0_at(k, r)
    # a subnormal k, or an amplitude past the double range (k above about
    # 1.03e308), rounds as float arithmetic does, silently
    with np.errstate(under="ignore", over="ignore"):
        return k / math.sqrt(math.pi) * k0, k0


def _k0_at(k: float, r: np.ndarray) -> np.ndarray:
    """K_0(k r) over an array of positive radii, as _k0_of gives it."""
    with np.errstate(over="ignore", under="ignore"):
        kr = k * r
    k0 = np.zeros(kr.shape)
    tiny = kr < sys.float_info.min
    k0[tiny] = [_k0_of(k, v) for v in r[tiny].tolist()]
    normal = ~tiny & (kr < math.inf)
    k0[normal] = besselk(0, kr[normal])
    return k0


def _k0_of(k: float, r: float) -> float:
    """K_0(k r) at one positive radius.

    0 where k r overflows: K_0 falls to 0 long before, and besselk refuses
    an infinite argument. Where k r underflows (to a subnormal or to 0)
    the product has lost its digits, so K_0 is taken from ln k + ln r.
    Elsewhere k r is a valid argument, and K_0 comes from besselk's float
    path without its checks.
    """
    kr = k * r
    if kr < sys.float_info.min:
        return _K0_LOG_OFFSET - math.log(k) - math.log(r)
    return _besselk_float(0, kr) if kr < math.inf else 0.0
