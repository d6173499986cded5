"""Bound states of an attractive contact (delta) potential in 1, 2 and 3 D.

Each dimension binds a single state of energy E = -k^2/2 (units
hbar = M = 1) whose radial probability weight is

    N = 1:  W(x) = k exp(-2 k |x|)            maximal at the origin
    N = 2:  W(r) = 2 k^2 r K_0(k r)^2         zero at the origin, ring-shaped
    N = 3:  W(r) = 2 k exp(-2 k r)            maximal at the origin

The planar case is the odd one out: the -1/(4 r^2) effective attraction
drags the decaying cylinder wave into a profile whose most probable radius
sits at a finite ring r = xi / k, with xi a universal constant. Its
normalized bound-state amplitude is (k / sqrt(pi)) K_0(k r), whose
2 pi r |Phi|^2 is W above. Each weight depends on k only through
xi = k r, so its total probability is one number per form, integrated
once in xi. The planar wavenumber also needs
regularization; with a sharp momentum cutoff L the coupling U0 > 0 and the
wavenumber are tied by

    k = L / sqrt(exp(4 pi / U0) - 1).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from ._record import Record, check_int, check_real
from .nodes import solve_in_brackets
from .potentials import RadialGrid
from .quadrature import gauss_kronrod_15, integrate_adaptive
from .specfun import CylinderFamily, cylinder_rows, k0_product


def _check_dimension(dimension) -> int:
    dimension = check_int("dimension", dimension, 1)
    if dimension not in _RHO:
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension!r}")
    return dimension


def density_profile(dimension: int, k: float, r):
    """Radial probability weight W(r) of the bound state; scalar or array.
    The line's r is a signed coordinate, and the ring's and the sphere's
    radii are non-negative.  A scalar radius runs as a one-element array:
    it gives that array's value, or raises its error, under any np.seterr
    setting.  The ring's K_0 of one radius comes from k0_product's float
    path, and radii that are all 0 make no K_0 call."""
    dimension = _check_dimension(dimension)
    k = check_real("wavenumber", k, sign="positive")
    radii = check_real("radius", r, sign=None if dimension == 1 else "non-negative")
    if np.ndim(radii):
        return _density_array(dimension, k, radii)
    return _density_array(dimension, k, np.array([radii])).item()


def _density_array(dimension: int, k: float, r: np.ndarray) -> np.ndarray:
    # an overflowing exponent rounds to -inf and an underflowing product to
    # zero, silently.  The line and radial weights are k rho(k r), rho(xi) =
    # e^(-2 xi) or 2 e^(-2 xi): 2 k and 2 k r, which would overflow first,
    # are never formed, and where they are normal the values are those of
    # the forms above, bit for bit.  The ring weight is 0 at r = 0.
    with np.errstate(over="ignore", under="ignore"):
        if dimension == 1:
            return k * np.exp(-2.0 * (k * np.abs(r)))
        if dimension == 3:
            return k * (2.0 * np.exp(-2.0 * (k * r)))
        out = np.zeros(r.shape)
        pos = r > 0.0
        if pos.any():
            rp = r[pos]
            # one radius, as a scalar's, takes K_0's float path: the same bits
            k0 = np.array([k0_product(k, rp.item())]) if rp.size == 1 else k0_product(k, rp)
            out[pos] = _ring_weight(k, rp, k0)
    return out


def planar_rows(k: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized planar amplitude (k / sqrt(pi)) K_0(k r) and the
    weight W = 2 k^2 r K_0(k r)^2 at an array of positive radii, both from
    one K_0(k r) pass: the phi2 and w2 columns of ``wavefunction``.

    With this prefactor the integral of 2 pi r |Phi|^2 over the plane
    equals one.  A subnormal k, or an amplitude past the double range (k
    above about 1.03e308), rounds as float arithmetic does, silently.
    """
    k = check_real("wavenumber", k, sign="positive")
    k0 = k0_product(k, r)
    with np.errstate(under="ignore", over="ignore"):
        phi2 = k / math.sqrt(math.pi) * k0
    return phi2, _ring_weight(k, r, k0)


def _ring_weight(k: float, r: np.ndarray, k0: np.ndarray) -> np.ndarray:
    """W = 2 k^2 r K_0(k r)^2 at an array of positive radii from
    k0 = K_0(k r): 0 where K_0 is 0, where 2 k^2 r or k r may have
    overflowed.  Underflow rounds silently, and so does a W past the
    double range (k above about 1.45e308).

    Where 2 k^2 underflows (k below about 1e-154) the factors are grouped
    as (2 k ((k r) K_0)) K_0.  Where it overflows (k above about 9e153)
    they are grouped as (2 (k ((k r) K_0))) K_0, which never forms 2 k,
    itself past the double range from about 9e307 on: (k r) K_0(k r) <=
    0.47, so 2 (k ((k r) K_0)) is at most 0.94 k, and k ((k r) K_0) is
    normal, so doubling it is exact.  Where 2 k^2 is normal and K_0 > 0,
    k r < 746 keeps 2 k^2 r finite.
    """
    out = np.zeros(r.shape)
    pos = k0 > 0.0
    r, k0 = r[pos], k0[pos]
    two_k2 = 2.0 * k * k
    with np.errstate(under="ignore", over="ignore"):
        if sys.float_info.min <= two_k2 <= sys.float_info.max:
            out[pos] = two_k2 * r * k0**2
        elif two_k2 > 1.0:
            out[pos] = 2.0 * (k * ((k * r) * k0)) * k0
        else:
            out[pos] = 2.0 * k * ((k * r) * k0) * k0
    return out


def _ring_rho(xi: float) -> float:
    # K_0 from besselk's float path without its checks where xi is normal,
    # and from ln xi where it is subnormal
    k0 = k0_product(1.0, xi) if xi > 0.0 else 0.0
    return 2.0 * xi * (k0 * k0)


#: rho(xi) = W(xi / k) / k of each dimension's form, the weight at k = 1,
#: at one float xi >= 0: bit for bit density_profile(dimension, 1.0, xi),
#: since np.exp of a float rounds as on an array, and k0 * k0 as numpy's
#: square.
_RHO = {
    1: lambda xi: float(np.exp(-2.0 * xi)),
    2: _ring_rho,
    3: lambda xi: float(2.0 * np.exp(-2.0 * xi)),
}


class ProbabilityDensity(Record):
    """Sampled bound-state weight for one dimension and wavenumber."""

    dimension: int
    wavenumber: float
    radii: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.__dict__["dimension"] = _check_dimension(self.dimension)


def density(dimension: int, k: float, grid) -> ProbabilityDensity:
    """Sample W on ``grid`` (a RadialGrid or an array of radii)."""
    if isinstance(grid, RadialGrid):
        radii = grid.points
    else:
        radii = np.asarray(grid, dtype=float)
        if radii.ndim != 1 or radii.size == 0:
            raise ValueError("grid must be a RadialGrid or a 1-d array of radii")
    w = density_profile(dimension, k, radii)
    return ProbabilityDensity(dimension, check_real("wavenumber", k, sign="positive"), radii, w)


def normalize_check(pd: ProbabilityDensity) -> float:
    """Total probability of pd's form: one number per form, whatever k.

    W(r) dr = rho(xi) dxi in xi = k r, with rho the weight at k = 1: the
    total is quadrature of rho over xi in [0, 40], computed on first use and
    cached, plus the exact tail exp(-80) of the line and radial forms (the
    ring's, below (pi/2) (1 + 1/320)^2 exp(-80) ~ 3e-35, is left out).
    """
    return _scale_free_total(pd.dimension)


@lru_cache(maxsize=None)
def _scale_free_total(dimension: int) -> float:
    core = integrate_adaptive(_RHO[dimension], 0.0, 40.0).value
    if dimension == 2:
        return core
    return (2.0 * core if dimension == 1 else core) + math.exp(-80.0)


#: A bracket of the ring constant: the stationarity defect
#: K_0(x) - 2 x K_1(x) is positive at its left end and negative at its right.
_RING_BRACKET = (0.05, 0.5)


def _ring_stationarity(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # s = K_0 - 2 x K_1 and s' = 2 x K_0 - K_1, with K_0 and K_1 from one
    # float pass per lane, as besselk(0) and besselk(1) give them at the
    # normal arguments below the scaled switch where the bracket lies
    k0, k1 = np.array([cylinder_rows(CylinderFamily.MODIFIED_K, x, 2) for x in xs.tolist()]).T
    return k0 - 2.0 * xs * k1, 2.0 * xs * k0 - k1


@lru_cache(maxsize=1)
def ring_peak_parameter() -> float:
    """The universal ring constant xi solving K_0(xi) = 2 xi K_1(xi).

    The stationarity condition of x K_0(x)^2, solved by safeguarded Newton
    steps on a fixed bracket around the maximum.  The most probable planar
    radius is xi / k.
    """
    lo, hi = _RING_BRACKET
    return float(solve_in_brackets(_ring_stationarity, _RING_BRACKET, [0.5 * (lo + hi)])[0])


def density_maximum(pd: ProbabilityDensity) -> tuple[float, float]:
    """Location and value of the global maximum of W.

    Closed forms for the monotone exponential cases; the ring case uses
    the cached universal constant, and raises ValueError where its radius
    xi / k overflows.
    """
    k = pd.wavenumber
    if pd.dimension == 1:
        return 0.0, k
    if pd.dimension == 3:
        return 0.0, 2.0 * k
    loc = ring_peak_parameter() / k
    if math.isinf(loc):
        raise ValueError(f"wavenumber {k!r} is too small: the ring radius xi / k overflows")
    return loc, density_profile(2, k, loc)


# --- planar coupling regularized by a sharp momentum cutoff ---------------


def cutoff_integral(k, cutoff: float):
    """Quadrature value of the loop integral int_0^L p / (p^2 + k^2) dp.

    Split into dyadic panels from the cutoff down to well below the scale
    of k, so the integrand's poles at +-ik stay far from every panel and a
    fixed Kronrod rule resolves each one; the final stub below k/64 is
    nearly linear. Used as the slow, independent route to the coupling
    relation (the closed form is ln(1 + L^2/k^2) / 2).

    k is a float or an array of wavenumbers, giving a float or an array of
    its shape.  The panels of every wavenumber run through one array pass
    of the Kronrod rule, which gives each panel's values bit for bit as a
    float rule would, and each wavenumber's values and error estimates are
    summed from its bottom panel up, so its value is that of a loop over
    its panels.  The checks run one at a time over all wavenumbers, in the
    order a float call makes them: bad wavenumbers, the cutoff, L / k past
    1e154, then the error estimates; the first wavenumber that fails the
    first failing check raises that check's error, as its float call would.

    The integral depends on L / k alone, so it runs with k and L scaled by
    one power of two that puts k in [0.5, 1): k^2 can then neither
    underflow nor overflow, and wherever the unscaled rule's values are
    normal they scale exactly, so the value is theirs bit for bit.  Past
    L / k = 1e154, where (L/k)^2 overflows, ValueError points to the
    closed form.
    """
    ks = np.atleast_1d(check_real("wavenumber", k, sign="positive")).ravel()
    cutoff = check_real("cutoff", cutoff, sign="positive")
    with np.errstate(over="ignore"):  # an infinite L / k, as on floats
        over = cutoff / ks > 1e154
    if over.any():
        raise ValueError(
            f"cutoff {cutoff!r} exceeds 1e154 times the wavenumber {ks[over][0].item()!r}, "
            "where (L/k)^2 overflows the quadrature; use the closed form ln(1 + L^2/k^2) / 2"
        )
    ks, shift = np.frexp(ks)
    top = np.ldexp(cutoff, -shift)
    # the panel edges halve from the top while above k / 64: with top =
    # t 2^e and k / 64 = c 2^d, t and c in [0.5, 1), that is e - d times,
    # once more where t > c
    t, e = np.frexp(top)
    c, d = np.frexp(ks / 64.0)
    halvings = np.where(top > ks / 64.0, e - d + (t > c), 0)
    # panel j of each lane, from the bottom: [0, top 2^-halvings] for j = 0,
    # then [b / 2, b] with b = top 2^(j - halvings)
    lane, j = np.nonzero(np.arange(halvings.max(initial=0) + 1) <= halvings[:, None])
    upper = np.ldexp(top[lane], j - halvings[lane])
    lower = np.where(j == 0, 0.0, 0.5 * upper)
    k2 = (ks * ks)[lane]
    values, errors = gauss_kronrod_15(lambda p: p / (p * p + k2), lower, upper)
    # each lane's values and error estimates in a row, padded with zeros
    # past its top panel, summed from the bottom panel up
    grid = np.zeros((2, ks.size, j.max(initial=0) + 1))
    grid[:, lane, j] = values, errors
    total, err = np.cumsum(grid, axis=2)[:, :, -1]
    failed = err > 1e-10 * np.maximum(np.abs(total), 1.0)
    if failed.any():
        i = np.flatnonzero(failed)[0]
        raise ArithmeticError(
            f"cutoff integral error estimate {err[i]:.3e} too large for total {total[i]:.6e}"
        )
    return total.reshape(np.shape(k)) if np.ndim(k) else total.item()


def k_from_coupling(coupling: float, cutoff: float) -> float:
    """Bound-state wavenumber of the planar delta well at coupling U0 > 0.

    Inverts 1 = (U0 / 2 pi) * ln(1 + L^2/k^2) / 2 for k, switching to the
    asymptotic form k = L exp(-2 pi / U0) once exp(4 pi / U0) overflows.
    Raises ValueError where k falls below the smallest normal double: there
    it is subnormal or zero and has lost significant bits; and where k
    overflows, at a strong coupling and a cutoff near the top of the range.
    """
    coupling = check_real("coupling", coupling)
    cutoff = check_real("cutoff", cutoff, sign="positive")
    if coupling == 0.0:
        raise ValueError("zero coupling binds no state")
    if coupling < 0.0:
        raise ValueError(
            "negative couplings have no real wavenumber under a sharp momentum "
            "cutoff; parametrize the state by k and use coupling_from_k"
        )
    expo = 4.0 * math.pi / coupling
    if expo <= 700.0:
        k = cutoff / math.sqrt(math.expm1(expo))
    else:
        k = cutoff * math.exp(-0.5 * expo)
    if not math.isfinite(k):
        raise ValueError(
            f"coupling {coupling!r} at cutoff {cutoff!r} gives a wavenumber above "
            "the double-precision range"
        )
    if k < sys.float_info.min:
        raise ValueError(
            f"coupling {coupling!r} gives a wavenumber below the double-precision "
            f"range (k = {k:.3g} at cutoff {cutoff!r})"
        )
    return k


def coupling_from_k(k: float, cutoff: float) -> float:
    """Coupling U0 that places the planar bound state at wavenumber k.

    Worked in log space so that wavenumbers many decades below the
    cutoff (where (L/k)^2 would overflow a double) still invert; in that
    regime ln(1 + L^2/k^2) equals 2 ln(L/k) to full precision.
    """
    k = check_real("wavenumber", k, sign="positive")
    cutoff = check_real("cutoff", cutoff, sign="positive")
    log_ratio = math.log(cutoff) - math.log(k)
    if log_ratio > 180.0:
        denom = 2.0 * log_ratio
    else:
        denom = math.log1p((cutoff / k) ** 2)
    if denom <= 0.0:
        raise OverflowError(
            f"wavenumber {k:.3e} sits so far above the cutoff {cutoff:.3e} that "
            "the coupling relation saturates in double precision"
        )
    return 4.0 * math.pi / denom


def coupling_residual(coupling: float, cutoff: float, k: float) -> float:
    """Defect |(U0 / 2 pi) * I(k, L) - 1| with I evaluated by quadrature.

    Routes the self-consistency condition through the numeric loop
    integral rather than the closed form, so it cross-checks both
    k_from_coupling and the quadrature.
    """
    coupling = check_real("coupling", coupling, sign="positive")
    return abs(coupling / (2.0 * math.pi) * cutoff_integral(k, cutoff) - 1.0)


class DeltaCoupling2D(Record):
    """A planar delta well: coupling, momentum cutoff and wavenumber."""

    coupling: float
    cutoff: float
    wavenumber: float

    @staticmethod
    def from_coupling(coupling: float, cutoff: float) -> "DeltaCoupling2D":
        return DeltaCoupling2D(coupling, cutoff, k_from_coupling(coupling, cutoff))

    @property
    def energy(self) -> float:
        return -0.5 * self.wavenumber * self.wavenumber


# --- closed-form bound states in one and three dimensions -----------------


class DeltaBoundState(Record):
    dimension: int
    wavenumber: float
    energy: float


def one_three_d_bound_energy(
    dimension: int,
    *,
    coupling: float | None = None,
    inverse_scattering_length: float | None = None,
) -> DeltaBoundState:
    """Closed-form bound state of the contact potential in 1 D or 3 D.

    The line case takes the (negative) coupling U0 of U0 * delta(x) and
    binds at k = |U0| / 2. The spatial case is parametrized by the inverse
    scattering length, which must be positive for a bound state and equals
    k directly. The planar case is excluded here because it needs the
    regularized treatment of DeltaCoupling2D.
    """
    dimension = _check_dimension(dimension)
    if dimension == 1:
        if coupling is None:
            raise ValueError("the line case needs the coupling")
        coupling = check_real("coupling", coupling)
        if coupling >= 0.0:
            raise ValueError("the line delta binds only for negative coupling")
        k = 0.5 * abs(coupling)
        return DeltaBoundState(1, k, -0.5 * k * k)
    if dimension == 3:
        if inverse_scattering_length is None:
            raise ValueError("the spatial case needs the inverse scattering length")
        a_inv = check_real("inverse scattering length", inverse_scattering_length)
        if a_inv <= 0.0:
            raise ValueError(
                "the spatial contact potential binds only for positive inverse "
                "scattering length"
            )
        return DeltaBoundState(3, a_inv, -0.5 * a_inv * a_inv)
    raise ValueError("use DeltaCoupling2D for the planar case")
