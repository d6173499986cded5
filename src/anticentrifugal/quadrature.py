"""Adaptive Gauss-Kronrod quadrature on finite intervals.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives each panel
an integral estimate and an error estimate for free; panels are split at
their midpoint, worst first, until the summed error estimate meets the
requested tolerance.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ._record import Record, check_real

# 15-point Kronrod abscissae (positive half) and weights; the odd-index
# abscissae are the embedded 7-point Gauss nodes.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.20948214108472782,
)
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


#: Summed error estimate below which any integral counts as converged.
_ABS_TOL = 1e-15

#: Summed error estimate, relative to the integral, that counts as converged.
_REL_TOL = 1e-12

#: Kronrod panels allowed before QuadratureError is raised.
_MAX_INTERVALS = 4000


class QuadratureError(RuntimeError):
    """Raised when the interval budget runs out before the tolerance is met."""


class QuadratureResult(Record):
    value: float
    error_estimate: float
    intervals: int


def gauss_kronrod_15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Kronrod panel on [a, b]: returns (integral, error estimate).

    a and b may also be arrays of panel edges, with f taking an array: the
    same operations then run once per panel, bit for bit as on floats, and
    the integrals and error estimates come back as arrays.
    """
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        dx = halfwidth * _XGK[i]
        pair = f(center - dx) + f(center + dx)
        resk = resk + _WGK[i] * pair
        if i % 2 == 1:
            resg = resg + _WG[(i - 1) // 2] * pair
    return resk * halfwidth, abs((resk - resg) * halfwidth)


def integrate_adaptive(f: Callable[[float], float], a: float, b: float) -> QuadratureResult:
    """Integrate f over [a, b] by worst-first bisection of Kronrod panels,
    until the summed error estimate is below _REL_TOL of the integral."""
    a, b = check_real("a", a), check_real("b", b)
    if not (b > a):
        raise ValueError(f"need b > a, got [{a}, {b}]")
    value, err = gauss_kronrod_15(f, a, b)
    heap = [(-err, a, b, value, err)]
    total_v = value
    total_e = err
    count = 1
    while total_e > max(_ABS_TOL, _REL_TOL * abs(total_v)):
        if count >= _MAX_INTERVALS or not heap:
            raise QuadratureError(
                f"tolerance not reached after {count} intervals "
                f"(error estimate {total_e:.3e})"
            )
        _, aa, bb, vv, ee = heapq.heappop(heap)
        mid = 0.5 * (aa + bb)
        if mid <= aa or mid >= bb:
            # interval already at floating-point resolution; its residual
            # error is below representable width, retire it
            total_e -= ee
            continue
        v1, e1 = gauss_kronrod_15(f, aa, mid)
        v2, e2 = gauss_kronrod_15(f, mid, bb)
        total_v += v1 + v2 - vv
        total_e += e1 + e2 - ee
        heapq.heappush(heap, (-e1, aa, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, bb, v2, e2))
        count += 1
    return QuadratureResult(total_v, total_e, count)
