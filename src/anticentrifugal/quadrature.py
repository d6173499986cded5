"""Fixed-panel Gauss-Kronrod quadrature on finite intervals.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives each panel
an integral estimate and an error estimate for free.  The caller picks the
panels and judges the summed error estimate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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

#: the 15 nodes on [-1, 1]: the center, then each abscissa below and above it
_NODES = np.array([0.0, *(s * x for x in _XGK for s in (-1.0, 1.0))])


def gauss_kronrod_15(f: Callable[[np.ndarray], np.ndarray], a, b) -> tuple:
    """Kronrod panels on [a, b]: returns (integral, error estimate).

    f is called once, on the 15 nodes of the panel, or on a 15 x n array of
    them where a and b are arrays of the edges of n panels; the integrals
    and error estimates then come back as arrays, each panel's bit for bit
    as its float call gives them.
    """
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    fx = f(center + np.multiply.outer(_NODES, halfwidth))
    resk = _WGK[7] * fx[0]
    resg = _WG[3] * fx[0]
    for i in range(7):
        pair = fx[2 * i + 1] + fx[2 * i + 2]
        resk = resk + _WGK[i] * pair
        if i % 2 == 1:
            resg = resg + _WG[(i - 1) // 2] * pair
    return resk * halfwidth, abs((resk - resg) * halfwidth)
