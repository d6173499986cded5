"""Zero tables and node-density statistics for the oscillatory waves.

The positive zeros of the order-0 and order-1 oscillatory cylinder
functions encode how the -1/(4r^2) term redistributes probability: both
spacings approach pi from opposite sides, so the local node density
pi / spacing sits above one for order 0 (nodes bunch together near the
axis) and below one for order 1 (nodes spread apart). These statistics
are what the verification suites and the command line report.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import Record
from .specfun import CylinderFamily, cylinder_rows

#: Lower edge of the first bracket: just above the origin, where J_0 and
#: Y_m are far from zero and J_1 is small but positive.
_FIRST_EDGE = {CylinderFamily.BESSEL_J: 1e-9, CylinderFamily.NEUMANN_Y: 1e-6}

#: Newton steps allowed per solve.  McMahon seeds converge in 3 to 5, and
#: even pure bisection of a bracket of width pi reaches 4 ulp in about 55.
_MAX_STEPS = 100


class BracketingError(RuntimeError):
    """Raised when a sign change cannot be located where one is expected."""


def solve_in_brackets(value_and_slope: Callable, edges, start) -> np.ndarray:
    """Polish one simple root in each bracket between consecutive edges,
    or in each of n independent brackets given as an (n, 2) array of
    (lo, hi) pairs.

    ``value_and_slope`` maps an array of arguments to the function values
    and their exact derivatives; for pairs it is called as
    ``value_and_slope(x, lanes)``, with the bracket of each argument, so
    the function may depend on it.  ``start`` holds one first guess per
    bracket.  One evaluation of the edges must find a sign change in every
    bracket.  All roots then take Newton steps together, each as it would
    alone, each step shrinking its bracket by the sign of the function.  A
    step that leaves the bracket, or lands on its far end, becomes the
    midpoint: on a noisy function two points can each send Newton's step
    onto the other, each being the other's bracket end.  Iteration stops
    once every step is within 4 ulp, so the roots are accurate to the
    rounding of the function.  :class:`BracketingError` is raised for a
    bracket without a sign change or steps that do not settle.
    """
    edges = np.asarray(edges, dtype=float)
    x = np.array(start, dtype=float)
    if x.ndim == 1 and edges.shape == (x.size + 1,):
        fn = lambda v, lanes: value_and_slope(v)
        signs = np.sign(value_and_slope(edges)[0])
        lo, hi = edges[:-1].copy(), edges[1:].copy()
        lo_sign, hi_sign = signs[:-1], signs[1:]
    elif x.ndim == 1 and edges.shape == (x.size, 2):
        fn = value_and_slope
        lanes = np.arange(x.size)
        signs = np.sign(fn(edges.T.ravel(), np.concatenate((lanes, lanes)))[0])
        lo, hi = edges.T.copy()
        lo_sign, hi_sign = signs[: x.size], signs[x.size :]
    else:
        raise ValueError(f"need one start per bracket, got {x.size} for edges {edges.shape}")
    changes = np.count_nonzero(lo_sign * hi_sign < 0.0)
    if changes != x.size:
        raise BracketingError(f"found {changes} sign changes in the {x.size} brackets")
    live = np.arange(x.size)
    for _ in range(_MAX_STEPS):
        xl = x[live]
        f, slope = fn(xl, live)
        above = np.sign(f) == lo_sign[live]  # the root lies above xl
        a = np.where(above, xl, lo[live])
        b = np.where(above, hi[live], xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xl - f / slope
        inside = (a <= step) & (step <= b) & (step != np.where(above, b, a))
        step = np.where(inside, step, 0.5 * (a + b))
        lo[live], hi[live], x[live] = a, b, step
        live = live[np.abs(step - xl) > 4.0 * np.abs(np.spacing(xl))]
        if live.size == 0:
            return x
    raise BracketingError(f"{live.size} of {x.size} roots unsettled after {_MAX_STEPS} steps")


class ZeroTable(Record):
    """The first positive zeros of one oscillatory cylinder function."""

    family: CylinderFamily
    order: int
    zeros: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("zeros must be a non-empty 1-d array")
        if not np.all(z > 0.0):
            raise ValueError("zeros must be positive")
        d = np.diff(z)
        if z.size > 1 and not np.all(d > 0.0):
            raise ValueError("zeros must be strictly increasing")
        # Consecutive-zero spacings of the low orders stay within one
        # period of the asymptotic wavelength; a spacing outside (2, 2 pi)
        # means the finder skipped a zero or found a spurious one.
        if self.order <= 1 and z.size > 1:
            if not np.all((d > 2.0) & (d < 2.0 * math.pi)):
                raise ValueError("spacings outside (2, 2 pi); zero table is corrupt")


def _mcmahon_seeds(family: CylinderFamily, order: int, n_max: int) -> np.ndarray:
    """The first n_max zeros from McMahon's three-term expansion (DLMF 10.21.19)."""
    shift = 0.25 if family is CylinderFamily.BESSEL_J else 0.75
    beta = (np.arange(1, n_max + 1) + 0.5 * order - shift) * math.pi
    mu = 4.0 * order * order
    b8 = 8.0 * beta
    return beta - (mu - 1.0) / b8 - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)


def _value_and_slope(family: CylinderFamily, order: int, x: np.ndarray):
    # C_0' = -C_1 and C_1' = C_0 - C_1/x, from one cylinder_rows pass per argument
    c0, c1 = cylinder_rows(family, x, 2)
    if order == 0:
        return c0, -c1
    return c1, c0 - c1 / x


def find_zeros(family: CylinderFamily, order: int, n_max: int) -> ZeroTable:
    """Locate the first ``n_max`` positive zeros by seeded Newton steps.

    McMahon's asymptotic expansion seeds every zero at once.  The
    midpoints between neighbouring seeds bracket them, from just above
    the origin to half a spacing (pi/2) past the last seed, and
    :func:`solve_in_brackets` polishes all zeros together with the exact
    derivative.  The zeros are accurate to rounding;
    :class:`BracketingError` is raised when a bracket holds no sign
    change or the steps fail to settle.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ValueError(f"n_max must be a positive int, got {n_max!r}")
    if order not in (0, 1):
        raise ValueError(f"zero tables are tuned for orders 0 and 1, got {order!r}")
    if family not in _FIRST_EDGE:
        raise ValueError(f"zero tables exist for the oscillatory families only, got {family!r}")
    seeds = _mcmahon_seeds(family, order, n_max)
    edges = np.concatenate(
        ([_FIRST_EDGE[family]], 0.5 * (seeds[:-1] + seeds[1:]), [seeds[-1] + 0.5 * math.pi])
    )
    zeros = solve_in_brackets(lambda x: _value_and_slope(family, order, x), edges, seeds)
    return ZeroTable(family, order, zeros)


class NodeDensityReport(Record):
    """Spacings and local node densities derived from a zero table.

    ``spacings[n]`` is zeros[n+1] - zeros[n] and ``densities[n]`` is
    pi / spacings[n], the node count per asymptotic half-wavelength.
    """

    table: ZeroTable
    spacings: np.ndarray
    densities: np.ndarray


def node_density(table: ZeroTable) -> NodeDensityReport:
    if table.zeros.size < 2:
        raise ValueError("node density needs at least two zeros")
    spacings = np.diff(table.zeros)
    return NodeDensityReport(table, spacings, math.pi / spacings)


class BunchingVerdict(Record):
    """Outcome of the bunching / anti-bunching comparison for one family.

    Order 0 must hold densities above one that decrease toward one, and
    order 1 densities below one that increase toward one. ``max_violation``
    is the worst margin by which any of the four statements fails (zero
    when all hold).
    """

    family: CylinderFamily
    count: int
    order0_bunched: bool
    order1_antibunched: bool
    order0_monotone: bool
    order1_monotone: bool
    max_violation: float

    @property
    def passed(self) -> bool:
        return (
            self.order0_bunched
            and self.order1_antibunched
            and self.order0_monotone
            and self.order1_monotone
        )


def bunching_verdict(
    zero_order: NodeDensityReport, first_order: NodeDensityReport
) -> BunchingVerdict:
    t0, t1 = zero_order.table, first_order.table
    if t0.family is not t1.family:
        raise ValueError("reports compare different families")
    if (t0.order, t1.order) != (0, 1):
        raise ValueError(
            f"expected orders (0, 1), got ({t0.order}, {t1.order})"
        )
    count = min(zero_order.densities.size, first_order.densities.size)
    g0 = zero_order.densities[:count]
    g1 = first_order.densities[:count]
    viol = [
        float(np.max(1.0 - g0)),          # order 0 must stay above one
        float(np.max(g1 - 1.0)),          # order 1 must stay below one
        float(np.max(np.diff(g0), initial=-math.inf)),   # must decrease
        float(np.max(-np.diff(g1), initial=-math.inf)),  # must increase
    ]
    return BunchingVerdict(
        family=t0.family,
        count=count,
        order0_bunched=viol[0] < 0.0,
        order1_antibunched=viol[1] < 0.0,
        order0_monotone=viol[2] < 0.0,
        order1_monotone=viol[3] < 0.0,
        max_violation=max(0.0, *viol),
    )
