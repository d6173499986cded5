"""Integer-order cylinder functions built from scratch in double precision.

Evaluates the oscillatory pair J_m, Y_m and the modified pair I_m, K_m for
non-negative integer order on the positive real axis, plus their first
derivatives and a direct angular-quadrature route to J_0.  No external
special-function library is used; every value comes from one of five
classical schemes, selected by argument size:

* ascending power series near the origin (log-augmented for Y_m and K_m),
* backward (Miller) recurrence with a sum-rule normalization for J_m and
  I_m at moderate and large arguments, as one downward pass that stores
  no table, so its memory does not grow with the start order,
* Neumann's series for Y_0 and Y_1, summed over the same J pass,
* the Hankel expansions for J_0, J_1, Y_0 and Y_1 from x = 20 on, whose
  cost does not grow with x, so no argument is too large for J or Y,
* an exponentially convergent trapezoid on the cosh-integral for K_m,
  run on e^x K_m from x = 705 on, where K_0 is subnormal or zero.

Each scheme is used only where it is well conditioned, so plain double
arithmetic holds the relative error near 1e-14 across the supported range
(target: 1e-12 on (0, 50]).  Orders above 1 come from the three-term
recurrence in whichever direction is stable for the family: upward for Y
and K, and for J above x = 20 while the order is below x; downward
(Miller) for I, and for J below x = 20 or at orders from x on.  Above
x = 20 a Miller pass's length therefore follows the order served, not
the argument.

Every evaluator takes a float or an array of arguments.  The ascending and
log-augmented series, the Hankel expansions and the upward recurrence are
each written once and run the same operations on a float (in pure Python,
returning a float) and on an array (one lane per argument).  The Miller
pass, Neumann's series and the K trapezoid keep a pure-Python kernel and
an array twin that repeats its operations in the same order: the twin
starts each lane at its own order, and the trapezoid twin sums numpy's
exp, which is cheaper per lane than math.exp and rounds differently.
Array code calls the math module per element (``_map``) only for log,
exp, cosh, cos and sin, whose numpy versions may round differently; start
orders and square and cube roots are computed over the whole array, and
the rare J start order whose sum sits next to an integer is recomputed the
scalar way.  J, Y and I therefore agree bit for bit between the two paths;
K agrees to a few units in the last place on [3, 705), because its
trapezoid sums numpy's exp, and bit for bit elsewhere.

All functions are pure and keep no state between calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

EULER_GAMMA = 0.57721566490153286061

#: Relative accuracy targeted on the primary argument range (0, 50].
TARGET_REL_ERROR = 1e-12

#: Below these arguments the ascending series is used; at and above them the
#: large-argument scheme takes over.  Each point sits where both schemes are
#: simultaneously good to ~1e-13, so the crossover is seamless.
SERIES_SWITCH_JY = 2.0
SERIES_SWITCH_I = 8.0
SERIES_SWITCH_K = 3.0

#: At and above this argument J_0, J_1, Y_0 and Y_1 come from the Hankel
#: expansions, whose terms shrink to rounding within _HANKEL_TERMS there.
_HANKEL_SWITCH = 20.0

#: Terms a_0 .. a_{2 _HANKEL_TERMS - 1} of the Hankel expansions: the terms
#: a_k / x^k shrink while k < 2x, and a_26 / 20^26 is already below 2^-56.
_HANKEL_TERMS = 14

#: I_m overflows double precision shortly above this argument.
MAX_ARGUMENT_I = 700.0

#: At and above this argument K_0 is subnormal or zero, and K_m comes from
#: e^x K_m (_k_scaled).
_K_SCALED_SWITCH = 705.0

#: The scaled K recurrence divides by 2^_K_RESCALE_BITS past that bound.
_K_RESCALE_BITS = 600

#: ln 2 = _LN2_HI + _LN2_LO, _LN2_HI with 24 significant bits, so that
#: n * _LN2_HI is exact for n < 2^29.
_LN2_HI = 0.693147182464599609375
_LN2_LO = -1.904654299957768e-09


class CylinderFamily(Enum):
    """The four integer-order cylinder function families."""

    BESSEL_J = "J"
    NEUMANN_Y = "Y"
    MODIFIED_I = "I"
    MODIFIED_K = "K"


def _check_order(m) -> int:
    """The order as an int; negative, bool and non-integer orders are rejected."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"order must be non-negative, got {m}")
    return int(m)


@dataclass(frozen=True)
class CylinderKind:
    """A family tag plus a non-negative integer order."""

    family: CylinderFamily
    order: int

    def __post_init__(self):
        if not isinstance(self.family, CylinderFamily):
            raise ValueError(f"family must be a CylinderFamily, got {self.family!r}")
        object.__setattr__(self, "order", _check_order(self.order))


def _check_argument(family: CylinderFamily, x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    if family in (CylinderFamily.BESSEL_J, CylinderFamily.MODIFIED_I):
        if x < 0.0:
            raise ValueError(f"{family.value}_m requires x >= 0, got {x}")
    else:
        if x <= 0.0:
            raise ValueError(f"{family.value}_m requires x > 0, got {x}")
    if family is CylinderFamily.MODIFIED_I and x > MAX_ARGUMENT_I:
        raise OverflowError(
            f"I_m({x}) would exceed the double-precision range (limit x <= {MAX_ARGUMENT_I:g})"
        )
    return x


def _check_arguments(family: CylinderFamily, x) -> np.ndarray:
    """Array twin of _check_argument: the first rejected element raises the
    scalar check's error."""
    xs = np.asarray(x, dtype=float)
    if family in (CylinderFamily.BESSEL_J, CylinderFamily.MODIFIED_I):
        ok = xs >= 0.0
    else:
        ok = xs > 0.0
    ok &= np.isfinite(xs)
    if family is CylinderFamily.MODIFIED_I:
        ok &= xs <= MAX_ARGUMENT_I
    if not ok.all():
        _check_argument(family, xs[~ok].flat[0])
    return xs


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def _map(fn, xs: np.ndarray) -> np.ndarray:
    # Per-element math-module log, exp, cosh, cos and sin: numpy's may round
    # differently, which would break the bit-for-bit match with the scalar path.
    return np.array([fn(v) for v in xs.tolist()])


# ----------------------------------------------------------------------
# ascending series (small argument)
# ----------------------------------------------------------------------

# The series take a float or an array and run the same operations on both.
# An array runs every lane until its last lane has converged, adding terms a
# float would have stopped before.  Past a lane's own stop each further term
# is below half an ulp of that lane's sum, because the stop test bounds it by
# 1e-17 of the sum and the terms keep decreasing from there in every regime
# the series serves; so the extra terms leave the sum unchanged, bit for bit.
# The kernels see a float or a 1-d array, and test which once per call.

def _ascending_series(m: int, x, sign: float):
    # sum_k sign^k (x/2)^(m+2k) / (k! (m+k)!): J_m for sign -1, I_m for
    # sign +1 (all terms positive, perfectly conditioned).
    array = isinstance(x, np.ndarray)
    half = 0.5 * x
    sq = sign * (half * half)
    term = 1.0
    for i in range(1, m + 1):
        term *= half / i
    total = term
    k = 0
    while True:
        k += 1
        term = term * (sq / (k * (k + m)))  # not in place: total may share it
        total += term
        done = abs(term) <= 1e-17 * abs(total)
        if (done.all() if array else done) or k > 500:
            return total


def _log_half(x: float) -> float:
    # ln(x/2), where halving a subnormal x would round (to 0 at the smallest)
    return math.log(0.5 * x) if x >= 2.0 * sys.float_info.min else math.log(x) - math.log(2.0)


def _log_series(x, sign: float):
    """Y_0, Y_1 (sign -1) or K_0, K_1 (sign +1) from the log-augmented
    ascending series (x below the switch), as two floats or two arrays.

    One loop runs both sums until both have converged, with q = x^2/4 and
    H_k the harmonic numbers:
    s0 = sum_{k>=1} sign^k H_k q^k / (k!)^2, the sum of DLMF 10.31.2 for K
    and minus that of 10.8.2 for Y, and
    s1 = sum_{k>=0} sign^k (H_k + H_{k+1} - 2 gamma) q^k / (k! (k+1)!).
    s1's stop test bounds its next term before adding it.
    """
    array = isinstance(x, np.ndarray)
    q = 0.25 * x * x
    lg = _map(_log_half, x) if array else _log_half(x)
    c0 = _ascending_series(0, x, sign)  # J_0 or I_0
    c1 = _ascending_series(1, x, sign)  # J_1 or I_1
    s0 = s1 = 0.0
    t0 = t1 = 1.0
    h = 0.0  # H_k
    alt = 1.0  # sign^k
    k = 0
    while True:
        s1 += alt * (t1 * (h + h + 1.0 / (k + 1) - 2.0 * EULER_GAMMA))
        k += 1
        t0 *= q / (k * k)
        t1 *= q / (k * (k + 1))
        h += 1.0 / k
        alt *= sign
        u0 = t0 * h
        s0 += alt * u0
        done = (u0 <= 1e-17 * (abs(s0) + 1e-30)) & (
            t1 * (2.0 * h + 1.0) <= 1e-17 * (abs(s1) + 1e-30)
        )
        if (done.all() if array else done) or k > 60:
            break
    if sign < 0.0:
        y0 = (2.0 / math.pi) * ((lg + EULER_GAMMA) * c0 - s0)
        y1 = (2.0 / math.pi) * lg * c1 - 2.0 / (math.pi * x) - (x / (2.0 * math.pi)) * s1
        return y0, y1
    k0 = -(lg + EULER_GAMMA) * c0 + s0
    k1 = 1.0 / x + lg * c1 - 0.25 * x * s1
    return k0, k1


def _log_series_array(x: np.ndarray, sign: float) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore"):  # _recur_up raises instead
        return np.stack(_log_series(x, sign))


# ----------------------------------------------------------------------
# backward recurrence (Miller)
# ----------------------------------------------------------------------

def _j_start(x: float, m: int) -> int:
    """Even start order for the J pass, comfortably past the Airy turning
    point and at least half the default start order past m, so the order
    served carries no contamination from the arbitrary start."""
    top = int(x + 12.0 * (0.5 * x + 1.0) ** (1.0 / 3.0)) + 18
    top = max(top, m + top // 2)
    return top + top % 2  # the sum rule starts on an even order


def _j_start_array(x: np.ndarray, m: int) -> np.ndarray:
    """_j_start per element.  np.power may round the cube root one ulp away
    from the scalar pow, which can move the truncation only where the sum
    sits next to an integer: those elements take the scalar route."""
    v = x + 12.0 * np.power(0.5 * x + 1.0, 1.0 / 3.0)
    with np.errstate(invalid="ignore"):  # v past 2^63 is near and raises below
        top = v.astype(np.int64) + 18
    top = np.maximum(top, m + top // 2)
    top += top % 2
    near = np.abs(v - np.rint(v)) <= 1e-9 * v
    if near.any():
        top[near] = [_j_start(a, m) for a in x[near].tolist()]
    return top


def _i_start(x: float, m: int) -> int:
    """Start order for the I pass: past the e^(-m^2/2x) decay band, and at
    least half the default start order past m."""
    top = int(1.2 * math.sqrt(92.0 * x)) + 30
    return max(top, m + top // 2)


def _i_start_array(x: np.ndarray, m: int) -> np.ndarray:
    # _i_start per element: np.sqrt is correctly rounded like math.sqrt
    top = (1.2 * np.sqrt(92.0 * x)).astype(np.int64) + 30
    return np.maximum(top, m + top // 2)


def _miller(x: float, top: int, sign: float, m: int) -> tuple[float, float]:
    """Unnormalized C_m and the sum-rule denominator C_0 + 2 sum_k C_k, by
    one downward pass C_{k-1} = (2k/x) C_k + sign C_{k+1} from order top.

    sign -1 runs the J recurrence, whose sum rule runs over even orders
    (J_0 + 2 sum J_2k = 1); sign +1 runs the I recurrence, whose sum rule
    runs over all orders (I_0 + 2 sum I_k = e^x).  The pass stores no
    table: it captures C_m as it crosses order m, and rescales everything
    it carries by 1e-250 whenever a value passes 1e250.
    """
    stride = 2 if sign < 0.0 else 1
    prev = 0.0
    cur = total = 1e-300  # top is even for J
    cm = 0.0
    k = top
    while k > 0:
        nxt = (2.0 * k / x) * cur + sign * prev
        k -= 1
        prev, cur = cur, nxt
        if abs(cur) > 1e250:
            prev *= 1e-250
            cur *= 1e-250
            total *= 1e-250
            cm *= 1e-250
        if k == m:
            cm = cur
        if k >= stride and k % stride == 0:
            total += cur
    return cm, cur + 2.0 * total


def _miller_array(x: np.ndarray, top: np.ndarray, sign: float, m: int, neumann: bool = False):
    """Array twin of _miller with one lane per argument and a start order
    per lane: a lane holds zeros until the pass reaches its start order.

    Returns unnormalized C_m and C_0 and the denominator, followed with
    *neumann* (J only) by the sums S_0 and S_1 of _y01_large.
    """
    stride = 2 if sign < 0.0 else 1
    prev, cur, total, cm, s0, s1 = np.zeros((6, x.size))
    for k in range(int(top.max()), 0, -1):
        start = top == k
        if start.any():
            cur[start] = 1e-300
            total[start] = 1e-300
        prev, cur = cur, (2.0 * k / x) * cur + sign * prev
        big = np.abs(cur) > 1e250
        if big.any():
            for v in (prev, cur, total, cm, s0, s1):
                v[big] *= 1e-250
        k -= 1  # cur is C_k from here on
        if k == m:
            cm = cur.copy()
        if k >= stride and k % stride == 0:
            total += cur
        if neumann and k > 1:
            j = k >> 1
            if k & 1:
                t = cur * k / (j * (j + 1))
                s1 = s1 - t if j & 1 else s1 + t
            else:
                t = cur / j
                s0 = s0 + t if j & 1 else s0 - t
    out = (cm, cur, cur + 2.0 * total)
    return out + (s0, s1) if neumann else out


def _j_large(m: int, x: float) -> float:
    """J_m from the normalized Miller pass."""
    cm, denom = _miller(x, _j_start(x, m), -1.0, m)
    return cm * (1.0 / denom)


def _j_large_array(m: int, x: np.ndarray) -> np.ndarray:
    cm, _, denom = _miller_array(x, _j_start_array(x, m), -1.0, m)
    return cm * (1.0 / denom)


def _j01_large_array(x: np.ndarray) -> np.ndarray:
    """Rows J_0, J_1 from one pass: orders 0 and 1 share the start order."""
    c1, c0, denom = _miller_array(x, _j_start_array(x, 0), -1.0, 1)
    return np.stack((c0, c1)) * (1.0 / denom)


def _i_large(m: int, x: float) -> float:
    """I_m from the Miller pass.  Every term in the normalization sum is
    positive, so the result carries plain rounding error only."""
    cm, denom = _miller(x, _i_start(x, m), 1.0, m)
    # Divide by the unnormalized sum first: v/denom is I_m/e^x <= 1, so no
    # intermediate can overflow even though e^x/denom alone would.
    return (cm / denom) * math.exp(x)


def _i_large_array(m: int, x: np.ndarray) -> np.ndarray:
    cm, _, denom = _miller_array(x, _i_start_array(x, m), 1.0, m)
    return (cm / denom) * _map(math.exp, x)


def _y01_large(x: float) -> tuple[float, float]:
    """Y_0 and Y_1 from Neumann's expansions over the J Miller pass:

    Y_0 = (2/pi) ((ln(x/2) + gamma) J_0 + 2 S_0),
    S_0 = sum_{k>=1} (-1)^(k+1) J_2k / k,
    Y_1 = (2/pi) ((ln(x/2) + gamma - 1) J_1 - J_0/x - S_1),
    S_1 = sum_{k>=1} (-1)^k (2k+1) J_2k+1 / (k(k+1)).

    The pass accumulates both sums from the top down on the unnormalized
    values, two orders per step, and normalizes once at the end.  From x = 2
    on, the pass grows by less than 1e42 from its start at 1e-300, so it
    needs no rescale.
    """
    prev = 0.0
    cur = total = 1e-300
    s0 = s1 = 0.0
    k = _j_start(x, 0)
    while k > 0:  # cur is C_k, k even
        odd = (2.0 * k / x) * cur - prev
        prev, cur = odd, (2.0 * (k - 1) / x) * odd - cur
        k -= 2
        j = k >> 1
        if j:  # orders 2j + 1 and 2j
            t = odd * (k + 1) / (j * (j + 1))
            s1 = s1 - t if j & 1 else s1 + t
            total += cur
            t = cur / j
            s0 = s0 + t if j & 1 else s0 - t
    return _y01_from_sums(x, math.log(0.5 * x) + EULER_GAMMA, cur, prev, cur + 2.0 * total, s0, s1)


def _y01_from_sums(x, lg, c0, c1, denom, s0, s1):
    # _y01_large's closing combination, for floats and arrays alike; lg is
    # ln(x/2) + gamma
    norm = 1.0 / denom
    y0 = (2.0 / math.pi) * (lg * c0 + 2.0 * s0) * norm
    y1 = (2.0 / math.pi) * ((lg - 1.0) * c1 - c0 / x - s1) * norm
    return y0, y1


def _y01_large_array(x: np.ndarray) -> np.ndarray:
    c1, c0, denom, s0, s1 = _miller_array(x, _j_start_array(x, 0), -1.0, 1, neumann=True)
    lg = _map(math.log, 0.5 * x) + EULER_GAMMA
    return np.stack(_y01_from_sums(x, lg, c0, c1, denom, s0, s1))


def _k01_large(x: float) -> tuple[float, float]:
    """K_0 and K_1 by trapezoid sums on K_m(x) = int_0^inf e^(-x cosh t) cosh(mt) dt.

    The integrand extends to an even analytic function of t, so the
    trapezoid converges geometrically; the step is shrunk like 1/sqrt(x)
    once the integrand narrows to a Gaussian.
    """
    h = min(0.15, 0.7 / math.sqrt(x))
    f0 = math.exp(-x)
    s0 = 0.5 * f0
    s1 = 0.5 * f0
    j = 1
    while True:
        t = j * h
        c = math.cosh(t)
        f = math.exp(-x * c)
        s0 += f
        s1 += f * c
        if x * (c - 1.0) > 55.0 and j >= 3:
            break
        j += 1
        if j > 200000:  # unreachable; defensive
            raise ArithmeticError("trapezoid failed to terminate")
    return h * s0, h * s1


def _k01_large_array(x: np.ndarray) -> np.ndarray:
    h = np.minimum(0.15, 0.7 / np.sqrt(x))
    f0 = np.exp(-x)
    s0 = 0.5 * f0
    s1 = 0.5 * f0
    live = np.arange(x.size)
    j = 1
    while live.size:
        # math.cosh as the scalar path rounds it, since x * c amplifies any
        # difference in c: below x = 21.8 every element has the step 0.15,
        # so one call serves them all; the rest take one call each
        c = np.full(live.size, math.cosh(j * 0.15))
        own = h[live] != 0.15
        if own.any():
            c[own] = _map(math.cosh, j * h[live[own]])
        f = np.exp(-x[live] * c)
        s0[live] += f
        s1[live] += f * c
        live = live[~((x[live] * (c - 1.0) > 55.0) & (j >= 3))]
        j += 1
        if j > 200000:  # unreachable; defensive
            raise ArithmeticError("trapezoid failed to terminate")
    return np.stack((h * s0, h * s1))


def _k_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """K_m on a 1-d array of arguments from _K_SCALED_SWITCH on.

    K_0 is subnormal or zero there, so the trapezoid of _k01_large and the
    upward recurrence run on e^x K_m = int_0^inf e^(-x (cosh t - 1))
    cosh(mt) dt, with cosh t - 1 = 2 sinh(t/2)^2 free of cancellation.
    The recurrence keeps its values below 2^_K_RESCALE_BITS by exact
    power-of-two steps, counted in e, and K_m = s 2^e e^-x is unscaled as
    ldexp(s exp(-(x - n ln 2)), e - n) with n = round(x / ln 2), so no
    intermediate underflows: a K_m below the double range rounds once to
    a subnormal or zero, and one above it raises OverflowError.  Floats
    come here as one-element arrays, so both paths agree bit for bit.
    """
    h = 0.7 / np.sqrt(x)
    s0 = np.full(x.size, 0.5)
    s1 = np.full(x.size, 0.5)
    live = np.arange(x.size)
    j = 1
    while live.size:
        d = 2.0 * np.sinh((0.5 * j) * h[live]) ** 2
        f = np.exp(-x[live] * d)
        s0[live] += f
        s1[live] += f * (1.0 + d)
        live = live[~((x[live] * d > 55.0) & (j >= 3))]
        j += 1
    prev, cur = h * s0, h * s1
    e = np.zeros(x.size, dtype=np.int64)
    if m == 0:
        cur = prev
    for k in range(1, m):
        prev, cur = cur, (2.0 * k / x) * cur + prev
        big = cur > 2.0**_K_RESCALE_BITS
        if big.any():
            prev[big] = np.ldexp(prev[big], -_K_RESCALE_BITS)
            cur[big] = np.ldexp(cur[big], -_K_RESCALE_BITS)
            e[big] += _K_RESCALE_BITS
    # n stays below 2^29, where n * _LN2_HI is exact; past x = 3.7e8 the
    # remainder r takes the rest of x, and exp(-r) underflows unless the
    # order is above x / 2
    n = np.rint(np.minimum(x, 3.7e8) / math.log(2.0))
    r = (x - n * _LN2_HI) - n * _LN2_LO
    with np.errstate(over="ignore"):
        out = np.ldexp(cur * np.exp(-r), e - n.astype(np.int64))
    if not np.isfinite(out).all():
        at = x[~np.isfinite(out)][0]
        raise OverflowError(f"K_{m}({at}) exceeds the double-precision range")
    return out


# ----------------------------------------------------------------------
# Hankel expansions (large argument)
# ----------------------------------------------------------------------

def _hankel_coefficients(nu: int) -> tuple[tuple, tuple]:
    """Coefficients of P and Q in t = 1/x^2 (DLMF 10.17.3-10.17.4):
    (-1)^j a_2j(nu) and (-1)^j a_2j+1(nu), with a_k(nu) the product of
    (4 nu^2 - (2i-1)^2) over i <= k divided by k! 8^k, each correctly
    rounded from its exact integer ratio."""
    a = []
    num, den = 1, 1
    for k in range(2 * _HANKEL_TERMS):
        a.append(num / den)
        num *= 4 * nu * nu - (2 * k + 1) ** 2
        den *= 8 * (k + 1)
    return (
        tuple((-1) ** j * a[2 * j] for j in range(_HANKEL_TERMS)),
        tuple((-1) ** j * a[2 * j + 1] for j in range(_HANKEL_TERMS)),
    )


_HANKEL_PQ = (_hankel_coefficients(0), _hankel_coefficients(1))


def _horner(coefficients: tuple, t):
    acc = coefficients[-1]
    for c in coefficients[-2::-1]:
        acc = acc * t + c
    return acc


def _hankel01(x, cos_x, sin_x):
    """J_0, J_1, Y_0 and Y_1 at x >= _HANKEL_SWITCH from the Hankel
    expansions sqrt(2/(pi x)) (P cos w - Q sin w) and (P sin w + Q cos w),
    w = x - (2 nu + 1) pi/4.

    The phase is built from the caller's cos x and sin x as
    sqrt(1/2) (cos x +- sin x): forming x - pi/4 first would lose x times
    the rounding of pi/4.  The same operations run on a float (with
    math.cos, math.sin) and an array (with _map of them), so both paths
    agree bit for bit; the envelope uses a correctly rounded square root
    for the same reason.
    """
    r = 1.0 / x
    t = r * r
    env = (np.sqrt if _is_array(x) else math.sqrt)((2.0 / math.pi) * r)
    (p0c, q0c), (p1c, q1c) = _HANKEL_PQ
    p0, q0 = _horner(p0c, t), r * _horner(q0c, t)
    p1, q1 = _horner(p1c, t), r * _horner(q1c, t)
    h = math.sqrt(0.5)
    a = h * (cos_x + sin_x)  # cos(x - pi/4) = -sin(x - 3 pi/4)
    b = h * (sin_x - cos_x)  # sin(x - pi/4) = cos(x - 3 pi/4)
    return (
        env * (p0 * a - q0 * b),
        env * (p1 * b + q1 * a),
        env * (p0 * b + q0 * a),
        env * (q1 * b - p1 * a),
    )


def _hankel01_rows(x: np.ndarray) -> np.ndarray:
    """_hankel01 on an array of arguments, as rows J_0, J_1, Y_0, Y_1."""
    return np.stack(_hankel01(x, _map(math.cos, x), _map(math.sin, x)))


def _hankel_from(m: int) -> float:
    """Smallest argument at which J_m comes from the Hankel J_0 and J_1:
    the switch, and past the order, because upward recurrence is stable
    for J_m only while m < x."""
    return max(_HANKEL_SWITCH, math.nextafter(m, math.inf))


def _crossover_mismatch() -> float:
    """Worst relative gap between neighbouring routes of orders 0 and 1,
    1e-6 on either side of each switch point."""
    worst = 0.0
    for x in (_HANKEL_SWITCH - 1e-6, _HANKEL_SWITCH + 1e-6):
        miller = (_j_large(0, x), _j_large(1, x)) + _y01_large(x)
        for hankel, v in zip(_hankel01(x, math.cos(x), math.sin(x)), miller):
            worst = max(worst, abs(hankel - v) / abs(v))
    for x in (SERIES_SWITCH_JY - 1e-6, SERIES_SWITCH_JY + 1e-6):
        y_small = _log_series(x, -1.0)
        y_large = _y01_large(x)
        for m in (0, 1):
            j_large = _j_large(m, x)
            worst = max(worst, abs(_ascending_series(m, x, -1.0) - j_large) / abs(j_large))
            worst = max(worst, abs(y_small[m] - y_large[m]) / abs(y_large[m]))
    for x in (SERIES_SWITCH_I - 1e-6, SERIES_SWITCH_I + 1e-6):
        for m in (0, 1):
            i_large = _i_large(m, x)
            worst = max(worst, abs(_ascending_series(m, x, 1.0) - i_large) / abs(i_large))
    for x in (SERIES_SWITCH_K - 1e-6, SERIES_SWITCH_K + 1e-6):
        k_small = _log_series(x, 1.0)
        k_large = _k01_large(x)
        for m in (0, 1):
            worst = max(worst, abs(k_small[m] - k_large[m]) / abs(k_large[m]))
    return worst


# ----------------------------------------------------------------------
# per-family dispatch
# ----------------------------------------------------------------------

def _by_regime(x: np.ndarray, switches: tuple, routes: tuple, width: int = 1) -> np.ndarray:
    """Evaluate routes[i] on the arguments from switches[i - 1] up to below
    switches[i]; *width* is the number of rows each route returns."""
    flat = x.ravel()
    out = np.empty((width, flat.size))
    regime = np.searchsorted(switches, flat, side="right")
    for i, route in enumerate(routes):
        mask = regime == i
        if mask.any():
            out[:, mask] = route(flat[mask])
    return out.reshape((width,) + x.shape)


def oscillatory_pair(family: CylinderFamily, x: np.ndarray) -> np.ndarray:
    """Rows C_0, C_1 of the J or Y family on an array of valid arguments.

    Both orders come from one series pass, one Miller pass or one Hankel
    evaluation per argument, bit for bit as two besselj or bessely calls:
    orders 0 and 1 share the J pass's start order.  The arguments are not
    checked: they must be finite, x >= 0 for J and x > 0 for Y.
    """
    switches = (SERIES_SWITCH_JY, _HANKEL_SWITCH)
    if family is CylinderFamily.BESSEL_J:
        return _by_regime(
            x,
            switches,
            (
                lambda v: np.stack([_ascending_series(m, v, -1.0) for m in (0, 1)]),
                _j01_large_array,
                lambda v: _hankel01_rows(v)[:2],
            ),
            2,
        )
    return _by_regime(
        x,
        switches,
        (lambda v: _log_series_array(v, -1.0), _y01_large_array, lambda v: _hankel01_rows(v)[2:]),
        2,
    )


def besselj(m: int, x):
    """J_m(x) for integer m >= 0, x >= 0; x is a float or an array."""
    m = _check_order(m)
    if not _is_array(x):
        x = _check_argument(CylinderFamily.BESSEL_J, x)
        if x < SERIES_SWITCH_JY:
            return _ascending_series(m, x, -1.0)
        if x < _hankel_from(m):
            return _j_large(m, x)
        j0, j1 = _hankel01(x, math.cos(x), math.sin(x))[:2]
        return _recur_up(m, x, j0, j1, -1.0)
    x = _check_arguments(CylinderFamily.BESSEL_J, x)
    return _by_regime(
        x,
        (SERIES_SWITCH_JY, _hankel_from(m)),
        (
            lambda v: _ascending_series(m, v, -1.0),
            lambda v: _j_large_array(m, v),
            lambda v: _recur_up(m, v, *_hankel01_rows(v)[:2], -1.0),
        ),
    )[0]


def bessely(m: int, x):
    """Y_m(x) for integer m >= 0, x > 0; x is a float or an array."""
    m = _check_order(m)
    if not _is_array(x):
        x = _check_argument(CylinderFamily.NEUMANN_Y, x)
        if x < SERIES_SWITCH_JY:
            y0, y1 = _log_series(x, -1.0)
        elif x < _HANKEL_SWITCH:
            y0, y1 = _y01_large(x)
        else:
            y0, y1 = _hankel01(x, math.cos(x), math.sin(x))[2:]
    else:
        x = _check_arguments(CylinderFamily.NEUMANN_Y, x)
        y0, y1 = oscillatory_pair(CylinderFamily.NEUMANN_Y, x)
    return _recur_up(m, x, y0, y1, -1.0)


def besseli(m: int, x):
    """I_m(x) for integer m >= 0, 0 <= x <= 700; x is a float or an array."""
    m = _check_order(m)
    if not _is_array(x):
        x = _check_argument(CylinderFamily.MODIFIED_I, x)
        return _ascending_series(m, x, 1.0) if x < SERIES_SWITCH_I else _i_large(m, x)
    x = _check_arguments(CylinderFamily.MODIFIED_I, x)
    return _by_regime(
        x,
        (SERIES_SWITCH_I,),
        (lambda v: _ascending_series(m, v, 1.0), lambda v: _i_large_array(m, v)),
    )[0]


def besselk(m: int, x):
    """K_m(x) for integer m >= 0, x > 0; x is a float or an array."""
    m = _check_order(m)
    if not _is_array(x):
        x = _check_argument(CylinderFamily.MODIFIED_K, x)
        if x >= _K_SCALED_SWITCH:
            return float(_k_scaled(m, np.array([x]))[0])
        k0, k1 = _log_series(x, 1.0) if x < SERIES_SWITCH_K else _k01_large(x)
        return _recur_up(m, x, k0, k1, 1.0)
    x = _check_arguments(CylinderFamily.MODIFIED_K, x)
    # zeros carry the scaled regime's elements through the shared
    # recurrence; _k_scaled fills them in afterwards
    k0, k1 = _by_regime(
        x,
        (SERIES_SWITCH_K, _K_SCALED_SWITCH),
        (
            lambda v: _log_series_array(v, 1.0),
            _k01_large_array,
            lambda v: np.zeros((2, v.size)),
        ),
        2,
    )
    out = _recur_up(m, x, k0, k1, 1.0)
    scaled = x >= _K_SCALED_SWITCH
    if scaled.any():
        out[scaled] = _k_scaled(m, x[scaled])
    return out


def _recur_up(m: int, x, f0, f1, sign: float):
    # Upward recurrence C_{k+1} = (2k/x) C_k + sign C_{k-1}: sign -1 for Y,
    # +1 for K, whose magnitudes grow with order so the direction is
    # stable, and for J while m < x.  The same arithmetic serves floats and
    # arrays.
    if m == 0:
        return f0  # |C_0| grows no faster than ln(1/x)
    prev, cur = f0, f1
    if m > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, m):
                prev, cur = cur, (2.0 * k / x) * cur + sign * prev
    # Y_1 and K_1 overflow for subnormal x, and an overflowed Y turns into
    # inf - inf = nan on the next step; J stays below one
    if not (np.isfinite(cur).all() if _is_array(cur) else math.isfinite(cur)):
        at = np.atleast_1d(x)[~np.isfinite(np.atleast_1d(cur))][0]
        name = "Y" if sign < 0.0 else "K"
        raise OverflowError(f"{name}_{m}({at}) exceeds the double-precision range")
    return cur


_FAMILY_EVAL = {
    CylinderFamily.BESSEL_J: besselj,
    CylinderFamily.NEUMANN_Y: bessely,
    CylinderFamily.MODIFIED_I: besseli,
    CylinderFamily.MODIFIED_K: besselk,
}


def eval_cylinder(kind: CylinderKind, x):
    """Evaluate the cylinder function selected by *kind* at argument(s) *x*."""
    return _FAMILY_EVAL[kind.family](kind.order, x)


#: Per family (a, b, c) with C_0' = a C_1 and C_m' = b (C_{m-1} + c C_{m+1}).
_DERIVATIVE_SIGNS = {
    CylinderFamily.BESSEL_J: (-1.0, 0.5, -1.0),
    CylinderFamily.NEUMANN_Y: (-1.0, 0.5, -1.0),
    CylinderFamily.MODIFIED_I: (1.0, 0.5, 1.0),
    CylinderFamily.MODIFIED_K: (-1.0, -0.5, 1.0),
}


def eval_cylinder_derivative(kind: CylinderKind, x):
    """First derivative via the exact neighbor-order recurrences.

    J_0' = -J_1, I_0' = I_1, K_0' = -K_1, Y_0' = -Y_1, and for m >= 1 the
    symmetric forms (C_{m-1} -/+ C_{m+1})/2 of each family.  *x* is a
    float or an array.
    """
    f = _FAMILY_EVAL[kind.family]
    m = kind.order
    return _slope(kind.family, m, f(m - 1, x) if m else None, f(m + 1, x))


def _slope(family: CylinderFamily, m: int, below, above):
    """C_m' from C_{m-1} (unread for m = 0) and C_{m+1}."""
    a, b, c = _DERIVATIVE_SIGNS[family]
    if m == 0:
        return a * above
    return b * (below + c * above)


# ----------------------------------------------------------------------
# angular quadrature for J_0
# ----------------------------------------------------------------------

#: Points of the periodic trapezoid in sommerfeld_j0.
_SOMMERFELD_POINTS = 256

#: Largest |kr| whose truncation bound 2 (kr/2)^N / N! is below 2^-53.
_SOMMERFELD_KR_MAX = 2.0 * math.exp(
    (math.lgamma(_SOMMERFELD_POINTS + 1) - 54.0 * math.log(2.0)) / _SOMMERFELD_POINTS
)

def sommerfeld_j0_components(kr: float) -> tuple[float, float]:
    """Real and imaginary parts of the closed-contour mean of e^(i kr sin(theta)).

    The periodic trapezoid with N = _SOMMERFELD_POINTS points is exact up
    to the N-th Fourier mode: its mean is the sum of J_{jN}(kr) over all
    integers j, so it misses J_0 by about 2 |J_N(kr)| <= 2 (kr/2)^N / N!.
    Arguments where that bound is not below rounding raise ValueError
    (|kr| above _SOMMERFELD_KR_MAX, about 165); below it the real part
    reproduces J_0(kr) to rounding and the imaginary part cancels pairwise.
    """
    kr = float(kr)
    if math.isnan(kr) or math.isinf(kr):
        raise ValueError(f"kr must be finite, got {kr!r}")
    n = _SOMMERFELD_POINTS
    if abs(kr) > _SOMMERFELD_KR_MAX:
        raise ValueError(
            f"{n} quadrature points resolve J_0 to rounding only for |kr| <= "
            f"{_SOMMERFELD_KR_MAX:.6g}, got {kr!r}"
        )
    step = 2.0 * math.pi / n
    re = 0.0
    im = 0.0
    for j in range(n):
        a = kr * math.sin(j * step)
        re += math.cos(a)
        im += math.sin(a)
    return re / n, im / n


def sommerfeld_j0(kr: float) -> float:
    """J_0(kr) by direct angular quadrature of its plane-wave average."""
    re, im = sommerfeld_j0_components(kr)
    if abs(im) > 1e-12:
        raise ArithmeticError(f"imaginary part failed to cancel: {im!r}")
    return re
