"""Integer-order cylinder functions built from scratch in double precision.

Evaluates the oscillatory pair J_m, Y_m and the modified pair I_m, K_m for
non-negative integer order on the positive real axis, plus their first
derivatives and a direct angular-quadrature route to J_0.  No external
special-function library is used; every value comes from one of five
classical schemes, selected by argument size:

* ascending power series near the origin (log-augmented for Y_m and K_m),
* backward (Miller) recurrence with a sum-rule normalization for J_m and
  I_m at moderate and large arguments,
* a Neumann-type series over the Miller table for Y_0 and Y_1,
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
x = 20 a Miller table's length therefore follows the order served, not
the argument.

Every evaluator takes a float or an array of arguments.  A float runs the
pure-Python kernels; an array runs their array twins, which repeat the
same floating-point operations in the same order with one lane per
argument.  The twins call the math module per element (``_map``) only for
log, exp, cosh, cos and sin, whose numpy versions may round differently;
start orders and square and cube roots are computed over the whole array,
and the rare J start order whose sum sits next to an integer is
recomputed the scalar way.  J, Y and I therefore agree bit for bit between the two
paths; K agrees to a few units in the last place below x = 705, because
its trapezoid sums numpy's exp, and bit for bit from there on, where both
paths run the same array kernel.

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

#: Doubles in one block of array Miller tables (orders times arguments),
#: so a dense grid never holds more than 1 MB of table at once.
_BLOCK_DOUBLES = 1 << 17


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

def _ascending_series(m: int, x: float, sign: float) -> float:
    # sum_k sign^k (x/2)^(m+2k) / (k! (m+k)!): J_m for sign -1, I_m for
    # sign +1 (all terms positive, perfectly conditioned).
    half = 0.5 * x
    sq = sign * (half * half)
    term = 1.0
    for i in range(1, m + 1):
        term *= half / i
    total = term
    k = 0
    while True:
        k += 1
        term *= sq / (k * (k + m))
        total += term
        if abs(term) <= 1e-17 * abs(total) or k > 500:
            return total


def _ascending_series_array(m: int, x: np.ndarray, sign: float) -> np.ndarray:
    half = 0.5 * x
    sq = sign * (half * half)
    term = np.ones_like(x)
    for i in range(1, m + 1):
        term *= half / i
    total = term.copy()
    live = np.arange(x.size)
    k = 0
    while live.size:
        k += 1
        t = term[live] * (sq[live] / (k * (k + m)))
        term[live] = t
        total[live] += t
        live = live[~((np.abs(t) <= 1e-17 * np.abs(total[live])) | (k > 500))]
    return total


def _log_half(x: float) -> float:
    # ln(x/2), where halving a subnormal x would round (to 0 at the smallest)
    return math.log(0.5 * x) if x >= 2.0 * sys.float_info.min else math.log(x) - math.log(2.0)


def _log_series(x: float, sign: float) -> tuple[float, float]:
    """Y_0, Y_1 (sign -1) or K_0, K_1 (sign +1) from the log-augmented
    ascending series (x below the switch)."""
    q = 0.25 * x * x
    lg = _log_half(x)
    c0 = _ascending_series(0, x, sign)
    c1 = _ascending_series(1, x, sign)

    # sum_{k>=1} sign^(k+1) H_k q^k / (k!)^2
    s0 = 0.0
    term = 1.0
    h = 0.0
    alt = sign
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        h += 1.0 / k
        alt *= sign
        s0 += alt * (term * h)
        if term * h <= 1e-17 * (abs(s0) + 1e-30) or k > 60:
            break

    # sum_{k>=0} sign^k (H_k + H_{k+1} - 2*gamma) q^k / (k! (k+1)!)
    s1 = 0.0
    term = 1.0
    hk = 0.0
    alt = 1.0
    k = 0
    while True:
        coeff = hk + hk + 1.0 / (k + 1) - 2.0 * EULER_GAMMA
        s1 += alt * (term * coeff)
        k += 1
        term *= q / (k * (k + 1))
        hk += 1.0 / k
        alt *= sign
        if term * (2.0 * hk + 1.0) <= 1e-17 * (abs(s1) + 1e-30) or k > 60:
            break
    return _log_series_assemble(x, sign, lg, c0, c1, s0, s1)


def _log_series_assemble(x, sign, lg, c0, c1, s0, s1):
    # The family-specific combinations of the shared sums, for floats and
    # arrays alike: c0, c1 are J_0, J_1 (sign -1) or I_0, I_1 (sign +1).
    if sign < 0.0:
        y0 = (2.0 / math.pi) * ((lg + EULER_GAMMA) * c0 + s0)
        y1 = (2.0 / math.pi) * lg * c1 - 2.0 / (math.pi * x) - (x / (2.0 * math.pi)) * s1
        return y0, y1
    k0 = -(lg + EULER_GAMMA) * c0 + s0
    k1 = 1.0 / x + lg * c1 - 0.25 * x * s1
    return k0, k1


def _log_series_array(x: np.ndarray, sign: float) -> np.ndarray:
    q = 0.25 * x * x
    lg = _map(_log_half, x)
    c0 = _ascending_series_array(0, x, sign)
    c1 = _ascending_series_array(1, x, sign)

    # H_k, its sign and the coefficients do not depend on x: only the
    # powers of q and the partial sums run per element.
    s0 = np.zeros_like(x)
    term = np.ones_like(x)
    h = 0.0
    alt = sign
    live = np.arange(x.size)
    k = 0
    while live.size:
        k += 1
        t = term[live] * (q[live] / (k * k))
        term[live] = t
        h += 1.0 / k
        alt *= sign
        s0[live] += alt * (t * h)
        live = live[~((t * h <= 1e-17 * (np.abs(s0[live]) + 1e-30)) | (k > 60))]

    s1 = np.zeros_like(x)
    term = np.ones_like(x)
    hk = 0.0
    alt = 1.0
    live = np.arange(x.size)
    k = 0
    while live.size:
        coeff = hk + hk + 1.0 / (k + 1) - 2.0 * EULER_GAMMA
        s1[live] += alt * (term[live] * coeff)
        k += 1
        t = term[live] * (q[live] / (k * (k + 1)))
        term[live] = t
        hk += 1.0 / k
        alt *= sign
        live = live[~((t * (2.0 * hk + 1.0) <= 1e-17 * (np.abs(s1[live]) + 1e-30)) | (k > 60))]
    with np.errstate(over="ignore", divide="ignore"):  # _recur_up raises instead
        return np.stack(_log_series_assemble(x, sign, lg, c0, c1, s0, s1))


# ----------------------------------------------------------------------
# backward recurrence (Miller) tables
# ----------------------------------------------------------------------

def _j_start(x: float, m: int) -> int:
    """Even start order for the J table, comfortably past the Airy turning
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
    """Start order for the I table: past the e^(-m^2/2x) decay band, and at
    least half the default start order past m."""
    top = int(1.2 * math.sqrt(92.0 * x)) + 30
    return max(top, m + top // 2)


def _i_start_array(x: np.ndarray, m: int) -> np.ndarray:
    # _i_start per element: np.sqrt is correctly rounded like math.sqrt
    top = (1.2 * np.sqrt(92.0 * x)).astype(np.int64) + 30
    return np.maximum(top, m + top // 2)


def _miller_table(x: float, top: int, sign: float) -> tuple[list, float]:
    """Unnormalized C_0..C_top by downward recurrence from order top, and
    the sum-rule denominator C_0 + 2 sum_k C_k.

    sign -1 gives the J table, whose sum rule runs over even orders
    (J_0 + 2 sum J_2k = 1); sign +1 gives the I table, whose sum rule runs
    over all orders (I_0 + 2 sum I_k = e^x).  Values are rescaled by
    1e-250 whenever they pass 1e250.
    """
    stride = 2 if sign < 0.0 else 1
    table = [0.0] * (top + 1)
    prev = 0.0
    cur = 1e-300
    table[top] = cur
    total = cur  # top is even for J
    k = top
    while k > 0:
        nxt = (2.0 * k / x) * cur + sign * prev
        k -= 1
        prev, cur = cur, nxt
        if abs(cur) > 1e250:
            for i in range(k + 1, top + 1):
                table[i] *= 1e-250
            prev *= 1e-250
            cur *= 1e-250
            total *= 1e-250
        table[k] = cur
        if k >= stride and k % stride == 0:
            total += cur
    return table, cur + 2.0 * total


def _miller_table_array(x: np.ndarray, top: np.ndarray, sign: float):
    """Array twin of _miller_table with a start order per element; the
    table has one row per order and one column per argument."""
    stride = 2 if sign < 0.0 else 1
    n = x.size
    top_max = int(top.max())
    table = np.zeros((top_max + 1, n))
    prev = np.zeros(n)
    cur = np.zeros(n)
    total = np.zeros(n)
    for k in range(top_max, 0, -1):
        # elements whose start order is k begin here; the rest of the
        # columns are zero above their start order and stay zero
        start = top == k
        if start.any():
            cur[start] = 1e-300
            total[start] = 1e-300
            table[k, start] = 1e-300
        nxt = (2.0 * k / x) * cur + sign * prev
        prev, cur = cur, nxt
        big = np.abs(cur) > 1e250
        if big.any():
            table[k:, big] *= 1e-250
            prev[big] *= 1e-250
            cur[big] *= 1e-250
            total[big] *= 1e-250
        table[k - 1] = cur
        if k - 1 >= stride and (k - 1) % stride == 0:
            total += cur
    return table, cur + 2.0 * total


def _miller_blocks(x: np.ndarray, top: np.ndarray, sign: float, finish) -> np.ndarray:
    """Run _miller_table_array over blocks of arguments, passing each
    block's (table, denominator, arguments, start orders) to *finish* and
    joining the results along the last axis."""
    rows = max(1, _BLOCK_DOUBLES // (int(top.max()) + 1))
    parts = []
    for lo in range(0, x.size, rows):
        xb, tb = x[lo : lo + rows], top[lo : lo + rows]
        table, denom = _miller_table_array(xb, tb, sign)
        parts.append(finish(table, denom, xb, tb))
    return np.concatenate(parts, axis=-1)


def _j_large(m: int, x: float) -> float:
    """J_m from the normalized Miller table."""
    table, denom = _miller_table(x, _j_start(x, m), -1.0)
    return table[m] * (1.0 / denom)


def _j_large_array(m: int, x: np.ndarray) -> np.ndarray:
    return _miller_blocks(
        x, _j_start_array(x, m), -1.0, lambda t, d, xb, tb: t[m] * (1.0 / d)
    )


def _i_large(m: int, x: float) -> float:
    """I_m from the Miller table.  Every term in the normalization sum is
    positive, so the result carries plain rounding error only."""
    table, denom = _miller_table(x, _i_start(x, m), 1.0)
    # Divide by the unnormalized sum first: v/denom is I_m/e^x <= 1, so no
    # intermediate can overflow even though e^x/denom alone would.
    return (table[m] / denom) * math.exp(x)


def _i_large_array(m: int, x: np.ndarray) -> np.ndarray:
    return _miller_blocks(
        x,
        _i_start_array(x, m),
        1.0,
        lambda t, d, xb, tb: (t[m] / d) * _map(math.exp, xb),
    )


def _y01_large(x: float) -> tuple[float, float]:
    """Y_0 and Y_1 from Neumann-type series over the Miller J table.

    Y_0 = (2/pi)(ln(x/2)+gamma) J_0 + (4/pi) sum_k (-1)^(k+1) J_{2k}/k and
    Y_1 = -Y_0', with every J and J' read off the normalized table, so the
    accuracy matches the table itself (~1e-15 of the envelope).
    """
    top = _j_start(x, 0)
    table, denom = _miller_table(x, top, -1.0)
    norm = 1.0 / denom
    t = [v * norm for v in table]
    lg = math.log(0.5 * x) + EULER_GAMMA
    s0 = 0.0
    s1 = 0.0
    sign = 1.0
    k = 1
    while 2 * k + 1 <= top:
        s0 += sign * t[2 * k] / k
        s1 += sign * (t[2 * k - 1] - t[2 * k + 1]) / (2.0 * k)
        sign = -sign
        k += 1
    y0 = (2.0 / math.pi) * lg * t[0] + (4.0 / math.pi) * s0
    dy0 = (2.0 / math.pi) * (t[0] / x - lg * t[1]) + (4.0 / math.pi) * s1
    return y0, -dy0


def _neumann_y01(table: np.ndarray, denom: np.ndarray, x: np.ndarray, top: np.ndarray):
    """Array twin of _y01_large's Neumann sums, over one block of J tables."""
    t = table * (1.0 / denom)
    lg = _map(math.log, 0.5 * x) + EULER_GAMMA
    s0 = np.zeros_like(x)
    s1 = np.zeros_like(x)
    sign = 1.0
    for k in range(1, (int(top.max()) - 1) // 2 + 1):
        live = 2 * k + 1 <= top
        s0 = np.where(live, s0 + sign * t[2 * k] / k, s0)
        s1 = np.where(live, s1 + sign * (t[2 * k - 1] - t[2 * k + 1]) / (2.0 * k), s1)
        sign = -sign
    y0 = (2.0 / math.pi) * lg * t[0] + (4.0 / math.pi) * s0
    dy0 = (2.0 / math.pi) * (t[0] / x - lg * t[1]) + (4.0 / math.pi) * s1
    return np.stack((y0, -dy0))


def _y01_large_array(x: np.ndarray) -> np.ndarray:
    return _miller_blocks(x, _j_start_array(x, 0), -1.0, _neumann_y01)


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
        table = (_j_large(0, x), _j_large(1, x)) + _y01_large(x)
        for hankel, v in zip(_hankel01(x, math.cos(x), math.sin(x)), table):
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


def _oscillatory01_array(family: CylinderFamily, x: np.ndarray) -> np.ndarray:
    """Rows C_0, C_1 of the J or Y family on valid arguments.

    Both orders come from one series pass, one Miller table or one Hankel
    evaluation per argument, bit for bit as two besselj or bessely calls:
    orders 0 and 1 share the J table's start order.
    """
    switches = (SERIES_SWITCH_JY, _HANKEL_SWITCH)
    if family is CylinderFamily.BESSEL_J:
        return _by_regime(
            x,
            switches,
            (
                lambda v: np.stack([_ascending_series_array(m, v, -1.0) for m in (0, 1)]),
                lambda v: _miller_blocks(
                    v, _j_start_array(v, 0), -1.0, lambda t, d, xb, tb: t[:2] * (1.0 / d)
                ),
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
            lambda v: _ascending_series_array(m, v, -1.0),
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
        y0, y1 = _oscillatory01_array(CylinderFamily.NEUMANN_Y, x)
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
        (lambda v: _ascending_series_array(m, v, 1.0), lambda v: _i_large_array(m, v)),
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

def sommerfeld_j0_components(kr: float, quadrature_points: int = 256) -> tuple[float, float]:
    """Real and imaginary parts of the closed-contour mean of e^(i kr sin(theta)).

    The periodic trapezoid with N points is exact up to the N-th Fourier
    mode: its mean is the sum of J_{jN}(kr) over all integers j, so it
    misses J_0 by about 2 |J_N(kr)| <= 2 (kr/2)^N / N!.  Arguments where
    that bound is not below rounding raise ValueError (|kr| above about
    165 for N = 256); below it the real part reproduces J_0(kr) to
    rounding and the imaginary part cancels pairwise.
    """
    if quadrature_points < 16:
        raise ValueError("quadrature needs at least 16 points")
    kr = float(kr)
    if math.isnan(kr) or math.isinf(kr):
        raise ValueError(f"kr must be finite, got {kr!r}")
    n = int(quadrature_points)
    kr_max = 2.0 * math.exp((math.lgamma(n + 1) - 54.0 * math.log(2.0)) / n)
    if abs(kr) > kr_max:
        raise ValueError(
            f"{n} quadrature points resolve J_0 to rounding only for |kr| <= "
            f"{kr_max:.6g}, got {kr!r}"
        )
    step = 2.0 * math.pi / n
    re = 0.0
    im = 0.0
    for j in range(n):
        a = kr * math.sin(j * step)
        re += math.cos(a)
        im += math.sin(a)
    return re / n, im / n


def sommerfeld_j0(kr: float, quadrature_points: int = 256) -> float:
    """J_0(kr) by direct angular quadrature of its plane-wave average."""
    re, im = sommerfeld_j0_components(kr, quadrature_points)
    if abs(im) > 1e-12:
        raise ArithmeticError(f"imaginary part failed to cancel: {im!r}")
    return re
