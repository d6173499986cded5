"""Integer-order cylinder functions built from scratch in double precision.

Evaluates the oscillatory pair J_m, Y_m and the modified pair I_m, K_m for
non-negative integer order on the positive real axis, plus the rule that
gives their first derivatives from the neighbouring orders, K_0 of a
product k r, and a direct angular-quadrature route to J_0.  No external
special-function library is used; every value comes from one of five
classical schemes, selected by argument size:

* ascending power series near the origin (log-augmented for Y_m and K_m),
* backward (Miller) recurrence with a sum-rule normalization for J_m and
  I_m at moderate and large arguments, as one downward pass that stores
  no table, so its memory does not grow with the start order,
* Neumann's series for Y_0 and Y_1, summed over the same J pass,
* the Hankel expansions for J_0, J_1, Y_0, Y_1, K_0 and K_1 from x = 20
  on, one table of coefficients whose cost does not grow with x, so no
  argument is too large; K_m runs on e^x K_m from x = 705 on, where K_0
  is subnormal or zero,
* a Chebyshev series in 1/x for e^x sqrt(x) K_0 and e^x sqrt(x) K_1 on
  [3, 20), summed by Clenshaw's recurrence (the Cephes k0e form).

Each scheme is used only where it is well conditioned, so plain double
arithmetic holds the relative error near 1e-14 across the supported range
(target: 1e-12 on (0, 50]).  Orders above 1 come from the three-term
recurrence in whichever direction is stable for the family: upward for Y
and K, and for J above x = 20 while the order is below x; downward
(Miller) for I, and for J below x = 20 or at orders from x on.  Above
x = 20 a Miller pass's length therefore follows the order served, not
the argument.  Order-0 calls of Y and K sum only the order-0 part of the
log-augmented series, whose loop also sums its J_0 or I_0, and K_0 takes
only the order-0 Hankel pair: order 1 is needed only to start the
recurrence.

Every evaluator takes a float or an array of arguments.  The ascending and
log-augmented series, the Hankel expansions, K's Chebyshev series and the
upward recurrence are each written once and run the same operations on a
float (in Python floats, returning a float) and on an array (one lane per
argument).  The Miller pass and Neumann's series keep a pure-Python kernel
and an array twin that repeats its operations in the same order, starting
each lane at its own order.  Array code calls the math module per element
(``_map``) for log and exp, whose numpy versions may round differently.
cos, sin, start orders and square and cube roots are computed over the
whole array, and the rare J start order whose sum sits next to an integer
is recomputed the scalar way.  J, Y, I and K therefore agree bit for bit
between the two paths, and on every CPU tier numpy dispatches to.

One table gives each family its switch points, the array and float
kernels of each regime, and its recurrence sign.  Every kernel takes a
tuple of orders: J and I serve each order in it, so orders 0 to 2 come
from one pass; Y and K read its length, 1 or 2.  One dispatcher serves
floats and arrays: a float runs the float kernel of its regime; so does
each argument of an array regime that holds at most _FEW_LANES of them,
since an array kernel's numpy calls cost more than that many
pure-Python evaluations.

All functions are pure and keep no state between calls.
"""

from __future__ import annotations

import bisect
import math
import sys
from enum import Enum

import numpy as np

from ._record import check_int, check_reals

EULER_GAMMA = 0.57721566490153286061

#: Relative accuracy targeted on the primary argument range (0, 50].
TARGET_REL_ERROR = 1e-12

#: Below these arguments the ascending series is used; at and above them the
#: large-argument scheme takes over.  Each point sits where both schemes are
#: simultaneously good to ~1e-13, so the crossover is seamless.
SERIES_SWITCH_JY = 2.0
SERIES_SWITCH_I = 8.0
SERIES_SWITCH_K = 3.0

#: At and above this argument J_0, J_1, Y_0, Y_1, K_0 and K_1 come from the
#: Hankel expansions, whose terms shrink to rounding within _HANKEL_TERMS there.
_HANKEL_SWITCH = 20.0

#: Terms a_0 .. a_{2 _HANKEL_TERMS - 1} of the Hankel expansions: the terms
#: a_k / x^k shrink while k < 2x, and a_26 / 20^26 is already below 2^-56.
_HANKEL_TERMS = 14

#: Chebyshev coefficients c_16 .. c_0 of e^x sqrt(x) K_0(x) and e^x sqrt(x) K_1(x)
#: in u = (120/x - 23)/17 on [3, 20], highest first; from tools/k01_chebyshev.py.
_K01_CHEBYSHEV = (
    (3.4403708411217755e-17, -2.0504210557225599e-16, 1.260174031967091e-15,
     -8.012154772350352e-15, 5.28980876423006e-14, -3.643139255331262e-13,
     2.631883065422998e-12, -2.0082069889575705e-11, 1.6327022111525636e-10,
     -1.4306198798333203e-09, 1.3719752908265262e-08, -1.4715365026248542e-07,
     1.8229727928201409e-06, -2.7473910211728183e-05, 0.0005538212826036082,
     -0.01853838678361545, 2.4531377810797004),
    (-3.8358485938112215e-17, 2.2979477546133755e-16, -1.4205580085580373e-15,
     9.092088267616348e-15, -6.048944371040837e-14, 4.203347317816704e-13,
     -3.0688868389187396e-12, 2.3717166910857188e-11, -1.9588023476301096e-10,
     1.7509145370503373e-09, -1.7237217489370387e-08, 1.9169318192385705e-07,
     -2.505539416759725e-06, 4.1261737838539056e-05, -0.000994388934860546,
     0.06023219467911031, 2.6754643782758865),
)

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


def _check_argument(family: CylinderFamily, x):
    """x as a float, or as a float array if it has one dimension or more,
    when it is real and each element is finite (check_reals) and lies in
    the domain of *family*; else the first that does not raises, one check
    at a time over all elements, as for a float."""
    closed = family in (CylinderFamily.BESSEL_J, CylinderFamily.MODIFIED_I)
    xs = v = check_reals("argument", x)
    if isinstance(xs, np.ndarray):
        top = MAX_ARGUMENT_I if family is CylinderFamily.MODIFIED_I else math.inf
        ok = (xs >= 0.0 if closed else xs > 0.0) & (xs <= top)
        if ok.all():
            return xs
        v = float(xs[~ok].flat[0])
    if v < 0.0 or (v == 0.0 and not closed):
        raise ValueError(f"{family.value}_m requires x {'>=' if closed else '>'} 0, got {v}")
    if family is CylinderFamily.MODIFIED_I and v > MAX_ARGUMENT_I:
        raise OverflowError(
            f"I_m({v}) would exceed the double-precision range (limit x <= {MAX_ARGUMENT_I:g})"
        )
    return xs


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def _map(fn, xs: np.ndarray) -> np.ndarray:
    # Per-element math-module log and exp, mapped in one C-level pass with no
    # Python frame per element: numpy's may round differently, and their bits
    # change with numpy's CPU dispatch tier, which would break the
    # bit-for-bit match with the scalar path.  numpy's cos and sin equal the
    # math module's, so arrays take them directly.
    return np.fromiter(map(fn, xs.tolist()), float, xs.size)


# ----------------------------------------------------------------------
# ascending series (small argument)
# ----------------------------------------------------------------------

# The series take a float or an array and run the same operations on both.
# Their stop test runs after every 4th term on an array, where it costs more
# numpy calls than a term does, and after every 2nd on a float; an array runs
# until its last lane has passed it.  So a lane may add terms past its own
# stop, and each is below half an ulp of its sum, because the stop test
# bounds it by 1e-17 of the sum and the terms keep decreasing from there in
# every regime the series serves.  Every sum is therefore the one a test
# after each term gives, bit for bit, on a float and in each lane.  The caps
# (terms 501 and 61) end the loop after any term, so a sum that reaches one
# stops there on both paths.  The kernels see a float or a 1-d array, and
# test which once per call.

def _ascending_series(m: int, x, sign: float):
    # sum_k sign^k (x/2)^(m+2k) / (k! (m+k)!): J_m for sign -1, I_m for
    # sign +1 (all terms positive, perfectly conditioned).
    array = isinstance(x, np.ndarray)
    gap = 3 if array else 1  # the stop test runs where k & gap is 0
    half = 0.5 * x
    sq = sign * (half * half)
    term = 1.0
    for i in range(1, m + 1):
        term *= half / i
    total = term
    k = 0
    while k <= 500:
        k += 1
        term = term * (sq / (k * (k + m)))  # not in place: total may share it
        total += term
        if k & gap:
            continue
        done = abs(term) <= 1e-17 * abs(total)
        if done.all() if array else done:
            break
    return total


def _log_half(x: float) -> float:
    # ln(x/2), where halving a subnormal x would round (to 0 at the smallest)
    return math.log(0.5 * x) if x >= 2.0 * sys.float_info.min else math.log(x) - math.log(2.0)


def _log_series(ms, x, sign: float):
    """K_0 and K_1 (sign +1) or Y_0 and Y_1 (sign -1) from the log-augmented
    ascending series (x below the switch), as a tuple of floats or arrays;
    with one order in *ms* the tuple holds order 0 alone.

    One loop runs the sums of the orders asked for until each has
    converged, with q = x^2/4 and H_k the harmonic numbers; each term
    carries its sign from the signed ratio sign q, which gives the bits of
    sign^k times the unsigned term, since IEEE products and quotients are
    symmetric in sign:
    s0 = sum_{k>=1} sign^k H_k q^k / (k!)^2, the sum of DLMF 10.31.2 for K
    and minus that of 10.8.2 for Y, and
    s1 = sum_{k>=0} sign^k (H_k + H_{k+1} - 2 gamma) q^k / (k! (k+1)!).
    It also sums C_0 = sum_k sign^k q^k / (k!)^2 (J_0 or I_0) from s0's
    terms without H_k, which are _ascending_series(0)'s bit for bit, as
    0.25 x x and (x/2)^2 round alike.  s1's stop test bounds its next term
    before adding it; the others are the series' own.  The tests run on
    _ascending_series' schedule (see above), and the loop runs until every
    sum has met its test: the terms a sum adds past it are below half an
    ulp of it, so C_0 is _ascending_series(0)'s value, and order 0 alone
    gives the K_0 and Y_0 of both orders.  On an array ln(x/2) is
    math.log(0.5 x) per lane, _log_half's value, unless a lane is below
    2 * sys.float_info.min, where every lane takes _log_half.
    """
    array = isinstance(x, np.ndarray)
    gap = 3 if array else 1  # the stop test runs where k & gap is 0
    both = len(ms) > 1
    sq = sign * (0.25 * x * x)
    if not array:
        lg = _log_half(x)
    elif (x >= 2.0 * sys.float_info.min).all():
        lg = _map(math.log, 0.5 * x)
    else:
        lg = _map(_log_half, x)
    g2 = 2.0 * EULER_GAMMA
    s0 = s1 = 0.0
    c0 = t0 = t1 = 1.0
    h = 0.0  # H_k
    k = 0
    while k <= 60:
        if both:
            s1 += t1 * (h + h + 1.0 / (k + 1) - g2)
        k += 1
        t0 *= sq / (k * k)
        h += 1.0 / k
        c0 += t0
        u0 = t0 * h
        s0 += u0
        if both:
            t1 *= sq / (k * (k + 1))
        if k & gap:
            continue
        done = (abs(u0) <= 1e-17 * (abs(s0) + 1e-30)) & (abs(t0) <= 1e-17 * abs(c0))
        if both:
            done = done & (abs(t1) * (2.0 * h + 1.0) <= 1e-17 * (abs(s1) + 1e-30))
        if done.all() if array else done:
            break
    if sign < 0.0:
        out = ((2.0 / math.pi) * ((lg + EULER_GAMMA) * c0 - s0),)
    else:
        out = (-(lg + EULER_GAMMA) * c0 + s0,)
    if not both:
        return out
    c1 = _ascending_series(1, x, sign)  # J_1 or I_1
    if sign < 0.0:
        return out + ((2.0 / math.pi) * lg * c1 - 2.0 / (math.pi * x) - (x / (2.0 * math.pi)) * s1,)
    return out + (1.0 / x + lg * c1 - 0.25 * x * s1,)


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


def _miller(x: float, top: int, sign: float, m: int) -> tuple[float, float, float, float]:
    """Unnormalized C_m, C_1 and C_0 and the sum-rule denominator
    C_0 + 2 sum_k C_k, by one downward pass
    C_{k-1} = (2k/x) C_k + sign C_{k+1} from order top.

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
    return cm, prev, cur, cur + 2.0 * total


def _miller_array(x: np.ndarray, top: np.ndarray, sign: float, orders, neumann: bool = False):
    """Array twin of _miller with one lane per argument and a start order
    per lane, capturing C_m at each order m of *orders*.

    One stable argsort orders the lanes by falling start order, so the
    lanes the pass has reached by order k are a prefix, and each step runs
    on that prefix alone: a lane that has not started would only carry its
    zeros.  The step subtracts or adds C_{k+1} in place of multiplying it
    by sign, which is exact.  A bound on |C| that grows by the recurrence
    skips the test for a value past 1e250 until it could pass; the test
    is then one reduction, and the rescale mask is built only when it
    finds one, and scales every row captured so far.  Each lane and each
    captured order therefore runs the operations of _miller in its order,
    bit for bit.

    Returns unnormalized C_m for each m of *orders*, C_0 and the
    denominator, followed with *neumann* (J only) by the sums S_0 and S_1
    of _y01_large, as rows in the order of x.
    """
    stride = 2 if sign < 0.0 else 1
    combine = np.subtract if sign < 0.0 else np.add
    lanes = np.argsort(-top, kind="stable")
    x, starts = x[lanes], top[lanes]
    # the lanes [0, reach[k]) have started by order k
    ends = np.append(np.flatnonzero(starts[1:] != starts[:-1]) + 1, x.size)
    reach = dict(zip(starts[ends - 1].tolist(), ends.tolist()))
    capture = {m: i for i, m in enumerate(orders)}
    cms = np.zeros((len(capture), x.size))
    prev, cur, nxt, total, s0, s1 = np.zeros((6, x.size))
    grow = 2.0 / float(x.min())
    high = low = 0.0  # bounds on |C_k| and |C_{k+1}| over the lanes
    n = 0
    for k in range(int(starts[0]), 0, -1):
        if k in reach:
            cur[n : reach[k]] = 1e-300
            total[n : reach[k]] = 1e-300
            n = reach[k]
            high = max(high, 1e-300)
        step = np.divide(2.0 * k, x[:n], out=nxt[:n])
        step *= cur[:n]
        combine(step, prev[:n], out=step)
        prev, cur, nxt = cur, nxt, prev  # nxt is scratch until the next step
        # |C_{k-1}| <= (2k/x) |C_k| + |C_{k+1}|, with room for rounding: a
        # lane can pass 1e250 only once this bound does
        high, low = 1.0001 * (k * grow * high + low), high
        if high > 1e250:
            high = np.abs(step, out=nxt[:n]).max()
            if high > 1e250:
                big = nxt[:n] > 1e250
                for v in (prev, cur, total, *cms, s0, s1):
                    v[:n][big] *= 1e-250
                high = np.abs(step, out=nxt[:n]).max()
        k -= 1  # cur is C_k from here on
        if k in capture:
            cms[capture[k]] = cur
        if k >= stride and k % stride == 0:
            total[:n] += step
        if neumann and k > 1:
            j = k >> 1
            if k & 1:
                t = np.multiply(step, k, out=nxt[:n])
                t /= j * (j + 1)
                (np.subtract if j & 1 else np.add)(s1[:n], t, out=s1[:n])
            else:
                t = np.divide(step, j, out=nxt[:n])
                (np.add if j & 1 else np.subtract)(s0[:n], t, out=s0[:n])
    rows = (*cms, cur, cur + 2.0 * total) + ((s0, s1) if neumann else ())
    out = np.empty((len(rows), x.size))
    out[:, lanes] = rows
    return out


def _j_large(orders, x: float) -> tuple:
    """J_m for each m of *orders*, each 0, 1 or the highest, from one
    normalized Miller pass from the start order of the highest."""
    m = max(orders)
    cm, c1, c0, denom = _miller(x, _j_start(x, m), -1.0, m)
    norm = 1.0 / denom
    return tuple((c0, c1, cm)[min(k, 2)] * norm for k in orders)


def _j_large_array(orders, x: np.ndarray) -> np.ndarray:
    """J_m for each m of *orders*, as rows, from one pass from the start
    order of the highest.  Each row is its own order's pass bit for bit
    where the orders share the start order, as orders 0, 1 and 2 always
    do: _j_start's top is at least 18, so m + top // 2 <= top for m <= 2."""
    *cms, _, denom = _miller_array(x, _j_start_array(x, max(orders)), -1.0, orders)
    return np.stack(cms) * (1.0 / denom)


def _i_large(orders, x: float) -> tuple:
    """I_m for each m of *orders* from one Miller pass, as in _j_large.
    Every term in the normalization sum is positive, so the result carries
    plain rounding error only."""
    m = max(orders)
    cm, c1, c0, denom = _miller(x, _i_start(x, m), 1.0, m)
    e = math.exp(x)
    # Divide by the unnormalized sum first: v/denom is I_m/e^x <= 1, so no
    # intermediate can overflow even though e^x/denom alone would.
    return tuple(((c0, c1, cm)[min(k, 2)] / denom) * e for k in orders)


def _i_large_array(orders, x: np.ndarray) -> np.ndarray:
    """I_m for each m of *orders*, as rows, from one pass as in
    _j_large_array; _i_start's top is at least 30."""
    *cms, _, denom = _miller_array(x, _i_start_array(x, max(orders)), 1.0, orders)
    return (np.stack(cms) / denom) * _map(math.exp, x)


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
    c1, c0, denom, s0, s1 = _miller_array(x, _j_start_array(x, 0), -1.0, (1,), neumann=True)
    lg = _map(math.log, 0.5 * x) + EULER_GAMMA
    return np.stack(_y01_from_sums(x, lg, c0, c1, denom, s0, s1))


def _k01_chebyshev(ms, x):
    """K_0 and K_1 (or K_0 alone) on [SERIES_SWITCH_K, _HANKEL_SWITCH), a
    float or an array: e^-x / sqrt(x) times the series of _K01_CHEBYSHEV,
    summed by Clenshaw's recurrence.  e^-x comes from math.exp per element
    and sqrt is correctly rounded, so both paths agree bit for bit on every
    host."""
    e = _map(math.exp, -x) if _is_array(x) else math.exp(-x)
    scale = e / (np.sqrt if _is_array(x) else math.sqrt)(x)
    u2 = 2.0 * ((120.0 / x - 23.0) / 17.0)
    out = []
    for coefficients in _K01_CHEBYSHEV[: len(ms)]:
        b0, b1 = coefficients[0], 0.0
        for c in coefficients[1:]:
            b0, b1, b2 = u2 * b0 - b1 + c, b0, b1
        out.append(scale * (0.5 * (b0 - b2)))
    return tuple(out)


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


def _hankel01(x):
    """J_0, J_1, Y_0 and Y_1 at x >= _HANKEL_SWITCH from the Hankel
    expansions sqrt(2/(pi x)) (P cos w - Q sin w) and (P sin w + Q cos w),
    w = x - (2 nu + 1) pi/4, as a tuple of floats or arrays.

    The phase is built from cos x and sin x as sqrt(1/2) (cos x +- sin x):
    forming x - pi/4 first would lose x times the rounding of pi/4.  The
    same operations run on a float (with math.cos, math.sin) and an array
    (with np.cos, np.sin, which give the math module's bits on every
    dispatch tier), so both paths agree bit for bit; the envelope uses a
    correctly rounded square root for the same reason.
    """
    if _is_array(x):
        cos_x, sin_x, sqrt = np.cos(x), np.sin(x), np.sqrt
    else:
        cos_x, sin_x, sqrt = math.cos(x), math.sin(x), math.sqrt
    r = 1.0 / x
    t = r * r
    env = sqrt((2.0 / math.pi) * r)
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


def _j_hankel(ms, x):
    """J_m for each m of *ms*, each below x, by upward recurrence from the
    J_0 and J_1 of one Hankel evaluation."""
    c = _hankel01(x)[:2]
    return [_recur_up(m, x, c, -1.0) for m in ms]


def _k01_scaled(x, orders: int = 2):
    """e^x K_0 and e^x K_1 at x >= _HANKEL_SWITCH from the Hankel expansion
    sqrt(pi/(2x)) (P(-t) + Q(-t)/x), t = 1/x^2 (DLMF 10.40.2), with the
    P and Q of _hankel01; with *orders* 1, e^x K_0 alone.  The same
    operations run on a float and an array, so both paths agree bit for bit.
    """
    r = 1.0 / x
    t = -(r * r)
    env = (np.sqrt if _is_array(x) else math.sqrt)((math.pi / 2.0) * r)
    return tuple(env * (_horner(p, t) + r * _horner(q, t)) for p, q in _HANKEL_PQ[:orders])


def _k01_hankel(ms, x):
    """K_0 and K_1 (or K_0 alone) on [_HANKEL_SWITCH, _K_SCALED_SWITCH), a
    float or an array: _k01_scaled times e^-x, taken from math.exp per
    element."""
    e = _map(math.exp, -x) if _is_array(x) else math.exp(-x)
    return tuple(e * v for v in _k01_scaled(x, len(ms)))


def _k_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """K_m on a 1-d array of arguments from _K_SCALED_SWITCH on.

    K_0 is subnormal or zero there, so the upward recurrence runs on
    e^x K_m, from the e^x K_0 and e^x K_1 of _k01_scaled.  It keeps its
    values below 2^_K_RESCALE_BITS by exact power-of-two steps, counted in
    e, and K_m = s 2^e e^-x is unscaled as ldexp(s exp(-(x - n ln 2)),
    e - n) with n = round(x / ln 2), so no intermediate underflows: a K_m
    below the double range rounds once to a subnormal or zero, and one
    above it raises OverflowError.  Floats come here as one-element arrays,
    and exp is math.exp's, so both paths agree bit for bit on every host.
    """
    with np.errstate(over="ignore", under="ignore"):
        scaled = _k01_scaled(x, 2 if m else 1)
        prev, cur = scaled[0], scaled[-1]
        e = np.zeros(x.size, dtype=np.int64)
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
        out = np.ldexp(cur * _map(math.exp, -r), e - n.astype(np.int64))
    if not np.isfinite(out).all():
        at = x[~np.isfinite(out)][0]
        raise OverflowError(f"K_{m}({at}) exceeds the double-precision range")
    return out


# ----------------------------------------------------------------------
# per-family dispatch
# ----------------------------------------------------------------------

#: A regime that holds at most this many arguments of an array runs its
#: float kernel lane by lane.  An array kernel pays for its numpy calls
#: whatever its lane count, 0.05 ms to 2.6 ms a call, and overtakes the
#: float kernel only from 12 lanes (K_0's Hankel expansion) to 50 or 60
#: (the Miller and Neumann passes).
_FEW_LANES = 11

#: Per family: its switch points; each regime's (array kernel, float
#: kernel), both called as kernel(ms, x) with a tuple ms of orders, the
#: float kernel returning floats and the array kernel their bits as rows;
#: and the sign of the recurrence that takes Y and K past order 1 (None
#: for J and I, which serve (m,) or 0 .. n - 1 for n <= 3: these orders
#: share the Miller start order and the switch to the Hankel rows, so
#: each row is the single order's value bit for bit).  From
#: _K_SCALED_SWITCH on, K's kernels give zeros until _k_scaled serves K.
_FAMILIES = {
    CylinderFamily.BESSEL_J: (
        (SERIES_SWITCH_JY, _HANKEL_SWITCH),
        (
            (lambda ms, x: [_ascending_series(m, x, -1.0) for m in ms],) * 2,
            (_j_large_array, _j_large),
            (_j_hankel,) * 2,
        ),
        None,
    ),
    CylinderFamily.NEUMANN_Y: (
        (SERIES_SWITCH_JY, _HANKEL_SWITCH),
        (
            (lambda ms, x: _log_series(ms, x, -1.0),) * 2,
            (lambda ms, x: _y01_large_array(x)[: len(ms)], lambda ms, x: _y01_large(x)[: len(ms)]),
            (lambda ms, x: _hankel01(x)[2 : 2 + len(ms)],) * 2,
        ),
        -1.0,
    ),
    CylinderFamily.MODIFIED_I: (
        (SERIES_SWITCH_I,),
        (
            (lambda ms, x: [_ascending_series(m, x, 1.0) for m in ms],) * 2,
            (_i_large_array, _i_large),
        ),
        None,
    ),
    CylinderFamily.MODIFIED_K: (
        (SERIES_SWITCH_K, _HANKEL_SWITCH, _K_SCALED_SWITCH),
        (
            (lambda ms, x: _log_series(ms, x, 1.0),) * 2,
            (_k01_chebyshev,) * 2,
            (_k01_hankel,) * 2,
            (lambda ms, x: np.zeros((len(ms), x.size)), lambda ms, x: (0.0,) * len(ms)),
        ),
        1.0,
    ),
}


def _regimes(x, switches: tuple, routes: tuple, ms):
    """Values (at a float x) or rows (on an array x) of the orders *ms* from
    the kernels of routes[i] on the arguments from switches[i - 1] up to
    below switches[i]; a regime of at most _FEW_LANES arguments runs its
    float kernel per argument.  Underflow is ignored on the array path: it
    is as benign there as in the float path's Python arithmetic, which
    never raises.  So are overflow and division by zero: the series' Y_1
    and K_1 overflow for a subnormal x, and _recur_up raises for them.
    """
    if isinstance(x, float):
        return routes[bisect.bisect_right(switches, x)][1](ms, x)
    flat = x.ravel()
    out = np.empty((len(ms), flat.size))
    regime = np.searchsorted(switches, flat, side="right")
    with np.errstate(under="ignore", over="ignore", divide="ignore"):
        for i, (kernel, lane_kernel) in enumerate(routes):
            mask = regime == i
            v = flat[mask]
            if not v.size:
                continue
            if v.size > _FEW_LANES:
                out[:, mask] = kernel(ms, v)
            else:
                out[:, mask] = np.array([lane_kernel(ms, u) for u in v.tolist()]).T
    return out.reshape((len(ms),) + x.shape)


def crossover_mismatch() -> float:
    """Worst relative gap between neighbouring regimes of orders 0 and 1,
    1e-6 on either side of each switch point below _K_SCALED_SWITCH, each
    relative to the family's middle regime."""
    worst = 0.0
    for switches, routes, _ in _FAMILIES.values():
        for i, s in enumerate(switches):
            if s >= _K_SCALED_SWITCH:
                continue
            for x in (s - 1e-6, s + 1e-6):
                below, above = (routes[j][1]((0, 1), x) for j in (i, i + 1))
                for a, b, middle in zip(below, above, above if i == 0 else below):
                    worst = max(worst, abs(a - b) / abs(middle))
    return worst


def cylinder_rows(family: CylinderFamily, x, n: int):
    """C_0 .. C_{n-1}, n <= 3, of *family* at a float or as rows on an
    array, from one pass per argument, bit for bit as a besselj, bessely,
    besseli or besselk call per order (Y_2 and K_2 from their upward step).
    The arguments are not checked: they must be finite, x >= 0 for J and
    I, at most 700 for I, and x > 0 for Y and K, whose rows are zeros from
    _K_SCALED_SWITCH on.
    """
    switches, routes, sign = _FAMILIES[family]
    if sign is None or n < 3:
        return _regimes(x, switches, routes, range(n))
    rows = _regimes(x, switches, routes, range(2))
    return (*rows, _recur_up(2, x, rows, sign))


def _cylinder(family: CylinderFamily, m, x):
    """C_m(x) of *family* after the checks of the order and of x, a float or
    an array: besselj, bessely, besseli and besselk."""
    m = check_int("order", m, 0)
    x = _check_argument(family, x)
    switches, routes, sign = _FAMILIES[family]
    if sign is None:
        if family is CylinderFamily.BESSEL_J:
            # upward recurrence from the Hankel J_0, J_1 is stable while m < x
            switches = (SERIES_SWITCH_JY, max(_HANKEL_SWITCH, math.nextafter(m, math.inf)))
        return _regimes(x, switches, routes, (m,))[0]
    out = _recur_up(m, x, _regimes(x, switches, routes, (0, 1) if m else (0,)), sign)
    if family is CylinderFamily.MODIFIED_K:
        # the zeros of the scaled regime rode through the recurrence
        scaled = x >= _K_SCALED_SWITCH
        if isinstance(x, float):
            return float(_k_scaled(m, np.array([x]))[0]) if scaled else out
        if scaled.any():
            out[scaled] = _k_scaled(m, x[scaled])
    return out


def besselj(m: int, x):
    """J_m(x) for integer m >= 0, x >= 0; x is a float or an array."""
    return _cylinder(CylinderFamily.BESSEL_J, m, x)


def bessely(m: int, x):
    """Y_m(x) for integer m >= 0, x > 0; x is a float or an array."""
    return _cylinder(CylinderFamily.NEUMANN_Y, m, x)


def besseli(m: int, x):
    """I_m(x) for integer m >= 0, 0 <= x <= 700; x is a float or an array."""
    return _cylinder(CylinderFamily.MODIFIED_I, m, x)


def besselk(m: int, x):
    """K_m(x) for integer m >= 0, x > 0; x is a float or an array."""
    return _cylinder(CylinderFamily.MODIFIED_K, m, x)


#: K_0(x) = (ln 2 - gamma) - ln x + O(x^2 ln x) as x -> 0 (DLMF 10.31.2)
_K0_LOG_OFFSET = math.log(2.0) - EULER_GAMMA


def k0_product(k: float, r):
    """K_0(k r) at a float r, or over an array of radii.

    The domain is k > 0 and r > 0, both finite; neither is checked.  Where
    k r overflows, K_0 is 0: it falls to 0 long before, and besselk refuses
    an infinite argument.  Where k r underflows (to a subnormal or to 0)
    the product has lost its digits, so K_0 is taken from ln k + ln r
    (DLMF 10.31.2), whose remainder O(x^2 ln x) is far below an ulp
    there.  Elsewhere k r is a valid argument, and K_0 is besselk's value
    bit for bit.  A float r runs as a one-element array.
    """
    rs = np.atleast_1d(r)
    with np.errstate(over="ignore", under="ignore"):
        kr = k * rs
    k0 = np.zeros(kr.shape)
    tiny = kr < sys.float_info.min
    k0[tiny] = [_K0_LOG_OFFSET - math.log(k) - math.log(v) for v in rs[tiny].tolist()]
    normal = ~tiny & (kr < math.inf)
    k0[normal] = besselk(0, kr[normal])
    return k0 if _is_array(r) else k0.item()


def _recur_up(m: int, x, c, sign: float):
    # Upward recurrence C_{k+1} = (2k/x) C_k + sign C_{k-1} from c, which
    # holds C_0 and, for m >= 1, C_1: sign -1 for Y, +1 for K, whose
    # magnitudes grow with order so the direction is stable, and for J
    # while m < x.  The same arithmetic serves floats and arrays.
    if m == 0:
        return c[0]  # |C_0| grows no faster than ln(1/x)
    prev, cur = c
    if m > 1:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for k in range(1, m):
                step = (2.0 * k / x) * cur
                prev, cur = cur, step - prev if sign < 0.0 else step + prev
    # Y_1 and K_1 overflow for subnormal x, and an overflowed Y turns into
    # inf - inf = nan on the next step; J stays below one
    if not (np.isfinite(cur).all() if _is_array(cur) else math.isfinite(cur)):
        at = np.atleast_1d(x)[~np.isfinite(np.atleast_1d(cur))][0]
        name = "Y" if sign < 0.0 else "K"
        raise OverflowError(f"{name}_{m}({at}) exceeds the double-precision range")
    return cur


#: Per family (a, b, c) with C_0' = a C_1 and C_m' = b (C_{m-1} + c C_{m+1}).
_DERIVATIVE_SIGNS = {
    CylinderFamily.BESSEL_J: (-1.0, 0.5, -1.0),
    CylinderFamily.NEUMANN_Y: (-1.0, 0.5, -1.0),
    CylinderFamily.MODIFIED_I: (1.0, 0.5, 1.0),
    CylinderFamily.MODIFIED_K: (-1.0, -0.5, 1.0),
}


def cylinder_slope(family: CylinderFamily, m: int, below, above):
    """C_m' of *family* from its neighbouring orders: below = C_{m-1}
    (unread for m = 0) and above = C_{m+1}, floats or arrays alike.

    J_0' = -J_1, Y_0' = -Y_1, I_0' = I_1 and K_0' = -K_1; for m >= 1,
    J_m' = (J_{m-1} - J_{m+1}) / 2 and Y alike (DLMF 10.6.2),
    I_m' = (I_{m-1} + I_{m+1}) / 2 and K_m' = -(K_{m-1} + K_{m+1}) / 2
    (DLMF 10.29.2).
    """
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

#: sin(j 2 pi / N) at the trapezoid's N = _SOMMERFELD_POINTS nodes.
_SOMMERFELD_SIN = np.array(
    [math.sin(j * (2.0 * math.pi / _SOMMERFELD_POINTS)) for j in range(_SOMMERFELD_POINTS)]
)


def sommerfeld_j0_components(kr):
    """Real and imaginary parts of the closed-contour mean of e^(i kr sin(theta)).

    The periodic trapezoid with N = _SOMMERFELD_POINTS points is exact up
    to the N-th Fourier mode: its mean is the sum of J_{jN}(kr) over all
    integers j, so it misses J_0 by about 2 |J_N(kr)| <= 2 (kr/2)^N / N!.
    Arguments where that bound is not below rounding raise ValueError
    (|kr| above _SOMMERFELD_KR_MAX, about 165); below it the real part
    reproduces J_0(kr) to rounding and the imaginary part cancels pairwise.

    kr is a float, giving two floats, or an array, giving two arrays of
    its shape.  The checks run one at a time over all arguments, in the
    order a float call makes them: non-finite arguments, then |kr| past
    _SOMMERFELD_KR_MAX; the first argument that fails the first failing
    check raises that check's error.  One np.cos and one np.sin pass take
    all nodes of every argument at once, so n arguments hold a few n x 256
    float temporaries (about 10 kB per argument); on these arguments they
    give math.cos and math.sin bit for bit.  Each sum runs left to right from 0.0 as a loop over the
    nodes would: np.cumsum adds in that order along the nodes, and adding
    0.0 turns an all-negative-zero sum into the loop's +0.0.  (np.sum adds
    pairwise, which rounds differently.)
    """
    kr = check_reals("kr", kr)
    x = np.asarray(kr)
    n = _SOMMERFELD_POINTS
    far = np.abs(x) > _SOMMERFELD_KR_MAX
    if far.any():
        raise ValueError(
            f"{n} quadrature points resolve J_0 to rounding only for |kr| <= "
            f"{_SOMMERFELD_KR_MAX:.6g}, got {x[far].flat[0].item()!r}"
        )
    with np.errstate(under="ignore"):  # a subnormal kr, as on floats
        a = x[..., None] * _SOMMERFELD_SIN
        re = np.cumsum(np.cos(a), axis=-1)[..., -1] + 0.0
        im = np.cumsum(np.sin(a), axis=-1)[..., -1] + 0.0
    if x.ndim:
        return re / n, im / n
    return re.item() / n, im.item() / n


def sommerfeld_j0(kr):
    """J_0(kr) by direct angular quadrature of its plane-wave average; kr
    is a float or an array.  The imaginary parts are checked after all of
    sommerfeld_j0_components' checks; the first that fails to cancel
    raises."""
    re, im = sommerfeld_j0_components(kr)
    failed = np.abs(im) > 1e-12
    if failed.any():
        raise ArithmeticError(
            f"imaginary part failed to cancel: {np.ravel(im)[failed.ravel()][0].item()!r}"
        )
    return re
