"""The array path of the cylinder functions, pinned to the scalar path.

An array runs either the very kernel a float runs (the series, the Hankel
expansions, the K trapezoid, the upward recurrence) or an array twin that
repeats its floating-point operations in the same order, so J, Y, I and K
must agree bit for bit.  A regime that holds at most _FEW_LANES arguments
runs the float kernels themselves, so a test that means the array kernels
repeats its arguments past that count (lanes.on_array_kernels).
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lanes import on_array_kernels
from anticentrifugal import specfun
from anticentrifugal.nodes import find_zeros
from anticentrifugal.specfun import (
    SERIES_SWITCH_I,
    SERIES_SWITCH_JY,
    SERIES_SWITCH_K,
    _HANKEL_SWITCH,
    CylinderFamily,
    _ascending_series,
    _i_start,
    _i_start_array,
    _j_start,
    _j_start_array,
    _FEW_LANES,
    _K_COSH,
    _K_SCALED_SWITCH,
    _k01_large,
    _log_series,
    _miller,
    _miller_array,
    besseli,
    besselj,
    besselk,
    bessely,
    cylinder_rows,
    cylinder_slope,
)

_EVAL = {
    CylinderFamily.BESSEL_J: besselj,
    CylinderFamily.NEUMANN_Y: bessely,
    CylinderFamily.MODIFIED_I: besseli,
    CylinderFamily.MODIFIED_K: besselk,
}

#: Every switch point, approached from both sides and hit exactly, on top
#: of a dense sweep of every regime and a few far arguments.
_GRID = np.sort(
    np.concatenate(
        (
            np.linspace(0.01, 60.0, 1201),
            [
                s + d
                for s in (SERIES_SWITCH_JY, SERIES_SWITCH_I, SERIES_SWITCH_K)
                for d in (-1e-6, 0.0, 1e-6)
            ],
            [100.0, 250.0, 320.0, 650.0],
        )
    )
)


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("m", [0, 1, 2])
def test_array_values_match_scalar_path(family, m):
    fn = _EVAL[family]
    got = fn(m, _GRID)
    want = np.array([fn(m, float(x)) for x in _GRID])
    assert isinstance(got, np.ndarray) and got.shape == _GRID.shape
    np.testing.assert_array_equal(got, want)


#: Arguments whose series converge after very different numbers of terms:
#: a subnormal and a tiny one after one term, those next to a switch after
#: the most.  K's sum s1 crosses zero on [0.90, 1.02].
SERIES_MIXED = [5e-324, 1e-310, 1e-20, 0.90, 0.92, 0.94, 0.96, 0.98, 1.00, 1.02] + [
    s + d for s in (SERIES_SWITCH_JY, SERIES_SWITCH_K, SERIES_SWITCH_I) for d in (-1e-6, 1e-6)
]


@pytest.mark.parametrize("fn", [besselj, bessely, besseli, besselk])
@pytest.mark.parametrize("m", [0, 1])
def test_mixed_convergence_matches_floats_and_frozen_values(fn, m):
    # an array keeps iterating every lane until its last lane converges;
    # the terms a lane adds past its own stop must leave it unchanged
    name = fn.__name__[-1].upper()
    x = SERIES_MIXED[2:] if (name in "YK" and m == 1) else SERIES_MIXED
    got = fn(m, np.array(x))
    np.testing.assert_array_equal(got, [fn(m, v) for v in x])
    np.testing.assert_array_equal(got, oracles.SERIES_MIXED_VALUES[name, m])


_S1_CROSSING = np.concatenate((SERIES_MIXED[:3], np.linspace(0.90, 1.02, 2001)))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_series_kernels_serve_floats_and_arrays_alike(sign):
    # the kernels themselves, on the sweep where K's s1 changes sign
    for m in (0, 1, 2, 5):
        np.testing.assert_array_equal(
            _ascending_series(m, _S1_CROSSING, sign),
            [_ascending_series(m, v, sign) for v in _S1_CROSSING.tolist()],
        )
    x = _S1_CROSSING[2:]
    rows = _log_series((0, 1), x, sign)
    for i in (0, 1):
        floats = [_log_series((0, 1), v, sign)[i] for v in x.tolist()]
        np.testing.assert_array_equal(rows[i], floats)


def _seeded_below(switch: float, n: int = 100_000) -> np.ndarray:
    # half log-uniform from the smallest subnormal, where the sums stop
    # after a term or two, half uniform up to the switch, where they run
    # longest; plus the ends of the range and the smallest normal
    rng = np.random.default_rng(20261018)
    x = np.concatenate(
        (
            np.exp(rng.uniform(math.log(5e-324), math.log(switch), n // 2)),
            rng.uniform(0.0, switch, n - n // 2),
            [5e-324, 1e-310, 2.2250738585072014e-308, math.nextafter(switch, 0.0)],
        )
    )
    return x[x > 0.0]


def _two_pass_log_series(x, sign, orders):
    """_log_series summed in two passes: C_0 (J_0 or I_0) from
    _ascending_series(0), then the s0 and s1 loop on its own stop tests."""
    array = isinstance(x, np.ndarray)
    both = orders > 1
    q = 0.25 * x * x
    lg = specfun._map(specfun._log_half, x) if array else specfun._log_half(x)
    c0 = _ascending_series(0, x, sign)
    g2 = 2.0 * specfun.EULER_GAMMA
    s0 = s1 = 0.0
    t0 = t1 = 1.0
    h, alt, k = 0.0, 1.0, 0
    while True:
        if both:
            s1 += alt * (t1 * (h + h + 1.0 / (k + 1) - g2))
        k += 1
        t0 *= q / (k * k)
        h += 1.0 / k
        alt *= sign
        u0 = t0 * h
        s0 += alt * u0
        done = u0 <= 1e-17 * (abs(s0) + 1e-30)
        if both:
            t1 *= q / (k * (k + 1))
            done = done & (t1 * (2.0 * h + 1.0) <= 1e-17 * (abs(s1) + 1e-30))
        if (done.all() if array else done) or k > 60:
            break
    if sign < 0.0:
        out = ((2.0 / math.pi) * ((lg + specfun.EULER_GAMMA) * c0 - s0),)
    else:
        out = (-(lg + specfun.EULER_GAMMA) * c0 + s0,)
    if not both:
        return out
    c1 = _ascending_series(1, x, sign)
    if sign < 0.0:
        return out + ((2.0 / math.pi) * lg * c1 - 2.0 / (math.pi * x) - (x / (2.0 * math.pi)) * s1,)
    return out + (1.0 / x + lg * c1 - 0.25 * x * s1,)


@pytest.mark.parametrize("sign, switch", [(-1.0, SERIES_SWITCH_JY), (1.0, SERIES_SWITCH_K)])
def test_fused_series_is_the_two_pass_series_bit_for_bit(sign, switch):
    # C_0 summed from s0's terms is what the separate _ascending_series
    # pass gave, and order 0 alone is Y_0 and K_0 of both orders: the terms
    # a sum adds past its own stop test are below half an ulp of it.  The
    # floats are held to the array reference, which the float reference
    # equals bit for bit (test_series_kernels_serve_floats_and_arrays_alike);
    # one-lane arrays run the float path's operations, on a seeded 500
    # of the arguments and the ends of the range
    x = _seeded_below(switch)
    assert x.size >= 100_000 and x.min() == 5e-324
    with np.errstate(over="ignore", divide="ignore"):  # order 1 overflows at subnormal x
        want = np.array(_two_pass_log_series(x, sign, 2))
        np.testing.assert_array_equal(_two_pass_log_series(x, sign, 1), want[:1])
        (alone,) = _log_series((0,), x, sign)
        np.testing.assert_array_equal(alone, want[0])
        np.testing.assert_array_equal(_log_series((0, 1), x, sign), want)
        v = x.tolist()
        np.testing.assert_array_equal([_log_series((0,), u, sign)[0] for u in v], want[0])
        np.testing.assert_array_equal(np.array([_log_series((0, 1), u, sign) for u in v]).T, want)
        at = np.concatenate((np.arange(x.size - 4, x.size), np.random.default_rng(23).choice(x.size, 500)))
        for orders in (1, 2):
            lanes = [x[i : i + 1] for i in at.tolist()]
            got = np.hstack([np.array(_log_series(range(orders), u, sign)) for u in lanes])
            ref = np.hstack([np.array(_two_pass_log_series(u, sign, orders)) for u in lanes])
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(got, want[:orders, at])
    np.testing.assert_array_equal(alone, (besselk if sign > 0.0 else bessely)(0, x))


def test_log_series_sums_the_ascending_series_for_order_1_only(monkeypatch):
    calls = []
    ascending = specfun._ascending_series
    monkeypatch.setattr(specfun, "_ascending_series", lambda m, x, sign: calls.append(m) or ascending(m, x, sign))
    for x in (1e-300, 0.5, 1.99, np.array([0.5]), np.linspace(0.1, 1.9, 40)):
        for sign in (-1.0, 1.0):
            calls.clear()
            _log_series((0,), x, sign)
            assert calls == []
            _log_series((0, 1), x, sign)
            assert calls == [1]


_FLOAT_ARGUMENTS = (1e-20, 0.5, 2.5, 5.0, 10.0, 25.0, 100.0, 700.0)


@pytest.mark.parametrize("fn", [besselj, bessely, besseli, besselk])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_float_arguments_return_python_floats(fn, m):
    for x in _FLOAT_ARGUMENTS:
        assert type(fn(m, x)) is float
        assert type(fn(m, np.float64(x))) is float


def test_series_kernels_return_python_floats():
    for x in (5e-324, 1e-20, 0.95, 1.99):
        for sign in (-1.0, 1.0):
            assert type(_ascending_series(0, x, sign)) is float
            assert type(_ascending_series(3, x, sign)) is float
            assert all(type(v) is float for v in _log_series((0, 1), x, sign))


#: Both sides of the Hankel switch and of x = m, where J_m leaves the
#: Miller table for upward recurrence, out to arguments no table could hold.
_HANKEL_GRID = np.sort(
    np.concatenate(
        (
            [s + d for s in (_HANKEL_SWITCH, 30.0) for d in (-1e-6, 0.0, 1e-6)],
            np.linspace(15.0, 45.0, 301),
            np.geomspace(45.0, 3e4, 40),
            [1e6, 1e12, 1e300],
        )
    )
)


@pytest.mark.parametrize("fn", [besselj, bessely])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 30])
def test_hankel_regime_matches_scalar_path(fn, m):
    got = fn(m, _HANKEL_GRID)
    want = np.array([fn(m, x) for x in _HANKEL_GRID.tolist()])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("m", [0, 1, 2])
def test_array_derivatives_match_scalar_path(family, m):
    fn = _EVAL[family]

    def derivative(x):
        return cylinder_slope(family, m, fn(m - 1, x) if m else None, fn(m + 1, x))

    got = derivative(_GRID)
    want = np.array([derivative(float(x)) for x in _GRID])
    np.testing.assert_array_equal(got, want)


def _j_start_sum(x: float) -> float:
    return x + 12.0 * (0.5 * x + 1.0) ** (1.0 / 3.0)


def _near_integer_j_sums() -> np.ndarray:
    """Arguments within 4 ulp of where the J start sum reaches each integer
    from 20 to 700: there a one-ulp difference in the cube root flips the
    truncated start order."""
    xs = []
    for n in range(20, 701):
        lo, hi = 0.0, float(n)
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            lo, hi = (lo, mid) if _j_start_sum(mid) >= n else (mid, hi)
        for toward in (-math.inf, math.inf):
            x = hi
            for _ in range(4):
                x = float(np.nextafter(x, toward))
                xs.append(x)
        xs.append(hi)
    return np.array(xs)


@pytest.mark.parametrize("m", [0, 1, 7, 150])
def test_start_orders_match_scalar_path(m):
    near = _near_integer_j_sums()
    sums = np.array([_j_start_sum(x) for x in near.tolist()])
    assert np.all(np.abs(sums - np.rint(sums)) <= 1e-9 * sums)
    x = np.concatenate((_GRID, near))
    np.testing.assert_array_equal(_j_start_array(x, m), [_j_start(v, m) for v in x.tolist()])
    np.testing.assert_array_equal(_i_start_array(x, m), [_i_start(v, m) for v in x.tolist()])


#: Trapezoid arguments that stop after very different numbers of nodes,
#: from all 25 at x = 3 to 14 just below the Hankel switch, then the
#: switch's other side.
_K_MIXED = np.array(
    [3.0, 19.9, 5.5, np.nextafter(20.0, 0.0), 3.0 + 1e-12, 11.0, np.nextafter(3.0, 4.0),
     20.0, np.nextafter(20.0, 21.0), 20.5, 7.25]
)


def test_k_batch_matches_one_at_a_time():
    # the trapezoid sums every lane until its last lane stops; the nodes a
    # lane adds past its own stop must leave it unchanged
    for m in (0, 1, 2):
        want = [besselk(m, _K_MIXED[i : i + 1])[0] for i in range(_K_MIXED.size)]
        np.testing.assert_array_equal(besselk(m, _K_MIXED), want)


@pytest.mark.parametrize("x", [SERIES_SWITCH_K - 1e-6, SERIES_SWITCH_K])
def test_k_trapezoid_nodes_reach_the_stop_at_the_series_switch(x):
    # the loop runs out of nodes without an error, so the last node must
    # meet the stop test x (cosh t - 1) > 55 at the smallest argument the
    # trapezoid serves, and at the crossover check's point below it
    assert len(_K_COSH) == 26
    assert x * (_K_COSH[-1] - 1.0) > 55.0
    assert x * (_K_COSH[-2] - 1.0) <= 55.0


@pytest.mark.parametrize("family", [CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y])
def test_orders_zero_and_one_from_one_table(family):
    # the zero finder reads both orders off one table per argument; they
    # must be the very numbers two separate calls return
    x = _GRID[_GRID > 0.0]
    c0, c1 = cylinder_rows(family, x, 2)
    np.testing.assert_array_equal(c0, _EVAL[family](0, x))
    np.testing.assert_array_equal(c1, _EVAL[family](1, x))


def test_regular_families_at_the_origin():
    x = np.array([0.0, 1.0])
    np.testing.assert_array_equal(besselj(0, x), [1.0, besselj(0, 1.0)])
    np.testing.assert_array_equal(besseli(3, x), [0.0, besseli(3, 1.0)])
    np.testing.assert_array_equal(on_array_kernels(besselj, 0, x), [1.0, besselj(0, 1.0)])
    np.testing.assert_array_equal(on_array_kernels(besseli, 3, x), [0.0, besseli(3, 1.0)])


def test_shapes():
    assert isinstance(besselj(0, np.float64(2.5)), float)
    assert isinstance(besselk(1, np.array(2.5)), float)
    assert besselj(0, np.array(2.5)) == besselj(0, 2.5)
    assert besselk(0, np.empty(0)).shape == (0,)
    grid = np.linspace(0.5, 9.5, 12).reshape(3, 4)
    got = bessely(1, grid)
    assert got.shape == (3, 4)
    np.testing.assert_array_equal(got.ravel(), bessely(1, grid.ravel()))
    np.testing.assert_array_equal(got.ravel(), on_array_kernels(bessely, 1, grid.ravel()))
    np.testing.assert_array_equal(
        besseli(2, grid).ravel(), on_array_kernels(besseli, 2, grid.ravel())
    )


def test_integer_arrays_are_accepted():
    np.testing.assert_array_equal(besselj(1, np.array([1, 5])), besselj(1, np.array([1.0, 5.0])))
    np.testing.assert_array_equal(
        on_array_kernels(besselj, 1, np.array([1, 5])), besselj(1, np.array([1.0, 5.0]))
    )


# ---------------------------------------------------------------------------
# regimes with few lanes run the float kernels


#: Per family, the regimes of orders 0 to 5 from the smallest argument up:
#: J_5 leaves its Miller pass at the Hankel switch as J_0 does.
_REGIMES = {
    CylinderFamily.BESSEL_J: (
        (0.0, SERIES_SWITCH_JY), (SERIES_SWITCH_JY, _HANKEL_SWITCH), (_HANKEL_SWITCH, 400.0)
    ),
    CylinderFamily.NEUMANN_Y: (
        (1e-3, SERIES_SWITCH_JY), (SERIES_SWITCH_JY, _HANKEL_SWITCH), (_HANKEL_SWITCH, 400.0)
    ),
    CylinderFamily.MODIFIED_I: ((0.0, SERIES_SWITCH_I), (SERIES_SWITCH_I, 700.0)),
    CylinderFamily.MODIFIED_K: (
        (1e-3, SERIES_SWITCH_K),
        (SERIES_SWITCH_K, _HANKEL_SWITCH),
        (_HANKEL_SWITCH, _K_SCALED_SWITCH),
        (_K_SCALED_SWITCH, 800.0),
    ),
}


#: Lane counts on both sides of the switch from float to array kernels.
_AROUND_FEW = (1, _FEW_LANES, _FEW_LANES + 1)


def _seeded_regimes(family, seed):
    """Per regime, a long array of seeded arguments inside it."""
    rng = np.random.default_rng(seed)
    for lo, hi in _REGIMES[family]:
        yield rng.uniform(lo, hi, 4 * _FEW_LANES)


@contextlib.contextmanager
def _strict():
    """Warnings raise, and so does every numpy floating-point error."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_few_lanes_match_floats_and_long_arrays(family, m):
    # the float kernels at few lanes, the array kernels past them and in a
    # long array, and the float path: the same bits every way
    fn = _EVAL[family]
    with _strict():
        for x in _seeded_regimes(family, [15, m]):
            in_long = fn(m, x)
            for n in _AROUND_FEW:
                got = fn(m, x[:n])
                np.testing.assert_array_equal(got, in_long[:n])
                np.testing.assert_array_equal(got, [fn(m, v) for v in x[:n].tolist()])


def _outcome(call):
    """A call's bits, as one per lane, or its exception's type and message,
    with every warning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.atleast_1d(np.asarray(call(), dtype=float)).view(np.int64).tolist()
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_EVAL, key=lambda family: family.value)),
    st.integers(0, 2),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True),
)
@example(CylinderFamily.MODIFIED_K, 2, 5e-324)
@example(CylinderFamily.NEUMANN_Y, 1, 1e-310)
@example(CylinderFamily.MODIFIED_I, 0, 700.0000000000001)
@example(CylinderFamily.MODIFIED_K, 1, 705.0)
@example(CylinderFamily.BESSEL_J, 2, 1.7976931348623157e308)
def test_public_functions_give_the_same_bits_on_floats_and_lanes(family, m, x):
    # a float, a one-lane array and an array past _FEW_LANES: the same bits
    # in every lane, or the same exception type and message
    fn = _EVAL[family]
    alone = _outcome(lambda: fn(m, x))
    assert _outcome(lambda: fn(m, np.array([x]))) == alone
    many = _outcome(lambda: fn(m, np.full(_FEW_LANES + 1, x)))
    assert many == (alone * (_FEW_LANES + 1) if isinstance(alone, list) else alone)


@pytest.mark.parametrize("family", [CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y])
def test_few_lane_pairs_match_floats_and_long_arrays(family):
    fn = _EVAL[family]
    with _strict():
        for x in _seeded_regimes(family, 16):
            in_long = cylinder_rows(family, x, 2)
            for n in _AROUND_FEW:
                got = cylinder_rows(family, x[:n], 2)
                np.testing.assert_array_equal(got, in_long[:, :n])
                for m in (0, 1):
                    np.testing.assert_array_equal(got[m], [fn(m, v) for v in x[:n].tolist()])


def test_k_trapezoid_sums_order_zero_alone_bit_for_bit():
    # K_0 alone skips the K_1 sum, and an array stops on its smallest lane:
    # the same bits as row 0 of both orders, wherever that lane sits
    x = np.linspace(SERIES_SWITCH_K, _HANKEL_SWITCH, 57, endpoint=False)[1:]
    low = SERIES_SWITCH_K + 0.01
    arrays = (
        np.concatenate(([low], x)),
        np.concatenate((x, [low])),
        np.concatenate((x[:20], [low], x[20:])),
        np.concatenate((x[:9], [low], x[9:30], [low, low], x[30:])),
    )
    with _strict():
        for v in x.tolist() + [low]:
            assert _k01_large((0,), v) == _k01_large((0, 1), v)[:1]
        for a in arrays:
            (alone,) = _k01_large((0,), a)
            both = _k01_large((0, 1), a)
            np.testing.assert_array_equal(alone, both[0])
            for i in range(a.size):
                np.testing.assert_array_equal(_k01_large((0, 1), a[i : i + 1])[0], both[0][i])
                np.testing.assert_array_equal(_k01_large((0, 1), a[i : i + 1])[1], both[1][i])


@pytest.mark.parametrize("sign, start, lo, hi", [
    (-1.0, _j_start, SERIES_SWITCH_JY, _HANKEL_SWITCH),
    (1.0, _i_start, SERIES_SWITCH_I, 700.0),
])
@pytest.mark.parametrize("m", [0, 1, 2, 300])
def test_miller_pass_on_shuffled_lanes_matches_the_float_pass(sign, start, lo, hi, m):
    # lanes in no order of their start orders, which interleave and repeat;
    # at m = 300 the passes rescale on their way down
    rng = np.random.default_rng(41)
    x = rng.uniform(lo, hi, 60)
    x = rng.permutation(np.concatenate((x, x[:7], np.full(4, x[11]))))
    top = np.array([start(v, m) for v in x.tolist()])
    assert len(set(top.tolist())) < x.size
    want = np.array([_miller(v, t, sign, m) for v, t in zip(x.tolist(), top.tolist())]).T
    with _strict():
        with np.errstate(under="ignore"):  # as _regimes runs the kernels
            # the float pass returns C_m, C_1, C_0 and the denominator
            np.testing.assert_array_equal(_miller_array(x, top, sign, (m,)), want[[0, 2, 3]])
            np.testing.assert_array_equal(_miller_array(x, top, sign, (1,))[0], want[1])
            if sign < 0.0:
                neumann = _miller_array(x, top, sign, (m,), neumann=True)
                np.testing.assert_array_equal(neumann[:3], want[[0, 2, 3]])
        fn = besselj if sign < 0.0 else besseli
        np.testing.assert_array_equal(fn(m, x), [fn(m, v) for v in x.tolist()])


def test_numpy_cos_and_sin_are_the_math_modules():
    # the Hankel expansions and the Sommerfeld trapezoid take numpy's cos
    # and sin on arrays, for math.cos and math.sin bit for bit; CI runs this
    # on numpy's default, AVX2 and baseline dispatch tiers
    rng = np.random.default_rng(53)
    x = np.concatenate((rng.uniform(-200.0, 200.0, 50000), 10.0 ** rng.uniform(1.3, 308.0, 50000)))
    for array_fn, fn in ((np.cos, math.cos), (np.sin, math.sin)):
        assert array_fn(x).tolist() == [fn(v) for v in x.tolist()]


@pytest.mark.parametrize("sign, start, x, orders", [
    # orders 0 to 2 share the default start order on every argument
    (-1.0, _j_start, np.linspace(SERIES_SWITCH_JY, _HANKEL_SWITCH, 97), (0, 1, 2)),
    (1.0, _i_start, np.linspace(SERIES_SWITCH_I, 700.0, 97), (0, 1, 2)),
    # the passes rescale once, near order 150 (J) or 670 (I): after the
    # captures of the two high orders, which it must scale, and before
    # order 2's
    (-1.0, _j_start, np.array([5.0, 4.5, 5.5, 6.0]), (400, 300, 2)),
    (1.0, _i_start, np.array([700.0, 699.5, 690.0, 650.0]), (1500, 1000, 2)),
])
def test_one_miller_pass_captures_each_order_as_its_own_pass(sign, start, x, orders):
    top = np.array([start(v, max(orders)) for v in x.tolist()])
    if orders == (0, 1, 2):
        assert all(start(v, m) == start(v, 0) for v in x.tolist() for m in orders)
    with _strict(), np.errstate(under="ignore"):  # as _regimes runs the kernels
        *rows, c0, denom = _miller_array(x, top, sign, orders)
    for m, row in zip(orders, rows):
        want = [_miller(v, t, sign, m) for v, t in zip(x.tolist(), top.tolist())]
        np.testing.assert_array_equal(row, [w[0] for w in want])
        np.testing.assert_array_equal(c0, [w[2] for w in want])
        np.testing.assert_array_equal(denom, [w[3] for w in want])


@pytest.mark.parametrize("family, fn, lo, hi", [
    (CylinderFamily.BESSEL_J, besselj, SERIES_SWITCH_JY, _HANKEL_SWITCH),
    (CylinderFamily.MODIFIED_I, besseli, SERIES_SWITCH_I, 700.0),
])
def test_rows_on_few_lanes_take_one_miller_pass_per_lane(monkeypatch, family, fn, lo, hi):
    # _FEW_LANES arguments inside the Miller regime run the float kernel,
    # which serves orders 0, 1 and 2 from one pass
    x = np.linspace(lo, hi, _FEW_LANES + 2)[1:-1]
    passes = []

    def spy(v, *args):
        passes.append(v)
        return _miller(v, *args)

    monkeypatch.setattr(specfun, "_miller", spy)
    got = cylinder_rows(family, x, 3)
    assert passes == x.tolist()
    monkeypatch.undo()
    for m in range(3):
        np.testing.assert_array_equal(got[m], [fn(m, v) for v in x.tolist()])


@pytest.mark.parametrize("family, fn, hi", [
    (CylinderFamily.BESSEL_J, besselj, 60.0), (CylinderFamily.MODIFIED_I, besseli, 700.0)
])
@pytest.mark.parametrize("n", [2, 3])
def test_rows_of_orders_0_to_2_are_one_call_per_order(family, fn, hi, n):
    # every regime on a long array (the array kernels) and on few lanes
    # (the float kernels), up to I's largest argument
    rng = np.random.default_rng(43)
    edges = [0.0, SERIES_SWITCH_JY, SERIES_SWITCH_I, _HANKEL_SWITCH, hi]
    x = np.concatenate((rng.uniform(0.0, hi, 400), edges))
    for lanes in (x, x[-5:], x[:3]):
        with _strict():
            got = cylinder_rows(family, lanes, n)
        assert got.shape == (n, lanes.size)
        for m in range(n):
            np.testing.assert_array_equal(got[m], fn(m, lanes))
            np.testing.assert_array_equal(got[m], [fn(m, v) for v in lanes.tolist()])


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cylinder_rows_are_one_call_per_order(family, n):
    # every regime below K's scaled switch on a long array (the array
    # kernels), on at most _FEW_LANES lanes (the float kernels) and at
    # floats, with 0 and subnormal arguments for J and I, whose rows stay
    # finite there: the public functions' values bit for bit
    fn = _EVAL[family]
    rng = np.random.default_rng([47, n])
    regimes = [r for r in _REGIMES[family] if r[1] <= _K_SCALED_SWITCH]
    regular = family in (CylinderFamily.BESSEL_J, CylinderFamily.MODIFIED_I)
    edges = [0.0, 5e-324, 1e-310] if regular else []
    x = rng.permutation(np.concatenate([rng.uniform(lo, hi, 4 * _FEW_LANES) for lo, hi in regimes]))
    with _strict():
        for lanes in (np.concatenate((x, edges)), x[:_FEW_LANES], np.array(edges + x[:2].tolist())):
            got = cylinder_rows(family, lanes, n)
            assert len(got) == n
            for m in range(n):
                np.testing.assert_array_equal(got[m], fn(m, lanes))
        for v in edges + x[:_FEW_LANES].tolist():
            np.testing.assert_array_equal(cylinder_rows(family, v, n), [fn(m, v) for m in range(n)])


@pytest.mark.parametrize("family", [CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y])
def test_zero_finder_traffic_matches_floats_and_array_kernels(family):
    # a Newton step of find_zeros: one series lane, six Miller or Neumann
    # lanes and 90 Hankel lanes, in no particular order
    rng = np.random.default_rng(17)
    lanes = (rng.uniform(0.5, 2.0, 1), rng.uniform(2.0, 20.0, 6), rng.uniform(20.0, 320.0, 90))
    x = rng.permutation(np.concatenate(lanes))
    with _strict():
        got = cylinder_rows(family, x, 2)
        repeated = on_array_kernels(lambda f, v: cylinder_rows(f, v, 2), family, x)
        np.testing.assert_array_equal(got, repeated)
        for m in (0, 1):
            np.testing.assert_array_equal(got[m], [_EVAL[family](m, v) for v in x.tolist()])
            np.testing.assert_array_equal(_EVAL[family](m, x), got[m])


@pytest.mark.parametrize("family", [CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y])
@pytest.mark.parametrize("m", [0, 1])
def test_zero_finder_makes_no_array_miller_pass(monkeypatch, family, m):
    # no Newton step sends more than six arguments into [2, 20), so the
    # float kernels serve them all; one array Miller pass costs about 1 ms
    calls = []
    real = specfun._miller_array

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(specfun, "_miller_array", counted)
    find_zeros(family, m, 100)
    assert calls == []


# ---------------------------------------------------------------------------
# argument validation on the array path


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_non_finite_rejected(family, bad):
    with pytest.raises(ValueError, match="finite"):
        _EVAL[family](0, np.array([1.0, bad, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        on_array_kernels(_EVAL[family], 0, [1.0, bad, 2.0])


@pytest.mark.parametrize("family", list(CylinderFamily))
def test_array_negative_argument_rejected(family):
    with pytest.raises(ValueError, match="requires"):
        _EVAL[family](1, np.array([3.0, -0.5]))
    with pytest.raises(ValueError, match="requires"):
        on_array_kernels(_EVAL[family], 1, [3.0, -0.5])


@pytest.mark.parametrize("family", [CylinderFamily.NEUMANN_Y, CylinderFamily.MODIFIED_K])
def test_array_singular_families_reject_zero(family):
    with pytest.raises(ValueError, match="x > 0"):
        _EVAL[family](0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="x > 0"):
        on_array_kernels(_EVAL[family], 0, [0.0, 1.0])


def test_array_growing_family_overflow_guard():
    assert np.isfinite(besseli(0, np.array([1.0, 700.0]))).all()
    assert np.isfinite(on_array_kernels(besseli, 0, [1.0, 700.0])).all()
    with pytest.raises(OverflowError):
        besseli(0, np.array([1.0, 705.0]))
    with pytest.raises(OverflowError):
        on_array_kernels(besseli, 0, [1.0, 705.0])


# ---------------------------------------------------------------------------
# benign underflow on the array path


@pytest.mark.parametrize("fn", [besselj, bessely, besseli, besselk])
@pytest.mark.parametrize("m", [0, 1, 5, 40])
def test_array_path_returns_where_the_float_path_does_under_raise(fn, m):
    # the float path's Python arithmetic rounds an underflow to a subnormal
    # or zero silently; the array path must do the same, not raise.  Among
    # these: t = r * r of the Hankel expansions (J_0 and Y_0 at 1e160) and
    # the leading term (x/2)^5 / 5! of the series (J_5 at 1e-300)
    for x in (5e-324, 1e-300, 1e-160, 1e-20, 700.0, 704.0, 1e160, 1e300, 1.7e308):
        try:
            want = fn(m, x)
        except (ValueError, OverflowError):
            continue
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(fn(m, np.array([x])), [want])
            np.testing.assert_array_equal(on_array_kernels(fn, m, [x]), [want])


def test_array_recurrence_overflow_reported():
    with pytest.raises(OverflowError, match="Y_200"):
        bessely(200, np.array([1e-3, 1.0]))
    with pytest.raises(OverflowError, match="K_200"):
        besselk(200, np.array([1.0, 1e-3]))
    with pytest.raises(OverflowError, match="Y_200"):
        on_array_kernels(bessely, 200, [1e-3, 1.0])
    with pytest.raises(OverflowError, match="K_200"):
        on_array_kernels(besselk, 200, [1.0, 1e-3])
