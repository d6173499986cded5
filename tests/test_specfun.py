"""Tests for the integer-order cylinder functions.

Reference policy: frozen doubles from tests/oracles.py for spot checks,
live mpmath (50 digits) for dense grids, and internal identities
(Wronskians, recurrences, derivative consistency) as a route that does
not depend on any reference implementation at all.
"""

import math
import random
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import oracles
from lanes import on_array_kernels
from anticentrifugal import specfun
from anticentrifugal.specfun import (
    EULER_GAMMA,
    SERIES_SWITCH_I,
    SERIES_SWITCH_JY,
    SERIES_SWITCH_K,
    CylinderFamily,
    besseli,
    besselj,
    besselk,
    bessely,
    crossover_mismatch,
    cylinder_slope,
    sommerfeld_j0,
    sommerfeld_j0_components,
)
from anticentrifugal.specfun import (
    _HANKEL_SWITCH,
    _ascending_series,
    _hankel01,
    _i_large,
    _i_start,
    _j_large,
    _j_start,
    _k01_chebyshev,
    _log_series,
    _y01_large,
)

mp.mp.dps = 40


def mp_cyl(family: CylinderFamily, m: int, x: float) -> float:
    fn = {
        CylinderFamily.BESSEL_J: mp.besselj,
        CylinderFamily.NEUMANN_Y: mp.bessely,
        CylinderFamily.MODIFIED_I: mp.besseli,
        CylinderFamily.MODIFIED_K: mp.besselk,
    }[family]
    return float(fn(m, mp.mpf(x)))


_EVAL = {
    CylinderFamily.BESSEL_J: besselj,
    CylinderFamily.NEUMANN_Y: bessely,
    CylinderFamily.MODIFIED_I: besseli,
    CylinderFamily.MODIFIED_K: besselk,
}


def _derivative(family: CylinderFamily, m: int, x):
    """C_m'(x) by cylinder_slope from C_{m-1}(x) and C_{m+1}(x)."""
    fn = _EVAL[family]
    return cylinder_slope(family, m, fn(m - 1, x) if m else None, fn(m + 1, x))


# ---------------------------------------------------------------------------
# values fixed by the defining series


def test_values_at_origin():
    assert besselj(0, 0.0) == 1.0
    assert besselj(1, 0.0) == 0.0
    assert besselj(7, 0.0) == 0.0
    assert besseli(0, 0.0) == 1.0
    assert besseli(3, 0.0) == 0.0


@pytest.mark.parametrize(
    "family, m, x, expected",
    [
        (CylinderFamily.BESSEL_J, 0, 5.0, oracles.J0_AT_5),
        (CylinderFamily.BESSEL_J, 1, 1.0, oracles.J1_AT_1),
        (CylinderFamily.BESSEL_J, 2, 5.0, oracles.J2_AT_5),
        (CylinderFamily.BESSEL_J, 5, 10.0, oracles.J5_AT_10),
        (CylinderFamily.NEUMANN_Y, 0, 1.0, oracles.Y0_AT_1),
        (CylinderFamily.NEUMANN_Y, 1, 1.0, oracles.Y1_AT_1),
        (CylinderFamily.NEUMANN_Y, 2, 3.0, oracles.Y2_AT_3),
        (CylinderFamily.NEUMANN_Y, 5, 10.0, oracles.Y5_AT_10),
        (CylinderFamily.MODIFIED_I, 0, 1.0, oracles.I0_AT_1),
        (CylinderFamily.MODIFIED_I, 1, 1.0, oracles.I1_AT_1),
        (CylinderFamily.MODIFIED_I, 5, 10.0, oracles.I5_AT_10),
        (CylinderFamily.MODIFIED_I, 0, 600.0, oracles.I0_AT_600),
        (CylinderFamily.MODIFIED_K, 0, 1.0, oracles.K0_AT_1),
        (CylinderFamily.MODIFIED_K, 1, 1.0, oracles.K1_AT_1),
        (CylinderFamily.MODIFIED_K, 0, 2.0, oracles.K0_AT_2),
        (CylinderFamily.MODIFIED_K, 5, 10.0, oracles.K5_AT_10),
        (CylinderFamily.MODIFIED_K, 0, 600.0, oracles.K0_AT_600),
    ],
)
def test_frozen_spot_values(family, m, x, expected):
    got = _EVAL[family](m, x)
    assert got == pytest.approx(expected, rel=5e-13)


# ---------------------------------------------------------------------------
# dense comparison against mpmath

_JY_GRID = [0.05, 0.11, 0.23, 0.4, 0.65, 0.9, 1.2, 1.5, 1.8, 1.9, 1.95,
            2.0, 2.05, 2.1, 2.4, 3.0, 3.7, 4.5, 5.5, 7.0, 8.5, 10.0, 12.5,
            15.0, 18.0, 21.5, 25.0, 29.0, 33.0, 37.5, 42.0, 46.0, 49.5]
_I_GRID = [0.05, 0.2, 0.6, 1.3, 2.2, 3.5, 5.0, 6.5, 7.5, 7.9, 7.95, 8.0,
           8.05, 8.1, 9.0, 11.0, 14.0, 18.0, 23.0, 30.0]
_K_GRID = [0.05, 0.15, 0.4, 0.8, 1.4, 2.0, 2.6, 2.9, 2.95, 3.0, 3.05, 3.1,
           3.6, 4.5, 6.0, 8.0, 11.0, 15.0, 20.0, 27.0, 35.0, 40.0]


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_oscillatory_families_on_grid(m):
    """J and Y match mpmath to 5e-14 relative to the local envelope."""
    worst = 0.0
    for x in _JY_GRID:
        jref = mp_cyl(CylinderFamily.BESSEL_J, m, x)
        yref = mp_cyl(CylinderFamily.NEUMANN_Y, m, x)
        envelope = math.hypot(jref, yref)
        worst = max(worst, abs(besselj(m, x) - jref) / envelope)
        worst = max(worst, abs(bessely(m, x) - yref) / envelope)
    assert worst <= 5e-14


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_growing_modified_family_on_grid(m):
    worst = 0.0
    for x in _I_GRID:
        ref = mp_cyl(CylinderFamily.MODIFIED_I, m, x)
        worst = max(worst, abs(besseli(m, x) - ref) / abs(ref))
    assert worst <= 1e-14


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_decaying_modified_family_on_grid(m):
    worst = 0.0
    for x, ref in zip(_K_GRID, oracles.K_ON_GRID[m], strict=True):
        worst = max(worst, abs(besselk(m, x) - ref) / abs(ref))
    assert worst <= 2e-13


# ---------------------------------------------------------------------------
# derivatives

@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("m", [0, 1, 2])
def test_derivative_matches_mpmath(family, m):
    refs = oracles.DERIVATIVES[(family.value, m)]
    for x, ref in zip(oracles.DERIVATIVE_XS, refs, strict=True):
        got = _derivative(family, m, x)
        assert got == pytest.approx(ref, rel=5e-13, abs=1e-290)


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("m", [0, 1, 3])
def test_derivative_consistent_with_finite_difference(family, m):
    """The analytic derivative must agree with a central difference of
    the function values themselves, independent of any oracle."""
    x, h = 2.0, 1e-5
    fn = _EVAL[family]
    fd = (fn(m, x + h) - fn(m, x - h)) / (2.0 * h)
    got = _derivative(family, m, x)
    assert got == pytest.approx(fd, rel=1e-8)


def test_low_order_derivative_identities():
    x = 1.7
    assert _derivative(CylinderFamily.BESSEL_J, 0, x) == -besselj(1, x)
    assert _derivative(CylinderFamily.MODIFIED_I, 0, x) == besseli(1, x)
    assert _derivative(CylinderFamily.MODIFIED_K, 0, x) == -besselk(1, x)
    assert _derivative(CylinderFamily.NEUMANN_Y, 0, x) == -bessely(1, x)


# ---------------------------------------------------------------------------
# cross-family identities (no external reference involved)

@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_wronskian_oscillatory(m):
    """J_m Y_m' - J_m' Y_m = 2 / (pi x) on a wide grid."""
    fam_j, fam_y = CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y
    n = 101
    worst = 0.0
    for i in range(n):
        x = 0.1 + (30.0 - 0.1) * i / (n - 1)
        w = besselj(m, x) * _derivative(fam_y, m, x) - _derivative(fam_j, m, x) * bessely(m, x)
        worst = max(worst, abs(w - 2.0 / (math.pi * x)) * x)
    assert worst <= 1e-12


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_wronskian_modified(m):
    """I_m K_m' - I_m' K_m = -1 / x on a wide grid."""
    fam_i, fam_k = CylinderFamily.MODIFIED_I, CylinderFamily.MODIFIED_K
    n = 101
    worst = 0.0
    for i in range(n):
        x = 0.1 + (30.0 - 0.1) * i / (n - 1)
        w = besseli(m, x) * _derivative(fam_k, m, x) - _derivative(fam_i, m, x) * besselk(m, x)
        worst = max(worst, abs(w + 1.0 / x) * x)
    assert worst <= 1e-12


@given(m=st.integers(min_value=1, max_value=8),
       x=st.floats(min_value=0.2, max_value=40.0))
def test_three_term_recurrence_oscillatory(m, x):
    lhs = besselj(m - 1, x) + besselj(m + 1, x)
    rhs = (2.0 * m / x) * besselj(m, x)
    scale = max(abs(besselj(m - 1, x)), abs(besselj(m + 1, x)), abs(rhs), 1e-280)
    assert abs(lhs - rhs) <= 1e-11 * scale


@given(m=st.integers(min_value=1, max_value=8),
       x=st.floats(min_value=0.2, max_value=40.0))
def test_three_term_recurrence_neumann(m, x):
    lhs = bessely(m - 1, x) + bessely(m + 1, x)
    rhs = (2.0 * m / x) * bessely(m, x)
    scale = max(abs(bessely(m - 1, x)), abs(bessely(m + 1, x)), abs(rhs), 1e-280)
    assert abs(lhs - rhs) <= 1e-11 * scale


@given(m=st.integers(min_value=1, max_value=8),
       x=st.floats(min_value=0.2, max_value=40.0))
def test_three_term_recurrence_growing(m, x):
    lhs = besseli(m - 1, x) - besseli(m + 1, x)
    rhs = (2.0 * m / x) * besseli(m, x)
    scale = max(besseli(m - 1, x), abs(rhs), 1e-280)
    assert abs(lhs - rhs) <= 1e-11 * scale


@given(m=st.integers(min_value=1, max_value=8),
       x=st.floats(min_value=0.2, max_value=30.0))
def test_three_term_recurrence_decaying(m, x):
    lhs = besselk(m + 1, x) - besselk(m - 1, x)
    rhs = (2.0 * m / x) * besselk(m, x)
    scale = max(besselk(m + 1, x), abs(rhs))
    assert abs(lhs - rhs) <= 1e-11 * scale


# ---------------------------------------------------------------------------
# behaviour of K0 at the two ends of its domain

def test_k0_log_divergence_near_origin():
    """K0(x) ~ -ln(x) for tiny x; at 1e-8 the match is at the 1e-2 level."""
    x = 1e-8
    got = besselk(0, x)
    assert abs(got / (-math.log(x)) - 1.0) <= 1e-2


def test_k0_small_argument_sum_frozen():
    got = besselk(0, 1e-6) + math.log(1e-6)
    assert got == pytest.approx(oracles.K0_1EM6_PLUS_LOG, rel=1e-12)
    # the limit differs from the sum only by the x^2 series term
    assert abs(got - oracles.LN2_MINUS_GAMMA) <= 5e-12
    assert abs(got - (math.log(2.0) - EULER_GAMMA)) <= 5e-12


def test_k0_exponential_decay_products():
    pairs = [(50.0, oracles.K0_DECAY_AT_50),
             (100.0, oracles.K0_DECAY_AT_100),
             (200.0, oracles.K0_DECAY_AT_200)]
    gaps = []
    for x, frozen in pairs:
        product = besselk(0, x) * math.exp(x) * math.sqrt(x)
        assert product == pytest.approx(frozen, rel=1e-12)
        # with the first two correction terms removed, agreement with
        # sqrt(pi/2) tightens from ~1e-3 to better than 1e-5
        corrected = product / (1.0 - 1.0 / (8.0 * x) + 9.0 / (128.0 * x * x))
        assert abs(corrected / oracles.SQRT_HALF_PI - 1.0) <= 1e-5
        gap = abs(product / oracles.SQRT_HALF_PI - 1.0)
        assert gap <= 5e-3
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] == pytest.approx(oracles.K0_DECAY_REL_GAP_AT_50, rel=1e-9)


# ---------------------------------------------------------------------------
# the two evaluation routes agree where the implementation switches

def test_series_and_large_argument_routes_overlap():
    """Both routes agree on a band around each switch point, evaluated
    at identical arguments so the comparison sees only route error."""
    for x in (SERIES_SWITCH_JY - 0.1, SERIES_SWITCH_JY, SERIES_SWITCH_JY + 0.1):
        for lo, hi in zip(_log_series((0, 1), x, -1.0), _y01_large(x)):
            assert lo == pytest.approx(hi, rel=1e-9)
        for m in (0, 1, 2):
            assert _ascending_series(m, x, -1.0) == pytest.approx(
                _j_large((m,), x)[0], rel=1e-9, abs=1e-15)

    for x in (SERIES_SWITCH_K - 0.2, SERIES_SWITCH_K, SERIES_SWITCH_K + 0.2):
        for lo, hi in zip(_log_series((0, 1), x, 1.0), _k01_chebyshev((0, 1), x)):
            assert lo == pytest.approx(hi, rel=1e-9)

    for x in (SERIES_SWITCH_I - 0.5, SERIES_SWITCH_I, SERIES_SWITCH_I + 0.5):
        for m in (0, 1, 2):
            assert _ascending_series(m, x, 1.0) == pytest.approx(_i_large((m,), x)[0], rel=1e-9)


def test_routes_agree_tightly_at_switch_points():
    """Both routes evaluated at the same point, not merely nearby ones."""
    y_lo = _log_series((0, 1), SERIES_SWITCH_JY, -1.0)
    y_hi = _y01_large(SERIES_SWITCH_JY)
    for a, b in zip(y_lo, y_hi):
        assert a == pytest.approx(b, rel=1e-10)
    k_lo = _log_series((0, 1), SERIES_SWITCH_K, 1.0)
    k_hi = _k01_chebyshev((0, 1), SERIES_SWITCH_K)
    for a, b in zip(k_lo, k_hi):
        assert a == pytest.approx(b, rel=1e-10)
    for m in (0, 1, 2, 5):
        assert _ascending_series(m, SERIES_SWITCH_JY, -1.0) == pytest.approx(
            _j_large((m,), SERIES_SWITCH_JY)[0], rel=1e-10, abs=1e-14)
        assert _ascending_series(m, SERIES_SWITCH_I, 1.0) == pytest.approx(
            _i_large((m,), SERIES_SWITCH_I)[0], rel=1e-10)


# ---------------------------------------------------------------------------
# oscillatory integral representation

def test_sommerfeld_at_zero_argument():
    assert sommerfeld_j0(0.0) == pytest.approx(1.0, abs=1e-14)


def test_sommerfeld_at_first_zero():
    assert abs(sommerfeld_j0(oracles.J0_ZEROS_1_TO_3[0])) <= 1e-10


def test_sommerfeld_frozen_value():
    assert sommerfeld_j0(5.0) == pytest.approx(oracles.J0_AT_5, abs=1e-12)


@given(kr=st.floats(min_value=0.0, max_value=20.0))
def test_sommerfeld_matches_series(kr):
    assert abs(sommerfeld_j0(kr) - besselj(0, kr)) <= 1e-10


def test_sommerfeld_imaginary_part_cancels():
    for kr in (0.0, 0.5, 3.3, 11.0, 19.5):
        re, im = sommerfeld_j0_components(kr)
        assert abs(im) <= 1e-12
        assert re == pytest.approx(besselj(0, kr), abs=1e-10)


def test_sommerfeld_sine_table_is_the_per_node_sine():
    n = specfun._SOMMERFELD_POINTS
    step = 2.0 * math.pi / n
    assert len(specfun._SOMMERFELD_SIN) == n
    for j in range(n):
        assert specfun._SOMMERFELD_SIN[j] == math.sin(j * step)


def test_sommerfeld_components_match_the_per_node_sine_loop():
    # one np.cos and one np.sin pass over the nodes, summed by np.cumsum,
    # change no operation: the sums are bit for bit, signed zeros included,
    # those of the loop that took each node's sine, cosine and sine in turn
    n = specfun._SOMMERFELD_POINTS
    step = 2.0 * math.pi / n
    top = specfun._SOMMERFELD_KR_MAX
    rng = random.Random(2718)
    edges = (0.0, -0.0, 5e-324, -5e-324, 0.07114788067655642, 1.0, 5.0, 19.9, -3.3, 150.0)
    seeded = [rng.uniform(-top, top) for _ in range(200)]
    for kr in edges + (top, -top, 165.0, -165.0) + tuple(seeded):
        re = im = 0.0
        for j in range(n):
            a = kr * math.sin(j * step)
            re += math.cos(a)
            im += math.sin(a)
        got = sommerfeld_j0_components(kr)
        assert [v.hex() for v in got] == [(re / n).hex(), (im / n).hex()], kr


def test_array_sommerfeld_equals_its_float_calls():
    # one 2-d pass over all arguments gives each float call's bits, signed
    # zeros included, and keeps the shape; the verify sample among them
    top = specfun._SOMMERFELD_KR_MAX
    rng = random.Random(2719)
    kr = [0.0, -0.0, 5e-324, -5e-324, 1.0, -3.3, 20.0, top, -top]
    kr += [rng.uniform(-top, top) for _ in range(150)] + [rng.uniform(0.0, 20.0) for _ in range(40)]
    for shape in ((len(kr),), (1,), (7, 3)):
        xs = np.array(kr[: math.prod(shape)]).reshape(shape)
        re, im = sommerfeld_j0_components(xs)
        assert re.shape == im.shape == shape
        floats = [sommerfeld_j0_components(v) for v in xs.ravel().tolist()]
        assert [v.hex() for v in re.ravel().tolist()] == [r.hex() for r, _ in floats]
        assert [v.hex() for v in im.ravel().tolist()] == [i.hex() for _, i in floats]
        j0 = sommerfeld_j0(xs)
        assert j0.ravel().tolist() == [sommerfeld_j0(v) for v in xs.ravel().tolist()]


@pytest.mark.parametrize("bad", [math.nan, -math.inf, 200.0, -165.1, 1e300])
def test_array_sommerfeld_raises_the_float_calls_error(bad):
    with pytest.raises(ValueError) as alone:
        sommerfeld_j0_components(bad)
    for kr in ([bad], [1.0, bad, 2.0], [0.0, 3.0, bad, -bad]):
        with pytest.raises(ValueError) as joint:
            sommerfeld_j0(np.array(kr))
        assert str(joint.value) == str(alone.value)


def test_array_sommerfeld_checks_one_kind_at_a_time():
    # the non-finite check runs over all arguments before the range check,
    # so a non-finite argument is named ahead of an unresolved one before it
    for kr in ([200.0, math.nan], [1.0, -300.0, math.inf, math.nan]):
        bad = next(v for v in kr if not math.isfinite(v))
        with pytest.raises(ValueError) as joint:
            sommerfeld_j0_components(np.array(kr))
        with pytest.raises(ValueError) as alone:
            sommerfeld_j0_components(bad)
        assert str(joint.value) == str(alone.value)


def test_array_sommerfeld_raises_where_the_imaginary_part_fails(monkeypatch):
    real = specfun.sommerfeld_j0_components
    monkeypatch.setattr(
        specfun, "sommerfeld_j0_components", lambda kr: (real(kr)[0], real(kr)[0] * 0.0 + 1e-9)
    )
    with pytest.raises(ArithmeticError, match="1e-09"):
        sommerfeld_j0(np.array([1.0, 2.0]))
    with pytest.raises(ArithmeticError, match="1e-09"):
        sommerfeld_j0(1.0)


def test_sommerfeld_rejects_bad_input():
    with pytest.raises(ValueError):
        sommerfeld_j0(math.nan)
    with pytest.raises(TypeError):  # the point count is fixed
        sommerfeld_j0(1.0, quadrature_points=8)


def test_sommerfeld_refuses_unresolved_arguments():
    # 256 points used to give -0.1458 for J_0(300) = -0.0333, and an error
    # of 6.6e-11 at kr = 200, without raising
    for kr in (200.0, 300.0, -300.0):
        with pytest.raises(ValueError):
            sommerfeld_j0(kr)
    for kr in (100.0, 165.0):
        assert sommerfeld_j0(kr) == pytest.approx(besselj(0, kr), abs=5e-15)


def test_sommerfeld_is_even():
    assert sommerfeld_j0(-3.0) == pytest.approx(sommerfeld_j0(3.0), abs=1e-15)


# ---------------------------------------------------------------------------
# domain errors and overflow

@pytest.mark.parametrize("family", list(CylinderFamily))
def test_negative_argument_rejected(family):
    with pytest.raises(ValueError):
        _EVAL[family](0, -1.0)


@pytest.mark.parametrize("family", [CylinderFamily.NEUMANN_Y, CylinderFamily.MODIFIED_K])
def test_singular_families_reject_zero(family):
    with pytest.raises(ValueError):
        _EVAL[family](0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_argument_rejected(bad):
    with pytest.raises(ValueError):
        besselj(0, bad)


_NOT_REAL = {
    "float": [True, np.True_, "1", b"1", np.bytes_(b"2"), bytearray(b"1"), None, 1 + 0j,
              np.complex128(2.0), 10**400],
    "array": [np.array(["1.5"]), np.array([b"1"]), np.array([True]), np.array([2 + 0j]),
              np.array(["0.5", "1.5"])],
}


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize(
    "bad", [pytest.param(bad, id=f"{path}-{i}") for path, bads in _NOT_REAL.items()
            for i, bad in enumerate(bads)]
)
def test_an_argument_that_is_not_real_is_refused(family, bad):
    # each was once read as a number, or raised a bare TypeError or
    # OverflowError: besselj(0, True) and besselj(0, "1") gave J_0(1)
    with pytest.raises(ValueError) as excinfo:
        _EVAL[family](0, bad)
    assert str(excinfo.value) == f"argument must be finite, got {bad!r}"


def test_growing_family_overflow_guard():
    with pytest.raises(OverflowError):
        besseli(0, 705.0)


def test_family_enum_round_trip():
    assert CylinderFamily("J") is CylinderFamily.BESSEL_J
    assert CylinderFamily("K") is CylinderFamily.MODIFIED_K
    assert CylinderFamily.NEUMANN_Y.value == "Y"


def test_recurrence_overflow_is_not_returned_as_nan():
    # Y_200(1e-3) overflows; the next recurrence step gives inf - inf, which
    # was once returned as nan instead of raising.
    with pytest.raises(OverflowError, match="Y_200"):
        bessely(200, 1e-3)
    with pytest.raises(OverflowError, match="K_200"):
        besselk(200, 1e-3)


# ---------------------------------------------------------------------------
# order validation, shared by every family and both paths

@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("order", [-1, -4, True, False, 1.5, 2.0, "1", None])
@pytest.mark.parametrize("x", [3.0, np.array([0.5, 3.0, 9.0])], ids=["scalar", "array"])
def test_invalid_order_rejected(family, order, x):
    with pytest.raises(ValueError, match="order"):
        _EVAL[family](order, x)


def test_negative_neumann_order_rejected():
    # Y_{-1} = -Y_1, but the recurrence once returned +Y_1 = 0.3247 here
    with pytest.raises(ValueError, match=r"^order must be an integer of at least 0, got -1$"):
        bessely(-1, 3.0)


def test_negative_bessel_order_rejected():
    # once read from the top of the Miller table through a negative index
    with pytest.raises(ValueError, match=r"^order must be an integer of at least 0, got -1$"):
        besselj(-1, 3.0)


def test_fractional_order_rejected():
    # once an opaque TypeError from indexing the table with a float
    with pytest.raises(ValueError, match="integer"):
        besselj(1.5, 3.0)


def test_numpy_integer_orders_accepted():
    assert besselj(np.int64(3), 4.0) == besselj(3, 4.0)
    assert besselk(np.int32(2), 4.0) == besselk(2, 4.0)


# ---------------------------------------------------------------------------
# Miller tables serve no order near their start order

#: Orders 0 and 1 as computed before the start order depended on the
#: order served; they must not move by a single bit.  The J and Y values
#: at and above the Hankel switch come from the Hankel expansions, which
#: hold them within 3 ulp of mpmath (the Miller route was 3-22 ulp off).
#: The Y values in [2, 20) were re-pinned when Neumann's sums moved into
#: the Miller pass (Y_1(5.5) moved from 63 to 10 ulp of its own value off
#: mpmath: it sits 0.07 from a zero of Y_1).
_LOW_ORDER_PINS = [
    (besselj, 0, 2.0, 0.2238907791412357),
    (besselj, 0, 5.5, -0.0068438694178191714),
    (besselj, 0, 37.25, 0.04272280640862734),
    (besselj, 0, 320.0, 0.014982017211823502),
    (besselj, 1, 2.0, 0.5767248077568734),
    (besselj, 1, 5.5, -0.34143821542904335),
    (besselj, 1, 37.25, -0.12298405791995136),
    (besselj, 1, 320.0, -0.041988229868644776),
    (bessely, 0, 2.0, 0.5103756726497453),
    (bessely, 0, 37.25, -0.12354629801686481),
    (bessely, 0, 320.0, -0.04201158793049401),
    (bessely, 1, 5.5, -0.023758238956389583),
    (bessely, 1, 320.0, -0.015047678446024677),
    (besseli, 0, 37.25, 986947100407430.2),
    (besseli, 0, 320.0, 2.1025154601542675e137),
    (besseli, 1, 37.25, 973608085191015.4),
    (besseli, 1, 320.0, 2.0992277051407053e137),
]


@pytest.mark.parametrize("fn, m, x, pinned", _LOW_ORDER_PINS)
def test_low_orders_bit_identical(fn, m, x, pinned):
    assert fn(m, x) == pinned
    assert fn(m, np.array([x]))[0] == pinned
    assert on_array_kernels(fn, m, [x])[0] == pinned


@pytest.mark.parametrize(
    "fn, m, x, pinned",
    [p for p in _LOW_ORDER_PINS if p[0] in (besselj, bessely) and p[2] >= _HANKEL_SWITCH],
)
def test_hankel_pins_within_three_ulp_of_mpmath(fn, m, x, pinned):
    ref = mp.besselj(m, mp.mpf(x)) if fn is besselj else mp.bessely(m, mp.mpf(x))
    assert abs(pinned - ref) <= 3 * math.ulp(float(ref))


@pytest.mark.parametrize(
    "m, x, pinned",
    [p[1:] for p in _LOW_ORDER_PINS if p[0] is bessely and p[2] < _HANKEL_SWITCH],
)
def test_neumann_pins_within_three_ulp_of_mpmath(m, x, pinned):
    # Neumann's sums carry terms as large as the envelope sqrt(2/(pi x)),
    # so the bound is 3 ulp of the envelope: near a zero of Y_m no sum of
    # such terms holds 3 ulp of the value (the table route was 3.9 off)
    ref = mp.bessely(m, mp.mpf(x))
    assert abs(pinned - ref) <= 3 * math.ulp(_envelope(x))


@pytest.mark.parametrize(
    "fn, mp_fn, m, x",
    [
        (besselj, mp.besselj, 104, 50.0),  # was 6.5% off: the start order itself
        (besselj, mp.besselj, 98, 50.0),  # was 7.8e-9 off
        (besseli, mp.besseli, 145, 100.0),  # was 9.6% off
    ],
)
def test_orders_at_the_default_start_order(fn, mp_fn, m, x):
    ref = float(mp_fn(m, mp.mpf(x)))
    assert fn(m, x) == pytest.approx(ref, rel=1e-13)
    assert fn(m, np.array([x, x + 1.0]))[0] == fn(m, x)
    assert on_array_kernels(fn, m, [x, x + 1.0])[0] == fn(m, x)


@given(x=st.floats(min_value=SERIES_SWITCH_JY, max_value=120.0), data=st.data())
def test_bessel_orders_past_the_start_order(x, data):
    m = data.draw(st.integers(min_value=0, max_value=_j_start(x, 0) + 60))
    ref = float(mp.besselj(m, mp.mpf(x)))
    # at a zero of J_m, |J_{m+1}| = |J_m'| carries the local envelope
    scale = max(abs(ref), abs(float(mp.besselj(m + 1, mp.mpf(x)))))
    assume(scale > 1e-290)
    got = besselj(m, x)
    assert abs(got - ref) <= 1e-13 * scale
    assert besselj(m, np.array([x, 0.5 * x + 1.0]))[0] == got
    assert on_array_kernels(besselj, m, [x, 0.5 * x + 1.0])[0] == got


@given(x=st.floats(min_value=SERIES_SWITCH_I, max_value=400.0), data=st.data())
def test_modified_orders_past_the_start_order(x, data):
    m = data.draw(st.integers(min_value=0, max_value=_i_start(x, 0) + 60))
    ref = float(mp.besseli(m, mp.mpf(x)))
    assume(ref > 1e-290)
    got = besseli(m, x)
    assert got == pytest.approx(ref, rel=1e-13)
    assert besseli(m, np.array([x, 0.5 * x + 1.0]))[0] == got
    assert on_array_kernels(besseli, m, [x, 0.5 * x + 1.0])[0] == got


# ---------------------------------------------------------------------------
# the Miller pass: one downward recurrence that stores no table

@pytest.mark.parametrize(
    "fn, m, x, pinned",
    [
        # the pass crosses 1e250 and rescales once (J_4000) or three times
        # (J_8000) before it reaches order m
        (besselj, 4000, 4000.0, 0.028178589480087987),
        (besselj, 8000, 7900.0, 2.7797112823864164e-07),
        # the pass rescales below order m, after capturing C_m
        (besselj, 400, 5.0, 0.0),
        (besseli, 1500, 700.0, 0.0),
    ],
)
def test_miller_rescale_values_frozen(fn, m, x, pinned):
    # frozen from the implementation that stored the whole table and
    # rescaled it in place
    assert fn(m, x) == pinned
    assert fn(m, np.array([x, 0.5 * x]))[0] == pinned
    assert on_array_kernels(fn, m, [x, 0.5 * x])[0] == pinned


def test_neumann_y01_against_mpmath_on_a_seeded_sample():
    # the table route read 1.34e-15 / 1.30e-15 worst and 3.2e-16 / 2.9e-16
    # mean of the envelope on this sample
    rng = random.Random(0)
    x = np.array([rng.uniform(SERIES_SWITCH_JY, _HANKEL_SWITCH) for _ in range(200)])
    for m in (0, 1):
        got = bessely(m, x)
        assert got.tolist() == [bessely(m, v) for v in x.tolist()]
        ref = np.array(oracles.NEUMANN_SAMPLE_Y01[m])
        err = np.abs(got - ref) / np.sqrt(2.0 / (np.pi * x))
        assert err.max() <= 1e-15
        assert err.mean() <= 2.5e-16


@pytest.mark.parametrize("m, x", [(300, 290.0), (3000, 2900.0)])
def test_miller_pass_memory_does_not_grow_with_the_order(m, x):
    # the stored table peaked at 142 KB (float) and 78 KB (array) for m = 3000
    ref = float(mp.besselj(m, mp.mpf(x)))
    xs = np.array([x, x + 0.5])
    # first-call allocations out of the count
    besselj(m, x), besselj(m, xs), on_array_kernels(besselj, m, xs)
    tracemalloc.start()
    try:
        got = besselj(m, x)
        assert tracemalloc.get_traced_memory()[1] < 1 << 14
        tracemalloc.reset_peak()
        got_array = besselj(m, xs)
        assert tracemalloc.get_traced_memory()[1] < 1 << 14
        tracemalloc.reset_peak()
        got_kernel = on_array_kernels(besselj, m, xs)
        assert tracemalloc.get_traced_memory()[1] < 1 << 14
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(ref, rel=1e-13)
    assert got_array[0] == got
    assert got_kernel[0] == got


# ---------------------------------------------------------------------------
# Hankel expansions above the switch, against Miller and mpmath

def _envelope(x: float) -> float:
    return math.sqrt(2.0 / (math.pi * x))


def _miller01(x: float) -> tuple:
    return _j_large((0,), x) + _j_large((1,), x) + _y01_large(x)


def _mp01(x: float) -> list:
    v = mp.mpf(x)
    return [float(f(m, v)) for f in (mp.besselj, mp.bessely) for m in (0, 1)]


@pytest.mark.parametrize("x", [_HANKEL_SWITCH - 1e-6, _HANKEL_SWITCH, _HANKEL_SWITCH + 1e-6])
def test_hankel_meets_miller_at_the_switch(x):
    hankel = _hankel01(x)
    # rows J_0, J_1, Y_0, Y_1 against J_0, J_1 and the Neumann Y_0, Y_1
    for h, miller, ref in zip(hankel, _miller01(x), _mp01(x)):
        assert h == pytest.approx(miller, rel=5e-15)
        assert abs(h - ref) <= 1e-15 * _envelope(x)


@pytest.mark.parametrize("x", np.geomspace(_HANKEL_SWITCH, 3e4, 9).tolist())
def test_hankel_against_miller_and_mpmath_up_to_3e4(x):
    # the Miller route's own error grows with x, to about 3e-14 of the
    # envelope at 3e4; the Hankel route stays at rounding
    hankel = _hankel01(x)
    for h, miller, r in zip(hankel, _miller01(x), _mp01(x)):
        assert abs(h - miller) <= 1e-13 * _envelope(x)
        assert abs(h - r) <= 1e-15 * _envelope(x)


def test_large_arguments_without_a_table():
    # these once built a Miller table of about x entries: 0.5 s and 34 MB
    # for x = 1e6, and no end in sight for 1e12
    tracemalloc.start()
    try:
        for x in (1e6, 1e12):
            for fn, mp_fn in ((besselj, mp.besselj), (bessely, mp.bessely)):
                ref = mp_fn(0, mp.mpf(x))
                assert abs(fn(0, x) - ref) <= 1e-15 * _envelope(x)
                assert fn(0, np.array([x, 30.0]))[0] == fn(0, x)
                assert on_array_kernels(fn, 0, [x, 30.0])[0] == fn(0, x)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("x", [20.5, 37.25, 99.9, 320.0, 1500.5])
def test_bessel_orders_near_the_argument(x):
    # upward recurrence from the Hankel J_0, J_1 serves m < x, Miller the rest
    top = math.floor(x)
    for m in sorted({top - 20, top - 5, top - 2, top - 1, top, top + 1, top + 2}):
        ref = float(mp.besselj(m, mp.mpf(x)))
        scale = max(abs(ref), abs(float(mp.besselj(m + 1, mp.mpf(x)))))
        assert abs(besselj(m, x) - ref) <= 1e-14 * scale


def test_crossover_check_covers_the_hankel_switch(monkeypatch):
    assert crossover_mismatch() <= 1e-13
    real = specfun._hankel01

    def off(x):
        return tuple(v * (1.0 + 1e-9) for v in real(x))

    monkeypatch.setattr(specfun, "_hankel01", off)
    assert crossover_mismatch() >= 0.9e-9


def test_crossover_check_covers_the_k_hankel_switch(monkeypatch):
    # K_0 and K_1 leave the Chebyshev series for the Hankel pair at the same
    # switch
    for x in (_HANKEL_SWITCH - 1e-6, _HANKEL_SWITCH + 1e-6):
        for chebyshev, hankel in zip(_k01_chebyshev((0, 1), x), specfun._k01_hankel((0, 1), x)):
            assert hankel == pytest.approx(chebyshev, rel=1e-15)
    real = specfun._k01_scaled
    monkeypatch.setattr(
        specfun, "_k01_scaled", lambda v, orders=2: tuple(u * (1.0 + 1e-9) for u in real(v, orders))
    )
    assert crossover_mismatch() >= 0.9e-9


# ---------------------------------------------------------------------------
# the ends of the double range


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("x", [1e300, 1e20, 746.0])
def test_k_underflows_to_zero(m, x):
    # once "trapezoid failed to terminate" (scalar) and a math range error
    # (array) for x = 1e300
    assert besselk(m, x) == 0.0
    np.testing.assert_array_equal(besselk(m, np.array([x, x])), [0.0, 0.0])
    np.testing.assert_array_equal(on_array_kernels(besselk, m, [x, x]), [0.0, 0.0])


@pytest.mark.parametrize("m, x", sorted(oracles.K_PAST_UNDERFLOW))
def test_k_where_k0_is_subnormal_matches_mpmath(m, x):
    # from x = 705 on, K_0 is subnormal or zero: the recurrence once started
    # from its few significant bits (K_100(740) read 4.3e-321 for 1.63e-320)
    # or from zero (K_1000(800) read 0.0 for 2.19e-103)
    ref = oracles.K_PAST_UNDERFLOW[(m, x)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = besselk(m, x)
        # one subnormal step of slack: the reference is rounded to it
        assert abs(got - ref) <= 1e-13 * ref + 2.0**-1074
        # the array path, beside an argument from the other regime
        assert besselk(m, np.array([1409.0 - x, x]))[1] == got
        assert on_array_kernels(besselk, m, [1409.0 - x, x])[1] == got


@pytest.mark.parametrize("m, x", [(2000, 800.0), (2000, 720.0), (1600, 705.0)])
def test_k_past_the_double_range_raises_on_both_paths(m, x):
    # K_2000(800) = 5.0e493 once returned 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=rf"K_{m}\({x}\) exceeds"):
            besselk(m, x)
        with pytest.raises(OverflowError, match=rf"K_{m}\({x}\) exceeds"):
            besselk(m, np.array([2.0 * x, x]))
        with pytest.raises(OverflowError, match=rf"K_{m}\({x}\) exceeds"):
            on_array_kernels(besselk, m, [2.0 * x, x])


def test_k_below_the_scaled_switch_is_unchanged():
    # pinned from the unscaled Hankel pair and recurrence, which still serve
    # every argument from 20 up to below 705
    assert besselk(0, 700.0) == 4.6697764316853765e-306
    assert besselk(1000, 704.0) == 6.166664957988659e-34
    assert besselk(1500, np.array([704.0]))[0] == 2.615829393068645e+256
    assert on_array_kernels(besselk, 1500, [704.0])[0] == 2.615829393068645e+256
    # and the two regimes meet at the switch: one ulp of x moves K_1000 by
    # about 2e-13 there, and both sides start from the same Hankel pair
    below = besselk(1000, np.array([np.nextafter(705.0, 0.0)]))[0]
    assert abs(besselk(1000, 705.0) / below - 1.0) <= 5e-13
    assert on_array_kernels(besselk, 1000, [np.nextafter(705.0, 0.0)])[0] == below


_K01_HANKEL_X = sorted(oracles.K01_HANKEL_REGIME)


def test_k_hankel_regime_matches_mpmath_on_both_paths():
    # the trapezoid was 7.1e-14 off here, from rounding in exp(-x cosh t)
    x = np.array(_K01_HANKEL_X)
    for m in (0, 1):
        ref = np.array([oracles.K01_HANKEL_REGIME[v][m] for v in _K01_HANKEL_X])
        floats = np.array([besselk(m, v) for v in _K01_HANKEL_X])
        assert np.max(np.abs(floats - ref) / ref) <= 1e-15
        np.testing.assert_array_equal(besselk(m, x), floats)


_K01_CHEBYSHEV_X = sorted(oracles.K01_CHEBYSHEV_REGIME)


def test_k_chebyshev_regime_matches_mpmath_on_both_paths():
    # the trapezoid that served [3, 20) before read 1.2e-15 here
    x = np.array(_K01_CHEBYSHEV_X)
    assert x.size > specfun._FEW_LANES  # the array kernel, not the float one per lane
    for m in (0, 1):
        ref = np.array([oracles.K01_CHEBYSHEV_REGIME[v][m] for v in _K01_CHEBYSHEV_X])
        floats = np.array([besselk(m, v) for v in _K01_CHEBYSHEV_X])
        assert np.max(np.abs(floats - ref) / ref) <= 6e-16
        np.testing.assert_array_equal(besselk(m, x), floats)


@pytest.mark.parametrize("m, x", [(1, 1e-310), (1, 5e-324), (2, 1e-300)])
@pytest.mark.parametrize("fn", [bessely, besselk])
def test_subnormal_arguments_overflow_alike_on_both_paths(fn, m, x):
    # Y_1 and K_1 once returned -inf and inf at subnormal x, and the array
    # path emitted a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=f"_{m}"):
            fn(m, x)
        with pytest.raises(OverflowError, match=f"_{m}"):
            fn(m, np.array([1.0, x]))
        with pytest.raises(OverflowError, match=f"_{m}"):
            on_array_kernels(fn, m, [1.0, x])


@pytest.mark.parametrize("x", [1e-310, 3 * 5e-324, 5e-324])
@pytest.mark.parametrize("family", [CylinderFamily.NEUMANN_Y, CylinderFamily.MODIFIED_K])
def test_order_zero_at_subnormal_arguments(family, x):
    # C_0 grows only like ln x, so it stays finite; its derivative is -C_1,
    # which overflows.  ln(x/2) once rounded x/2 (to 0 at the smallest x)
    ref = {CylinderFamily.NEUMANN_Y: mp.bessely, CylinderFamily.MODIFIED_K: mp.besselk}[family]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _EVAL[family](0, x)
        assert got == pytest.approx(float(ref(0, mp.mpf(x))), rel=1e-15)
        assert _EVAL[family](0, np.array([x]))[0] == got
        assert on_array_kernels(_EVAL[family], 0, [x])[0] == got
        with pytest.raises(OverflowError):
            _derivative(family, 0, x)
        with pytest.raises(OverflowError):
            _derivative(family, 0, np.array([x]))
        with pytest.raises(OverflowError):
            on_array_kernels(lambda m, v: _derivative(family, m, v), 0, [x])
