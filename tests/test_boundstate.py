"""Tests for delta-well bound states and their probability densities.

The striking geometry claim is the planar one: the radial weight
W(r) = 2 k^2 r K_0(k r)^2 vanishes at the origin and peaks on a ring,
while the line and spatial weights peak at the origin. The planar
coupling relation is checked along two routes, the closed form and a
Kronrod quadrature of the momentum integral it came from.
"""

import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import oracles
from anticentrifugal import boundstate, specfun
from anticentrifugal._record import check_real
from anticentrifugal.boundstate import (
    DeltaBoundState,
    DeltaCoupling2D,
    ProbabilityDensity,
    coupling_from_k,
    coupling_residual,
    cutoff_integral,
    density,
    density_maximum,
    density_profile,
    k_from_coupling,
    normalize_check,
    one_three_d_bound_energy,
    planar_rows,
    ring_peak_parameter,
)
from anticentrifugal.nodes import BracketingError
from anticentrifugal.potentials import RadialGrid, default_grid
from anticentrifugal.quadrature import gauss_kronrod_15
from anticentrifugal.specfun import _FEW_LANES, EULER_GAMMA, besselk, k0_product


# ---------------------------------------------------------------------------
# density profiles

def test_line_density_peaks_at_origin():
    assert density_profile(1, 1.0, 0.0) == 1.0
    assert density_profile(1, 2.0, 0.0) == 2.0
    # symmetric in x
    assert density_profile(1, 1.5, -0.7) == density_profile(1, 1.5, 0.7)


def test_spatial_density_peaks_at_origin():
    assert density_profile(3, 1.0, 0.0) == 2.0
    assert density_profile(3, 2.0, 0.0) == 4.0


def _exp_weight(dimension, k, r):
    # k e^(-2 k |x|) and 2 k e^(-2 k r), at 40 digits, rounded once
    with mp.workdps(40):
        k = mp.mpf(k)
        return float((1 if dimension == 1 else 2) * k * mp.exp(-2 * k * abs(mp.mpf(r))))


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("k", [1e-300, 1.0, 9e307, 1e308, 1.7e308])
@pytest.mark.parametrize("xi", [0.0, 1e-300, 0.25, 1.0, 30.0])
def test_line_and_radial_weights_against_the_closed_forms(dimension, k, xi):
    # 2 k and 2 k r overflow from k of about 9e307 on: the weights were nan
    # (0 * inf) or raised a RuntimeWarning there
    r = xi / k
    radii = np.array([r, r, 0.5 * r]) if dimension == 3 else np.array([r, -r, 0.5 * r])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = density_profile(dimension, k, r)
        got_array = density_profile(dimension, k, radii)
    np.testing.assert_array_equal(got_array[:2], [got, got])
    # e^(-2 xi) amplifies the rounding of k r by 2 xi, at most 60 here
    for v, at in ((got, r), (got_array[2], 0.5 * r)):
        want = _exp_weight(dimension, k, at)
        if math.isinf(want):  # 2 k e^(-2 xi) is past the double range
            assert v == math.inf
        else:
            assert v == pytest.approx(want, rel=1e-14)


def test_line_and_radial_weights_where_2k_overflows_were_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert density_profile(1, 1e308, 0.0) == 1e308
        assert density_profile(3, 1e308, 0.5) == 0.0
        assert density_profile(1, 1e308, np.array([0.0, -0.0])).tolist() == [1e308, 1e308]
        assert density_profile(3, 1e308, np.array([0.5, 1e300])).tolist() == [0.0, 0.0]


def test_ring_density_vanishes_at_origin():
    assert density_profile(2, 1.0, 0.0) == 0.0
    assert density_profile(2, 1.0, 1.0) == pytest.approx(oracles.W2_AT_K1_R1, rel=1e-13)


def test_density_profile_validation():
    with pytest.raises(ValueError):
        density_profile(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        density_profile(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        density_profile(2, 1.0, -1.0)
    with pytest.raises(ValueError):
        density_profile(3, 1.0, -0.5)


def test_density_sampling_accepts_grid_and_array():
    grid = RadialGrid(0.1, 5.0, 50)
    pd = density(2, 1.0, grid)
    assert isinstance(pd, ProbabilityDensity)
    assert pd.dimension == 2
    assert pd.weights.shape == (50,)
    pd2 = density(2, 1.0, grid.points)
    assert np.array_equal(pd.weights, pd2.weights)


@pytest.mark.parametrize(
    "dimension, grid, bad",
    [(1, ["1", 0.5], "1"), (2, (True, 0.5), True), (3, [0.5, None], None), (1, [0.5, b"1"], b"1")],
    ids=["str", "bool", "None", "bytes"],
)
def test_density_refuses_a_grid_element_that_is_not_real(dimension, grid, bad):
    # the grid was read by np.asarray(grid, dtype=float), which took each as
    # a number, where density_profile refuses the same list
    with pytest.raises(ValueError) as excinfo:
        density(dimension, 1.0, grid)
    assert str(excinfo.value) == f"radius must be finite, got {bad!r}"


@pytest.mark.parametrize("grid", [0.5, [], [[0.5, 1.0]]], ids=["float", "empty", "2-d"])
def test_density_needs_a_1d_array_of_radii(grid):
    with pytest.raises(ValueError, match=r"^grid must be a RadialGrid or a 1-d array of radii$"):
        density(1, 1.0, grid)


@pytest.mark.parametrize("dimension", [0, 4, 2.5, None])
def test_the_dimension_is_checked_by_the_weight_and_the_record(dimension):
    # an integer of at least 1 first, then one of the three forms
    if dimension == 4:
        message = re.escape("dimension must be 1, 2 or 3, got 4") + "$"
    else:
        message = re.escape(f"dimension must be an integer of at least 1, got {dimension!r}") + "$"
    with pytest.raises(ValueError, match=message):
        density_profile(dimension, 1.0, 1.0)
    with pytest.raises(ValueError, match=message):
        ProbabilityDensity(dimension, 1.0, np.empty(0), np.empty(0))


# ---------------------------------------------------------------------------
# normalization

@pytest.mark.parametrize("dimension", [1, 2, 3])
# 40 / k is near the top of the double range at k = 1e-306
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 7.0, 1e-306])
def test_total_probability_is_one(dimension, k):
    pd = density(dimension, k, np.array([1.0]))
    assert normalize_check(pd) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "k, total",
    [
        (0.5, 1.0),
        (1.0, 1.0),
        (2.0, 1.0),
        (7.0, 1.0),
    ],
)
def test_ring_normalization_is_pinned_bit_for_bit(k, total):
    # the boundstate output prints this float; a faster K_0 must not move it.
    # It is integrated in t = (k r)^(1/3), so every k gives the k = 1 value
    assert normalize_check(density(2, k, np.array([1.0]))) == total


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("k", [5e-324, 1e-310, 1e-307])
def test_normalization_is_a_value_where_40_over_k_overflows(dimension, k):
    # the integral runs in xi = k r, so no radius 40 / k is formed, and no
    # numpy warning is written
    pd = density(dimension, k, np.array([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert normalize_check(pd) == normalize_check(density(dimension, 1.0, [0.0]))


#: The total of each form, bit for bit: each rounds to the exact 1
SCALE_FREE_TOTALS = {1: 1.0, 2: 1.0, 3: 1.0}


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_normalization_is_one_float_per_form(dimension):
    rng = np.random.default_rng(14)
    ks = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 7.0, 1e300]
    ks += np.exp(rng.uniform(math.log(5e-324), math.log(1e300), 40)).tolist()
    totals = {normalize_check(density(dimension, k, [0.0])) for k in ks}
    assert totals == {SCALE_FREE_TOTALS[dimension]}


@pytest.fixture
def cold_totals():
    boundstate._scale_free_total.cache_clear()
    yield
    boundstate._scale_free_total.cache_clear()


def test_normalization_integrates_once_per_form(monkeypatch, cold_totals):
    calls = []

    def counted(f, a, b):
        calls.append((a.size, a[0], b[-1]))
        return gauss_kronrod_15(f, a, b)

    monkeypatch.setattr(boundstate, "gauss_kronrod_15", counted)
    for k in (0.5, 1.0, 2.0, 7.0, 1e-300, 1e300):
        for dimension in (1, 2, 3):
            assert normalize_check(density(dimension, k, [0.0])) == SCALE_FREE_TOTALS[dimension]
    assert calls == [(48, 0.0, 3.5)] * 3
    assert boundstate._scale_free_total.cache_info().misses == 3


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_normalization_refuses_a_large_error_estimate(monkeypatch, cold_totals, dimension):
    # the summed estimates are about 3e-17 (line), 1e-13 (ring) and 7e-17
    # (sphere): 1e5 times each passes 1e-12
    def inflated(f, a, b):
        value, err = gauss_kronrod_15(f, a, b)
        return value, err * 1e5

    monkeypatch.setattr(boundstate, "gauss_kronrod_15", inflated)
    with pytest.raises(ArithmeticError, match=r"^normalization error estimate \S+ too large$"):
        normalize_check(density(dimension, 1.0, [0.0]))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_each_total_is_within_one_ulp_of_the_closed_form(cold_totals, dimension):
    # the integral of each weight over its whole range is exactly 1
    assert abs(boundstate._scale_free_total(dimension) - 1.0) <= 2.0**-52


def _k0_product_checked(k, r):
    # k0_product as it would be with the checked besselk
    kr = k * r
    if kr < sys.float_info.min:
        return (math.log(2.0) - EULER_GAMMA) - math.log(k) - math.log(r)
    return besselk(0, kr) if kr < math.inf else 0.0


def test_k0_product_is_the_checked_besselk_bit_for_bit():
    # every K regime: the series below 3, the Chebyshev series to 20, the Hankel
    # expansion to 705, the scaled recurrence from 705 on, subnormal and
    # infinite k r, at the switches and on seeded arguments
    rng = np.random.default_rng(33)
    switches = [3.0, 20.0, 705.0]
    xs = [5e-324, 1e-310, sys.float_info.min, 1e-8, 1.0, 745.0, 746.0, 1e300, 1.7e308]
    xs += [math.nextafter(x, d) for x in switches for d in (0.0, math.inf)] + switches
    xs += (10.0 ** rng.uniform(-320.0, 308.0, 300)).tolist()
    xs += rng.uniform(0.0, 800.0, 300).tolist()
    for x in xs:
        for k in (1.0, 0.5, 3.0):
            r = x / k
            if r > 0.0:
                assert k0_product(k, r).hex() == _k0_product_checked(k, r).hex(), (k, r)
        assert k0_product(1e200, x).hex() == _k0_product_checked(1e200, x).hex(), x
        if x >= sys.float_info.min:
            assert _outcome(k0_product, 1.0, x) == _outcome(besselk, 0, x), x


def test_import_integrates_nothing():
    # the totals are computed on first use, so an import pays nothing for them
    src = str(Path(boundstate.__file__).resolve().parents[1])
    code = (
        "import anticentrifugal, anticentrifugal.cli, anticentrifugal.verify\n"
        "from anticentrifugal.boundstate import _scale_free_total\n"
        "print(_scale_free_total.cache_info().misses)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n"


def _r_space_total(dimension, k):
    # the integral in r on [0, 40 / k] with the tail exp(-2 k (40 / k)), by
    # QUADPACK's adaptive rule: a route independent of the package's own
    r_cut = 40.0 / k
    core, _ = quad(
        lambda r: density_profile(dimension, k, r), 0.0, r_cut, epsabs=1e-15, epsrel=1e-13, limit=200
    )
    if dimension == 1:
        return 2.0 * core + math.exp(-2.0 * k * r_cut)
    if dimension == 3:
        return core + math.exp(-2.0 * k * r_cut)
    return core


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("k", [0.5, 2.0, 7.0])
def test_scale_free_total_matches_the_r_space_integral(dimension, k):
    pd = density(dimension, k, [0.0])
    assert abs(normalize_check(pd) - _r_space_total(dimension, k)) <= 1e-14


# ---------------------------------------------------------------------------
# the ring maximum

def test_ring_peak_parameter_value():
    xi = ring_peak_parameter()
    assert xi == 0.16572151618344258  # bit for bit
    assert xi == pytest.approx(oracles.RING_XI, rel=1e-15)
    assert 0.1 < xi < 0.3


def test_ring_stationarity_rows_are_those_of_besselk():
    # one K pass per lane gives the K_0 and K_1 of besselk(0) and besselk(1)
    lo, hi = boundstate._RING_BRACKET
    xs = np.concatenate(([lo, hi], np.random.default_rng(67).uniform(lo, hi, 1000)))
    k0 = np.array([besselk(0, x) for x in xs.tolist()])
    k1 = np.array([besselk(1, x) for x in xs.tolist()])
    s, slope = boundstate._ring_stationarity(xs)
    assert s.tobytes() == (k0 - 2.0 * xs * k1).tobytes()
    assert slope.tobytes() == (2.0 * xs * k0 - k1).tobytes()


def test_ring_peak_bracket_without_a_sign_change_raises(monkeypatch):
    # both ends past the peak: the stationarity defect is negative on each
    monkeypatch.setattr(boundstate, "_RING_BRACKET", (0.2, 0.5))
    ring_peak_parameter.cache_clear()
    with pytest.raises(BracketingError):
        ring_peak_parameter()


def test_ring_peak_is_a_local_maximum():
    xi = ring_peak_parameter()
    w = lambda r: density_profile(2, 1.0, r)
    assert w(xi) > w(xi - 1e-4)
    assert w(xi) > w(xi + 1e-4)


def test_density_maximum_by_dimension():
    loc, val = density_maximum(density(1, 3.0, np.array([1.0])))
    assert (loc, val) == (0.0, 3.0)
    loc, val = density_maximum(density(3, 2.0, np.array([1.0])))
    assert (loc, val) == (0.0, 4.0)
    loc, val = density_maximum(density(2, 1.0, np.array([1.0])))
    assert loc == pytest.approx(oracles.RING_XI, rel=1e-15)
    assert val == pytest.approx(oracles.RING_W_MAX_K1, rel=1e-12)


def test_ring_maximum_scales_inversely_with_k():
    loc1, val1 = density_maximum(density(2, 1.0, np.array([1.0])))
    loc5, val5 = density_maximum(density(2, 5.0, np.array([1.0])))
    assert loc5 == pytest.approx(loc1 / 5.0, rel=1e-12)
    assert val5 == pytest.approx(5.0 * val1, rel=1e-12)


@pytest.mark.parametrize("k", [5e-324, 1e-310])
def test_ring_maximum_names_a_wavenumber_whose_radius_overflows(k):
    pd = density(2, k, [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            density_maximum(pd)
    assert str(info.value) == f"wavenumber {k!r} is too small: the ring radius xi / k overflows"


def test_ring_maximum_where_40_over_k_overflows_but_xi_over_k_does_not():
    loc, val = density_maximum(density(2, 1e-307, [0.0]))
    assert loc == pytest.approx(oracles.RING_XI / 1e-307, rel=1e-15)
    assert val == pytest.approx(oracles.RING_W_MAX_K1 * 1e-307, rel=1e-12)


def test_ring_density_array_matches_pointwise_evaluation():
    """The ring branch evaluates a whole array at once; a single radius
    runs as a one-element array and returns a float, and the origin gives
    exactly zero."""
    radii = np.concatenate(([0.0], np.linspace(1e-3, 12.0, 801)))
    got = density_profile(2, 1.3, radii)
    want = [density_profile(2, 1.3, float(r)) for r in radii]
    assert all(isinstance(w, float) for w in want)
    assert got[0] == 0.0 and want[0] == 0.0
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dimension", [1, 3])
def test_single_radius_path_matches_array_path(dimension):
    """A float radius runs as a one-element array: the exponential forms
    agree bit for bit with a long array.  The ring is compared in
    test_ring_density_array_matches_pointwise_evaluation."""
    for k in (0.37, 1.0, 7.0):
        radii = np.concatenate(([0.0], np.geomspace(1e-6, 30.0, 300))) / k
        if dimension == 1:
            radii = np.concatenate((-radii[::-1], radii))
        got = [density_profile(dimension, k, r) for r in radii.tolist()]
        assert all(type(w) is float for w in got)
        np.testing.assert_array_equal(got, density_profile(dimension, k, radii))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_scalar_radii_of_any_type_give_the_float_result(dimension):
    for r in (0, 2, np.array(0.5), np.float64(0.5), np.int64(3)):
        w = density_profile(dimension, 1.3, r)
        assert type(w) is float and w == density_profile(dimension, 1.3, float(r))


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_single_radius_and_array_paths_raise_alike(dimension, bad):
    if dimension == 1 and bad == -0.5:
        assert density_profile(1, 1.0, bad) == density_profile(1, 1.0, 0.5)
        return
    message = "non-negative" if bad == -0.5 else "finite"
    for r in (bad, np.array([1.0, bad])):
        with pytest.raises(ValueError, match=message):
            density_profile(dimension, 1.0, r)


def _strict_outcome(fn):
    """fn()'s values as hex strings, or its error's type and message, with
    every numpy floating-point error and every warning raised."""
    try:
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            return [float(v).hex() for v in np.ravel(fn())]
    except Exception as exc:
        return type(exc), str(exc)


_EDGE_K = (5e-324, 1e-300, 1e-160, 1e-10, 0.1, 1.0, 7.0, 1e10, 1e150, 1e300, 1.7e308)
_EDGE_R = (0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0, 40.0, 373.0, 746.0, 1e5, 1e301, 1.7e308)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_scalar_radius_is_a_one_lane_array_under_raise(dimension):
    # a float radius gives the value or error of a one-lane array and of
    # an array past the float kernels' lane count, under
    # np.errstate(all="raise"); 84 of these 418 cases differed while a
    # float radius ran a path of its own
    radii = _EDGE_R + ((-746.0, -1e-300) if dimension == 1 else ())
    for k in _EDGE_K:
        for r in radii:
            got = _strict_outcome(lambda: density_profile(dimension, k, r))
            one = _strict_outcome(lambda: density_profile(dimension, k, np.array([r])))
            assert one == got, (k, r)
            lanes = np.full(_FEW_LANES + 1, r)
            many = got * lanes.size if isinstance(got, list) else got
            assert _strict_outcome(lambda: density_profile(dimension, k, lanes)) == many, (k, r)


_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@settings(max_examples=200, deadline=None)
@given(_POSITIVE, _POSITIVE)
@example(5e-324, 5e-324)  # k r underflows to 0
@example(1e-300, 1e301)  # 2 k^2 underflows
@example(1.0, 705.0)  # the scaled K regime
@example(1e200, 1e200)  # k r overflows
def test_k0_and_ring_weight_give_the_same_bits_on_a_float_and_one_lane(k, r):
    # over k0_product's domain, k > 0 and r > 0 finite: a float radius and
    # a one-lane array run the float kernels on their one lane, and so does
    # a scalar ring weight, while an array past _FEW_LANES runs the array
    # kernels: the same bits, or the same error, under raise
    alone = _strict_outcome(lambda: k0_product(k, r))
    assert _strict_outcome(lambda: k0_product(k, np.array([r]))) == alone
    weight = _strict_outcome(lambda: density_profile(2, k, r))
    assert _strict_outcome(lambda: density_profile(2, k, np.array([r]))) == weight
    many = _strict_outcome(lambda: density_profile(2, k, np.full(_FEW_LANES + 1, r)))
    assert many == (weight * (_FEW_LANES + 1) if isinstance(weight, list) else weight)


def test_radii_all_at_the_origin_make_no_k0_call(monkeypatch):
    # the ring weight is 0 at r = 0, so density(2, k, [0.0]), which the
    # boundstate command builds, computes no K_0
    monkeypatch.setattr(boundstate, "k0_product", lambda *a: pytest.fail("K_0 computed"))
    assert density_profile(2, 1.0, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert density(2, 1.0, [0.0]).weights.tolist() == [0.0]


def test_underflowing_scalar_weights_return_under_raise():
    with np.errstate(all="raise"):
        assert density_profile(1, 1.0, 746.0) == 0.0
        assert density_profile(3, 0.1, 1e5) == 0.0
        w = density_profile(2, 1e-300, 1e301)
    with mp.workdps(40):
        want = 2 * mp.mpf(1e-300) ** 2 * mp.mpf(1e301) * mp.besselk(0, 10) ** 2
    # W is subnormal here, rounded once
    assert type(w) is float and w == pytest.approx(float(want), rel=1e-14)


def _check_ring_weight_against_mpmath(k):
    # both paths, at radii around the ring, against W = 2 k^2 r K_0(k r)^2
    radii = np.array([0.05, ring_peak_parameter(), 1.0, 5.0, 20.0]) / k
    with mp.workdps(30):
        want = [
            float(2 * mp.mpf(k) ** 2 * mp.mpf(r) * mp.besselk(0, mp.mpf(k) * mp.mpf(r)) ** 2)
            for r in radii.tolist()
        ]
    got = density_profile(2, k, radii)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    for r, w in zip(radii.tolist(), want):
        assert density_profile(2, k, r) == pytest.approx(w, rel=1e-13)


def test_ring_weight_where_k_squared_underflows():
    """2 k^2 underflows below k of about 1e-154, yet W = 2 k (k r) K_0(k r)^2
    is representable: both paths must keep it, against mpmath."""
    _check_ring_weight_against_mpmath(1e-300)


def test_ring_weight_where_k_squared_overflows():
    """2 k^2 overflows above k of about 9e153, yet W is representable."""
    _check_ring_weight_against_mpmath(1e200)
    assert math.isfinite(density_maximum(density(2, 1e200, np.array([0.0])))[1])


def test_ring_weight_where_k0_underflows_and_2k_kr_overflows():
    # 2 k (k r) K_0^2 was inf * 0 = nan here, with two numpy warnings
    k = 1e200
    r = RadialGrid(1e-3, 40.0, 57).points
    assert np.all(besselk(0, k * r) == 0.0)
    with np.errstate(all="raise"):
        got = density_profile(2, k, r)
    np.testing.assert_array_equal(got, np.zeros(r.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [density_profile(2, k, v) for v in r[::8].tolist()] == [0.0] * 8


@pytest.mark.parametrize("k, r", [
    (1e150, 1e100),  # 2 k^2 r overflows where K_0(k r) is 0: was inf * 0 = nan
    (1e150, 1e158),  # 2 k^2 r and k r overflow
    (1e100, 1e210),  # k r overflows: besselk refused an infinite argument
    (1.0, 1e308),  # K_0(1e308) is 0 and k r is finite
])
def test_ring_weight_is_zero_where_k0_is_zero(k, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            assert density_profile(2, k, r) == 0.0
            got = density_profile(2, k, np.array([0.5 / k, r, 0.0]))
    want = density_profile(2, k, 0.5 / k)
    assert want > 0.0
    assert got.tolist() == [want, 0.0, 0.0]


def test_ring_weight_near_the_top_of_the_double_range():
    # 2 k K_0(k r) alone overflows here (k r = 0.05 gives 1.9e308 at
    # k = 3e307), and 2 k itself from k of about 9e307 on, while
    # 2 k (k r) K_0(k r) <= 0.94 k and W <= 1.24 k do not
    for k in (3e307, 1e308, 1.4e308):
        _check_ring_weight_against_mpmath(k)
    for k in (3e307, 4.7e307, 8e307, 1e308, 1.4e308):
        r = default_grid(k).points
        with np.errstate(all="raise"):
            w = density_profile(2, k, r)
            peak = density_maximum(density(2, k, np.array([0.0])))[1]
        assert np.all(np.isfinite(w))
        assert peak / k == pytest.approx(2.0 * ring_peak_parameter() * besselk(0, ring_peak_parameter()) ** 2, rel=1e-15)


@pytest.mark.parametrize(
    "dimension, k, r",
    [
        (2, 1e-300, 1e301),  # 2 k ((k r) K_0) K_0 is subnormal
        (2, 1.0, 1e-300),  # (k r)^2 / 4 in the series of K_0
        (1, 1e-300, 1e-300),  # the exponent 2 k |r| underflows
        (3, 1e20, 1e301),  # the exponent overflows to -inf, the weight is 0
    ],
)
def test_array_weight_returns_where_the_float_weight_does_under_raise(dimension, k, r):
    with np.errstate(all="raise"):
        want = density_profile(dimension, k, r)
        np.testing.assert_array_equal(density_profile(dimension, k, np.array([r])), [want])


@pytest.mark.parametrize("k, r", [
    (1e-200, 1e-150),  # k r underflows to 0; W underflows to 0 too
    (1e10, 1e-320),  # k r is subnormal, W = 2 k^2 r K_0^2 is about 1e-294
    (1.0, 5e-324),  # k r is the smallest subnormal
])
def test_ring_weight_where_k_r_underflows(k, r):
    # besselk refused k r = 0, and a subnormal k r has lost its digits
    with mp.workdps(30):
        want = float(2 * mp.mpf(k) ** 2 * mp.mpf(r) * mp.besselk(0, mp.mpf(k) * mp.mpf(r)) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = density_profile(2, k, r)
            got_array = density_profile(2, k, np.array([r, 0.0]))
    assert abs(got - want) <= 1e-14 * want + 2.0**-1074  # W is subnormal at r = 5e-324
    assert got_array.tolist() == [got, 0.0]


def test_ring_weight_unchanged_where_k_squared_is_normal():
    # the regrouping applies only below the underflow: elsewhere the weight
    # is the plain product 2 k^2 r K_0(k r)^2, bit for bit
    for k in (1e-150, 1e-3, 1.0, 9.3, 1e150):
        r = 0.7 / k
        assert density_profile(2, k, r) == 2.0 * k * k * r * besselk(0, k * r) ** 2


def test_ring_density_diverges_less_than_the_amplitude():
    """The amplitude K_0 diverges logarithmically at the axis while the
    weight r K_0^2 still goes to zero: probability leaves the origin."""
    radii = np.array([1e-2, 1e-4, 1e-8])
    amp = np.array([math.sqrt(w / (2.0 * r)) for r, w in
                    zip(radii, density_profile(2, 1.0, radii))])
    assert np.all(np.diff(amp) > 0.0)  # amplitude grows toward the axis
    w = density_profile(2, 1.0, radii)
    assert np.all(np.diff(w) < 0.0)  # weight still dies off


# ---------------------------------------------------------------------------
# the planar coupling relation, two routes

def test_cutoff_integral_matches_closed_form():
    for k in (1e-6, 0.01, 0.3, 1.0, 5.0):
        for cutoff in (1.0, 10.0):
            got = cutoff_integral(k, cutoff)
            want = 0.5 * math.log1p((cutoff / k) ** 2)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k, cutoff", [
    (1e160, 1e170),  # k^2 overflowed: 0.0
    (1e300, 1e305),  # k^2 overflowed: 0.0
    (1e-300, 1e-290),  # k^2 underflowed: ZeroDivisionError
    (5e-324, 1e-320),
    (1e-150, 1e3),  # (L/k)^2 = 1e306
])
def test_cutoff_integral_where_k_squared_leaves_the_range(k, cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cutoff_integral(k, cutoff)
    assert got == pytest.approx(0.5 * math.log1p((cutoff / k) ** 2), rel=1e-12)


@pytest.mark.parametrize("k, cutoff", [(0.3, 10.0), (1.0, 1.0), (2.0, 1e-3), (1e-6, 1.0)])
def test_cutoff_integral_depends_on_the_ratio_alone_bit_for_bit(k, cutoff):
    # scaling k and L by one power of two leaves every rounding in place
    want = cutoff_integral(k, cutoff)
    for j in (-900, -300, -1, 1, 300, 900):
        assert cutoff_integral(math.ldexp(k, j), math.ldexp(cutoff, j)) == want


def _cutoff_integral_panel_by_panel(k, cutoff):
    # cutoff_integral as it ran one float Kronrod rule per panel, before
    # the array pass; the rule is looked up when called, as there
    k = check_real("wavenumber", k, sign="positive")
    cutoff = check_real("cutoff", cutoff, sign="positive")
    if cutoff / k > 1e154:
        raise ValueError(
            f"cutoff {cutoff!r} exceeds 1e154 times the wavenumber {k!r}, where "
            "(L/k)^2 overflows the quadrature; use the closed form ln(1 + L^2/k^2) / 2"
        )
    k, shift = math.frexp(k)
    edges = [math.ldexp(cutoff, -shift)]
    while edges[-1] > k / 64.0:
        edges.append(0.5 * edges[-1])
    edges.append(0.0)
    edges.reverse()
    total = err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = boundstate.gauss_kronrod_15(lambda p: p / (p * p + k * k), a, b)
        total += v
        err += e
    if err > 1e-10 * max(abs(total), 1.0):
        raise ArithmeticError(
            f"cutoff integral error estimate {err:.3e} too large for total {total:.6e}"
        )
    return total


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("inflate", [1.0, 1e5])
def test_cutoff_integral_equals_the_panel_by_panel_loop(monkeypatch, inflate):
    # seeded (k, L), with L / k from below one panel to past 1e154; the
    # rule's error estimates, inflated in the module, send some of them
    # into the ArithmeticError path
    real = boundstate.gauss_kronrod_15

    def inflated(f, a, b):
        value, err = real(f, a, b)
        return value, err * inflate

    monkeypatch.setattr(boundstate, "gauss_kronrod_15", inflated)
    rng = np.random.default_rng(31)
    ks = 10.0 ** rng.uniform(-300.0, 300.0, 150)
    ratios = 10.0 ** rng.uniform(-3.0, 160.0, 150)
    seen = set()
    for k, ratio in zip(ks.tolist(), ratios.tolist()):
        cutoff = k * ratio
        got = _outcome(cutoff_integral, k, cutoff)
        assert got == _outcome(_cutoff_integral_panel_by_panel, k, cutoff), (k, cutoff)
        seen.add(str if isinstance(got, str) else got[0])
    if inflate == 1.0:
        assert seen == {str, ValueError}
    else:
        assert seen == {str, ValueError, ArithmeticError}


@pytest.mark.parametrize("inflate", [1.0, 1e5])
def test_array_cutoff_integral_equals_its_float_calls(monkeypatch, inflate):
    # seeded k in [1e-300, 1e293] and L / k from below one panel to 1e100,
    # as arrays of 1 to 60 lanes.  The rule's error estimates, inflated in
    # the module, send some lanes into the ArithmeticError path
    real = boundstate.gauss_kronrod_15

    def inflated(f, a, b):
        value, err = real(f, a, b)
        return value, err * inflate

    monkeypatch.setattr(boundstate, "gauss_kronrod_15", inflated)
    rng = np.random.default_rng(32)
    seen = set()
    for size in (1, 1, 2, 3, 7, 60) * 5:
        cutoff = 10.0 ** rng.uniform(-200.0, 290.0)
        ks = cutoff / 10.0 ** rng.uniform(-3.0, rng.choice([6.0, 12.0, 100.0]), size)
        outcomes = [_outcome(cutoff_integral, k, cutoff) for k in ks.tolist()]
        try:
            got = [v.hex() for v in cutoff_integral(ks, cutoff).tolist()]
        except (ValueError, ArithmeticError) as exc:
            got = (type(exc), str(exc))
            # the first lane whose float call raises names the error
            assert got == next(o for o in outcomes if not isinstance(o, str)), (ks, cutoff)
        else:
            assert got == outcomes, (ks, cutoff)
        seen.add(type(got))
    assert seen == ({list} if inflate == 1.0 else {list, tuple})


def test_array_cutoff_integral_raises_for_a_lane_past_1e154():
    ks = np.array([0.3, 2.0, 1e-160, 1e-170, 5.0])
    with pytest.raises(ValueError) as joint:
        cutoff_integral(ks, 1.0)
    with pytest.raises(ValueError) as alone:
        cutoff_integral(1e-160, 1.0)
    assert str(joint.value) == str(alone.value)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError) as joint:
            cutoff_integral(np.array([1.0, bad, 2.0]), 1.0)
        with pytest.raises(ValueError) as alone:
            cutoff_integral(bad, 1.0)
        assert str(joint.value) == str(alone.value)


def test_array_cutoff_integral_checks_one_kind_at_a_time(monkeypatch):
    # each check runs over all wavenumbers before the next, in a float
    # call's order: a bad wavenumber is named ahead of a lane past 1e154
    # before it, the cutoff ahead of such a lane, and a lane past 1e154
    # ahead of a failed error estimate before it
    def same_error(joint_args, alone_args):
        with pytest.raises((ValueError, ArithmeticError)) as joint:
            cutoff_integral(*joint_args)
        with pytest.raises((ValueError, ArithmeticError)) as alone:
            cutoff_integral(*alone_args)
        assert (type(joint.value), str(joint.value)) == (type(alone.value), str(alone.value))

    same_error((np.array([1e-160, math.nan]), 1.0), (math.nan, 1.0))
    same_error((np.array([1e-160, 2.0, 0.0]), 1.0), (0.0, 1.0))
    same_error((np.array([1e-160, 2.0]), -1.0), (2.0, -1.0))
    real = boundstate.gauss_kronrod_15

    def inflated(f, a, b):
        value, err = real(f, a, b)
        return value, err * 1e5

    monkeypatch.setattr(boundstate, "gauss_kronrod_15", inflated)
    with pytest.raises(ArithmeticError):
        cutoff_integral(0.1, 1.0)
    same_error((np.array([0.1, 1e-160]), 1.0), (1e-160, 1.0))
    same_error((np.array([1.0, 0.1, 1e-3]), 1.0), (0.1, 1.0))


def test_array_cutoff_integral_keeps_the_shape():
    ks = np.array([[0.5, 1.0, 2.0], [1e-3, 1e3, 7.0]])
    got = cutoff_integral(ks, 10.0)
    assert got.shape == (2, 3)
    assert got.ravel().tolist() == [cutoff_integral(k, 10.0) for k in ks.ravel().tolist()]
    assert type(cutoff_integral(1.0, 10.0)) is float
    assert cutoff_integral(np.zeros((0, 2)), 10.0).shape == (0, 2)


@pytest.mark.parametrize("k, cutoff", [(1e-170, 1.0), (1e-300, 1e300), (1.0, 1e155)])
def test_cutoff_integral_past_the_range_of_l_over_k_squared_names_the_closed_form(k, cutoff):
    with pytest.raises(ValueError, match=r"closed form ln\(1 \+ L\^2/k\^2\) / 2"):
        cutoff_integral(k, cutoff)
    with pytest.raises(ValueError, match="closed form"):
        coupling_residual(1.0, cutoff, k)


@pytest.mark.parametrize("cutoff", [1e-200, 1e200])
def test_coupling_residual_where_k_squared_leaves_the_range(cutoff):
    # the residual read 1.0 (k^2 overflowed) or raised ZeroDivisionError
    for u0 in (1.0, 4.0 * math.pi, 40.0):
        k = k_from_coupling(u0, cutoff)
        assert coupling_residual(u0, cutoff, k) <= 1e-10


def test_wavenumber_from_coupling_frozen():
    k = k_from_coupling(4.0 * math.pi, 1.0)
    assert k == pytest.approx(oracles.K_AT_U0_4PI, rel=1e-14)
    assert k_from_coupling(8.0 * math.pi, 1.0) == pytest.approx(oracles.K_AT_U0_8PI, rel=1e-14)


def test_binding_deepens_with_coupling():
    ks = [k_from_coupling(u, 1.0) for u in (2.0, 4.0, 8.0, 20.0)]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_coupling_round_trip():
    for u0 in (0.5, 4.0, 12.0, 60.0):
        k = k_from_coupling(u0, 1.0)
        assert coupling_from_k(k, 1.0) == pytest.approx(u0, rel=1e-12)


def test_coupling_residual_closes_the_loop():
    for u0 in (1.0, 4.0 * math.pi, 40.0):
        k = k_from_coupling(u0, 1.0)
        assert coupling_residual(u0, 1.0, k) <= 1e-10


def test_weak_coupling_asymptotic_branch():
    # 4 pi / U0 = 800 overflows expm1's argument range, switching to the
    # asymptotic form k = L exp(-2 pi / U0); the log must come out exact
    u0 = 4.0 * math.pi / 800.0
    k = k_from_coupling(u0, 1.0)
    assert math.log(k) == pytest.approx(-400.0, rel=1e-13)
    assert coupling_from_k(k, 1.0) == pytest.approx(u0, rel=1e-12)


def test_extreme_weak_coupling_keeps_a_normal_wavenumber():
    # k = exp(-695) is about 1.5e-302, normal: no warning, full precision
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = k_from_coupling(4.0 * math.pi / 1390.0, 1.0)
    assert math.log(k) == pytest.approx(-695.0, rel=1e-13)


@pytest.mark.parametrize("u0", [0.002, 0.0088])
def test_coupling_whose_wavenumber_leaves_the_normal_range_raises(u0):
    # k underflows to 0 at 0.002 and is subnormal (about 8e-311) at 0.0088;
    # both once came back with only a RuntimeWarning
    with pytest.raises(ValueError, match=f"coupling {u0!r}"):
        k_from_coupling(u0, 1.0)


def test_coupling_whose_wavenumber_overflows_names_both_inputs():
    # L / sqrt(expm1(4 pi / U0)) overflows: once returned inf silently
    with pytest.raises(ValueError) as excinfo:
        k_from_coupling(1e6, 1e308)
    assert str(excinfo.value) == (
        "coupling 1000000.0 at cutoff 1e+308 gives a wavenumber above the "
        "double-precision range"
    )
    # a thousandth of that cutoff keeps k finite, near L sqrt(U0 / 4 pi)
    k = k_from_coupling(1e6, 1e305)
    assert k == pytest.approx(1e305 * math.sqrt(1e6 / (4.0 * math.pi)), rel=1e-5)


def test_deep_wavenumber_inversion_stays_finite():
    # far below the cutoff the ratio squared overflows a double, so the
    # inversion must go through log space; far above it saturates
    assert coupling_from_k(1e-200, 1.0) == pytest.approx(
        4.0 * math.pi / (2.0 * 200.0 * math.log(10.0)), rel=1e-13)
    with pytest.raises(OverflowError):
        coupling_from_k(1e200, 1.0)


def test_coupling_sign_validation():
    with pytest.raises(ValueError):
        k_from_coupling(0.0, 1.0)
    with pytest.raises(ValueError) as excinfo:
        k_from_coupling(-1.0, 1.0)
    # the error must point at the renormalized parametrization instead
    assert "coupling_from_k" in str(excinfo.value)


def test_delta_coupling_record_round_trip():
    well = DeltaCoupling2D.from_coupling(4.0 * math.pi, 1.0)
    assert well.wavenumber == pytest.approx(oracles.K_AT_U0_4PI, rel=1e-14)
    assert well.energy == pytest.approx(oracles.E_AT_U0_4PI, rel=1e-14)
    assert coupling_from_k(well.wavenumber, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_delta_coupling_energy_is_the_correctly_rounded_half_square():
    # -k^2 / 2 rounded once, from the exact square: k * k is correctly
    # rounded where k**2 (libm pow) need not be, and at the first k
    # -0.5 * k**2 reads -0.23611022511931076
    rng = np.random.default_rng(20261019)
    ks = [0.6871829816276168, *rng.uniform(0.1, 10.0, 10_000).tolist()]
    for k in ks:
        assert DeltaCoupling2D(1.0, 1.0, k).energy == float(-Fraction(k) ** 2 / 2), k
    assert DeltaCoupling2D(1.0, 1.0, ks[0]).energy == -0.2361102251193108


# ---------------------------------------------------------------------------
# closed forms in one and three dimensions

def test_line_bound_state():
    state = one_three_d_bound_energy(1, coupling=-2.0)
    assert isinstance(state, DeltaBoundState)
    assert state.wavenumber == 1.0
    assert state.energy == -0.5


def test_spatial_bound_state():
    state = one_three_d_bound_energy(3, inverse_scattering_length=1.0)
    assert state.wavenumber == 1.0
    assert state.energy == -0.5


@pytest.mark.parametrize("call, message", [
    (lambda: density_profile(2, -1.0, 1.0), "wavenumber must be positive and finite, got -1.0"),
    (lambda: density_profile(1, "1", 0.0), "wavenumber must be positive and finite, got '1'"),
    (lambda: cutoff_integral(1.0, math.inf), "cutoff must be positive and finite, got inf"),
    (lambda: k_from_coupling(1.0, 0.0), "cutoff must be positive and finite, got 0.0"),
    (lambda: coupling_from_k(1.0, math.nan), "cutoff must be positive and finite, got nan"),
    (lambda: coupling_residual(-1.0, 1.0, 1.0), "coupling must be positive and finite, got -1.0"),
])
def test_positive_checks_name_their_argument(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_bound_state_validation():
    with pytest.raises(ValueError):
        one_three_d_bound_energy(1, coupling=1.0)  # repulsive line delta
    with pytest.raises(ValueError):
        one_three_d_bound_energy(1)
    with pytest.raises(ValueError):
        one_three_d_bound_energy(3, inverse_scattering_length=-1.0)
    with pytest.raises(ValueError):
        one_three_d_bound_energy(3)
    with pytest.raises(ValueError):
        one_three_d_bound_energy(2, coupling=-1.0)
    with pytest.raises(ValueError):
        one_three_d_bound_energy(5, coupling=-1.0)


# ---------------------------------------------------------------------------
# normalized planar amplitude

def test_phi2_spot_value():
    grid = RadialGrid(1.0, 2.0, 3)
    phi = planar_rows(1.0, grid.points)[0]
    assert phi[0] == pytest.approx(oracles.PHI2_AT_K1_R1, rel=1e-13)


def test_phi2_scaling_identity():
    """Phi_{2k}(r) = 2 Phi_k(2r): doubling the wavenumber squeezes and
    rescales the profile without changing its shape."""
    grid_r = RadialGrid(0.5, 5.0, 19)
    grid_2r = RadialGrid(1.0, 10.0, 19)
    left = planar_rows(2.0, grid_r.points)[0]
    right = 2.0 * planar_rows(1.0, grid_2r.points)[0]
    assert left == pytest.approx(right, rel=1e-13)


def test_phi2_decays_far_out():
    grid = RadialGrid(0.1, 25.0, 250)
    phi = planar_rows(1.0, grid.points)[0]
    assert phi[-1] < 1e-9
    assert np.all(np.diff(phi) < 0.0)  # monotone falloff


def test_planar_amplitude_is_zero_where_k_r_overflows():
    # K_0(inf) = 0; besselk refuses an infinite argument, and k r used to
    # reach it with an overflow warning
    grid = RadialGrid(1e-101, 1e210, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            phi = planar_rows(1e100, grid.points)[0]
    assert phi[0] == planar_rows(1e100, RadialGrid(1e-101, 1e-100, 3).points)[0][0] > 0.0
    assert phi[1:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("k, r", [
    (1e-200, 1e-150),  # k r underflows to 0
    (1e-200, 1e-110),  # k r is subnormal
    (1e10, 1e-320),
    (1.0, 5e-324),
    (1e-300, 2.2250738585072014e-308),
    (1.4e-312, 8e-46),  # the amplitude (k / sqrt(pi)) K_0 is subnormal
])
def test_planar_k0_where_k_r_underflows(k, r):
    # besselk refused k r = 0 and lost digits at a subnormal k r; K_0 is
    # (ln 2 - gamma) - ln k - ln r there to well below one ulp
    with mp.workdps(40):
        want = mp.besselk(0, mp.mpf(k) * mp.mpf(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = k0_product(k, r)
            got_array = k0_product(k, np.array([r, 2.0]))
            phi = planar_rows(k, np.array([r]))[0]
    assert abs(got - want) <= 1e-16 * want
    assert got_array.tolist() == [got, k0_product(k, 2.0)]
    assert phi.tolist() == [k / math.sqrt(math.pi) * got]


def test_planar_rows_are_the_amplitude_and_its_weight():
    # W = 2 pi r |Phi|^2, and the weight row is density_profile's, bit for bit
    k = 0.76
    grid = RadialGrid(0.05 / k, 20.0 / k, 101)
    phi2, w2 = planar_rows(k, grid.points)
    np.testing.assert_array_equal(w2, density_profile(2, k, grid.points))
    np.testing.assert_allclose(2.0 * math.pi * grid.points * phi2**2, w2, rtol=1e-14, atol=0.0)
