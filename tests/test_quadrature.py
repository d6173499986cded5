"""Tests for the adaptive Gauss-Kronrod integrator."""

import math

import pytest

from anticentrifugal import quadrature
from anticentrifugal.quadrature import (
    QuadratureError,
    QuadratureResult,
    gauss_kronrod_15,
    integrate_adaptive,
)


def test_single_panel_exact_on_low_degree_polynomials():
    # the 15-point Kronrod rule integrates degree <= 22 exactly; the
    # embedded 7-point Gauss rule only degree <= 13, so the reported
    # estimate |K - G| stays at rounding level through degree 13 and
    # grows beyond it while the value itself remains exact
    for degree in (0, 1, 2, 3, 7, 13):
        value, err = gauss_kronrod_15(lambda t, d=degree: t ** d, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-14)
        assert err <= 1e-13
    for degree in (14, 18, 21):
        value, err = gauss_kronrod_15(lambda t, d=degree: t ** d, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-14)


def test_single_panel_error_estimate_brackets_truth():
    value, err = gauss_kronrod_15(math.exp, 0.0, 1.0)
    true = math.e - 1.0
    assert abs(value - true) <= max(err, 1e-15)


def test_adaptive_known_integrals():
    cases = [
        (math.sin, 0.0, math.pi, 2.0),
        (math.exp, 0.0, 1.0, math.e - 1.0),
        (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
        # same integrable log-squared structure as the ring density near 0
        (lambda t: t * math.log(t) ** 2, 0.0, 1.0, 0.25),
    ]
    for f, a, b, true in cases:
        res = integrate_adaptive(f, a, b)
        assert res.value == pytest.approx(true, rel=1e-12)
        assert res.error_estimate <= 1e-10
        assert res.intervals >= 1


def test_adaptive_integrable_endpoint_singularity():
    res = integrate_adaptive(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-9)
    assert res.intervals > 10  # must actually have refined toward 0


def test_adaptive_narrow_peak():
    # a peak of width 1e-3 in a unit interval forces local refinement
    f = lambda t: math.exp(-((t - 0.5) / 1e-3) ** 2)
    res = integrate_adaptive(f, 0.0, 1.0)
    assert res.value == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-10)


def test_result_is_a_named_record():
    res = integrate_adaptive(math.cos, 0.0, 1.0)
    assert isinstance(res, QuadratureResult)
    assert res.value == pytest.approx(math.sin(1.0), rel=1e-13)


def test_interval_budget_exhaustion_raises(monkeypatch):
    # the endpoint singularity needs dozens of bisections; a budget of
    # five panels cannot reach the requested tolerance
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 5)
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 2.0, 2.0)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, math.nan, 1.0)
