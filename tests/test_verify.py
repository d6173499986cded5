"""Tests for the self-verification suites."""

import numpy as np
import pytest

from anticentrifugal.boundstate import k_from_coupling
from anticentrifugal.nodes import BracketingError
from anticentrifugal.verify import SuiteResult, _quadrature_root, run_all, suite_dimensions


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_everything_passes_at_default_tolerances(results):
    failed = [r for r in results if not r.passed]
    assert failed == [], [f"{r.name}: {r.max_error:.3e} > {r.tolerance:.1e}" for r in failed]


def test_result_records_are_complete(results):
    assert len(results) == 25
    names = [r.name for r in results]
    assert len(set(names)) == len(names)  # no duplicate check names
    for r in results:
        assert isinstance(r, SuiteResult)
        assert r.max_error >= 0.0
        assert r.tolerance >= 0.0


def test_zero_tolerance_fails_the_numeric_checks(results):
    strict = run_all(tolerance_scale=0.0)
    assert any(not r.passed for r in strict)
    # exact pattern checks (zero observed error) survive even at scale 0
    exact = {r.name for r in strict if r.passed}
    assert exact <= {r.name for r in results if r.passed}


def test_scale_widens_tolerances(results):
    loose = run_all(tolerance_scale=100.0)
    for tight, wide in zip(results, loose):
        assert tight.name == wide.name
        assert wide.tolerance >= tight.tolerance


def test_bad_scale_rejected():
    with pytest.raises(ValueError):
        run_all(tolerance_scale=-1.0)
    with pytest.raises(ValueError):
        run_all(tolerance_scale=float("nan"))


def test_dimension_suite_is_exact():
    for r in suite_dimensions():
        assert r.passed
        assert r.max_error == 0.0


def test_quadrature_root_settles_on_the_closed_form():
    # U0 = 16.2378 of the verify couplings sends plain Newton steps into a
    # two-point cycle, each point the other's bracket end, on the
    # quadrature's rounding noise
    for coupling in np.geomspace(0.1, 100.0, 20)[[0, 14, 19]].tolist():
        k = k_from_coupling(coupling, 1.0)
        assert _quadrature_root(coupling, 1.0, k) == pytest.approx(k, rel=1e-12)


def test_quadrature_root_bracket_without_a_sign_change_raises():
    # the bracket spans a factor e^0.4 around its guess, which is 100 k here
    k = k_from_coupling(1.0, 1.0)
    with pytest.raises(BracketingError):
        _quadrature_root(1.0, 1.0, 100.0 * k)
