"""Tests for the self-verification suites."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anticentrifugal import specfun, verify
from anticentrifugal.boundstate import k_from_coupling
from anticentrifugal.nodes import BracketingError
from anticentrifugal.radial import RadialGrid, SolutionFamily, analytic_radial
from anticentrifugal.specfun import (
    CylinderFamily,
    _k_rows,
    _recur_up,
    besselj,
    besselk,
    bessely,
    oscillatory_pair,
)
from anticentrifugal.verify import (
    SuiteResult,
    _match_grid,
    _quadrature_root,
    _seed_pair,
    run_all,
    suite_dimensions,
    suite_radial,
)


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


@pytest.mark.parametrize(
    "fn, family, k, grid, at",
    [
        (besselk, SolutionFamily.DECAYING_MODIFIED, 30.0, _match_grid(1e-3), (-1, -2)),
        # k = 7 also puts a sample where the scalar K_0 can round apart from the array one
        (besselk, SolutionFamily.DECAYING_MODIFIED, 7.0, _match_grid(1e-3), (-1, -2)),
        (besselj, SolutionFamily.OSCILLATORY_REGULAR, 1.0, RadialGrid(0.5, 20.5, 20001), (0, 1)),
        (bessely, SolutionFamily.OSCILLATORY_SINGULAR, 1.0, RadialGrid(0.5, 20.5, 20001), (0, 1)),
    ],
)
def test_seed_pair_equals_the_closed_form_wave(fn, family, k, grid, at):
    # the Numerov seeds come from two samples only, yet must be the very
    # numbers the whole closed-form wave holds there
    want = analytic_radial(family, 0, k, grid).values[list(at)].tolist()
    assert _seed_pair(fn, k, grid, at) == tuple(want)


def test_wronskian_constancy_fails_on_a_nan(monkeypatch):
    # the reference value is the middle element of the sorted Wronskians,
    # where a nan sorts last; the drift must still turn nan and fail
    real = verify.five_point_derivatives

    def spoiled(u, h):
        d1, d2 = real(u, h)
        d1 = d1.copy()
        d1[5000] = np.nan
        return d1, d2

    monkeypatch.setattr(verify, "five_point_derivatives", spoiled)
    (check,) = [r for r in suite_radial() if r.name == "radial-wronskian-constancy"]
    assert not check.passed
    assert np.isnan(check.max_error)



def test_wronskian_rows_equal_one_call_per_order():
    # the suite takes orders 0 and 1 of J, Y and K from one pass per family
    # and Y_2, K_2 from one upward step: the values of a call per order
    xs = np.linspace(0.1, 50.0, 1000)
    j01 = oscillatory_pair(CylinderFamily.BESSEL_J, xs)
    y01 = oscillatory_pair(CylinderFamily.NEUMANN_Y, xs)
    k01 = _k_rows(xs, 2)
    for m in (0, 1):
        np.testing.assert_array_equal(j01[m], besselj(m, xs))
        np.testing.assert_array_equal(y01[m], bessely(m, xs))
        np.testing.assert_array_equal(k01[m], besselk(m, xs))
    np.testing.assert_array_equal(_recur_up(2, xs, y01, -1.0), bessely(2, xs))
    np.testing.assert_array_equal(_recur_up(2, xs, k01, 1.0), besselk(2, xs))


def test_wronskian_suite_runs_one_pass_per_family(monkeypatch):
    # counted like test_zero_finder_makes_no_array_miller_pass: a call per
    # order ran 9 Miller passes, 6 log-series passes, 3 trapezoids and 6
    # Hankel evaluations
    calls = collections.Counter()

    def spy(name):
        real = getattr(specfun, name)

        def counted(x, *args, **kwargs):
            if isinstance(x, np.ndarray):
                calls[name] += 1
            return real(x, *args, **kwargs)

        monkeypatch.setattr(specfun, name, counted)

    for name in ("_miller_array", "_log_series", "_k01_large", "_hankel01"):
        spy(name)
    assert all(r.passed for r in verify.suite_wronskians())
    assert calls["_miller_array"] <= 6
    assert calls["_log_series"] <= 2
    assert calls["_k01_large"] <= 1
    assert calls["_hankel01"] <= 3


def test_radial_suite_takes_no_median(monkeypatch):
    # np.median imports numpy.ma on its first call, about 16 ms of a cold
    # verify; the middle element of the odd count of Wronskians is the same
    def refuse(*args, **kwargs):
        raise AssertionError("np.median called")

    monkeypatch.setattr(verify.np, "median", refuse)
    assert all(r.passed for r in suite_radial())


def test_sommerfeld_sample_is_the_seeded_draw_bit_for_bit():
    drawn = np.random.default_rng(20240815).uniform(0.0, 20.0, 100)
    assert all(type(v) is float for v in verify._SOMMERFELD_SAMPLE)
    assert np.array(verify._SOMMERFELD_SAMPLE).tobytes() == drawn.tobytes()


def test_verify_never_imports_numpy_random():
    # numpy.random costs 10-20 ms of import for 100 fixed doubles; a fresh
    # interpreter shows whether anything in the package pulls it in
    src = str(Path(verify.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from anticentrifugal.verify import run_all\n"
        "assert all(r.passed for r in run_all())\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"
