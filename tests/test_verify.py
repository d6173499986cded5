"""Tests for the self-verification suites."""

import collections
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anticentrifugal import boundstate, radial, specfun, verify
from anticentrifugal.boundstate import cutoff_integral, k_from_coupling
from anticentrifugal.nodes import BracketingError, solve_in_brackets
from anticentrifugal.radial import RadialGrid, SolutionFamily, analytic_radial
from anticentrifugal.specfun import CylinderFamily, besselj, besselk, bessely, cylinder_rows
from anticentrifugal.verify import (
    SuiteResult,
    _decaying_match,
    _match_grid,
    _quadrature_roots,
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
    couplings = np.geomspace(0.1, 100.0, 20)[[0, 14, 19]]
    ks = np.array([k_from_coupling(u0, 1.0) for u0 in couplings.tolist()])
    np.testing.assert_allclose(_quadrature_roots(couplings, 1.0, ks), ks, rtol=1e-12)


def test_quadrature_root_bracket_without_a_sign_change_raises():
    # the bracket spans a factor e^0.4 around its guess, which is 100 k here;
    # one such bracket among good ones fails the joint solve
    couplings = np.array([1.0, 4.0, 16.0])
    ks = np.array([k_from_coupling(u0, 1.0) for u0 in couplings.tolist()])
    with pytest.raises(BracketingError):
        _quadrature_roots(couplings[:1], 1.0, 100.0 * ks[:1])
    with pytest.raises(BracketingError):
        _quadrature_roots(couplings, 1.0, ks * np.array([1.0, 100.0, 1.0]))


def _quadrature_root_alone(coupling, cutoff, guess):
    # one coupling's root as the suite solved it before it stepped all
    # couplings together: a bracket of its own and one float
    # cutoff_integral call per argument
    target = 2.0 * math.pi / coupling
    cut2 = cutoff * cutoff

    def value_and_slope(ts):
        ks = np.exp(ts)
        g = np.array([cutoff_integral(k, cutoff) for k in ks.tolist()]) - target
        return g, -cut2 / (cut2 + ks * ks)

    t = math.log(guess)
    return math.exp(float(solve_in_brackets(value_and_slope, [t - 0.2, t + 0.2], [t])[0]))


@pytest.mark.parametrize("cutoff", [1.0, 1e-3, 7.5e4])
def test_joint_quadrature_roots_are_the_per_coupling_roots(cutoff):
    # the suite's 20 couplings and 20 seeded ones, with guesses off the
    # closed form so the roots take several steps, in different numbers
    rng = np.random.default_rng(20)
    couplings = np.concatenate((np.geomspace(0.1, 100.0, 20), 10.0 ** rng.uniform(-1, 2, 20)))
    ks = np.array([k_from_coupling(u0, cutoff) for u0 in couplings.tolist()])
    guesses = ks * np.exp(rng.uniform(-0.15, 0.15, ks.size))
    joint = _quadrature_roots(couplings, cutoff, guesses)
    alone = [
        _quadrature_root_alone(u0, cutoff, g)
        for u0, g in zip(couplings.tolist(), guesses.tolist())
    ]
    assert [v.hex() for v in joint.tolist()] == [v.hex() for v in alone]


def test_delta_coupling_suite_takes_one_kronrod_pass_per_newton_step(monkeypatch):
    # each evaluation of the joint solve, the bracket check and then every
    # Newton step, is one cutoff_integral call with one array pass of the
    # Kronrod rule over the panels of all its lanes; the per-coupling loop
    # made 63 cutoff_integral calls
    evaluations, passes = [], []
    solve, rule = verify.solve_in_brackets, boundstate.gauss_kronrod_15

    def counted_solve(value_and_slope, edges, start):
        def counted(x, lanes):
            evaluations.append(x.size)
            return value_and_slope(x, lanes)

        return solve(counted, edges, start)

    def counted_rule(f, a, b):
        passes.append(np.size(a))
        return rule(f, a, b)

    monkeypatch.setattr(verify, "solve_in_brackets", counted_solve)
    monkeypatch.setattr(boundstate, "gauss_kronrod_15", counted_rule)
    assert all(r.passed for r in verify.suite_delta_coupling())
    assert evaluations[0] == 40  # both ends of the 20 brackets at once
    assert len(passes) == len(evaluations) <= 4


def test_sommerfeld_suite_makes_one_quadrature_call(monkeypatch):
    calls = []
    real = specfun.sommerfeld_j0_components

    def counted(kr):
        calls.append(np.shape(kr))
        return real(kr)

    monkeypatch.setattr(specfun, "sommerfeld_j0_components", counted)
    assert all(r.passed for r in verify.suite_sommerfeld())
    assert calls == [(102,)]


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
    j01 = cylinder_rows(CylinderFamily.BESSEL_J, xs, 2)
    y012 = cylinder_rows(CylinderFamily.NEUMANN_Y, xs, 3)
    k012 = cylinder_rows(CylinderFamily.MODIFIED_K, xs, 3)
    for m in (0, 1):
        np.testing.assert_array_equal(j01[m], besselj(m, xs))
        np.testing.assert_array_equal(y012[m], bessely(m, xs))
        np.testing.assert_array_equal(k012[m], besselk(m, xs))
    np.testing.assert_array_equal(y012[2], bessely(2, xs))
    np.testing.assert_array_equal(k012[2], besselk(2, xs))


def test_wronskian_suite_runs_one_pass_per_family(monkeypatch):
    # counted like test_zero_finder_makes_no_array_miller_pass: a call per
    # order ran 9 Miller passes, 6 log-series passes, 3 trapezoids and 6
    # Hankel evaluations; now each regime's array kernel runs once per
    # family, J and I taking orders 0 to 2 from one pass
    calls = collections.Counter()

    def counted(key, fn):
        def run(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return run

    for family, (switches, routes, sign) in list(specfun._FAMILIES.items()):
        spied = tuple((counted((family, i), k), lane) for i, (k, lane) in enumerate(routes))
        monkeypatch.setitem(specfun._FAMILIES, family, (switches, spied, sign))
    for name in ("_miller_array", "_hankel01"):
        monkeypatch.setattr(specfun, name, counted(name, getattr(specfun, name)))
    assert all(r.passed for r in verify.suite_wronskians())
    assert calls.pop("_miller_array") == 3
    assert calls.pop("_hankel01") == 2
    # one pass in each regime that [0.1, 50] reaches: three each for J, Y
    # and K, two for I
    assert list(calls.values()) == [1] * 11


def test_radial_suite_computes_each_kernel_value_once(monkeypatch):
    # no K pass on the coarse matching grids, whose closed form is a slice
    # of the fine one; one K_0, K_1 pass per laplacian wavenumber; one
    # coefficient build for each of the Wronskian pair's two marches
    k_passes, builds = [], []
    regimes, potential = specfun._regimes, radial.eval_potential
    k_routes = specfun._FAMILIES[CylinderFamily.MODIFIED_K][1]

    def regime_spy(x, switches, routes, ms):
        if routes is k_routes:
            k_passes.append((np.size(x), len(ms)))
        return regimes(x, switches, routes, ms)

    def potential_spy(spec, r):
        builds.append((r.size, float(r[0])))
        return potential(spec, r)

    monkeypatch.setattr(specfun, "_regimes", regime_spy)
    monkeypatch.setattr(radial, "eval_potential", potential_spy)
    assert all(r.passed for r in suite_radial())
    sizes = [size for size, _ in k_passes]
    assert 5001 not in sizes and 10001 not in sizes
    assert [p for size, p in k_passes if size == 2001] == [2, 2]
    assert builds.count((20001, 0.5)) == 2


@pytest.mark.parametrize("h", [2e-3, 4e-3])
def test_match_grid_slices_are_the_closed_form_on_the_coarse_grids(h):
    fine = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, 1.0, _match_grid(1e-3))
    ana, num = _decaying_match(h, fine)
    want = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, 1.0, _match_grid(h))
    assert ana.grid == want.grid
    np.testing.assert_array_equal(ana.grid.points, want.grid.points)
    np.testing.assert_array_equal(ana.values, want.values)
    np.testing.assert_array_equal(num.values, _decaying_match(h)[1].values)
    # a fine wave whose points are not this grid's at any stride is not sliced
    other_grid = RadialGrid(0.05, 20.0501, 20001)
    other = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, 1.0, other_grid)
    np.testing.assert_array_equal(_decaying_match(h, other)[0].values, want.values)


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
