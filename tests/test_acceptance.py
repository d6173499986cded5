"""Acceptance gate: every headline claim at its stated tolerance.

Each criterion is one test. Each prints exactly one line of the form

    [acceptance] <name>: PASS|FAIL (<worst error vs tolerance>) [<time>]

directly to the terminal (bypassing capture, so the line always shows in
the run log) and then asserts, so a failing criterion both reports and
fails. Time budgets are part of the contract and are asserted alongside
the numerical tolerances. Several criteria reuse the library's own
verification suites; in those cases the test first pins the suite's
tolerance to the value promised here, so the gate cannot drift loose.
"""

import time
from random import Random

import pytest
from scipy.integrate import quad

from anticentrifugal.cli import main
from anticentrifugal.potentials import (
    EffectivePotentialSpec,
    PotentialFamily,
    SignClass,
    classify_potential,
)
from anticentrifugal.specfun import besselj, besselk, sommerfeld_j0
from anticentrifugal.verify import (
    suite_delta_coupling,
    suite_density_geometry,
    suite_nodes,
    suite_normalization,
    suite_radial,
    suite_wronskians,
)


@pytest.fixture
def reporter(capsys):
    def _report(name, ok, detail, elapsed, budget=None):
        within = budget is None or elapsed < budget
        status = "PASS" if (ok and within) else "FAIL"
        timing = f"[{elapsed:.2f}s]" if budget is None else f"[{elapsed:.2f}s / {budget:g}s budget]"
        with capsys.disabled():
            print(f"[acceptance] {name}: {status} ({detail}) {timing}")
        assert ok, f"{name}: {detail}"
        assert within, f"{name}: exceeded time budget, {elapsed:.2f}s >= {budget}s"

    return _report


def by_name(results):
    return {r.name: r for r in results}


def test_criterion_1_ring_normalization_quadrature(reporter):
    """The planar ground-state weight integrates to one: 2 int xi K0(xi)^2 dxi = 1."""
    t0 = time.perf_counter()
    value, _ = quad(
        lambda t: 2.0 * t * besselk(0, t) ** 2, 0.0, 40.0, epsabs=1e-15, epsrel=1e-13, limit=200
    )
    elapsed = time.perf_counter() - t0
    err = abs(value - 1.0)
    reporter("ring-normalization", err <= 1e-8,
             f"|integral - 1| = {err:.3e} vs 1e-08", elapsed, budget=1.0)


def test_criterion_2_wronskian_identities(reporter):
    """J/Y and I/K Wronskians hold to 1e-10 on 1000 points of [0.1, 50]."""
    t0 = time.perf_counter()
    results = suite_wronskians()
    elapsed = time.perf_counter() - t0
    assert all(r.tolerance == 1e-10 for r in results)
    worst = max(r.max_error for r in results)
    reporter("wronskian-identities", all(r.passed for r in results),
             f"worst defect {worst:.3e} vs 1e-10", elapsed, budget=1.0)


def test_criterion_3_sommerfeld_interference(reporter):
    """256-point angular quadrature reproduces series J0 to 1e-10 on
    100 random arguments in [0, 20]."""
    t0 = time.perf_counter()
    rng = Random(20240815)
    worst = 0.0
    for _ in range(100):
        kr = rng.uniform(0.0, 20.0)
        worst = max(worst, abs(sommerfeld_j0(kr) - besselj(0, kr)))
    elapsed = time.perf_counter() - t0
    reporter("sommerfeld-vs-series", worst <= 1e-10,
             f"worst gap {worst:.3e} vs 1e-10", elapsed, budget=1.0)


def test_criterion_4_node_bunching_statistics(reporter):
    """Order-0 densities exceed one and fall, order-1 densities sit below
    one and rise (20 intervals, both families); spacings 50-51 are within
    1e-3 of pi; the singular family bunches harder than the regular one."""
    t0 = time.perf_counter()
    results = by_name(suite_nodes())
    elapsed = time.perf_counter() - t0
    assert results["node-bunching"].tolerance == 0.0
    assert results["spacing-approaches-pi"].tolerance == 1e-3
    ok = all(r.passed for r in results.values())
    detail = (f"max monotonicity violation {results['node-bunching'].max_error:.3e}, "
              f"|spacing(50) - pi| worst {results['spacing-approaches-pi'].max_error:.3e} vs 1e-03")
    reporter("node-bunching", ok, detail, elapsed, budget=5.0)


def test_criterion_5_radial_integration_accuracy(reporter):
    """Numerov at h = 1e-3 matches both closed-form branches to 1e-6,
    the five-point residual stays below 1e-5, and the convergence order
    is 4 +/- 0.2."""
    t0 = time.perf_counter()
    results = by_name(suite_radial())
    elapsed = time.perf_counter() - t0
    needed = {
        "radial-match-decaying": 1e-6,
        "radial-match-oscillatory": 1e-6,
        "radial-residual": 1e-5,
        "radial-convergence-order": 0.2,
    }
    for name, tol in needed.items():
        assert results[name].tolerance == tol, name
    ok = all(results[name].passed for name in needed)
    match_worst = max(results["radial-match-decaying"].max_error,
                      results["radial-match-oscillatory"].max_error)
    detail = (f"match {match_worst:.3e} vs 1e-06, "
              f"residual {results['radial-residual'].max_error:.3e} vs 1e-05, "
              f"|order - 4| = {results['radial-convergence-order'].max_error:.3f} vs 0.2")
    reporter("radial-integration", ok, detail, elapsed, budget=5.0)


def test_criterion_6_density_geometry_and_normalization(reporter):
    """The ring weight vanishes at the origin and has a unique interior
    maximum with stationarity defect below 1e-10; line and spatial weights
    peak at the origin; every dimension's normalization is 1 within 1e-8,
    one total per dimension, since the total is scale-free in k."""
    t0 = time.perf_counter()
    geo = by_name(suite_density_geometry())
    norm = by_name(suite_normalization())
    elapsed = time.perf_counter() - t0
    assert geo["ring-peak-stationarity"].tolerance == 1e-10
    assert norm["density-normalization"].tolerance == 1e-8
    needed = ["ring-node-and-unimodality", "ring-peak-stationarity", "density-maxima"]
    ok = all(geo[name].passed for name in needed) and norm["density-normalization"].passed
    detail = (f"stationarity {geo['ring-peak-stationarity'].max_error:.3e} vs 1e-10, "
              f"normalization {norm['density-normalization'].max_error:.3e} vs 1e-08")
    reporter("density-geometry", ok, detail, elapsed, budget=2.0)


def test_criterion_7_coupling_relation_two_routes(reporter):
    """Closed-form planar wavenumber agrees with the quadrature root to
    1e-10 relative over 20 couplings in [0.1, 100]; the coupling round
    trip closes to 1e-12."""
    t0 = time.perf_counter()
    results = by_name(suite_delta_coupling())
    elapsed = time.perf_counter() - t0
    assert results["delta-coupling-root"].tolerance == 1e-10
    assert results["delta-coupling-roundtrip"].tolerance == 1e-12
    ok = all(r.passed for r in results.values())
    detail = (f"root gap {results['delta-coupling-root'].max_error:.3e} vs 1e-10, "
              f"round trip {results['delta-coupling-roundtrip'].max_error:.3e} vs 1e-12")
    reporter("coupling-two-routes", ok, detail, elapsed, budget=2.0)


def test_criterion_8_dimension_sign_pattern(reporter):
    """classify(N) gives vanishing, attractive, vanishing, then repulsive
    for every N from 1 through 20, with no tolerance at all."""
    t0 = time.perf_counter()
    expected = {1: SignClass.VANISHING, 2: SignClass.ATTRACTIVE, 3: SignClass.VANISHING}
    mismatches = []
    for n in range(1, 21):
        spec = EffectivePotentialSpec(PotentialFamily.ZERO_MOMENTUM_NDIM, n_dim=n)
        if classify_potential(spec) is not expected.get(n, SignClass.REPULSIVE):
            mismatches.append(n)
    elapsed = time.perf_counter() - t0
    reporter("dimension-sign-pattern", not mismatches,
             f"mismatches at N = {mismatches or 'none'}", elapsed, budget=0.5)


def test_criterion_9_byte_determinism(reporter, capsys):
    """Two runs of every subcommand, including the full verification
    report, produce byte-identical output."""
    commands = [
        ["potential", "--family", "ndim", "--N", "2", "--n-points", "50"],
        ["potential", "--family", "twodim", "--m", "2", "--format", "json", "--n-points", "20"],
        ["wavefunction", "--k", "0.7628739783668902", "--n-points", "200"],
        ["nodes", "--n-max", "8"],
        ["nodes", "--n-max", "8", "--format", "json"],
        ["boundstate", "--dimension", "2", "--coupling", "12.566370614359172",
         "--cutoff", "1.0"],
        ["verify"],
    ]
    t0 = time.perf_counter()
    stable = True
    unstable = []
    for argv in commands:
        rc1 = main(list(argv))
        first = capsys.readouterr().out
        rc2 = main(list(argv))
        second = capsys.readouterr().out
        if not (rc1 == rc2 == 0 and first == second and first):
            stable = False
            unstable.append(argv[0])
    elapsed = time.perf_counter() - t0
    reporter("byte-determinism", stable,
             f"unstable commands: {unstable or 'none'}", elapsed)
