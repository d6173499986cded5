"""Tests for the half-power radial equation module.

Conventions under test: hbar = M = 1, energy E = +/- k^2/2, and the
half-power substitution u(r) = sqrt(r) * Phi(r) turning the planar m = 0
problem into u'' = (v(r) - 2E) u with v(r) = -1/(4 r^2) in units of
hbar^2/(2M).
"""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from anticentrifugal import radial
from anticentrifugal.potentials import EffectivePotentialSpec, PotentialFamily, default_grid
from anticentrifugal.radial import (
    Direction,
    EnergySign,
    RadialGrid,
    RadialWave,
    SolutionFamily,
    analytic_radial,
    five_point_derivatives,
    integrate_radial,
    laplacian_reduction_check,
    ode_residual,
)
from anticentrifugal.specfun import (
    CylinderFamily,
    besseli,
    besselj,
    besselk,
    bessely,
    cylinder_rows,
)

QUANTUM_ANTI = EffectivePotentialSpec(PotentialFamily.QUANTUM_ANTICENTRIFUGAL)

_SCALAR_EVAL = {
    SolutionFamily.OSCILLATORY_REGULAR: besselj,
    SolutionFamily.OSCILLATORY_SINGULAR: bessely,
    SolutionFamily.GROWING_MODIFIED: besseli,
    SolutionFamily.DECAYING_MODIFIED: besselk,
}


# ---------------------------------------------------------------------------
# grid plumbing

def test_grid_spacing_and_endpoints():
    grid = RadialGrid(0.5, 10.5, 11)
    assert grid.spacing == 1.0
    pts = grid.points
    assert pts[0] == 0.5
    assert pts[-1] == 10.5
    assert len(pts) == 11


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 1.0, 10)
    with pytest.raises(ValueError):
        RadialGrid(2.0, 1.0, 10)
    with pytest.raises(ValueError):
        RadialGrid(1.0, 2.0, 2)
    with pytest.raises(TypeError):
        RadialGrid(1.0, 2.0, 10.0)


def test_default_grid_scales_with_wavenumber():
    grid = default_grid(2.0)
    assert grid.r_min == 0.025
    assert grid.r_max == 10.0
    assert grid.n_points == 2000
    with pytest.raises(ValueError):
        default_grid(0.0)


# ---------------------------------------------------------------------------
# energy bookkeeping

def _wavenumber_of(energy):
    # the wavenumber a Numerov run records for its energy
    return integrate_radial(QUANTUM_ANTI, energy, RadialGrid(1.0, 2.0, 3), (1.0, 1.0)).wavenumber


def test_wavenumber_from_energy():
    assert _wavenumber_of(-0.5) == 1.0
    assert _wavenumber_of(2.0) == 2.0
    with pytest.raises(ValueError):
        _wavenumber_of(0.0)


@given(k=st.floats(min_value=1e-6, max_value=1e3), sign=st.sampled_from([1.0, -1.0]))
def test_energy_round_trip(k, sign):
    assert _wavenumber_of(sign * 0.5 * k * k) == pytest.approx(k, rel=1e-15)


# ---------------------------------------------------------------------------
# wave container invariants

def _wave(family, sign):
    grid = RadialGrid(1.0, 2.0, 5)
    return RadialWave(grid, np.ones(5), 1.0, sign, family)


def test_branch_energy_sign_pairing_enforced():
    for family in (SolutionFamily.OSCILLATORY_REGULAR, SolutionFamily.OSCILLATORY_SINGULAR):
        with pytest.raises(ValueError, match="oscillatory branches carry positive energy only"):
            _wave(family, EnergySign.NEGATIVE)
        _wave(family, EnergySign.POSITIVE)
    for family in (SolutionFamily.DECAYING_MODIFIED, SolutionFamily.GROWING_MODIFIED):
        with pytest.raises(ValueError, match="modified branches carry negative energy only"):
            _wave(family, EnergySign.POSITIVE)
        _wave(family, EnergySign.NEGATIVE)
    # a numeric wave carries either sign
    for sign in EnergySign:
        _wave(SolutionFamily.NUMERIC, sign)


def test_wave_shape_must_match_grid():
    grid = RadialGrid(1.0, 2.0, 5)
    with pytest.raises(ValueError):
        RadialWave(grid, np.ones(4), 1.0, EnergySign.POSITIVE,
                   SolutionFamily.OSCILLATORY_REGULAR)


# ---------------------------------------------------------------------------
# analytic branches

def test_analytic_decaying_value():
    grid = RadialGrid(1.0, 2.0, 3)
    wave = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, 1.0, grid)
    assert wave.values[0] == pytest.approx(oracles.K0_AT_1, rel=1e-13)
    assert wave.energy_sign is EnergySign.NEGATIVE


def test_analytic_regular_branch_vanishes_like_sqrt_r():
    grid = RadialGrid(1e-8, 1.0, 101)
    wave = analytic_radial(SolutionFamily.OSCILLATORY_REGULAR, 0, 1.0, grid)
    assert wave.values[0] / math.sqrt(1e-8) == pytest.approx(1.0, abs=1e-14)


def test_analytic_rejects_numeric_family_and_bad_wavenumber():
    grid = RadialGrid(1.0, 2.0, 3)
    with pytest.raises(ValueError):
        analytic_radial(SolutionFamily.NUMERIC, 0, 1.0, grid)
    with pytest.raises(ValueError):
        analytic_radial(SolutionFamily.OSCILLATORY_REGULAR, 0, -1.0, grid)


# ---------------------------------------------------------------------------
# Numerov integration

def test_zero_seeds_stay_zero():
    grid = RadialGrid(0.5, 5.0, 100)
    wave = integrate_radial(QUANTUM_ANTI, 0.5, grid, (0.0, 0.0))
    assert np.all(wave.values == 0.0)
    assert wave.family is SolutionFamily.NUMERIC


def test_outward_march_tracks_oscillatory_branch():
    k = 1.0
    grid = RadialGrid(0.05, 20.05, 5001)
    exact = analytic_radial(SolutionFamily.OSCILLATORY_REGULAR, 0, k, grid)
    seeds = (exact.values[0], exact.values[1])
    wave = integrate_radial(QUANTUM_ANTI, 0.5 * k * k, grid, seeds, Direction.OUTWARD)
    err = np.max(np.abs(wave.values - exact.values)) / np.max(np.abs(exact.values))
    assert err <= 1e-5


def test_inward_march_tracks_decaying_branch():
    k = 1.0
    grid = RadialGrid(0.05, 20.05, 5001)
    exact = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, k, grid)
    seeds = (exact.values[-1], exact.values[-2])
    wave = integrate_radial(QUANTUM_ANTI, -0.5 * k * k, grid, seeds, Direction.INWARD)
    rel = np.max(np.abs(wave.values - exact.values) / np.abs(exact.values))
    assert rel <= 1e-5


@pytest.mark.parametrize("family, mp_fn", [
    (SolutionFamily.DECAYING_MODIFIED, mp.besselk),
    (SolutionFamily.GROWING_MODIFIED, mp.besseli),
], ids=["K", "I"])
@pytest.mark.parametrize("m", [1, 2])
def test_modified_waves_exist_at_every_order(family, mp_fn, m):
    # sqrt(r) K_m(k r) and sqrt(r) I_m(k r) solve the planar equation at
    # E = -k^2/2 for every order m (DLMF 10.25); only the bound state
    # needs m = 0
    k = 1.3
    grid = RadialGrid(0.05, 20.05, 21)
    wave = analytic_radial(family, m, k, grid)
    assert wave.energy_sign is EnergySign.NEGATIVE and wave.wavenumber == k
    r = grid.points.tolist()
    want = [float(mp.sqrt(v) * mp_fn(m, k * v)) for v in r]
    np.testing.assert_allclose(wave.values, want, rtol=1e-14, atol=0.0)


def test_inward_march_tracks_the_decaying_wave_at_order_1():
    # the planar m = 1 equation at E = -k^2/2, seeded from sqrt(r) K_1(k r)
    # at the far end; the error falls as h^4
    k = 1.0
    spec = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=1)
    errors = []
    for n in (5001, 20001):
        grid = RadialGrid(0.05, 20.05, n)
        exact = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 1, k, grid)
        seeds = (exact.values[-1], exact.values[-2])
        wave = integrate_radial(spec, -0.5 * k * k, grid, seeds, Direction.INWARD)
        errors.append(np.max(np.abs(wave.values - exact.values) / np.abs(exact.values)))
    assert errors[1] <= 1e-6
    assert errors[0] / errors[1] >= 0.75 * 4.0**4


def test_outward_march_into_growing_region_overflows():
    # with strongly negative energy the growing branch amplifies any
    # rounding noise; marching outward far enough must trip the guard
    grid = RadialGrid(0.1, 400.0, 40000)
    with pytest.raises(OverflowError):
        integrate_radial(QUANTUM_ANTI, -450.0, grid, (1e-3, 2e-3), Direction.OUTWARD)


def test_integration_input_validation():
    grid = RadialGrid(0.5, 5.0, 50)
    with pytest.raises(ValueError):
        integrate_radial(QUANTUM_ANTI, 0.0, grid, (0.0, 1.0))
    with pytest.raises(ValueError):
        integrate_radial(QUANTUM_ANTI, 0.5, grid, (math.nan, 1.0))


def _numerov_reference(spec, energy, grid, seeds, direction):
    """The march as a per-step float loop that recomputes every coefficient
    and checks each new sample at once: the operations integrate_radial
    must reproduce bit for bit."""
    n = grid.n_points
    r = grid.points
    f = (radial.eval_potential(spec, r) - 2.0 * energy).tolist()
    c = grid.spacing ** 2 / 12.0
    u = [0.0] * n
    if direction is Direction.OUTWARD:
        order_idx, step = range(1, n - 1), 1
        u[0], u[1] = seeds
    else:
        order_idx, step = range(n - 2, 0, -1), -1
        u[n - 1], u[n - 2] = seeds
    for i in order_idx:
        nxt, prv = i + step, i - step
        num = (2.0 + 10.0 * c * f[i]) * u[i] - (1.0 - c * f[prv]) * u[prv]
        u[nxt] = num / (1.0 - c * f[nxt])
        if abs(u[nxt]) > 1e250:
            raise OverflowError(
                f"radial solution exceeded 1e+250 at r = {r[nxt]:.6g}; "
                "the growing branch dominates this integration direction"
            )
    return np.array(u)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowError as exc:
        return str(exc)


#: Samples 0, 1, 2, 10000, 19998, 19999 and 20000 of the inward K0 and the
#: outward J0 march at k = 1 on verify's 20001-point matching grid.
_PINNED_K0 = (0.6963638981847627, 0.6988415457238372, 0.7012527107804449,
              5.3486381662599646e-05, 2.4472627323158266e-09, 2.444817417880019e-09,
              2.442374546741282e-09)
_PINNED_J0 = (0.22346706533647018, 0.22568497255760822, 0.22788095935124789,
              -0.7855570585577074, 0.7326510833342225, 0.7323349643769058,
              0.732018112629211)


@pytest.mark.parametrize("family, energy, direction, pinned", [
    (SolutionFamily.DECAYING_MODIFIED, -0.5, Direction.INWARD, _PINNED_K0),
    (SolutionFamily.OSCILLATORY_REGULAR, 0.5, Direction.OUTWARD, _PINNED_J0),
])
def test_numerov_march_is_bit_identical_to_the_float_loop(family, energy, direction, pinned):
    grid = RadialGrid(0.05, 20.05, 20001)
    exact = analytic_radial(family, 0, 1.0, grid).values
    at = (0, 1) if direction is Direction.OUTWARD else (-1, -2)
    seeds = (float(exact[at[0]]), float(exact[at[1]]))
    wave = integrate_radial(QUANTUM_ANTI, energy, grid, seeds, direction).values
    assert np.array_equal(wave, _numerov_reference(QUANTUM_ANTI, energy, grid, seeds, direction))
    assert wave[[0, 1, 2, 10000, 19998, 19999, 20000]].tolist() == list(pinned)


@pytest.mark.parametrize("direction, radius", [
    (Direction.OUTWARD, "20.17"),
    (Direction.INWARD, "0.83"),
])
def test_numerov_overflow_radius_and_message(direction, radius):
    grid = RadialGrid(0.5, 20.5, 2001)
    args = (QUANTUM_ANTI, -450.0, grid, (1e-6, 1.1e-6), direction)
    want = (
        f"radial solution exceeded 1e+250 at r = {radius}; "
        "the growing branch dominates this integration direction"
    )
    assert _outcome(integrate_radial, *args) == want
    assert _outcome(_numerov_reference, *args) == want


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("n_points", [3, 5])
@pytest.mark.parametrize("seeds", [(3e250, 2e250), (1e260, 1e260), (0.0, 1e300)])
def test_numerov_seeds_past_the_limit_are_not_checked(direction, n_points, seeds):
    # only marched samples count: on 3 points the (3e250, 2e250) march
    # ends below the limit and returns, on 5 points it overflows later
    grid = RadialGrid(0.5, 1.0, n_points)
    args = (QUANTUM_ANTI, 0.5, grid, seeds, direction)
    got, want = _outcome(integrate_radial, *args), _outcome(_numerov_reference, *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got.values, want)
    if seeds == (3e250, 2e250) and n_points == 3:
        assert not isinstance(got, str)


def test_numerov_overflow_is_reported_before_a_later_division_by_zero(monkeypatch):
    # past the first overflow the march runs on; a zero coefficient 1 - c f
    # further along must not replace the overflow error
    grid = RadialGrid(1.0, 2.0, 31)
    c = grid.spacing ** 2 / 12.0
    pole = 1.0 / c
    while 1.0 - c * pole != 0.0:
        pole = math.nextafter(pole, math.inf)
    # next to the pole each step grows u about 1e16-fold
    f = np.full(31, math.nextafter(pole, 0.0))
    f[25] = pole
    monkeypatch.setattr(radial, "eval_potential", lambda spec, r: f + 2.0 * 0.5)
    args = (QUANTUM_ANTI, 0.5, grid, (1.0, 1.0), Direction.OUTWARD)
    with pytest.raises(OverflowError, match=r"at r = 1\.[0-7]"):
        integrate_radial(*args)
    with pytest.raises(OverflowError, match=r"at r = 1\.[0-7]"):
        _numerov_reference(QUANTUM_ANTI, 0.5, grid, (1.0, 1.0), Direction.OUTWARD)


def _index_loop_reference(spec, energy, grid, seeds, direction):
    """The march as an index loop over the full-length sample list, one
    branch per direction, with growth checked at the end and before a
    division by zero: the form integrate_radial had before its march went
    over zipped lists, kept to pin that it is bit for bit the same."""
    n = grid.n_points
    r = grid.points
    f = radial.eval_potential(spec, r) - 2.0 * energy
    c = grid.spacing ** 2 / 12.0
    with np.errstate(over="ignore", invalid="ignore"):
        a = (2.0 + 10.0 * c * f).tolist()
        g = (1.0 - c * f).tolist()
    u = [0.0] * n
    if direction is Direction.OUTWARD:
        order_idx = range(1, n - 1)
        u[0], u[1] = float(seeds[0]), float(seeds[1])
        step = 1
        marched = np.arange(2, n)
    else:
        order_idx = range(n - 2, 0, -1)
        u[n - 1], u[n - 2] = float(seeds[0]), float(seeds[1])
        step = -1
        marched = np.arange(n - 3, -1, -1)

    def check_growth():
        values = np.array(u)
        grown = np.abs(values[marched]) > 1e250
        if grown.any():
            raise OverflowError(
                f"radial solution exceeded 1e+250 at r = {r[marched[np.argmax(grown)]]:.6g}; "
                "the growing branch dominates this integration direction"
            )
        return values

    try:
        for i in order_idx:
            u[i + step] = (a[i] * u[i] - g[i - step] * u[i - step]) / g[i + step]
    except ZeroDivisionError:
        check_growth()
        raise
    return check_growth()


def _march_outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _assert_same_march(*args):
    got = _march_outcome(lambda *a: integrate_radial(*a).values, *args)
    want = _march_outcome(_index_loop_reference, *args)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("grid", [
    RadialGrid(0.05, 20.05, 20001),
    RadialGrid(0.5, 20.5, 2001),
    RadialGrid(1e-3, 3.0, 3),
    RadialGrid(1e-3, 3.0, 4),
    RadialGrid(2.0, 2.5, 97),
])
@pytest.mark.parametrize("energy", [-450.0, -0.5, 2e-3, 80.0])
@pytest.mark.parametrize("seeds", [(1e-6, 1.1e-6), (0.7, -0.2), (0.0, 1e300)])
def test_numerov_march_is_bit_identical_to_the_index_loop(direction, grid, energy, seeds):
    _assert_same_march(QUANTUM_ANTI, energy, grid, seeds, direction)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("pole_at, fill", [
    (25, "near"), (17, "near"), (13, "near"), (5, "near"), (25, "flat"), (5, "flat"),
])
def test_numerov_zero_coefficient_matches_the_index_loop(monkeypatch, direction, pole_at, fill):
    # a zero 1 - c f raises ZeroDivisionError, unless a sample marched
    # before it overflowed; next to the pole each step grows u about
    # 1e16-fold, on a flat f it grows slowly.  Poles at 17 and 13 sit one
    # step past the first overflow, outward and inward
    grid = RadialGrid(1.0, 2.0, 31)
    c = grid.spacing ** 2 / 12.0
    pole = 1.0 / c
    while 1.0 - c * pole != 0.0:
        pole = math.nextafter(pole, math.inf)
    f = np.full(31, math.nextafter(pole, 0.0) if fill == "near" else 1.0)
    f[pole_at] = pole
    monkeypatch.setattr(radial, "eval_potential", lambda spec, r: f + 2.0 * 0.5)
    args = (QUANTUM_ANTI, 0.5, grid, (1.0, 1.0), direction)
    want = _march_outcome(_index_loop_reference, *args)
    assert isinstance(want, tuple)
    assert _march_outcome(lambda *a: integrate_radial(*a).values, *args) == want


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("seeds", [(0.0, 1.0), (1.0, 1.0)])
def test_numerov_refuses_coefficients_that_are_not_finite(direction, seeds):
    # r^2 underflows at r = 1e-200, so V and the coefficients are infinite
    # there: the outward march gave nan samples, the inward one a silent 0.0
    spec = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE)
    grid = RadialGrid(1e-200, 1.0, 5)
    with pytest.raises(ValueError, match=r"^the Numerov coefficients are not finite at r = 1e-200$"):
        integrate_radial(spec, -0.5, grid, seeds, direction)


@pytest.mark.parametrize("direction, radius", [(Direction.OUTWARD, "1.25"), (Direction.INWARD, "1.75")])
def test_numerov_overflow_to_nan_is_reported(direction, radius):
    # at m = 1e150 every coefficient is finite, near 1e298, but a u and
    # g u overflow to infinities of one sign, whose difference is nan
    spec = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=10**150)
    with pytest.raises(OverflowError, match=rf"exceeded 1e\+250 at r = {radius};"):
        integrate_radial(spec, -0.5, RadialGrid(1.0, 2.0, 9), (1e20, -1e20), direction)


# ---------------------------------------------------------------------------
# residual diagnostics

@pytest.mark.parametrize("family, sign", [
    (SolutionFamily.OSCILLATORY_REGULAR, 1.0),
    (SolutionFamily.OSCILLATORY_SINGULAR, 1.0),
    (SolutionFamily.DECAYING_MODIFIED, -1.0),
    (SolutionFamily.GROWING_MODIFIED, -1.0),
])
def test_analytic_branches_satisfy_the_equation(family, sign):
    k = 1.0
    grid = RadialGrid(0.5, 10.0, 9501)
    wave = analytic_radial(family, 0, k, grid)
    res = ode_residual(wave, QUANTUM_ANTI, sign * 0.5 * k * k)
    scale = float(np.max(np.abs(wave.values)))
    assert res / scale <= 1e-5


def test_zero_wave_has_zero_residual():
    grid = RadialGrid(0.5, 5.0, 100)
    wave = integrate_radial(QUANTUM_ANTI, 0.5, grid, (0.0, 0.0))
    assert ode_residual(wave, QUANTUM_ANTI, 0.5) == 0.0


@pytest.mark.parametrize(
    "family, order",
    [
        (SolutionFamily.OSCILLATORY_REGULAR, 0),
        (SolutionFamily.OSCILLATORY_REGULAR, 1),
        (SolutionFamily.OSCILLATORY_SINGULAR, 0),
        (SolutionFamily.OSCILLATORY_SINGULAR, 1),
        (SolutionFamily.GROWING_MODIFIED, 0),
        (SolutionFamily.GROWING_MODIFIED, 2),
        (SolutionFamily.DECAYING_MODIFIED, 0),
        (SolutionFamily.DECAYING_MODIFIED, 1),
    ],
)
def test_analytic_radial_matches_pointwise_evaluation(family, order):
    """The grid-wide evaluation agrees with one scalar call per point:
    exactly for J, Y and I, to the rounding of numpy's exp for K."""
    grid = RadialGrid(0.05, 30.05, 3001)
    k = 1.7
    got = analytic_radial(family, order, k, grid).values
    fn = _SCALAR_EVAL[family]
    want = np.array([math.sqrt(r) * fn(order, k * r) for r in grid.points.tolist()])
    if family is SolutionFamily.DECAYING_MODIFIED:
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15
    else:
        np.testing.assert_array_equal(got, want)


def test_polar_residual_rejects_short_grid():
    with pytest.raises(ValueError, match="at least 5 grid points"):
        laplacian_reduction_check(1.0, RadialGrid(1.0, 2.0, 4))


def test_residual_needs_five_points():
    grid = RadialGrid(1.0, 2.0, 4)
    wave = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, 1.0, grid)
    with pytest.raises(ValueError):
        ode_residual(wave, QUANTUM_ANTI, -0.5)


def _polar_defect(m, k, grid, phi):
    """Phi'' + Phi'/r - (m^2/r^2 + k^2) Phi on the interior points, for
    samples phi of K_m(k r) on the grid, with five-point derivatives."""
    rc = grid.points[2:-2]
    d1, d2 = five_point_derivatives(phi, grid.spacing)
    return d2 + d1 / rc - (m * m / (rc * rc) + k * k) * phi[2:-2]


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_polar_and_half_power_forms_agree(k):
    grid = RadialGrid(0.5, 10.0, 2001)
    defect = laplacian_reduction_check(k, grid)
    assert defect <= 1e-5
    direct = max(
        np.max(np.abs(_polar_defect(m, k, grid, besselk(m, k * grid.points)))) for m in (0, 1)
    )
    assert direct == pytest.approx(defect)


@pytest.mark.parametrize("grid", [RadialGrid(0.5, 10.0, 2001), RadialGrid(0.05, 30.0, 3001)])
@pytest.mark.parametrize("k", [0.3, 1.0, 2.0, 7.0])
def test_reduction_check_on_shared_rows_is_the_per_order_check(grid, k):
    # the check takes K_0 and K_1 from one pass; on arguments below 705
    # they are besselk's values, and its result is the worse of the two
    # defects that besselk's values give, bit for bit
    rows = cylinder_rows(CylinderFamily.MODIFIED_K, k * grid.points, 2)
    per_order = []
    for m in (0, 1):
        phi = besselk(m, k * grid.points)
        np.testing.assert_array_equal(rows[m], phi)
        per_order.append(float(np.max(np.abs(_polar_defect(m, k, grid, phi)))))
    assert laplacian_reduction_check(k, grid).hex() == max(per_order).hex()


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf, 1e-320, 1e300])
def test_reduction_check_refuses_a_wavenumber_off_its_domain(k):
    # K_m(k r) for a subnormal k r overflows or has lost its digits, and
    # past k^2 = inf the defect was inf * 0 = nan, with a warning
    with pytest.raises(ValueError, match="k r_min normal and k\\^2 finite"):
        laplacian_reduction_check(k, RadialGrid(0.5, 10.0, 21))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", range(300, 309))
def test_reduction_check_is_finite_or_refuses_k_as_k1_nears_overflow(exponent):
    # K_1(k r_min) nears the double range as k falls: at k = 1e-307 the
    # stencils overflowed, with a RuntimeWarning, and the defect was inf
    k = 10.0 ** -exponent
    grid = RadialGrid(0.5, 10.0, 21)
    if exponent < 307:
        assert math.isfinite(laplacian_reduction_check(k, grid))
    else:
        with pytest.raises(ValueError, match=re.escape(f"k = {k!r}") + "$"):
            laplacian_reduction_check(k, grid)


def test_reduction_check_ignores_underflow_under_any_seterr_setting():
    # at k r from 1e0 to 1e200 the stencils underflow, which raised under
    # np.errstate(all="raise") while the default setting returned 0.0
    grid = RadialGrid(1e100, 1e300, 21)
    want = laplacian_reduction_check(1e-100, grid)
    with np.errstate(all="raise"):
        assert laplacian_reduction_check(1e-100, grid).hex() == want.hex() == (0.0).hex()


@pytest.mark.parametrize("direction", list(Direction))
def test_non_finite_seeds_are_refused(direction):
    grid = RadialGrid(0.5, 20.5, 4001)
    with pytest.raises(ValueError, match=r"seed values must be finite, got \(1.0, nan\)"):
        integrate_radial(QUANTUM_ANTI, 0.5, grid, (1.0, math.nan), direction)
