"""Tests for zero tables and node bunching statistics.

The key claims: order-0 spacings sit below pi and grow toward it, while
order-1 spacings sit above pi and shrink toward it. Expressed through
the local density g = pi / spacing, order 0 stays above one (bunching)
and order 1 below one (anti-bunching), for the regular and the singular
oscillatory family alike.
"""

import math

import numpy as np
import pytest

import oracles
from anticentrifugal import nodes
from anticentrifugal.nodes import (
    BracketingError,
    ZERO_TABLES,
    ZeroTable,
    bunching_verdict,
    find_zero_tables,
    find_zeros,
    node_density,
    solve_in_brackets,
)
from anticentrifugal.specfun import CylinderFamily, besselj, bessely, cylinder_rows

J = CylinderFamily.BESSEL_J
Y = CylinderFamily.NEUMANN_Y

#: Bracket width at which :func:`refine_zero` stops bisecting.
_BISECTION_WIDTH = 1e-12


def refine_zero(f, lo, hi):
    """Polish a bracketed simple zero of f by plain bisection to width 1e-12.

    It shares nothing with :func:`solve_in_brackets` but the sign test,
    which makes it the independent reference the Newton zeros are checked
    against.
    """
    if not (lo < hi):
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketingError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > _BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def tables():
    return {
        (J, 0): find_zeros(J, 0, 21),
        (J, 1): find_zeros(J, 1, 21),
        (Y, 0): find_zeros(Y, 0, 21),
        (Y, 1): find_zeros(Y, 1, 21),
    }


# ---------------------------------------------------------------------------
# the zeros themselves

@pytest.mark.parametrize("family, order, frozen", [
    (J, 0, oracles.J0_ZEROS_1_TO_3),
    (J, 1, oracles.J1_ZEROS_1_TO_3),
    (Y, 0, oracles.Y0_ZEROS_1_TO_3),
    (Y, 1, oracles.Y1_ZEROS_1_TO_3),
])
def test_first_three_zeros_frozen(tables, family, order, frozen):
    got = tables[(family, order)].zeros[:3]
    assert got == pytest.approx(frozen, abs=5e-12)


def test_deep_zeros_frozen():
    table = find_zeros(J, 0, 51)
    assert table.zeros[49] == pytest.approx(oracles.J0_ZERO_50, abs=2e-11)
    assert table.zeros[50] == pytest.approx(oracles.J0_ZERO_51, abs=2e-11)
    spacing = table.zeros[50] - table.zeros[49]
    assert spacing == pytest.approx(oracles.J0_ZERO_51 - oracles.J0_ZERO_50, abs=2e-11)


_MPMATH_ZEROS = {
    (J, 0): oracles.J0_ZEROS_1_TO_100,
    (J, 1): oracles.J1_ZEROS_1_TO_100,
    (Y, 0): oracles.Y0_ZEROS_1_TO_100,
    (Y, 1): oracles.Y1_ZEROS_1_TO_100,
}


@pytest.mark.parametrize("family, order", [(J, 0), (J, 1), (Y, 0), (Y, 1)])
def test_hundred_zeros_match_mpmath(family, order):
    zeros = find_zeros(family, order, 100).zeros
    ref = np.array(_MPMATH_ZEROS[(family, order)])
    assert np.max(np.abs(zeros - ref) / ref) <= 1e-15


@pytest.mark.parametrize("family, order", [(J, 0), (J, 1), (Y, 0), (Y, 1)])
def test_newton_zeros_agree_with_scan_and_bisection(family, order):
    # the independent route: a sign-change scan in steps of 0.1 followed
    # by bisection of each bracket, sharing nothing with the seeds
    fn = {J: besselj, Y: bessely}[family]
    grid = 1e-6 + 0.1 * np.arange(3300)
    values = fn(order, grid)
    cross = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))[:100]
    assert cross.size == 100
    scanned = [
        refine_zero(lambda x: fn(order, x), grid[i], grid[i + 1])
        for i in cross
    ]
    assert np.max(np.abs(find_zeros(family, order, 100).zeros - scanned)) <= 1e-12


@pytest.mark.parametrize("bad_seeds", [
    lambda z: z + math.pi,           # skips the first zero
    lambda z: z[0] + 0.5 * math.pi * np.arange(z.size),  # twice too dense
    lambda z: z[::-1].copy(),        # not increasing: empty brackets
])
def test_bad_seeds_raise_instead_of_returning_wrong_zeros(monkeypatch, bad_seeds):
    good = nodes._mcmahon_seeds
    monkeypatch.setattr(nodes, "_mcmahon_seeds", lambda *a: bad_seeds(good(*a)))
    with pytest.raises(BracketingError):
        find_zeros(J, 0, 10)


@pytest.mark.parametrize("family, order", [(J, 0), (J, 1), (Y, 0), (Y, 1)])
def test_poor_seeds_are_rescued_by_the_bracket(monkeypatch, family, order):
    # seeds moved most of the way to the next extremum send raw Newton
    # steps out of their brackets; the midpoint fallback keeps every zero
    want = find_zeros(family, order, 30).zeros
    good = nodes._mcmahon_seeds
    monkeypatch.setattr(nodes, "_mcmahon_seeds", lambda *a: good(*a) + 1.4)
    got = find_zeros(family, order, 30).zeros
    assert np.max(np.abs(got - want) / want) <= 1e-15


def test_unsettled_newton_steps_raise(monkeypatch):
    monkeypatch.setattr(nodes, "_MAX_STEPS", 1)
    with pytest.raises(BracketingError):
        find_zeros(Y, 0, 10)


def test_singular_family_nodes_start_earlier(tables):
    # the order-0 singular solution already crosses zero before x = 1,
    # well inside the first zero of the regular one
    assert tables[(Y, 0)].zeros[0] < 1.0 < tables[(J, 0)].zeros[0]


def test_zeros_really_are_zeros(tables):
    fns = {J: besselj, Y: bessely}
    for (family, order), table in tables.items():
        worst = max(abs(fns[family](order, z)) for z in table.zeros)
        assert worst <= 1e-11


def test_orders_interlace(tables):
    for family in (J, Y):
        z0 = tables[(family, 0)].zeros
        z1 = tables[(family, 1)].zeros
        for n in range(20):
            assert z0[n] < z1[n] < z0[n + 1]


# ---------------------------------------------------------------------------
# the bisection helper

def test_refine_zero_exact_endpoint():
    f = lambda x: x - 2.0
    assert refine_zero(f, 2.0, 3.0) == 2.0
    assert refine_zero(f, 1.0, 2.0) == 2.0


def test_refine_zero_error_paths():
    f = lambda x: x * x + 1.0  # no real zeros
    with pytest.raises(BracketingError):
        refine_zero(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        refine_zero(f, 1.0, 0.0)
    with pytest.raises(TypeError):  # bisection is the only method
        refine_zero(lambda x: x, -1.0, 1.0, method="bisect")


# ---------------------------------------------------------------------------
# the bracketed Newton solver

def test_solver_settles_on_a_negative_root():
    # np.spacing is negative for negative arguments; the 4-ulp stop test
    # must take its magnitude or it never fires
    root = solve_in_brackets(lambda x: (x * x - 2.0, 2.0 * x), [-2.0, -1.0], [-1.5])
    assert root.shape == (1,)
    assert abs(root[0] + math.sqrt(2.0)) <= 2.0 * np.spacing(math.sqrt(2.0))


def test_solver_breaks_a_two_point_newton_cycle():
    # f = x - 1.2 with a slope that sends the step from either edge exactly
    # onto the other, as rounding noise in f can: each point is the other's
    # bracket end, so accepting a step onto the far end would bounce forever
    p, q = 1.0, 1.5

    def value_and_slope(x):
        f = x - 1.2
        other = np.where(x == p, q, p)
        return f, np.where((x == p) | (x == q), f / (x - other), 1.0)

    root = solve_in_brackets(value_and_slope, [p, q], [p])
    assert root[0] == pytest.approx(1.2, abs=1e-15)


@pytest.mark.parametrize("edges, start", [
    ([0.0, 1.0], [0.5]),             # x^2 - 4 is negative throughout
    ([0.0, 1.0, 3.0], [0.5, 2.0]),   # the first of two brackets has no root
])
def test_solver_rejects_brackets_without_a_sign_change(edges, start):
    with pytest.raises(BracketingError):
        solve_in_brackets(lambda x: (x * x - 4.0, 2.0 * x), edges, start)


def test_solver_needs_one_start_per_bracket():
    with pytest.raises(ValueError):
        solve_in_brackets(lambda x: (x * x - 4.0, 2.0 * x), [1.0, 3.0, 5.0], [2.0])


def _cube_root_problem(n, seed):
    # x^3 - a on [0, a + 1], a different function per bracket, with starts
    # spread over the brackets so the roots take different step counts
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-3.0, 3.0, n)
    pairs = np.stack((np.zeros(n), a + 1.0), axis=1)
    return a, pairs, rng.uniform(0.0, 1.0, n) * (a + 1.0)


def test_independent_brackets_are_solved_as_one_bracket_at_a_time():
    a, pairs, starts = _cube_root_problem(40, 8)
    calls = []

    def value_and_slope(x, lanes):
        calls.append(x.size)
        return x**3 - a[lanes], 3.0 * x * x

    joint = solve_in_brackets(value_and_slope, pairs, starts)
    assert calls[0] == 80  # both ends of every bracket in one evaluation
    assert len(calls) > 3
    for i in range(a.size):
        alone = solve_in_brackets(lambda x: (x**3 - a[i], 3.0 * x * x), pairs[i], [starts[i]])
        assert joint[i].hex() == alone[0].hex(), i


@pytest.mark.parametrize("family, order", [(J, 0), (Y, 1)])
def test_consecutive_edges_as_pairs_give_the_same_zeros(family, order):
    # the zero finder's brackets, given as independent (lo, hi) pairs, on
    # C_0' = -C_1 and C_1' = C_0 - C_1/x from the family's own rows
    seeds = nodes._mcmahon_seeds(family, order, 30)
    edges = np.concatenate(
        ([nodes._FIRST_EDGE[family]], 0.5 * (seeds[:-1] + seeds[1:]), [seeds[-1] + 0.5 * math.pi])
    )
    pairs = np.stack((edges[:-1], edges[1:]), axis=1)

    def value_and_slope(x, lanes):
        c0, c1 = cylinder_rows(family, x, 2)
        return (c1, c0 - c1 / x) if order else (c0, -c1)

    zeros = solve_in_brackets(value_and_slope, pairs, seeds)
    np.testing.assert_array_equal(zeros, find_zeros(family, order, 30).zeros)


def _one_table_on_its_own_rows(family, order, n_max):
    # the zero finder's solve of one table, each round on its family's own
    # cylinder_rows: the route each table took before the joint solve
    seeds = nodes._mcmahon_seeds(family, order, n_max)
    edges = np.concatenate(
        ([nodes._FIRST_EDGE[family]], 0.5 * (seeds[:-1] + seeds[1:]), [seeds[-1] + 0.5 * math.pi])
    )

    def value_and_slope(x):
        c0, c1 = cylinder_rows(family, x, 2)
        return (c1, c0 - c1 / x) if order else (c0, -c1)

    return solve_in_brackets(value_and_slope, edges, seeds)


@pytest.mark.parametrize("n_max", [2, 7, 51, 100, 1000])
def test_four_tables_solved_together_are_each_table_alone(n_max):
    tables = find_zero_tables(n_max)
    assert [(t.family, t.order) for t in tables] == list(ZERO_TABLES)
    assert ZERO_TABLES == ((J, 0), (J, 1), (Y, 0), (Y, 1))
    for t in tables:
        want = [v.hex() for v in _one_table_on_its_own_rows(t.family, t.order, n_max).tolist()]
        assert [v.hex() for v in t.zeros.tolist()] == want
        assert [v.hex() for v in find_zeros(t.family, t.order, n_max).zeros.tolist()] == want


def test_rows_of_brackets_are_each_row_alone():
    # cos(x / a) on the edges k pi a, a different a per row, so each
    # argument must be evaluated with its row
    a = np.array([1.0, 2.0, 3.0])
    edges = np.outer(a, np.arange(5.0)) * math.pi
    zeros = np.outer(a, np.arange(4.0) + 0.5) * math.pi
    calls = []

    def value_and_slope(x, rows):
        calls.append(x.size)
        return np.cos(x / a[rows]), -np.sin(x / a[rows]) / a[rows]

    got = solve_in_brackets(value_and_slope, edges, zeros + 0.3)
    assert got.shape == (3, 4) and calls[0] == 15  # every distinct edge once
    np.testing.assert_allclose(got, zeros, rtol=1e-15)
    for i in range(3):
        alone = solve_in_brackets(lambda x: value_and_slope(x, np.full(x.size, i)), edges[i], zeros[i] + 0.3)
        assert [v.hex() for v in got[i].tolist()] == [v.hex() for v in alone.tolist()]


def test_a_bracket_without_a_sign_change_in_one_table_names_all_tables(monkeypatch):
    good = nodes._mcmahon_seeds
    shifted = lambda family, order, n: good(family, order, n) + (math.pi if (family, order) == (Y, 1) else 0.0)
    monkeypatch.setattr(nodes, "_mcmahon_seeds", shifted)
    with pytest.raises(BracketingError, match=r"sign changes in the 40 brackets"):
        find_zero_tables(10)
    find_zero_tables(10, ZERO_TABLES[:3])  # the other three solve


def test_zero_tables_check_each_table():
    with pytest.raises(ValueError, match="orders 0 and 1"):
        find_zero_tables(5, ((J, 0), (Y, 2)))
    with pytest.raises(ValueError, match="oscillatory families"):
        find_zero_tables(5, ((J, 0), (CylinderFamily.MODIFIED_I, 0)))
    with pytest.raises(ValueError, match="at least one"):
        find_zero_tables(5, ())


def test_independent_brackets_without_a_sign_change_raise():
    a, pairs, starts = _cube_root_problem(5, 9)
    value_and_slope = lambda x, lanes: (x**3 - a[lanes], 3.0 * x * x)
    pairs[2] = (a[2] + 1.0, a[2] + 2.0)  # above the root: x^3 - a > 0 throughout
    with pytest.raises(BracketingError, match="found 4 sign changes in the 5 brackets"):
        solve_in_brackets(value_and_slope, pairs, starts)
    with pytest.raises(BracketingError):
        solve_in_brackets(
            lambda x: (x**3 - a[2], 3.0 * x * x), pairs[2], [pairs[2, 0]]
        )
    with pytest.raises(ValueError):
        solve_in_brackets(value_and_slope, pairs, starts[:4])


# ---------------------------------------------------------------------------
# table integrity

def test_table_rejects_corrupt_data():
    with pytest.raises(ValueError):
        ZeroTable(J, 0, np.array([]))
    with pytest.raises(ValueError):
        ZeroTable(J, 0, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        ZeroTable(J, 0, np.array([3.0, 2.5]))
    with pytest.raises(ValueError):
        ZeroTable(J, 0, np.array([1.0, 10.0]))  # spacing above 2 pi
    with pytest.raises(ValueError):
        ZeroTable(J, 0, np.array([1.0, 2.0]))  # spacing below 2


def test_spacing_screen_applies_to_low_orders_only():
    # higher orders may legitimately have a wide first gap
    ZeroTable(J, 5, np.array([1.0, 10.0]))


def test_find_zeros_validation():
    with pytest.raises(ValueError):
        find_zeros(J, 2, 5)
    with pytest.raises(ValueError):
        find_zeros(J, 0, 0)
    with pytest.raises(TypeError):  # the scan and its step are gone
        find_zeros(J, 0, 5, scan_step=0.7)
    with pytest.raises(ValueError):
        find_zeros(CylinderFamily.MODIFIED_K, 0, 5)


def test_find_zeros_takes_a_numpy_integer_count():
    np.testing.assert_array_equal(find_zeros(J, 0, np.int64(5)).zeros, find_zeros(J, 0, 5).zeros)
    with pytest.raises(ValueError, match=r"^n_max must be an integer of at least 1, got True$"):
        find_zeros(J, 0, True)


# ---------------------------------------------------------------------------
# densities and the bunching verdict

def test_first_densities_frozen(tables):
    cases = [
        ((J, 0), oracles.G_J0_FIRST),
        ((J, 1), oracles.G_J1_FIRST),
        ((Y, 0), oracles.G_Y0_FIRST),
        ((Y, 1), oracles.G_Y1_FIRST),
    ]
    for key, frozen in cases:
        report = node_density(tables[key])
        assert report.densities[0] == pytest.approx(frozen, rel=1e-11)


def test_density_report_shapes(tables):
    report = node_density(tables[(J, 0)])
    assert report.spacings.shape == (20,)
    assert report.densities.shape == (20,)
    assert np.all(report.densities * report.spacings == pytest.approx(math.pi))


def test_density_needs_two_zeros():
    with pytest.raises(ValueError):
        node_density(ZeroTable(J, 0, np.array([2.404825557695773])))


@pytest.mark.parametrize("family", [J, Y])
def test_bunching_verdict_passes(tables, family):
    verdict = bunching_verdict(
        node_density(tables[(family, 0)]), node_density(tables[(family, 1)])
    )
    assert verdict.passed
    assert verdict.max_violation == 0.0
    assert verdict.count == 20


@pytest.mark.parametrize("family", [J, Y])
def test_densities_bracket_one_from_both_sides(tables, family):
    g0 = node_density(tables[(family, 0)]).densities
    g1 = node_density(tables[(family, 1)]).densities
    assert np.all(g0 > 1.0)
    assert np.all(g1 < 1.0)
    assert np.all(np.diff(g0) < 0.0)
    assert np.all(np.diff(g1) > 0.0)


@pytest.mark.parametrize("family", [J, Y])
@pytest.mark.parametrize("order", [0, 1])
def test_densities_approach_one_like_mcmahon_out_to_ten_thousand(family, order):
    """beta_s^2 (pi / Delta_s - 1) -> -(4 m^2 - 1) / 8 from the side the
    paper claims, with beta_s = (s + m/2 - 1/4) pi for J, (s + m/2 - 3/4) pi
    for Y (DLMF 10.21(vi)).

    McMahon's next term in this product is (4 m^2 - 1) pi / (8 beta_{s+1});
    twice it bounds the gap together with the O(beta^-2) remainder from
    s = 1 on.  Past s ~ 10^3 the rounding of the zeros dominates: an error
    of eps z in each zero moves the product by up to
    beta^2 pi eps (z_s + z_{s+1}) / Delta_s^2.
    """
    z = find_zeros(family, order, 10_001).zeros
    spacing = np.diff(z)
    shift = 0.25 if family is J else 0.75
    beta = (np.arange(1, z.size) + 0.5 * order - shift) * math.pi
    limit = -(4 * order * order - 1) / 8.0
    scaled = beta**2 * (math.pi / spacing - 1.0)
    rounding = beta**2 * math.pi * np.finfo(float).eps * (z[:-1] + z[1:]) / spacing**2
    assert np.all(np.abs(scaled - limit) <= 2.0 * abs(limit) * math.pi / beta + rounding)
    # density above one for order 0 and below one for order 1, to s = 10^4
    assert np.all(np.sign(math.pi / spacing - 1.0) == np.sign(limit))


def test_singular_family_bunches_harder(tables):
    g_j = node_density(tables[(J, 0)]).densities[0]
    g_y = node_density(tables[(Y, 0)]).densities[0]
    assert g_y > g_j > 1.0
    assert g_y == pytest.approx(oracles.G_Y0_FIRST, rel=1e-11)


def test_verdict_input_validation(tables):
    r_j0 = node_density(tables[(J, 0)])
    r_j1 = node_density(tables[(J, 1)])
    r_y1 = node_density(tables[(Y, 1)])
    with pytest.raises(ValueError):
        bunching_verdict(r_j0, r_y1)  # family mismatch
    with pytest.raises(ValueError):
        bunching_verdict(r_j1, r_j0)  # orders swapped
