"""The array path of the cylinder functions, pinned to the scalar path.

Each array kernel repeats its scalar twin's floating-point operations in
the same order, so J, Y and I must agree bit for bit.  K may differ only
where numpy's exp rounds differently from math.exp: a few units in the
last place.
"""

import math

import numpy as np
import pytest

from anticentrifugal.specfun import (
    SERIES_SWITCH_I,
    SERIES_SWITCH_JY,
    SERIES_SWITCH_K,
    _HANKEL_SWITCH,
    CylinderFamily,
    CylinderKind,
    _i_start,
    _i_start_array,
    _j_start,
    _j_start_array,
    _k01_large_array,
    _oscillatory01_array,
    besseli,
    besselj,
    besselk,
    bessely,
    eval_cylinder,
    eval_cylinder_derivative,
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


def _assert_pinned(family, got, want, x):
    if family is CylinderFamily.MODIFIED_K:
        rel = np.abs(got - want) / np.abs(want)
        assert np.max(rel[x <= 50.0]) <= 4e-15
        assert np.max(rel[x > 50.0]) <= 1e-12
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("m", [0, 1, 2])
def test_array_values_match_scalar_path(family, m):
    fn = _EVAL[family]
    got = fn(m, _GRID)
    want = np.array([fn(m, float(x)) for x in _GRID])
    assert isinstance(got, np.ndarray) and got.shape == _GRID.shape
    _assert_pinned(family, got, want, _GRID)


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
    kind = CylinderKind(family, m)
    got = eval_cylinder_derivative(kind, _GRID)
    want = np.array([eval_cylinder_derivative(kind, float(x)) for x in _GRID])
    _assert_pinned(family, got, want, _GRID)


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


def test_k_trapezoid_shared_and_own_steps_match_one_at_a_time():
    # below x = (0.7 / 0.15)^2 every element shares the step 0.15 and one
    # cosh per node; above it each element has its own step
    edge = (0.7 / 0.15) ** 2
    x = np.array(
        [3.0, 40.0, 5.5, edge, 5.5, np.nextafter(edge, 0.0), 21.0, np.nextafter(edge, 50.0),
         22.0, 40.0, 333.3, 3.0 + 1e-12, 700.0]
    )
    want = np.concatenate([_k01_large_array(x[i : i + 1]) for i in range(x.size)], axis=1)
    np.testing.assert_array_equal(_k01_large_array(x), want)


@pytest.mark.parametrize("family", [CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y])
def test_orders_zero_and_one_from_one_table(family):
    # the zero finder reads both orders off one table per argument; they
    # must be the very numbers two separate calls return
    x = _GRID[_GRID > 0.0]
    c0, c1 = _oscillatory01_array(family, x)
    np.testing.assert_array_equal(c0, _EVAL[family](0, x))
    np.testing.assert_array_equal(c1, _EVAL[family](1, x))


def test_regular_families_at_the_origin():
    x = np.array([0.0, 1.0])
    np.testing.assert_array_equal(besselj(0, x), [1.0, besselj(0, 1.0)])
    np.testing.assert_array_equal(besseli(3, x), [0.0, besseli(3, 1.0)])


def test_shapes():
    assert isinstance(besselj(0, np.float64(2.5)), float)
    assert isinstance(besselk(1, np.array(2.5)), float)
    assert besselj(0, np.array(2.5)) == besselj(0, 2.5)
    assert besselk(0, np.empty(0)).shape == (0,)
    grid = np.linspace(0.5, 9.5, 12).reshape(3, 4)
    got = bessely(1, grid)
    assert got.shape == (3, 4)
    np.testing.assert_array_equal(got.ravel(), bessely(1, grid.ravel()))
    kind = CylinderKind(CylinderFamily.MODIFIED_I, 2)
    np.testing.assert_array_equal(eval_cylinder(kind, grid), besseli(2, grid))


def test_integer_arrays_are_accepted():
    np.testing.assert_array_equal(besselj(1, np.array([1, 5])), besselj(1, np.array([1.0, 5.0])))


# ---------------------------------------------------------------------------
# argument validation on the array path


@pytest.mark.parametrize("family", list(CylinderFamily))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_non_finite_rejected(family, bad):
    with pytest.raises(ValueError, match="finite"):
        _EVAL[family](0, np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("family", list(CylinderFamily))
def test_array_negative_argument_rejected(family):
    with pytest.raises(ValueError, match="requires"):
        _EVAL[family](1, np.array([3.0, -0.5]))


@pytest.mark.parametrize("family", [CylinderFamily.NEUMANN_Y, CylinderFamily.MODIFIED_K])
def test_array_singular_families_reject_zero(family):
    with pytest.raises(ValueError, match="x > 0"):
        _EVAL[family](0, np.array([0.0, 1.0]))


def test_array_growing_family_overflow_guard():
    assert np.isfinite(besseli(0, np.array([1.0, 700.0]))).all()
    with pytest.raises(OverflowError):
        besseli(0, np.array([1.0, 705.0]))


def test_array_recurrence_overflow_reported():
    with pytest.raises(OverflowError, match="Y_200"):
        bessely(200, np.array([1e-3, 1.0]))
    with pytest.raises(OverflowError, match="K_200"):
        besselk(200, np.array([1.0, 1e-3]))
