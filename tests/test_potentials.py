"""Tests for the effective radial potential catalogue.

The interesting physics lives in the quarter-integer strengths: the
planar m = 0 channel has strength -1/4 (attractive), which no spatial
angular-momentum channel l(l+1) can reproduce, and every N-dimensional
zero-angular-momentum strength (N-1)(N-3)/4 follows a fixed sign pattern.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anticentrifugal.potentials import (
    EffectivePotentialSpec,
    PotentialFamily,
    RadialGrid,
    SignClass,
    classify_potential,
    eval_potential,
)


def planar(m):
    return EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=m)


def spatial(l):
    return EffectivePotentialSpec(PotentialFamily.SPATIAL_WAVE, angular_momentum=l)


def ndim(n):
    return EffectivePotentialSpec(PotentialFamily.ZERO_MOMENTUM_NDIM, n_dim=n)


# ---------------------------------------------------------------------------
# pointwise values

def test_planar_ground_channel_is_attractive_quarter():
    assert eval_potential(planar(0), 1.0) == -0.25
    assert eval_potential(planar(0), 2.0) == -0.0625


def test_planar_first_excited_channel():
    assert eval_potential(planar(1), 2.0) == 0.1875  # (1 - 1/4) / 4


def test_spatial_channels():
    assert eval_potential(spatial(0), 1.7) == 0.0
    assert eval_potential(spatial(1), 2.0) == 0.5  # 2 / r^2
    assert eval_potential(spatial(2), 1.0) == 6.0


def test_dimensional_reduction_values():
    assert eval_potential(ndim(1), 3.0) == 0.0
    assert eval_potential(ndim(2), 1.0) == -0.25
    assert eval_potential(ndim(3), 5.0) == 0.0
    assert eval_potential(ndim(5), 1.0) == 2.0


def test_classical_and_quantum_families():
    classical = EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=3.0)
    assert eval_potential(classical, 2.0) == 0.75
    anti = EffectivePotentialSpec(PotentialFamily.QUANTUM_ANTICENTRIFUGAL)
    assert eval_potential(anti, 2.0) == -0.0625


def test_planar_strength_values():
    assert [planar(m).strength for m in range(4)] == [-0.25, 0.75, 3.75, 8.75]


# ---------------------------------------------------------------------------
# identities between families

def test_planar_ground_equals_quantum_anti_everywhere():
    anti = EffectivePotentialSpec(PotentialFamily.QUANTUM_ANTICENTRIFUGAL)
    for r in (0.01, 0.3, 1.0, 7.7, 123.0):
        assert eval_potential(planar(0), r) == eval_potential(anti, r)


def test_two_dimensional_reduction_equals_quantum_anti():
    anti = EffectivePotentialSpec(PotentialFamily.QUANTUM_ANTICENTRIFUGAL)
    r = np.linspace(0.05, 20.0, 400)
    assert np.array_equal(eval_potential(ndim(2), r), eval_potential(anti, r))


def test_quantum_softening_gap_is_exactly_one_quarter():
    """For every m >= 1 the quantum channel sits below the naive
    m^2 / r^2 barrier by exactly 1/(4 r^2)."""
    for m in range(1, 8):
        for r in (0.1, 1.0, 3.0, 10.0):
            gap = m * m / r**2 - eval_potential(planar(m), r)
            assert gap == pytest.approx(0.25 / r**2, rel=1e-15)


def test_planar_strengths_never_match_spatial_ones():
    """m^2 - 1/4 is never an integer, so no planar channel coincides
    with any spatial channel; the closest approach is 1/4."""
    best = min(
        abs(Fraction(m * m * 4 - 1, 4) - Fraction(l * (l + 1)))
        for m in range(0, 11)
        for l in range(0, 11)
    )
    assert best == Fraction(1, 4)


@given(r=st.floats(min_value=1e-3, max_value=1e3),
       lam=st.floats(min_value=1e-2, max_value=1e2))
def test_inverse_square_scale_covariance(r, lam):
    spec = planar(2)
    scaled = eval_potential(spec, lam * r)
    assert scaled == pytest.approx(eval_potential(spec, r) / lam**2, rel=1e-12)


# ---------------------------------------------------------------------------
# sign classification

def test_sign_classification_examples():
    assert classify_potential(planar(0)) is SignClass.ATTRACTIVE
    assert classify_potential(planar(1)) is SignClass.REPULSIVE
    assert classify_potential(spatial(0)) is SignClass.VANISHING
    assert classify_potential(spatial(1)) is SignClass.REPULSIVE
    assert classify_potential(ndim(2)) is SignClass.ATTRACTIVE
    classical0 = EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=0.0)
    assert classify_potential(classical0) is SignClass.VANISHING
    classical1 = EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=2.5)
    assert classify_potential(classical1) is SignClass.REPULSIVE


def test_dimension_sweep_pattern():
    """N = 1 and N = 3 vanish, N = 2 attracts, everything above repels."""
    expected = {1: SignClass.VANISHING, 2: SignClass.ATTRACTIVE, 3: SignClass.VANISHING}
    for n in range(1, 21):
        got = classify_potential(ndim(n))
        assert got is expected.get(n, SignClass.REPULSIVE), f"N={n}"


def test_strength_is_exact_rational():
    assert ndim(2).strength_quarters() == Fraction(-1, 4)
    assert ndim(7).strength_quarters() == Fraction(6)
    assert planar(3).strength_quarters() == Fraction(35, 4)
    assert planar(3).strength == 8.75


_CLASSICAL = [0, 3, 0.0, -0.0, 0.1, 2.5, 1e-320, 1.7976931348623157e308, 10**300]


@pytest.mark.parametrize(
    "spec",
    [planar(m) for m in (0, 1, 7, 10**150)]
    + [spatial(l) for l in (0, 1, 12, 10**150)]
    + [ndim(n) for n in (1, 2, 3, 4, 11, 10**150)]
    + [EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=v) for v in _CLASSICAL]
    + [EffectivePotentialSpec(PotentialFamily.QUANTUM_ANTICENTRIFUGAL)],
)
def test_float_strength_and_sign_follow_the_exact_fraction(spec):
    # strength and classify_potential read the integer ratio, not a
    # Fraction: the float is the fraction correctly rounded (+0.0 for every
    # vanishing strength), and the sign class is the fraction's sign
    exact = spec.strength_quarters()
    assert isinstance(exact, Fraction)
    strength = spec.strength
    assert type(strength) is float
    assert strength == float(exact)
    assert str(strength) == str(float(exact))
    sign = {-1: SignClass.ATTRACTIVE, 0: SignClass.VANISHING, 1: SignClass.REPULSIVE}
    assert classify_potential(spec) is sign[(exact > 0) - (exact < 0)]


def test_strength_past_the_float_range_raises_as_the_fraction_does():
    spec = planar(10**200)
    with pytest.raises(OverflowError):
        float(spec.strength_quarters())
    with pytest.raises(OverflowError):
        spec.strength


# ---------------------------------------------------------------------------
# input validation

def test_eval_accepts_arrays_and_scalars():
    r = np.array([0.5, 1.0, 2.0])
    out = eval_potential(planar(1), r)
    assert out.shape == r.shape
    assert out[1] == eval_potential(planar(1), 1.0)


@pytest.mark.parametrize("bad_r", [0.0, -1.0, float("nan"), float("inf")])
def test_eval_rejects_bad_radii(bad_r):
    with pytest.raises(ValueError):
        eval_potential(planar(0), bad_r)


def test_eval_rejects_bad_radius_inside_array():
    # the error names the first radius that is not positive and finite
    with pytest.raises(ValueError, match=r"got -2\.0$"):
        eval_potential(planar(0), np.array([1.0, -2.0, float("nan"), 0.0]))


def test_vanishing_strength_gives_exact_zeros_where_r_squared_underflows():
    # 0 / (r * r) was 0 / 0: nan on arrays, ZeroDivisionError on floats
    vanishing = [ndim(1), ndim(3), spatial(0),
                 EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=0.0)]
    r = np.array([1e-200, 1e-170, 1.0])
    for spec in vanishing:
        assert eval_potential(spec, 1e-200) == 0.0
        out = eval_potential(spec, r)
        assert out.shape == r.shape
        np.testing.assert_array_equal(out, 0.0)


def _outcome(spec, r):
    # the value's bits, lane by lane, or the error's message
    try:
        v = eval_potential(spec, r)
    except ValueError as exc:
        return str(exc)
    assert type(v) is (np.ndarray if np.ndim(r) else float)
    return [x.hex() for x in np.ravel(v).tolist()]


@pytest.mark.parametrize("spec", [planar(0), planar(1), ndim(3), spatial(0)],
                         ids=["planar0", "planar1", "ndim3", "spatial0"])
@pytest.mark.parametrize("r", [1e-200, 1e-170, 1e-160, 1e-100, 1.0, 1e160, 1e200,
                               float("nan"), float("inf"), 0.0, -1.0])
def test_a_float_gives_the_bits_or_the_error_of_an_array(spec, r):
    # one body for floats and arrays: r * r underflowing at a nonzero
    # strength gives +-inf, silently, on a float as on an array
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _outcome(spec, r)
        assert _outcome(spec, np.array([r])) == got
        twelve = _outcome(spec, np.full(12, r))
    assert twelve == (got if isinstance(got, str) else got * 12)
    if isinstance(got, str):
        assert got == f"radius must be positive and finite, got {r!r}"
    elif r in (1e-200, 1e-170) and spec.strength:
        assert float.fromhex(got[0]) == np.copysign(np.inf, spec.strength)


def test_spec_validation():
    with pytest.raises(ValueError):
        EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=-1)
    with pytest.raises(ValueError):
        EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=True)
    with pytest.raises(ValueError):
        EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=1.5)
    with pytest.raises(ValueError):
        EffectivePotentialSpec(PotentialFamily.ZERO_MOMENTUM_NDIM, n_dim=0)
    with pytest.raises(ValueError):
        EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=-1.0)


def test_spec_takes_numpy_integers_as_ints():
    # a numpy order is stored as an int, so 4 m^2 - 1 cannot wrap past int64
    spec = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=np.int64(2**40))
    assert type(spec.angular_momentum) is int
    assert spec.strength_quarters() == Fraction(4 * 2**80 - 1, 4)
    ndim7 = EffectivePotentialSpec(PotentialFamily.ZERO_MOMENTUM_NDIM, n_dim=np.uint8(7))
    assert ndim7 == ndim(7) and type(ndim7.n_dim) is int
    with pytest.raises(ValueError, match=r"^n_dim must be an integer of at least 1, got np.True_$"):
        EffectivePotentialSpec(PotentialFamily.ZERO_MOMENTUM_NDIM, n_dim=np.True_)


def test_grid_takes_a_numpy_integer_point_count():
    grid = RadialGrid(0.5, 1.0, np.int64(5))
    assert grid == RadialGrid(0.5, 1.0, 5) and type(grid.n_points) is int
    np.testing.assert_array_equal(grid.points, [0.5, 0.625, 0.75, 0.875, 1.0])
    with pytest.raises(ValueError, match=r"^n_points must be an integer of at least 3, got True$"):
        RadialGrid(0.5, 1.0, True)
