"""The contract every frozen record of the package keeps.

Each record is built by position or by keyword, fills in its declared
defaults, runs its ``__post_init__`` checks, refuses assignment, compares
and hashes by the values of its fields in order, and prints as
``Name(field=value, ...)``.  Every real argument and every integer one,
a record's field or a function's, passes one check, which refuses it in
one wording.
"""

import copy
import math
from typing import NamedTuple

import numpy as np
import pytest

from anticentrifugal._record import Record
from anticentrifugal.boundstate import (
    DeltaBoundState,
    DeltaCoupling2D,
    ProbabilityDensity,
    coupling_from_k,
    coupling_residual,
    cutoff_integral,
    density,
    density_profile,
    k_from_coupling,
    one_three_d_bound_energy,
    planar_rows,
)
from anticentrifugal.nodes import BunchingVerdict, NodeDensityReport, ZeroTable, find_zeros
from anticentrifugal.potentials import (
    EffectivePotentialSpec,
    PotentialFamily,
    default_grid,
    eval_potential,
)
from anticentrifugal.quadrature import QuadratureResult, integrate_adaptive
from anticentrifugal.radial import (
    EnergySign,
    RadialGrid,
    RadialWave,
    SolutionFamily,
    analytic_radial,
    integrate_radial,
    laplacian_reduction_check,
)
from anticentrifugal.specfun import (
    CylinderFamily,
    besseli,
    besselj,
    besselk,
    bessely,
    sommerfeld_j0,
)
from anticentrifugal.verify import SuiteResult, run_all

_GRID = RadialGrid(0.5, 2.0, 4)
_ZEROS = ZeroTable(CylinderFamily.BESSEL_J, 0, np.array([2.404825557695773, 5.520078110286311]))
_SPACINGS = np.array([3.115252552590538])


class Case(NamedTuple):
    cls: type
    fields: tuple  # the field names, in declaration order
    args: tuple  # one value per field
    other: tuple  # the same, with one field changed
    hashable: bool  # False where a field holds an ndarray, as for a dataclass


CASES = [
    Case(
        QuadratureResult, ("value", "error_estimate", "intervals"),
        (1.5, 1e-14, 3), (1.5, 1e-14, 4), True,
    ),
    Case(
        EffectivePotentialSpec, ("family", "angular_momentum", "n_dim", "classical_l_squared"),
        (PotentialFamily.CLASSICAL, 1, 3, 2.5), (PotentialFamily.CLASSICAL, 1, 3, 3.5), True,
    ),
    Case(RadialGrid, ("r_min", "r_max", "n_points"), (0.5, 2.0, 4), (0.5, 2.0, 5), True),
    Case(
        RadialWave, ("grid", "values", "wavenumber", "energy_sign", "family"),
        (_GRID, np.ones(4), 1.0, EnergySign.POSITIVE, SolutionFamily.OSCILLATORY_REGULAR),
        (_GRID, np.ones(4), 2.0, EnergySign.POSITIVE, SolutionFamily.OSCILLATORY_REGULAR),
        False,
    ),
    Case(
        ZeroTable, ("family", "order", "zeros"),
        (CylinderFamily.BESSEL_J, 0, _ZEROS.zeros), (CylinderFamily.NEUMANN_Y, 0, _ZEROS.zeros),
        False,
    ),
    Case(
        NodeDensityReport, ("table", "spacings", "densities"),
        (_ZEROS, _SPACINGS, np.pi / _SPACINGS), (_ZEROS, _SPACINGS, _SPACINGS), False,
    ),
    Case(
        BunchingVerdict,
        (
            "family", "count", "order0_bunched", "order1_antibunched",
            "order0_monotone", "order1_monotone", "max_violation",
        ),
        (CylinderFamily.NEUMANN_Y, 20, True, True, True, False, 0.25),
        (CylinderFamily.NEUMANN_Y, 20, True, True, True, True, 0.25),
        True,
    ),
    Case(
        ProbabilityDensity, ("dimension", "wavenumber", "radii", "weights"),
        (2, 1.0, _GRID.points, np.ones(4)), (1, 1.0, _GRID.points, np.ones(4)),
        False,
    ),
    Case(
        DeltaCoupling2D, ("coupling", "cutoff", "wavenumber"),
        (12.5, 1.0, 0.25), (12.5, 2.0, 0.25), True,
    ),
    Case(
        DeltaBoundState, ("dimension", "wavenumber", "energy"),
        (3, 2.0, -2.0), (1, 2.0, -2.0), True,
    ),
    Case(
        SuiteResult, ("name", "passed", "max_error", "tolerance", "detail"),
        ("check", True, 1e-15, 1e-12, "x in [1, 2]"),
        ("check", False, 1e-15, 1e-12, "x in [1, 2]"),
        True,
    ),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
def test_record_contract(case):
    cls, fields, args = case.cls, case.fields, case.args
    rec = cls(*args)
    for name, value in zip(fields, args, strict=True):
        got = getattr(rec, name)
        assert got is value or got == value
    # by keyword, and by position then keyword: the same record
    assert cls(**dict(zip(fields, args))) == rec
    assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == rec

    with pytest.raises(TypeError, match="missing"):
        cls(**dict(zip(fields[1:], args[1:])))
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*args[:1], **dict(zip(fields, args)))
    with pytest.raises(TypeError, match="arguments but"):
        cls(*args, None)

    for name, value in zip(fields, args):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.no_such_field = 1

    twin = cls(*args)
    assert twin == rec and not twin != rec
    assert copy.copy(rec) == rec
    assert rec != args and rec != object()
    if case.hashable:
        assert hash(twin) == hash(rec)
        assert cls(*case.other) != rec
        assert {rec: 1}[twin] == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)

    body = ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields)
    assert repr(rec) == f"{cls.__qualname__}({body})"


def test_record_defaults():
    spec = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE)
    assert (spec.angular_momentum, spec.n_dim, spec.classical_l_squared) == (0, 2, 0.0)
    assert spec == EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, 0, 2, 0.0)
    assert EffectivePotentialSpec.n_dim == 2
    assert SuiteResult("check", True, 0.0, 1.0).detail == ""
    assert SuiteResult("check", True, 0.0, 1.0)._asdict() == {
        "name": "check", "passed": True, "max_error": 0.0, "tolerance": 1.0, "detail": "",
    }


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: EffectivePotentialSpec("planar"), TypeError, "family must be a PotentialFamily"),
        (
            lambda: EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=-1),
            ValueError, "angular_momentum must be an integer of at least 0",
        ),
        (lambda: RadialGrid(2.0, 0.5, 4), ValueError, "need 0 < r_min < r_max"),
        (lambda: RadialGrid(0.5, 2.0, 4.0), ValueError, "n_points must be an integer of at least 3"),
        (
            lambda: RadialWave(
                _GRID, np.ones(3), 1.0, EnergySign.POSITIVE,
                SolutionFamily.OSCILLATORY_REGULAR,
            ),
            ValueError, "does not match grid",
        ),
        (
            lambda: ZeroTable(CylinderFamily.BESSEL_J, 0, [5.5, 2.4]),
            ValueError, "strictly increasing",
        ),
    ],
)
def test_post_init_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_post_init_may_replace_a_field():
    # __post_init__ stores the converted value through the instance __dict__
    zeros = [2.404825557695773, 5.520078110286311]
    table = ZeroTable(CylinderFamily.BESSEL_J, 0, zeros)
    assert isinstance(table.zeros, np.ndarray)
    np.testing.assert_array_equal(table.zeros, zeros)


# ---------------------------------------------------------------------------
# one check for every real argument

_K_WAVE = (EnergySign.NEGATIVE, SolutionFamily.DECAYING_MODIFIED)
_PLANAR0 = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE)
_GRID9 = RadialGrid(0.5, 2.0, 9)  # enough points for the five-point stencils


def _square(x):
    return x * x


class Real(NamedTuple):
    name: str
    sign: str | None  # "positive", "non-negative", or None for finiteness alone
    call: object  # the entry point with this argument set to its parameter
    good: int | None  # a valid value that a float32 and an int64 hold exactly; None: not run
    lane: bool = False  # the value is one lane of an array argument


#: every entry point that checks a real argument, with the argument it checks
REALS = {
    "density_profile": Real("wavenumber", "positive", lambda v: density_profile(2, v, 1.0), 1),
    "density_profile.radius.1": Real("radius", None, lambda v: density_profile(1, 1.0, v), 1),
    "density_profile.radius.2": Real(
        "radius", "non-negative", lambda v: density_profile(2, 1.0, v), 1
    ),
    "density_profile.radius.3": Real(
        "radius", "non-negative", lambda v: density_profile(3, 1.0, v), 1
    ),
    "density_profile.lane": Real(
        "radius", "non-negative", lambda v: density_profile(2, 1.0, np.array([0.5, v])), 1, True
    ),
    "density": Real("wavenumber", "positive", lambda v: density(2, v, [0.5]), 1),
    "planar_rows": Real(
        "wavenumber", "positive", lambda v: planar_rows(v, np.array([0.5, 2.0])), 1
    ),
    "default_grid": Real("wavenumber", "positive", default_grid, 2),
    "analytic_radial": Real(
        "wavenumber", "positive",
        lambda v: analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, v, _GRID), 1,
    ),
    "RadialWave": Real(
        "wavenumber", "positive", lambda v: RadialWave(_GRID, np.ones(4), v, *_K_WAVE), 1
    ),
    "integrate_radial.energy": Real(
        "energy", None, lambda v: integrate_radial(_PLANAR0, v, _GRID, (1.0, 1.0)), 1
    ),
    "integrate_radial.seeds[0]": Real(
        "seeds[0]", None, lambda v: integrate_radial(_PLANAR0, 1.0, _GRID, (v, 1.0)), 1
    ),
    "integrate_radial.seeds[1]": Real(
        "seeds[1]", None, lambda v: integrate_radial(_PLANAR0, 1.0, _GRID, (1.0, v)), 1
    ),
    "laplacian_reduction_check": Real(
        "wavenumber", "positive", lambda v: laplacian_reduction_check(v, _GRID9), 1
    ),
    "integrate_adaptive.a": Real("a", None, lambda v: integrate_adaptive(_square, v, 2.0), 0),
    "integrate_adaptive.b": Real("b", None, lambda v: integrate_adaptive(_square, 0.0, v), 2),
    # each passing run takes the whole self-test: only the refusals run
    "run_all": Real("tolerance_scale", "non-negative", run_all, None),
    "sommerfeld_j0": Real("kr", None, sommerfeld_j0, 1),
    "sommerfeld_j0.lane": Real("kr", None, lambda v: sommerfeld_j0(np.array([1.0, v])), 1, True),
    "coupling_from_k.k": Real("wavenumber", "positive", lambda v: coupling_from_k(v, 1.0), 1),
    "coupling_from_k.cutoff": Real("cutoff", "positive", lambda v: coupling_from_k(1.0, v), 2),
    "cutoff_integral.k": Real("wavenumber", "positive", lambda v: cutoff_integral(v, 2.0), 1),
    "cutoff_integral.cutoff": Real("cutoff", "positive", lambda v: cutoff_integral(1.0, v), 2),
    "cutoff_integral.lane": Real(
        "wavenumber", "positive", lambda v: cutoff_integral(np.array([1.0, v, 1.0]), 2.0), 1, True
    ),
    "k_from_coupling.coupling": Real("coupling", None, lambda v: k_from_coupling(v, 1.0), 10),
    "k_from_coupling.cutoff": Real("cutoff", "positive", lambda v: k_from_coupling(10.0, v), 2),
    "coupling_residual": Real(
        "coupling", "positive", lambda v: coupling_residual(v, 1.0, 1.0), 10
    ),
    "one_three_d_bound_energy.1": Real(
        "coupling", None, lambda v: one_three_d_bound_energy(1, coupling=v), -2
    ),
    "one_three_d_bound_energy.3": Real(
        "inverse scattering length", None,
        lambda v: one_three_d_bound_energy(3, inverse_scattering_length=v), 2,
    ),
    "eval_potential": Real("radius", "positive", lambda v: eval_potential(_PLANAR0, v), 2),
    "eval_potential.lane": Real(
        "radius", "positive", lambda v: eval_potential(_PLANAR0, np.array([1.0, v])), 2, True
    ),
    "classical_l_squared": Real(
        "classical_l_squared", "non-negative",
        lambda v: EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=v), 3,
    ),
    "RadialGrid.r_min": Real("r_min", None, lambda v: RadialGrid(v, 2.0, 5), 1),
    "RadialGrid.r_max": Real("r_max", None, lambda v: RadialGrid(0.5, v, 5), 2),
}

#: the finite values among the refused ones that each sign word takes
_TAKES = {None: (0.0, -1.0), "positive": (), "non-negative": (0.0,)}


def _refusals():
    """(entry, bad value) for each value that the entry's rule refuses.  An
    array lane holds floats only, and None is the default of
    one_three_d_bound_energy's keywords: the argument is missing."""
    for entry, real in REALS.items():
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1", None):
            if isinstance(bad, float) and bad in _TAKES[real.sign]:
                continue
            if (real.lane and not isinstance(bad, float)) or (
                bad is None and entry.startswith("one_three_d")
            ):
                continue
            yield pytest.param(entry, bad, id=f"{entry}-{bad!r}")


@pytest.mark.parametrize("entry, bad", _refusals())
def test_every_real_argument_is_refused_in_one_wording(entry, bad):
    name, sign, call = REALS[entry][:3]
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert str(excinfo.value) == f"{name} must be {sign + ' and ' if sign else ''}finite, got {bad!r}"


def _bits(x):
    """x with every float as its type and hex digits, every integer as its
    type and value, every array as its dtype, shape and bytes, and every
    record as its fields in order."""
    if isinstance(x, Record):
        return type(x).__name__, _bits(x._astuple())
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, np.floating)):
        return type(x).__name__, float(x).hex()
    if isinstance(x, (int, np.integer)):
        return type(x).__name__, int(x)
    return x


@pytest.mark.parametrize("kind", [np.float32, np.int64, lambda v: np.array(float(v))],
                         ids=["float32", "int64", "0-d array"])
@pytest.mark.parametrize("entry", [entry for entry, real in REALS.items() if real.good is not None])
def test_numpy_scalars_give_the_bits_of_a_float(entry, kind):
    real = REALS[entry]
    value = kind(real.good)
    assert _bits(real.call(value)) == _bits(real.call(float(real.good)))


def test_a_single_precision_endpoint_gives_a_double_precision_grid():
    r_min = np.float32(0.1)
    grid = RadialGrid(r_min, 2.0, 7)
    assert grid.points.dtype == np.float64 and type(grid.r_min) is float
    assert _bits(grid) == _bits(RadialGrid(float(r_min), 2.0, 7))
    assert type(grid.spacing) is float


# ---------------------------------------------------------------------------
# one check for every integer argument


class Int(NamedTuple):
    name: str
    low: int  # the least value taken
    call: object  # the entry point with this argument set to its parameter
    good: int  # a valid value


_J = CylinderFamily.BESSEL_J

#: every entry point that checks an integer argument, with the argument it checks
INTS = {
    "besselj": Int("order", 0, lambda v: besselj(v, 1.0), 1),
    "bessely": Int("order", 0, lambda v: bessely(v, 1.0), 1),
    "besseli": Int("order", 0, lambda v: besseli(v, 1.0), 1),
    "besselk": Int("order", 0, lambda v: besselk(v, 1.0), 1),
    "angular_momentum": Int(
        "angular_momentum", 0,
        lambda v: EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=v), 1,
    ),
    "n_dim": Int(
        "n_dim", 1, lambda v: EffectivePotentialSpec(PotentialFamily.ZERO_MOMENTUM_NDIM, n_dim=v), 3
    ),
    "n_points": Int("n_points", 3, lambda v: RadialGrid(0.5, 2.0, v), 4),
    "find_zeros.n_max": Int("n_max", 1, lambda v: find_zeros(_J, 0, v), 3),
    "find_zeros.order": Int("order", 0, lambda v: find_zeros(_J, v, 3), 1),
    "ZeroTable": Int("order", 0, lambda v: ZeroTable(_J, v, _ZEROS.zeros), 0),
    "density_profile": Int("dimension", 1, lambda v: density_profile(v, 1.0, 0.5), 2),
    "density": Int("dimension", 1, lambda v: density(v, 1.0, [0.5]), 2),
    "ProbabilityDensity": Int(
        "dimension", 1, lambda v: ProbabilityDensity(v, 1.0, np.empty(0), np.empty(0)), 2
    ),
    "one_three_d_bound_energy": Int(
        "dimension", 1, lambda v: one_three_d_bound_energy(v, coupling=-2.0), 1
    ),
}


def _int_refusals():
    """(entry, bad value): the bools, non-integers and the integer just
    below the entry's least value."""
    for entry, arg in INTS.items():
        for bad in (True, np.True_, 1.0, 2.5, "1", None, arg.low - 1):
            yield pytest.param(entry, bad, id=f"{entry}-{bad!r}")


@pytest.mark.parametrize("entry, bad", _int_refusals())
def test_every_integer_argument_is_refused_in_one_wording(entry, bad):
    name, low, call = INTS[entry][:3]
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert str(excinfo.value) == f"{name} must be an integer of at least {low}, got {bad!r}"


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("entry", INTS)
def test_numpy_integers_give_the_result_of_an_int(entry, kind):
    arg = INTS[entry]
    assert _bits(arg.call(kind(arg.good))) == _bits(arg.call(arg.good))
