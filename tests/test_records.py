"""The contract every frozen record of the package keeps.

Each record is built by position or by keyword, fills in its declared
defaults, runs its ``__post_init__`` checks, refuses assignment, compares
and hashes by the values of its fields in order, and prints as
``Name(field=value, ...)``.  Every real argument, a record's field or a
function's, passes one check, which refuses it in one wording.
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
from anticentrifugal.nodes import BunchingVerdict, NodeDensityReport, ZeroTable
from anticentrifugal.potentials import (
    EffectivePotentialSpec,
    PotentialFamily,
    default_grid,
    eval_potential,
)
from anticentrifugal.quadrature import QuadratureResult
from anticentrifugal.radial import (
    EnergySign,
    RadialGrid,
    RadialWave,
    SolutionFamily,
    analytic_radial,
)
from anticentrifugal.specfun import CylinderFamily
from anticentrifugal.verify import SuiteResult

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
            ValueError, "angular_momentum must be non-negative",
        ),
        (lambda: RadialGrid(2.0, 0.5, 4), ValueError, "need 0 < r_min < r_max"),
        (lambda: RadialGrid(0.5, 2.0, 4.0), TypeError, "n_points must be an int"),
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


class Real(NamedTuple):
    name: str
    positive: bool
    call: object  # the entry point with this argument set to its parameter
    good: int  # a valid value that a float32 and an int64 hold exactly
    lane: bool = False  # the value is one lane of an array argument


#: every entry point that checks a real argument, with the argument it checks
REALS = {
    "density_profile": Real("wavenumber", True, lambda v: density_profile(2, v, 1.0), 1),
    "density": Real("wavenumber", True, lambda v: density(2, v, [0.5]), 1),
    "planar_rows": Real("wavenumber", True, lambda v: planar_rows(v, np.array([0.5, 2.0])), 1),
    "default_grid": Real("wavenumber", True, default_grid, 2),
    "analytic_radial": Real(
        "wavenumber", True, lambda v: analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, v, _GRID), 1
    ),
    "RadialWave": Real("wavenumber", True, lambda v: RadialWave(_GRID, np.ones(4), v, *_K_WAVE), 1),
    "coupling_from_k.k": Real("wavenumber", True, lambda v: coupling_from_k(v, 1.0), 1),
    "coupling_from_k.cutoff": Real("cutoff", True, lambda v: coupling_from_k(1.0, v), 2),
    "cutoff_integral.k": Real("wavenumber", True, lambda v: cutoff_integral(v, 2.0), 1),
    "cutoff_integral.cutoff": Real("cutoff", True, lambda v: cutoff_integral(1.0, v), 2),
    "cutoff_integral.lane": Real(
        "wavenumber", True, lambda v: cutoff_integral(np.array([1.0, v, 1.0]), 2.0), 1, True
    ),
    "k_from_coupling.coupling": Real("coupling", False, lambda v: k_from_coupling(v, 1.0), 10),
    "k_from_coupling.cutoff": Real("cutoff", True, lambda v: k_from_coupling(10.0, v), 2),
    "coupling_residual": Real("coupling", True, lambda v: coupling_residual(v, 1.0, 1.0), 10),
    "one_three_d_bound_energy.1": Real(
        "coupling", False, lambda v: one_three_d_bound_energy(1, coupling=v), -2
    ),
    "one_three_d_bound_energy.3": Real(
        "inverse scattering length", False,
        lambda v: one_three_d_bound_energy(3, inverse_scattering_length=v), 2,
    ),
    "eval_potential": Real("radius", True, lambda v: eval_potential(_PLANAR0, v), 2),
    "eval_potential.lane": Real(
        "radius", True, lambda v: eval_potential(_PLANAR0, np.array([1.0, v])), 2, True
    ),
    "classical_l_squared": Real(
        "classical_l_squared", False,
        lambda v: EffectivePotentialSpec(PotentialFamily.CLASSICAL, classical_l_squared=v), 3,
    ),
    "RadialGrid.r_min": Real("r_min", False, lambda v: RadialGrid(v, 2.0, 5), 1),
    "RadialGrid.r_max": Real("r_max", False, lambda v: RadialGrid(0.5, v, 5), 2),
}

def _refusals():
    """(entry, bad value) for each value that the entry's rule refuses.  An
    array lane holds floats only, and None is the default of
    one_three_d_bound_energy's keywords: the argument is missing."""
    for entry, real in REALS.items():
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1", None):
            if isinstance(bad, float) and math.isfinite(bad) and not real.positive:
                continue
            if (real.lane and not isinstance(bad, float)) or (
                bad is None and entry.startswith("one_three_d")
            ):
                continue
            yield pytest.param(entry, bad, id=f"{entry}-{bad!r}")


@pytest.mark.parametrize("entry, bad", _refusals())
def test_every_real_argument_is_refused_in_one_wording(entry, bad):
    name, positive, call = REALS[entry][:3]
    rule = "positive and finite" if positive else "finite"
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert str(excinfo.value) == f"{name} must be {rule}, got {bad!r}"


def _bits(x):
    """x with every float as its type and hex digits, every array as its
    dtype, shape and bytes, and every record as its fields in order."""
    if isinstance(x, Record):
        return type(x).__name__, _bits(x._astuple())
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, np.floating)):
        return type(x).__name__, float(x).hex()
    return x


@pytest.mark.parametrize("kind", [np.float32, np.int64, lambda v: np.array(float(v))],
                         ids=["float32", "int64", "0-d array"])
@pytest.mark.parametrize("entry", REALS)
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
