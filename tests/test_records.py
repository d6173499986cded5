"""The contract every frozen record of the package keeps.

Each record is built by position or by keyword, fills in its declared
defaults, runs its ``__post_init__`` checks, refuses assignment, compares
and hashes by the values of its fields in order, and prints as
``Name(field=value, ...)``.
"""

import copy
from typing import NamedTuple

import numpy as np
import pytest

from anticentrifugal.boundstate import (
    DeltaBoundState,
    DeltaCoupling2D,
    DensityForm,
    ProbabilityDensity,
)
from anticentrifugal.nodes import BunchingVerdict, NodeDensityReport, ZeroTable
from anticentrifugal.potentials import UNITS, EffectivePotentialSpec, PotentialFamily
from anticentrifugal.quadrature import QuadratureResult
from anticentrifugal.radial import EnergySign, RadialGrid, RadialWave, SolutionFamily
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
        ProbabilityDensity, ("dimension", "wavenumber", "radii", "weights", "form"),
        (2, 1.0, _GRID.points, np.ones(4), DensityForm.RING),
        (2, 1.0, _GRID.points, np.ones(4), DensityForm.EXP_LINE),
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
    # a ClassVar is not a field
    assert spec.units == UNITS
    assert "units" not in repr(spec)
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
    # __post_init__ stores the converted value through object.__setattr__
    zeros = [2.404825557695773, 5.520078110286311]
    table = ZeroTable(CylinderFamily.BESSEL_J, 0, zeros)
    assert isinstance(table.zeros, np.ndarray)
    np.testing.assert_array_equal(table.zeros, zeros)
