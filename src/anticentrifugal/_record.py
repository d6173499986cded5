"""Frozen value records, defined without generated code.

A subclass of :class:`Record` declares its fields as annotations, with
optional defaults, as a frozen dataclass would. The fields are read from
the annotations once, when the class is defined; every method below is
shared by all records, so defining one compiles nothing.

:func:`check_real` is the one check of a real argument (its twin
:func:`check_reals` also takes an array) and :func:`check_int` the one
check of an integer argument, a record's field or a function's.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MISSING = object()

#: the sign words of check_real and the test each makes against 0
_SIGNS = {None: None, "positive": operator.gt, "non-negative": operator.ge}


def check_reals(name: str, value, *, sign: str | None = None):
    """value as a Python float, or as a float64 array if it has one
    dimension or more, when it is a real number or an array or sequence of
    them, every element finite (and of the sign named, "positive" or
    "non-negative", if one is); else ValueError names the first element
    that is not, or the value that is not real in the same words: a bool,
    str, bytes, None or complex value, an array of them, or an int past
    the float range, and in a list or tuple the first element that is one
    of these."""
    above = _SIGNS[sign]
    if type(value) is float and math.isfinite(value) and (above is None or above(value, 0.0)):
        return value  # about 20 times cheaper than the numpy pass, which would agree
    if isinstance(value, (list, tuple)):
        # numpy types a list by all its elements, reading True among floats
        # as 1.0, None as nan and a bytearray as its bytes: the first
        # element that is not real is judged in the list's place
        value = next(
            (v for v in _elements(value) if type(v) is not float and not _is_real_element(v)), value
        )
    try:  # numpy would read None as nan and a bytearray as bytes
        xs = np.asarray(value)
        real = xs.dtype.kind in "iufO" and not (value is None or isinstance(value, bytearray))
        if real:
            xs = np.asarray(xs, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or an int past the float range
        real = False
    if real:
        ok = np.isfinite(xs) if above is None else np.isfinite(xs) & above(xs, 0.0)
        if ok.all():
            return xs if xs.ndim else float(xs)
        value = xs[~ok][0].item()
    raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value!r}")


def _elements(seq):
    """the elements of a list or tuple, and of the lists and tuples in it"""
    for v in seq:
        if isinstance(v, (list, tuple)):
            yield from _elements(v)
        else:
            yield v


#: the least int that float() overflows on
_INT_OVERFLOW = 2**1024 - 2**970


def _is_real_element(v) -> bool:
    if type(v) is int:
        return -_INT_OVERFLOW < v < _INT_OVERFLOW
    # numpy gives None and an int past int64 dtype kind O, and reads a
    # bytearray as its bytes
    return not isinstance(v, bytearray) and np.asarray(v).dtype.kind in "iuf"


def check_real(name: str, value, *, sign: str | None = None) -> float:
    """check_reals of an argument that takes a single number: an array of
    one dimension or more raises ValueError too."""
    if type(x := check_reals(name, value, sign=sign)) is float:
        return x
    raise ValueError(f"{name} must be a single number, got {x!r}")


def check_int(name: str, value, low: int) -> int:
    """value as a Python int, when it is a Python or numpy integer of at
    least low; else ValueError.  A bool is refused."""
    if isinstance(value, (int, np.integer)) and type(value) is not bool and value >= low:
        return int(value)
    raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


class Record:
    """Construction by position or keyword with defaults, ``__post_init__``,
    AttributeError on assignment, value equality and hash over the fields
    in order, and a ``Name(field=value, ...)`` repr."""

    #: field name -> default, or _MISSING
    _fields: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = {**cls._fields, **{name: cls.__dict__.get(name, _MISSING) for name in own}}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values = self.__dict__
        for i, (key, default) in enumerate(fields.items()):
            if i < len(args):
                if key in kwargs:
                    raise TypeError(f"{name}() got multiple values for argument {key!r}")
                values[key] = args[i]
            elif key in kwargs:
                values[key] = kwargs[key]
            elif default is not _MISSING:
                values[key] = default
            else:
                raise TypeError(f"{name}() missing required argument {key!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        """The fields and their values, in declaration order."""
        return {key: self.__dict__[key] for key in self._fields}

    def _astuple(self) -> tuple:
        return tuple(self._asdict().values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{key}={value!r}" for key, value in self._asdict().items())
        return f"{type(self).__qualname__}({body})"
