"""Frozen value records, defined without generated code.

A subclass of :class:`Record` declares its fields as annotations, with
optional defaults, as a frozen dataclass would. The fields are read from
the annotations once, when the class is defined; every method below is
shared by all records, so defining one compiles nothing.
"""

from __future__ import annotations

_MISSING = object()


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
