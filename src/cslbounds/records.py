"""Frozen value records: a base class that declares them without generating code.

A subclass lists its fields as annotations, in order, with class-level
values as their defaults. A field may declare its domain there instead, as
`live_time_days: float = positive()` or, with a default, `positive(4e-5)`.
One generic __init__ binds the arguments, checks each declared domain and
calls __post_init__, which may check invariants across fields or derive
values from them, so no per-class method is compiled at import. Records are
immutable, compare equal to a record of the same type with equal fields,
hash by their fields and print as `Name(field=value, ...)`.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable


class ConstraintError(ValueError):
    """A record field given a value outside the domain its record declares."""


REQUIRED = object()   # the default of a field that has none


class Constraint:
    """A record field's domain: the finite numbers of one kind, float or int, for which
    holds is true, named by phrase. A field whose default is None also admits None."""

    __slots__ = ("number", "phrase", "holds", "default")
    kind = property(lambda self: "an integer" if self.number is int else "a number")

    def __init__(self, number: type, phrase: str, holds: Callable[[float], bool], default: object = REQUIRED) -> None:
        self.number, self.phrase, self.holds, self.default = number, phrase, holds, default

    def violated_by(self, value: object) -> str | None:
        """None if value lies in the domain, else its phrase, or its kind for a value of another kind."""
        if value is None and self.default is None:
            return None
        try:
            number = operator.index(value) if self.number is int else value
            inside = self.holds(number) and (self.number is int or math.isfinite(number))
        except TypeError:
            return self.kind
        return None if inside else self.phrase


# positive() declares a required positive field, positive(1.0) one that defaults to 1.0
positive = functools.partial(Constraint, float, "positive", lambda v: v > 0)
non_negative = functools.partial(Constraint, float, "non-negative", lambda v: v >= 0)
finite = functools.partial(Constraint, float, "a finite number", lambda v: True)
in_unit_interval = functools.partial(Constraint, float, "in (0,1]", lambda v: 0 < v <= 1)
greater_than_one = functools.partial(Constraint, float, "greater than 1", lambda v: v > 1)
at_least_two = functools.partial(Constraint, int, "at least 2", lambda v: v >= 2)


class Record:
    _fields: tuple[str, ...] = ()   # field names in declaration order
    _defaults: dict = {}
    _checks: dict[str, Constraint] = {}   # declared domains by field name

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__annotations__)
        values = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
        checks = {name: value for name, value in values.items() if isinstance(value, Constraint)}
        values.update((name, check.default) for name, check in checks.items())
        cls._fields = cls._fields + own
        cls._checks = {**cls._checks, **checks}
        cls._defaults = {**cls._defaults, **{name: value for name, value in values.items() if value is not REQUIRED}}

    def __init__(self, *args, **kwargs) -> None:
        who, names = type(self).__name__, self._fields
        if len(args) > len(names):
            raise TypeError(f"{who}() takes at most {len(names)} positional arguments but {len(args)} were given")
        bound = dict(zip(names, args))
        for name in kwargs:
            if name in bound:
                raise TypeError(f"{who}() got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(f"{who}() got an unexpected keyword argument {name!r}")
        values = {**self._defaults, **bound, **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{who}() missing required argument(s): {', '.join(map(repr, missing))}")
        for name, check in self._checks.items():
            violated = check.violated_by(values[name])
            if violated:
                raise ConstraintError(f"{name} must be {violated} (got {values[name]!r})")
        self.__dict__.update((name, values[name]) for name in names)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes) -> Record:
        """A copy with the given fields changed, checked again by __init__."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
