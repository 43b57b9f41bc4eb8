"""Frozen value records: a base class that declares them without generating code.

A subclass lists its fields as annotations, in order, with class-level
values as their defaults. A field may declare its domain there instead, as
`live_time_days: float = positive()` or, with a default, `positive(4e-5)`.
One generic __init__ binds the arguments, reads each declared field into the
value it holds (an int given a float field is the float it equals) and calls
__post_init__, which may check invariants across fields or derive values
from them, so no per-class method is compiled at import. Records are
immutable, compare equal to a record of the same type with equal fields,
hash by their fields and print as `Name(field=value, ...)`.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Any, Callable


class ConstraintError(ValueError):
    """A value outside the domain a record field declares, worded by its Constraint; a record prefixes the field's name."""


REQUIRED = object()   # the default of a field that has none


class Constraint:
    """A record field's domain, named by phrase: the values that convert takes to the field's kind,
    named by kind, for which holds is true. A field whose default is None also admits None."""

    __slots__ = ("kind", "convert", "phrase", "holds", "default")

    def __init__(self, kind: str, convert: Callable, phrase: str, holds: Callable, default: object = REQUIRED) -> None:
        self.kind, self.convert, self.phrase, self.holds, self.default = kind, convert, phrase, holds, default

    def read(self, value: object) -> Any:
        """value as the field holds it, or a ConstraintError that says what the field expects: a value
        of another kind, an integer beyond the float range or a value outside the domain."""
        if value is None and self.default is None:
            return None
        try:
            held = self.convert(value)
            if self.holds(held):
                return held
        except TypeError:
            raise ConstraintError(f"expected {self.kind} (got {value!r})") from None
        except OverflowError:   # an integer beyond the largest float
            raise ConstraintError(f"expected {self.kind} within the float range (got {value!r})") from None
        except ValueError:   # a value that names no member of an enumeration is outside the domain too
            pass
        raise ConstraintError(f"must be {self.phrase} (got {value!r})")


def _as(kind: type, value: object) -> object:
    """value as a float, int or bool field holds it: a bool only as a flag and a flag only a bool, as a float
    any other number (an int or a numpy scalar is the float it equals), as an int what operator.index takes.
    A numpy bool is neither: it is known by its dtype, so numpy need not be imported."""
    numpy_bool = getattr(getattr(value, "dtype", None), "kind", None) == "b"
    if isinstance(value, bool) != (kind is bool) or numpy_bool or isinstance(value, (str, bytes, bytearray)):
        raise TypeError
    return operator.index(value) if kind is int else kind(value)


_float, _int, _flag = (functools.partial(_as, kind) for kind in (float, int, bool))


# positive() declares a required positive field, positive(1.0) one that defaults to 1.0;
# a float field's domain holds no infinity and no NaN
_floats = functools.partial(functools.partial, Constraint, "a number", _float)
positive = _floats("positive", lambda v: 0 < v < math.inf)
non_negative = _floats("non-negative", lambda v: 0 <= v < math.inf)
finite = _floats("a finite number", math.isfinite)
in_unit_interval = _floats("in (0,1]", lambda v: 0 < v <= 1)
greater_than_one = _floats("greater than 1", lambda v: 1 < v < math.inf)
at_least_two = functools.partial(Constraint, "an integer", _int, "at least 2", lambda v: v >= 2)
flag = functools.partial(Constraint, "true or false", _flag, "true or false", lambda v: True)


def one_of(members: type, default: object = REQUIRED) -> Constraint:
    """The domain of a field that holds a member of the enumeration members, given the member or its value."""
    phrase = "one of " + ", ".join(member.value for member in members)
    return Constraint(phrase, members, phrase, lambda v: True, default)


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
            try:
                values[name] = check.read(values[name])
            except ConstraintError as exc:
                raise ConstraintError(f"{name}: {exc}") from None
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
