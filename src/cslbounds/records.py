"""Frozen value records: a base class that declares them without generating code.

A subclass lists its fields as annotations, in order, with class-level
values as their defaults, and may define __post_init__ to check them. One
generic __init__ binds the arguments, so no per-class method is compiled at
import. Records are immutable, compare equal to a record of the same type
with equal fields, hash by their fields and print as
`Name(field=value, ...)`.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()   # field names in declaration order
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

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
