"""Frozen records with the methods ``@dataclass(frozen=True)`` would generate,
defined once on a base class instead of compiled from source for each class.

``class X(Record):`` with annotated fields behaves like a frozen dataclass:
``dataclasses.fields``, ``dataclasses.replace`` and ``field(...)`` work, since
each subclass is still registered as a dataclass, but with ``init``, ``repr``
and ``eq`` off, so that registering it ``exec``s no generated code.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter

__all__ = ["Record"]


class Record:
    """Base of the package's immutable value types."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        dataclass(init=False, repr=False, eq=False)(cls)
        fs = fields(cls)
        cls._names = tuple(f.name for f in fs)
        cls._defaults = {f.name: f.default for f in fs if f.default is not MISSING}
        cls._factories = {f.name: f.default_factory for f in fs if f.default_factory is not MISSING}
        cls._key = attrgetter(*(f.name for f in fs if f.compare))
        cls._shown = tuple(f.name for f in fs if f.repr)

    def __init__(self, *args, **kwargs) -> None:
        names = self._names
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # object.__setattr__ keeps the fields in the instance's inline values;
        # reading self.__dict__ would build a dict, after which every attribute
        # read goes through it and takes about twice as long (CPython 3.11)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        # called from here, so that a warning at stacklevel=3 names the line
        # that built the record
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The values of all fields in order, from arguments that are not
        exactly one positional value per field."""
        names = cls._names
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        values, missing = list(args), []
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            elif name in cls._factories:
                values.append(cls._factories[name]())
            else:
                missing.append(name)
        for name in kwargs:
            how = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {how} argument {name!r}")
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required "
                            f"argument(s): {', '.join(map(repr, missing))}")
        return values

    def __post_init__(self) -> None:
        """Validate or normalize the fields; subclasses override it."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"
