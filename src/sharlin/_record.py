"""The base of the package's immutable records: what a frozen dataclass
does here, without the code generation ``dataclasses`` runs at import.
Instances keep a ``__dict__``, so ``functools.cached_property``,
``pickle`` and ``copy`` work as on any plain class."""
from __future__ import annotations

# Sets a field past ``Record.__setattr__``, for a hot record's own
# ``__init__``: writing to ``__dict__``, as the base does, builds the
# instance's dict, which slows every later attribute read a little.
setfield = object.__setattr__


class Record:
    """Immutable fields: the annotated class attributes, after the base
    classes' own, each defaulting to its class attribute if it has one. A
    record equals only a record of its own class with equal fields, and
    hashes and prints as a frozen dataclass. A record on a hot path writes
    out ``__init__``, ``__eq__`` and ``__hash__`` to the same effect."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls, given = type(self), dict(zip(fields, args), **kwargs)
            # no field may be unknown, given twice, or missing with no default
            if (len(given) != len(args) + len(kwargs) or not given.keys() <= set(fields)
                    or not all(name in given or hasattr(cls, name) for name in fields)):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
            args = [given[name] if name in given else getattr(cls, name) for name in fields]
        self.__dict__.update(zip(fields, args))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
