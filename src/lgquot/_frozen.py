"""Base of the immutable value classes: equality, hash, repr, copy and pickle."""

from __future__ import annotations


class Frozen:
    """An immutable value with the fields named in `_fields`.

    A subclass lists its fields in `_fields` and in `__slots__` and sets them
    in `__init__` through `object.__setattr__`.  Two values are equal when
    they are of the same class with equal fields, and the hash is that of the
    field tuple.  A class with an unhashable field sets `__hash__ = None`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, so copy and pickle never assign to a field
        return type(self), self._values()
