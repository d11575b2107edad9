"""Shared exception types, and the base of the immutable value classes."""

from operator import attrgetter

# Sets a slot past the guard of _Frozen.__setattr__.
_set = object.__setattr__


class _Frozen:
    """An immutable value made of the fields in its class's ``__slots__``.

    A subclass lists its fields once, in ``__slots__``, and ``__init__``
    below takes them by position or by name in that order; ``help()`` shows
    only ``(*values, **named)``, and ``repr`` prints the fields in order.
    Only a class that checks or derives a value writes its own ``__init__``,
    setting the slots with ``_assign`` (or ``_set``); a slot named with a
    leading underscore holds something derived from the fields and takes no
    part below.  Instances are equal when they are of the same class with
    equal fields, hash as the tuple of their fields, print as
    ``Name(field=value, ...)`` and pickle by calling ``__init__`` again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._fields = names
        # attrgetter returns a tuple for two names or more only.
        cls._astuple = staticmethod(
            attrgetter(*names) if len(names) > 1 else lambda self: tuple(getattr(self, n) for n in names)
        )

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named:
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
        if len(values) != len(fields) or named:
            raise TypeError(f"{type(self).__qualname__} takes the fields ({', '.join(fields)})")
        self._assign(*values)

    def _assign(self, *values) -> None:
        """Set the slots from ``__init__``, in order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class StructuralError(ValueError):
    """Operands or arguments are structurally incompatible (wrong ring,
    wrong shape, missing variable)."""


class RingMismatchError(StructuralError):
    """Operands belong to different rings."""


class UnsupportedOperationError(ValueError):
    """The operation is not defined for this ring or exceeds a cost guard."""


class ValidationError(ValueError):
    """Constructor arguments violate a documented constraint."""
