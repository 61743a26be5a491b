"""A frozen record base that, unlike a frozen dataclass, generates no code at import."""

from __future__ import annotations


class Frozen:
    """An immutable record over the fields named in a subclass's ``__slots__``.

    A subclass's ``__init__`` stores its fields through ``Frozen.__init__``,
    in ``__slots__`` order, and may then validate them.  Equality and hashing
    compare ``_key()``, every field by default, only between instances of the
    same class.  ``repr`` lists every field, and pickling and copying rebuild
    through the constructor, which takes the fields positionally.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return (self.__class__, tuple(getattr(self, name) for name in self.__slots__))
