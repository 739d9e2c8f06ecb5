"""Verification reports: named checks with lexicographically least witnesses.

Also the two record bases of the package's plain value classes,
:class:`Record` and :class:`FrozenRecord`.
"""

from __future__ import annotations

_set = object.__setattr__  # how a frozen record's __init__ sets its fields


class Record:
    """A record of the fields its subclass names in ``__slots__``; a slot
    whose name starts with an underscore holds a derived value, not a field.

    A record equals a record of the same type with equal fields, is shown
    as ``Type(field=value, ...)``, and copies and pickles by its
    constructor, which takes the fields in slot order.  Mutable records
    are unhashable.
    """

    __slots__ = ()
    __hash__ = None
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(f for f in own if not f.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable, hashable :class:`Record`; its ``__init__`` sets each
    slot with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class Check(FrozenRecord):
    """One named condition. `witness` is the least counterexample, or None."""

    __slots__ = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: tuple | None = None):
        _set(self, "name", name)
        _set(self, "ok", ok)
        _set(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok

    def require(self, error) -> "Check":
        """This check if it holds, else raise ``error(self)``: the one way a
        failed check or report becomes an exception."""
        if self.ok:
            return self
        raise error(self)


class Report(FrozenRecord):
    __slots__ = ("checks", "_ok")

    def __init__(self, checks: tuple[Check, ...]):
        _set(self, "checks", checks)
        # once: a verified structure's report is re-read by every guard on it
        _set(self, "_ok", all(c.ok for c in checks))

    @property
    def ok(self) -> bool:
        return self._ok

    def __bool__(self) -> bool:
        return self.ok

    def require(self, error) -> "Report":
        """This report if every check holds, else raise ``error(c)`` for its
        first failing check c (:meth:`Check.require`)."""
        if not self._ok:
            self.witness_check().require(error)
        return self

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def witness_check(self) -> Check | None:
        """First failing check, in check order."""
        for c in self.checks:
            if not c.ok:
                return c
        return None

    @property
    def witness(self) -> tuple | None:
        c = self.witness_check()
        return None if c is None else c.witness

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)
