"""Verification reports: named checks with lexicographically least witnesses."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One named condition. `witness` is the least counterexample, or None."""

    name: str
    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    def __post_init__(self):  # once: a verified structure's report is re-read by every guard on it
        object.__setattr__(self, "_ok", all(c.ok for c in self.checks))

    @property
    def ok(self) -> bool:
        return self._ok

    def __bool__(self) -> bool:
        return self.ok

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
