"""In-memory span recorder for the traced run.

Spans are opened by the benchmark around its own calls into the library.
Each records its name, start, end, parent span and op id; counts are
recorded per op next to them.  Nothing is written until the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.op = -1
        self._open: list[int] = []

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(self.op, {})[name] = value

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def durations_ms(self, name: str) -> dict[int, float]:
        """Per op: summed duration, children included, of the spans `name`."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.op] = out.get(s.op, 0.0) + (s.end - s.start) * 1000.0
        return out

    def per_op(self, ops=None) -> dict[int, dict[str, float]]:
        """Per op: summed self time of each span name as "<name>_ms", and
        the counts under their own names.

        `ops` restricts the result to those op ids.
        """
        table: dict[int, dict[str, float]] = {}
        for s, t in zip(self.spans, self.self_times()):
            if ops is None or s.op in ops:
                row = table.setdefault(s.op, {})
                key = s.name + "_ms"
                row[key] = row.get(key, 0.0) + t * 1000.0
        for op, counts in self.counts.items():
            if ops is None or op in ops:
                table.setdefault(op, {}).update(counts)
        return table

    def medians(self, ops=None) -> dict[str, float]:
        """Per-op median of every span name and count over the ops that have it."""
        values: dict[str, list[float]] = {}
        for row in self.per_op(ops).values():
            for name, v in row.items():
                values.setdefault(name, []).append(v)
        return {name: statistics.median(vs) for name, vs in values.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing, else a no-op context."""
    return tracer.span(name) if tracer is not None else nullcontext()
