"""Reference clocks: scale wall times to a fixed machine speed.

Each vCPU of a shared virtual machine flips between a fast and a slow
state, about 1.9x apart, every 0.1-0.3 s, on its own, and the share of slow
time drifts over minutes.  A run therefore times a fixed reference task
before each op and during long ones, on the op's vCPU, and reports each
op's wall time scaled by nominal / measured reference time.  A change in
the library moves the op and not the reference, so it shows in the scaled
figure; a change in the machine's speed moves both, and mostly cancels.

Two references, matched to what an op spends its time on:

- `Kernel`: pure-Python work shaped like the library's inner loops, for
  ops that run the library in-process.
- `Process`: a fresh interpreter that imports the standard-library modules
  the CLI uses, for ops that are subprocesses.

Neither touches the library, so no change to it can move a reference.
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple


def current_cpu() -> int | None:
    """The vCPU this process is running on, where Linux tells."""
    try:
        stat = Path("/proc/self/stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one vCPU, so that a reference
    and the op it scales run on the same one.  The vCPU is the one the
    scheduler has put the process on, so two runs started at once still
    tend to get one each."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    cpu = current_cpu()
    try:
        os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})
    except OSError:  # a sandbox may forbid it; the scaling still works, less well
        pass


class _Pair(NamedTuple):
    src: int
    dst: int


class _Order:
    """A chain of n elements, with its joins tabulated."""

    def __init__(self, n: int):
        self._join = [[max(a, b) for b in range(n)] for a in range(n)]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]


class _Class:
    def __init__(self, members):
        self.index = {p: i for i, p in enumerate(members)}

    def __contains__(self, p) -> bool:
        return p in self.index


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


_ORDER = _Order(24)
_MEMBERS = [_Pair(a, b) for a in range(0, 24, 3) for b in range(a, 24, 4)]
_CLASS = _Class(_MEMBERS)
_TABLE = [((1 << 90) - 1) // (i + 3) for i in range(90)]


def _kernel() -> int:
    """Library-shaped work: named-tuple pairs built from method calls and
    looked up in a class, then a loop over the set bits of a big int."""
    hits = 0
    for f in _MEMBERS[:14]:
        for g in _MEMBERS:
            if _Pair(_ORDER.join(f.src, g.src), _ORDER.join(f.dst, g.dst)) in _CLASS:
                hits += 1
    acc = 0
    mask = (1 << 90) - 1
    for i in _bits(mask):
        acc |= _TABLE[i] & (mask >> (i % 7))
    return hits + bin(acc).count("1")


class Kernel:
    """About 0.3 ms of pure-Python work shaped like the library's inner
    loops, on the fast phases of a 2.1 GHz Xeon.  It tracked the speed of
    recognize-large's ops better than a loop of plain dict and set updates.

    A sample is the median of three runs: a single run is now and then two
    or three times too slow (an interrupt, or caches cold after a big op).
    """

    nominal_s = 0.0003
    tick_s = 0.05  # long ops are also sampled this often while they run

    def sample(self) -> float:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        return sorted(runs)[1]


class Process:
    """A fresh interpreter importing what `posetmodels.cli` imports from the
    standard library; about 55 ms on the same machine."""

    nominal_s = 0.055
    # no ticks: while a subprocess runs, a handler in the parent would take
    # the child's vCPU
    tick_s = 0.0
    argv = [sys.executable, "-c", "import argparse, dataclasses, itertools, json, re"]

    def sample(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.argv, check=True, capture_output=True, timeout=120)
        return time.perf_counter() - t0


class Scaler:
    """Scales wall times by the reference sampled around and during them.

    `start` samples the reference and begins a timing; `stop` ends it.
    While `ticking`, a SIGALRM handler also samples the reference every
    `tick_s`, in the middle of long ops, and the handler's own time is
    taken out of the op's wall time: the speed of the machine can flip
    several times within one op.  `scaled` scales each wall time by
    nominal over the mean of the samples taken during it, the last one
    before it and the first one after it.
    """

    def __init__(self, ref):
        self.ref = ref
        self.samples: list[tuple[float, float]] = []  # (taken at, reference seconds)
        self.timings: list[tuple[float, float, float]] = []  # (started, ended, wall seconds)
        self.paused = 0.0  # seconds spent in the tick handler
        self._t0 = self._paused0 = 0.0

    def sample(self) -> None:
        value = self.ref.sample()
        self.samples.append((time.perf_counter(), value))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - t0

    @contextmanager
    def ticking(self):
        """Sample every `tick_s` of wall time, if the reference asks for it."""
        tick = self.ref.tick_s
        if not tick or not hasattr(signal, "setitimer"):
            yield
            return
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, tick, tick)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def start(self) -> None:
        self.sample()
        self._paused0 = self.paused
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        """End the timing begun by `start`; returns its wall seconds."""
        ended = time.perf_counter()
        wall = ended - self._t0 - (self.paused - self._paused0)
        self.timings.append((self._t0, ended, wall))
        return wall

    def scaled(self) -> list[float]:
        """Every recorded wall time, at the reference's nominal speed."""
        if self.timings and self.samples[-1][0] < self.timings[-1][1]:
            self.sample()
        taken = [t for t, _ in self.samples]
        out = []
        for started, ended, wall in self.timings:
            lo = bisect.bisect_left(taken, started) - 1
            hi = bisect.bisect_left(taken, ended)
            around = [v for _, v in self.samples[lo:hi + 1]]
            out.append(wall * self.ref.nominal_s / (sum(around) / len(around)))
        return out

    def timed(self, fn):
        """Run fn() between samples; return its result and its wall time."""
        self.start()
        out = fn()
        return out, self.stop()
