"""Built-in instances.

two-structures   six elements carrying two distinct structures with the
                 same centers.
forced           the nine-element class whose structure assignment is
                 completely forced.
trunc-N          finite truncations (N gadget copies, N <= 4) of the
                 infinite chain-of-gadgets example; each truncation is a
                 YES instance even though the infinite limit is not.
s2of3-fail       three-chain whose W skips the middle factor.
chain-N          bounded chain with full W between the N marked middles,
                 the finite shadow of the downward-infinite chain example.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import UnknownFixture
from .formats import InstanceFile, build_relative

if TYPE_CHECKING:
    from .relative import RelStruct

_GADGET_EDGES = [
    ("U", "E"), ("U", "C"), ("Up", "C"), ("Up", "Ep"),
    ("C", "D"), ("C", "Dp"), ("E", "D"), ("Ep", "Dp"),
]
_GADGET_WEQ = _GADGET_EDGES + [("U", "D"), ("U", "Dp"), ("Up", "D"), ("Up", "Dp")]


def _two_structures() -> InstanceFile:
    return InstanceFile(
        elements=["bot", "A", "B", "Bp", "C", "top"],
        leq=[("bot", "A"), ("A", "B"), ("A", "Bp"), ("B", "C"), ("Bp", "C"), ("C", "top")],
        weq=[("A", "B"), ("A", "Bp"), ("A", "C"), ("B", "C"), ("Bp", "C")],
        add_identities=True,
    )


def _forced() -> InstanceFile:
    return InstanceFile(
        elements=["bot", "U", "Up", "E", "Ep", "C", "D", "Dp", "top"],
        leq=[("bot", "U"), ("bot", "Up"), ("D", "top"), ("Dp", "top")] + _GADGET_EDGES,
        weq=sorted(_GADGET_WEQ),
        add_identities=True,
    )


def _s2of3_fail() -> InstanceFile:
    return InstanceFile(
        elements=["a", "b", "c"],
        leq=[("a", "b"), ("b", "c")],
        weq=[("a", "c")],
        add_identities=True,
    )


def _trunc(n: int) -> InstanceFile:
    elements = ["bot"] + [f"A{i}" for i in range(n + 1)]
    leq = [("bot", "A0"), (f"A{n}", "top")]
    leq += [(f"A{i}", f"A{i + 1}") for i in range(n)]
    weq = [(f"A{i}", f"A{j}") for i in range(n + 1) for j in range(i + 1, n + 1)]
    for k in range(1, n + 1):
        gadget = [f"{v}{k}" for v in ("U", "Up", "E", "Ep", "C", "D", "Dp")]
        elements += gadget
        leq += [(f"{a}{k}", f"{b}{k}") for (a, b) in _GADGET_EDGES]
        leq += [
            ("bot", f"U{k}"), ("bot", f"Up{k}"),
            (f"D{k}", "top"), (f"Dp{k}", "top"),
            (f"U{k}", f"A{k - 1}"), (f"C{k}", f"A{k}"),
        ]
        weq += [(f"{a}{k}", f"{b}{k}") for (a, b) in _GADGET_WEQ]
    elements.append("top")
    return InstanceFile(elements=elements, leq=leq, weq=sorted(weq), add_identities=True)


def _chain(n: int) -> InstanceFile:
    elements = ["bot"] + [f"m{i}" for i in range(1, n + 1)] + ["top"]
    leq = [(elements[i], elements[i + 1]) for i in range(len(elements) - 1)]
    weq = [(f"m{i}", f"m{j}") for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return InstanceFile(elements=elements, leq=leq, weq=weq, add_identities=True)


def fixture(name: str) -> InstanceFile:
    if name == "two-structures":
        return _two_structures()
    if name == "forced":
        return _forced()
    if name == "s2of3-fail":
        return _s2of3_fail()
    m = re.fullmatch(r"trunc-([1-4])", name)
    if m:
        return _trunc(int(m.group(1)))
    m = re.fullmatch(r"chain-([0-9]+)", name)
    if m and 1 <= int(m.group(1)) <= 64:
        return _chain(int(m.group(1)))
    raise UnknownFixture(name)


def load(name: str) -> RelStruct:
    return build_relative(fixture(name))
