"""Deterministic DOT export of decorated Hasse diagrams.

Drawn edges are the covering relations plus any non-identity weak
equivalences.  Weak equivalences carry a "~" label, cofibrations a hooked
tail, fibrations a doubled head; an edge in several classes combines the
attributes.  Node and edge order follow the element order bit-for-bit.
Labels are written as DOT quoted IDs, with each ``\\`` doubled and each
``"`` escaped as ``\\"``; any other label is written as it is.
"""

from __future__ import annotations

from .models import ModelStruct
from .relative import RelStruct


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_attrs(in_we: int, in_cof: int, in_fib: int) -> str:
    attrs = []
    if in_cof:
        attrs.append(('arrowtail', 'hook'))
        attrs.append(('dir', 'both'))
    if in_fib:
        attrs.append(('arrowhead', 'normalnormal'))
    if in_we:
        attrs.append(('label', '~'))
    if not attrs:
        return ""
    inner = ", ".join(f'{k}="{v}"' for k, v in sorted(attrs))
    return f" [{inner}]"


def export_dot(target: RelStruct | ModelStruct) -> str:
    if isinstance(target, ModelStruct):
        rel, cof, fib = target.rel, target.cof.rows, target.fib.rows
    else:
        rel = target
        cof = fib = [0] * rel.lattice.n
    lat, we = rel.lattice, rel.weq.rows
    edges = set(lat.cover_pairs())
    edges.update(rel.weq.nonidentity_pairs())
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for name in lat.names:
        lines.append(f"  {_quote(name)};")
    for p in sorted(edges):
        attrs = _edge_attrs(*(rows[p.src] >> p.dst & 1 for rows in (we, cof, fib)))
        a, b = map(_quote, lat.pair_names(p))
        lines.append(f"  {a} -> {b}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
