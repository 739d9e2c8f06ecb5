"""Independent ground truth: exhaustive enumeration and random instances.

Enumeration is complete because in any model structure the acyclic
cofibrations form an identity-containing class closed under composition
and pushout, and that class determines the rest: fibrations are its right
complement and cofibrations the left complement of the acyclic fibrations.
Every such closed class is the closure of its own non-identity members, so
growing closures one generator at a time, from the identities, visits all
of them.

Growth is incremental.  Each closed class is kept with its element rows
and columns (rows[a] = the b with (a, b) in the class).  To extend a
closed class by a generator, only the generator and the pairs it brings in
are processed, on copies of those rows and columns: the pushouts of a new
pair (a, b) are its pushout targets, its composites are (a, c) for c in
rows[b] and (c, b) for c in cols[a], looked up in a 2-D pair index.  A
growth that leaves W stops at once: such a class can never be an
acyclic-cofibration class for this W.  The closure of a set is unique, so
the sorted class list does not depend on the order of growth.  Candidates
are then filtered through the exhaustive verifier, which is what makes the
result an oracle rather than a construction: the recognition theorem is
never used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .classes import MorphClass
from .errors import CapExceeded, NotALattice, Unbounded
from .lattice import build_lattice, iter_bits
from .models import ModelStruct, _generated_by, verify_model
from .relative import RelStruct, check_s2of3, validate_relative

DEFAULT_MAX_ELEMENTS = 10
DEFAULT_MAX_GENERATORS = 14


def _closed_classes(rel: RelStruct, max_generators: int) -> list[int]:
    """Every identity-containing class inside W closed under composition
    and pushout, as sorted pair masks (see the module docstring)."""
    lat = rel.lattice
    ps = lat.pairs
    weq_mask = rel.weq.mask
    gens = [i for i in iter_bits(weq_mask) if ps[i].src != ps[i].dst]
    if len(gens) > max_generators:
        raise CapExceeded("non-identity weak equivalences", max_generators, len(gens))
    pushouts = lat.pushout_targets
    bit = [[0] * lat.n for _ in range(lat.n)]  # bit[a][b]: the bit of pair (a, b)
    for i, (a, b) in enumerate(ps):
        bit[a][b] = 1 << i
    root = MorphClass.identities(lat)
    seen = {root.mask: (root.rows, root.cols)}
    queue = [root.mask]
    while queue:
        s = queue.pop()
        s_rows, s_cols = seen[s]
        for g in gens:
            if (s >> g) & 1:
                continue
            # s is closed: only g and the pairs it brings in need processing
            rows, cols = s_rows[:], s_cols[:]
            mask = s | (1 << g)
            work = [g]
            while work:
                i = work.pop()
                a, b = ps[i]
                new = pushouts[i]
                for c in iter_bits(rows[b]):  # (b, c) present: compose to (a, c)
                    new |= bit[a][c]
                for c in iter_bits(cols[a]):  # (c, a) present: compose to (c, b)
                    new |= bit[c][b]
                rows[a] |= 1 << b
                cols[b] |= 1 << a
                new &= ~mask
                if new & ~weq_mask:  # escaped W: never an acyclic-cofibration class
                    break
                mask |= new
                work.extend(iter_bits(new))
            else:
                if mask not in seen:
                    seen[mask] = (rows, cols)
                    queue.append(mask)
    return sorted(seen)


def enumerate_model_structures(
    rel: RelStruct,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> list[ModelStruct]:
    """All model structures with weak equivalences W, deterministically ordered."""
    lat = rel.lattice
    if lat.n > max_elements:
        raise CapExceeded("lattice elements", max_elements, lat.n)
    candidates: dict[tuple[int, int], tuple[MorphClass, MorphClass]] = {}
    for a_mask in _closed_classes(rel, max_generators):
        cof, fib = _generated_by(rel, MorphClass(lat, a_mask))
        candidates.setdefault((cof.mask, fib.mask), (cof, fib))
    out = []
    for key in sorted(candidates):
        m = ModelStruct(rel, *candidates[key])  # the complements' own classes, grids included
        if verify_model(m).ok:
            out.append(m)
    return out


def decide_by_enumeration(rel: RelStruct, **caps) -> bool:
    return bool(enumerate_model_structures(rel, **caps))


@dataclass(frozen=True)
class InstanceGen:
    """Reproducible stream parameters; identical seeds give identical streams."""

    seed: int = 0
    max_elements: int = 7
    weq_density: float = 0.35


def _compose_close(n: int, pairs: set) -> set:
    """Close a set of element pairs under composition: Warshall's
    transitive closure on element rows."""
    rows = [0] * n
    for (a, b) in pairs:
        rows[a] |= 1 << b
    for k in range(n):
        for a in range(n):
            if rows[a] >> k & 1:
                rows[a] |= rows[k]
    return {(a, b) for a in range(n) for b in iter_bits(rows[a])}


def random_instances(gen: InstanceGen, s2of3_only: bool = False) -> Iterator[RelStruct]:
    """Endless stream of random valid relative structures.

    Random order closures are lattice-validated by rejection; W is a random
    pair subset closed under composition, with identities added.  The
    optional filter keeps only instances satisfying strong 2-of-3.
    """
    rng = random.Random(gen.seed)
    while True:
        n = rng.randint(2, gen.max_elements)
        names = [f"x{i}" for i in range(n)]
        density = 0.2 + 0.4 * rng.random()
        rels = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        try:
            lat = build_lattice(names, rels)
        except (NotALattice, Unbounded):
            continue
        candidates = [p for p in lat.pairs if p.src != p.dst]
        chosen = {
            (p.src, p.dst) for p in candidates if rng.random() < gen.weq_density
        }
        closed = _compose_close(n, chosen)
        rel = validate_relative(lat, sorted(closed), add_identities=True)
        if s2of3_only and not check_s2of3(rel).ok:
            continue
        yield rel
