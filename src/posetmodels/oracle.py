"""Independent ground truth: exhaustive enumeration and random instances.

Enumeration is complete because in any model structure the acyclic
cofibrations form an identity-containing class closed under composition
and pushout, and that class determines the rest: fibrations are its right
complement and cofibrations the left complement of the acyclic fibrations.
Every such closed class is the closure of its own non-identity members, so
growing closures one generator at a time visits all of them.  Candidates
are then filtered through the exhaustive verifier, which is what makes the
result an oracle rather than a construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .classes import MorphClass, left_complement, right_complement
from .errors import CapExceeded, NotALattice, Unbounded
from .lattice import FiniteLattice, build_lattice, iter_bits
from .models import ModelStruct, verify_model
from .relative import RelStruct, check_s2of3, validate_relative

DEFAULT_MAX_ELEMENTS = 10
DEFAULT_MAX_GENERATORS = 14


def _close(lat: FiniteLattice, start: int, weq_mask: int) -> int | None:
    """Close `start` under composition and pushout inside the pair set.

    Returns the closed mask, or None as soon as the closure escapes W (such
    a class can never be an acyclic-cofibration class for this W).
    """
    pushouts = lat.pushout_targets
    index = lat.pair_index
    ps = lat.pairs
    mask = start
    work = list(iter_bits(start))
    by_src: dict[int, list[int]] = {}
    by_dst: dict[int, list[int]] = {}
    while work:
        i = work.pop()
        a, b = ps[i]
        new = pushouts[i]
        for j in by_src.get(b, ()):  # (b, c) present: compose to (a, c)
            new |= 1 << index[(a, ps[j].dst)]
        for j in by_dst.get(a, ()):  # (c, a) present: compose to (c, b)
            new |= 1 << index[(ps[j].src, b)]
        by_src.setdefault(a, []).append(i)
        by_dst.setdefault(b, []).append(i)
        new &= ~mask
        if new & ~weq_mask:
            return None
        mask |= new
        work.extend(iter_bits(new))
    return mask


def _closed_classes(rel: RelStruct, max_generators: int) -> list[int]:
    lat = rel.lattice
    gens = [i for i in iter_bits(rel.weq.mask) if lat.pairs[i].src != lat.pairs[i].dst]
    if len(gens) > max_generators:
        raise CapExceeded("non-identity weak equivalences", max_generators, len(gens))
    root = lat.identity_mask
    seen = {root}
    queue = [root]
    while queue:
        s = queue.pop()
        for g in gens:
            if (s >> g) & 1:
                continue
            t = _close(lat, s | (1 << g), rel.weq.mask)
            if t is not None and t not in seen:
                seen.add(t)
                queue.append(t)
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
    candidates: dict[tuple[int, int], None] = {}
    for a_mask in _closed_classes(rel, max_generators):
        fib = right_complement(MorphClass(lat, a_mask))
        cof = left_complement(fib & rel.weq)
        candidates.setdefault((cof.mask, fib.mask))
    out = []
    for cof_mask, fib_mask in sorted(candidates):
        m = ModelStruct(rel, MorphClass(lat, cof_mask), MorphClass(lat, fib_mask))
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


def _compose_close(pairs: set) -> set:
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


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
        closed = _compose_close(chosen)
        rel = validate_relative(lat, sorted(closed), add_identities=True)
        if s2of3_only and not check_s2of3(rel).ok:
            continue
        yield rel
