"""Independent ground truth: exhaustive enumeration and random instances.

Enumeration is complete because in any model structure the acyclic
cofibrations form an identity-containing class closed under composition
and pushout, and that class determines the rest: fibrations are its right
complement and cofibrations the left complement of the acyclic fibrations.
Every such closed class is the closure of its own non-identity members, so
growing closures one generator at a time, from the identities, visits all
of them.  The closure of a set is unique, so the sorted class list does
not depend on the order of growth.

Closure lemma.  Let s be closed, g = (a, b) a pair and PO(g) the set of
its pushouts (c, b v c), c >= a, which holds g.  Then the closure of
s + {g} is the transitive closure T of s | PO(g).  T lies in that closure
and holds s and g, and it is composition-closed.  It is pushout-closed:
s is, and so is PO(g), since the pushout of (c, b v c) along c <= d is
(d, b v d), again in PO(g); a union of pushout-closed classes is
pushout-closed; and the pushout of a composite is the composite of the
pushouts: along x <= d, (x, z) = (y, z)∘(x, y) pushes out to
(d, z v d) = (y v d, z v d)∘(d, y v d), the pushout of (x, y) along d and
of (y, z) along y v d.  So T is closed, and it is the closure.  A
generator whose own pushouts leave W lies in no class inside W and is
dropped up front.

Everything runs on stacks of grids (:class:`~posetmodels.lattice._GridKit`),
cut into chunks of at most ``_STACK_BYTES`` bytes, on either side of the
density gate: a sparse lattice builds its kit for the call.  Growth goes
one breadth-first level at a time: every frontier class s and generator g
not in s give s | PO(g), PO(g) read off the join table, and one stacked
Warshall pass of n steps closes them all; a block that leaves W is
dropped, and the rest are deduplicated.  One stacked pass of the
complement kernels then gives every closed class J its candidate
(lc(W & rc(J)), rc(J)), and :func:`~posetmodels.classes._model_fails`, the
one implementation of the ten cof/fib conditions of
:func:`~posetmodels.models.verify_model`, checks all candidates at once:
a candidate passes iff its block of the OR of the ten differences is
zero.  The W-only checks of ``verify_model``, memoised on the relative
structure, gate every candidate, so the check is as exhaustive as
``verify_model``'s, and an accepted structure carries the passing report
``verify_model`` gives it.  Pair index -> grid bit is increasing on both
op() sides, so grids sort as their pair masks do; masks are built only for
accepted structures.  Candidates are filtered through this exhaustive
check, which is what makes the result an oracle rather than a
construction: the recognition theorem is never used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .classes import _MODEL_CHECKS, MorphClass, _model_fails
from .errors import CapExceeded, InvalidInput, NotALattice, Unbounded
from .lattice import _GridKit, _side_kit, build_lattice, iter_bits
from .models import ModelStruct, _weq_checks
from .relative import RelStruct, check_s2of3, validate_relative
from .report import Check, Report

DEFAULT_MAX_ELEMENTS = 10
DEFAULT_MAX_GENERATORS = 14
_STACK_BYTES = 1 << 15  # the most bytes one stack spans (module docstring)


def _require_cap(name: str, cap: int) -> None:
    if cap < 0:
        raise InvalidInput(f"{name} must be at least 0, got {cap}")


def _chunks(kit: _GridKit, grids: list[int]) -> Iterator[tuple[_GridKit, list[int]]]:
    """`grids` cut into runs of at most _STACK_BYTES bytes, each with its stack kit."""
    per = max(1, _STACK_BYTES // kit.block_bytes)
    for i in range(0, len(grids), per):
        chunk = grids[i:i + per]
        yield kit.stacked(len(chunk)), chunk


def _closed_grids(rel: RelStruct, kit: _GridKit, weq: int, max_generators: int) -> list[int]:
    """The grid of every identity-containing class inside W, whose grid is
    `weq`, closed under composition and pushout (module docstring), in no
    fixed order."""
    lat = rel.lattice
    gens = rel.weq.nonidentity_pairs()
    if len(gens) > max_generators:
        raise CapExceeded("non-identity weak equivalences", max_generators, len(gens))
    grown = []  # (g's grid bit, PO(g)) of each generator whose pushouts stay in W
    for (a, b) in gens:
        pushouts = sum(kit.bit(c, lat.join(b, c)) for c in iter_bits(lat.up_mask(a)))
        if not pushouts & ~weq:
            grown.append((kit.bit(a, b), pushouts))
    seen = {kit.ids}
    frontier = [kit.ids]
    while frontier:
        seeds = dict.fromkeys(s | pushouts for s in frontier for g, pushouts in grown if not s & g)
        frontier = []
        for stack, chunk in _chunks(kit, [s for s in seeds if s not in seen]):
            closed = stack.closure(stack.pack(chunk))
            blocks = stack.unpack(closed)
            for j in stack.zero_blocks(closed & ~stack.repeat(weq)):
                if blocks[j] not in seen:
                    seen.add(blocks[j])
                    frontier.append(blocks[j])
    return list(seen)


def _closed_classes(rel: RelStruct, max_generators: int) -> list[int]:
    """Every identity-containing class inside W closed under composition
    and pushout, as sorted pair masks (see the module docstring)."""
    kit = rel.lattice._kit or _side_kit(rel.lattice)
    return sorted(map(kit.to_mask, _closed_grids(rel, kit, kit.from_mask(rel.weq.mask), max_generators)))


def _class_of(lat, kit: _GridKit, grid: int) -> MorphClass:
    """The class of `grid`, carrying the grid where the lattice keeps grids."""
    if lat._kit is None:
        return MorphClass(lat, kit.to_mask(grid))
    return MorphClass._of_grid(lat, grid)


def enumerate_model_structures(
    rel: RelStruct,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> list[ModelStruct]:
    """All model structures with weak equivalences W, ordered by (cof mask,
    fib mask).  A cap below 0 is an input error."""
    _require_cap("max_elements", max_elements)
    _require_cap("max_generators", max_generators)
    lat = rel.lattice
    if lat.n > max_elements:
        raise CapExceeded("lattice elements", max_elements, lat.n)
    kit = lat._kit or _side_kit(lat)  # a sparse lattice builds a kit for the call
    weq = kit.from_mask(rel.weq.mask)
    classes = _closed_grids(rel, kit, weq, max_generators)
    we_sub, two_of_three = _weq_checks(rel)
    if not (we_sub.ok and two_of_three.ok):
        return []
    report = Report((we_sub, *(Check(name, True) for name in _MODEL_CHECKS), two_of_three))
    found = set()
    for stack, chunk in _chunks(kit, classes):
        weqs = stack.repeat(weq)
        fib = stack.rc(stack.pack(chunk))
        cof = stack.lc(fib & weqs)
        failed = 0
        for fails in _model_fails(stack, cof, fib, weqs):
            failed |= fails
        cofs, fibs = stack.unpack(cof), stack.unpack(fib)
        found.update((cofs[j], fibs[j]) for j in stack.zero_blocks(failed))
    return [ModelStruct(rel, _class_of(lat, kit, c), _class_of(lat, kit, f), report) for c, f in sorted(found)]


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
