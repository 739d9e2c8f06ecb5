"""Independent ground truth: exhaustive enumeration and random instances.

Enumeration is complete because in any model structure the acyclic
cofibrations form an identity-containing class closed under composition
and pushout, and that class determines the rest: fibrations are its right
complement and cofibrations the left complement of the acyclic fibrations.
Every such closed class is the closure of its own non-identity members, so
growing closures one generator at a time, from the identities, visits all
of them.  The closure of a set is unique, so the sorted class list does
not depend on the order of growth, and canonical growth (below) forms
each class once.

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
dropped up front.  No T leaves a W that is a subcategory: s and PO(g)
lie in W, which is composition-closed.  Any other W has no model
structure, and the W-only checks of ``verify_model`` reject it first.

Canonical growth (Close-by-One: S. O. Kuznetsov, 1993; B. Ganter,
K. Reuter, *Order* 8, 1991).  A closed class J inside W holds only
identities and grown generators: a non-identity pair of J has its
pushouts in J, so in W.  Write c(X) for the closure of the identities
and X; then J = c(J), so J's generator bits name it.  Order the grown
generators g_0 < ... < g_{m-1} by grid bit, let low_i be every grid
bit below g_i, and low_m every bit.  Growth starts at the root c() with
start 0.  A class s reached with start j has the children
t = c(s + {g_i}), i >= j, g_i not in s, that pass the canonicity test
t & low_i == s & low_i; t has start i + 1.  Each closed class is reached
exactly once:
  (1) A class s reached with start j has s = c(s & low_j).  The root
      has it, and if s has it, a child t holds g_i and agrees with s
      below it, so c(t & low_{i+1}) = c(s & low_i + {g_i}) = c(s + {g_i})
      = t, as s & low_j <= s & low_i <= s.
  (2) If t is reached from s by g_i, then i is the least index with
      t = c(t & low_{i+1}), since c(t & low_i) = c(s & low_i) = s by (1),
      and s = c(t & low_i).  Both are fixed by t, so t has one parent
      and one generator, and, by induction on size, one path.
  (3) Let t be closed, not the root, i least with t = c(t & low_{i+1})
      and s = c(t & low_i) != t.  Then g_i is in t and not in s,
      c(s + {g_i}) = t, and s agrees with t below g_i.  By induction
      s is reached, and as s = c(s & low_i) its start is at most i; so t
      is its child.
t - s holds only generators, so the test compares generators below g_i.
A closure only adds pairs, so a seed s | PO(g_i) whose pushouts below
g_i are not all in s fails the test, and is skipped before it is closed;
a seed that is closed agrees with s below g_i, and is tested in its
place.  Passing each failed closure on to the children (FCbO:
J. Outrata, V. Vychodil, *Information Sciences* 185, 2012) skips a
seventh of the closures that remain, but measured no faster.

Everything runs on stacks of grids, in chunks of at most ``_STACK_BYTES``
bytes, on the kit and gathers of ``FiniteLattice._grid_route`` on either
side of the gate.  Growth goes one breadth-first level at a time: each
frontier class s and each of its children's generators g give
s | PO(g), PO(g) read off the join table, and one stacked Warshall pass
of n steps closes them all.  One stacked pass of the
complement kernels then gives every closed class J its candidate
(lc(W & rc(J)), rc(J)), and :func:`~posetmodels.classes._model_fails`, the
one implementation of the ten cof/fib conditions of
:func:`~posetmodels.models.verify_model`, checks all candidates at once:
a candidate passes iff its block of the OR of the ten differences is
zero.  The W-only checks of ``verify_model``, memoised on the relative
structure, gate every candidate, so the check is as exhaustive as
``verify_model``'s, and an accepted structure carries the passing report
``verify_model`` gives it.  Pair index -> grid bit is increasing on both
op() sides, so grids sort as their pair masks do.  Candidates are
filtered through this exhaustive check, which is what makes the result an
oracle rather than a construction: the recognition theorem is never used.
"""

from __future__ import annotations

import random
from typing import Iterator

from .classes import _MODEL_CHECKS, MorphClass, _model_fails
from .errors import CapExceeded, InvalidInput, NotALattice, Unbounded, require_count
from .lattice import Pair, build_lattice, iter_bits
from .models import ModelStruct, _weq_checks
from .relative import RelStruct, check_s2of3, validate_relative
from .report import Check, FrozenRecord, Report, _set

DEFAULT_MAX_ELEMENTS = 10
DEFAULT_MAX_GENERATORS = 14
_STACK_BYTES = 1 << 15  # the most bytes one stack spans (module docstring)


def _chunks(kit, grids: list[int]) -> Iterator[tuple[object, list[int]]]:
    """`grids` cut into runs of at most _STACK_BYTES bytes, each with its stack kit."""
    per = max(1, _STACK_BYTES // kit.block_bytes)
    for i in range(0, len(grids), per):
        chunk = grids[i:i + per]
        yield kit.stacked(len(chunk)), chunk


def _generators(rel: RelStruct, max_generators: int) -> list[Pair]:
    """The non-identity members of W; more than `max_generators` exceed the cap."""
    gens = rel.weq.nonidentity_pairs()
    if len(gens) > max_generators:
        raise CapExceeded("non-identity weak equivalences", max_generators, len(gens))
    return gens


def _closed_grids(lat, kit, weq: int, gens: list[Pair]) -> list[int]:
    """The grid of every identity-containing class inside W closed under
    composition and pushout, each once, in order of growth, W being a
    subcategory with grid `weq` and non-identity members `gens` (module
    docstring: the closure lemma and canonical growth)."""
    # gens come in pair order, which is grid-bit order on both op() sides
    grown = []  # rows (g, PO(g), PO(g) below g, every bit below g, the start of the children)
    for (a, b) in gens:
        pushouts = sum(kit.bit(c, lat.join(b, c)) for c in iter_bits(lat.up_mask(a)))
        if not pushouts & ~weq:
            g = kit.bit(a, b)
            grown.append((g, pushouts, pushouts & (g - 1), g - 1, len(grown) + 1))
    found = [kit.ids]
    frontier = [(kit.ids, 0)]
    while frontier:
        seeds, rows = [], []
        for s, start in frontier:
            for row in grown[start:]:
                if not (s & row[0] or row[2] & ~s):
                    seeds.append(s | row[1])
                    rows.append(row)
        closed = []
        for stack, chunk in _chunks(kit, seeds):
            closed += stack.unpack(stack.closure(stack.pack(chunk)))
        frontier = [(t, row[4]) for t, seed, row in zip(closed, seeds, rows) if not (t ^ seed) & row[3]]
        found += [t for t, _ in frontier]
    return found


def enumerate_model_structures(
    rel: RelStruct,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> list[ModelStruct]:
    """All model structures with weak equivalences W, ordered by (cof mask,
    fib mask).  A cap that is no int, a bool or below 0 is an input error.
    Both caps are checked first; then W's own checks may return [] before
    any growth."""
    require_count("max_elements", max_elements)
    require_count("max_generators", max_generators)
    lat = rel.lattice
    if lat.n > max_elements:
        raise CapExceeded("lattice elements", max_elements, lat.n)
    gens = _generators(rel, max_generators)
    we_sub, two_of_three = _weq_checks(rel)
    if not (we_sub.ok and two_of_three.ok):
        return []
    kit, to_grid, from_grid = lat._grid_route()
    weq = to_grid(rel.weq.bits)
    report = Report((we_sub, *(Check(name, True) for name in _MODEL_CHECKS), two_of_three))
    found = set()
    for stack, chunk in _chunks(kit, _closed_grids(lat, kit, weq, gens)):
        weqs = stack.repeat(weq)
        fib = stack.rc(stack.pack(chunk))
        cof = stack.lc(fib & weqs)
        failed = 0
        for fails in _model_fails(stack, cof, fib, weqs):
            failed |= fails
        cofs, fibs = stack.unpack(cof), stack.unpack(fib)
        found.update((cofs[j], fibs[j]) for j in stack.zero_blocks(failed))
    return [ModelStruct(rel, MorphClass._of(lat, from_grid(c)), MorphClass._of(lat, from_grid(f)), report)
            for c, f in sorted(found)]


def decide_by_enumeration(rel: RelStruct, **caps) -> bool:
    return bool(enumerate_model_structures(rel, **caps))


class InstanceGen(FrozenRecord):
    """Reproducible stream parameters; identical seeds give identical streams.
    An element cap that is no int of at least 2, or a density that is no
    real in [0, 1] (a bool is neither), is an input error."""

    __slots__ = ("seed", "max_elements", "weq_density")

    def __init__(self, seed: int = 0, max_elements: int = 7, weq_density: float = 0.35):
        require_count("max_elements", max_elements, 2)
        if not isinstance(weq_density, (int, float)) or isinstance(weq_density, bool) or not 0 <= weq_density <= 1:
            raise InvalidInput(f"weq_density must be a real in [0, 1], got {weq_density!r}")
        _set(self, "seed", seed)
        _set(self, "max_elements", max_elements)
        _set(self, "weq_density", weq_density)


def random_instances(gen: InstanceGen, s2of3_only: bool = False) -> Iterator[RelStruct]:
    """Endless stream of random valid relative structures.

    Random order closures are lattice-validated by rejection; W is a random
    pair subset closed under composition by the grid kit's Warshall
    closure, with identities added.  The optional filter keeps only
    instances satisfying strong 2-of-3.
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
        kit, _, from_grid = lat._grid_route()
        chosen = sum(kit.bit(a, b) for a, b in lat.pairs if a != b and rng.random() < gen.weq_density)
        closed = MorphClass._of(lat, from_grid(kit.closure(chosen)))
        rel = validate_relative(lat, closed.name_pairs(), add_identities=True)
        if s2of3_only and not check_s2of3(rel).ok:
            continue
        yield rel
