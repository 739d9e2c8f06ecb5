"""Choices of centers: validation, search, enumeration, derived classes.

A center map collapses each weak-equivalence component onto a single
element whose comparison square with every component member lies in W.
Existence of such a map (together with strong 2-of-3) is exactly what the
recognition decision detects, so the search here is the second, center-based
route to the same answer.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys

from .classes import MorphClass
from .errors import InternalCheckFailed, InvalidCenters, S2OF3Failed, require_count
from .lattice import Pair, _memoised, low_bit
from .relative import RelStruct, check_s2of3, _pushout_stable_part
from .report import Check, FrozenRecord, Report, _set


class CenterMap(FrozenRecord):
    """A total element-to-element map; chi[a] is the center of a."""

    __slots__ = ("chi",)

    def __init__(self, chi: tuple[int, ...]):
        _set(self, "chi", tuple(chi))

    def __call__(self, a: int) -> int:
        return self.chi[a]


def center_square(rel: RelStruct, a: int, c: int) -> tuple[Pair, Pair, Pair, Pair]:
    """The four boundary morphisms of the comparison square of a with c."""
    lat = rel.lattice
    m = lat.meet(a, c)
    j = lat.join(a, c)
    return (Pair(m, c), Pair(m, a), Pair(a, j), Pair(c, j))


@_memoised
def _square_rows(rel: RelStruct) -> list[int]:
    """S[x] = {y : (x ^ y, x) and (x, x v y) in W}; the comparison square of
    a and c lies in W iff c is in S[a] and a is in S[c]
    (:meth:`~posetmodels.lattice.FiniteLattice._square_rows`).  S is
    self-dual, so a side reads the one its opposite has memoised."""
    built = rel.op()._memo.get("_square_rows")
    return rel.lattice._square_rows(rel.weq.rows, rel.weq.cols) if built is None else built


def validate_centers(rel: RelStruct, chi: CenterMap) -> Report:
    """Check every defining property of a choice of centers, least witness each.

    A map is well formed when it holds n ints (not bools) in range(n).
    Monotonicity reads value masks: with above[v] = {x : chi(x) >= v},
    a <= b breaks it iff b is in up(a) & ~above[chi(a)], so the witness
    is the least a with that set nonzero and its lowest bit b, the least
    (a, b) in scan order.  The squares check reads the square rows
    S[x] = {y : (x ^ y, x) and (x, x v y) in W} (:func:`_square_rows`).
    Lemma: the comparison square of a and c lies in W iff c is in S[a]
    and a is in S[c].  Proof: its edges are (a ^ c, a) and (a, a v c),
    both in W iff c is in S[a], and (a ^ c, c) and (c, a v c), both in W
    iff a is in S[c].  So the least a whose square with chi(a) leaves W
    is found in O(n) bit tests, and only its four edges are built, for
    the witness (a, its first edge outside W).

    Only a map that passes is memoised on `rel`, keyed by its chi tuple
    (see :class:`~posetmodels.lattice.Dualizable`); a failing map is
    checked in full on every call.  A passing report memoised on
    ``rel.op()`` is read instead: a passing report holds no witness, and
    each check is self-dual.  ``op()`` keeps the elements and components
    and reverses the order, so well-formedness, idempotence, constancy on
    components and center-in-component read the same data; a <= b implies
    chi(a) <= chi(b) reads, reversed, as the same statement; and as meet
    and join swap, each comparison square keeps its four edges, reversed,
    so it lies in W iff it lies in W.op().
    """
    key = ("validate_centers", chi.chi)
    report = rel._memo.get(key)
    if report is None:
        report = rel.op()._memo.get(key) or _check_centers(rel, chi)
        if report.ok:
            report = rel._cached(key, lambda _: report)
    return report


def _require_valid_centers(rel: RelStruct, chi: CenterMap) -> None:
    report = validate_centers(rel, chi)
    report.require(lambda _: InvalidCenters(report))


def _check_centers(rel: RelStruct, chi: CenterMap) -> Report:
    lat, values = rel.lattice, chi.chi
    n = lat.n
    if len(values) != n or not all(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n for v in values):
        return Report((Check("well_formed", False),))
    image = list(dict.fromkeys(values))  # above[v] = {x : chi(x) >= v}, one gather per v
    above = dict(zip(image, lat._preimages(values, [lat.up_mask(v) for v in image])))
    up = next(((a, m) for a, v in enumerate(values) if (m := lat.up_mask(a) & ~above[v])), None)
    s, rows = _square_rows(rel), rel.weq.rows
    a = next((a for a, c in enumerate(values) if not s[a] >> c & s[c] >> a & 1), None)
    edges = () if a is None else center_square(rel, a, values[a])  # built only for the witness
    square = next(((a, p) for p in edges if not rows[p.src] >> p.dst & 1), None)
    witnesses = {
        "monotone": up and (up[0], low_bit(up[1])),
        "constant_on_components": next((comp for comp in rel.components if len({values[x] for x in comp}) > 1), None),
        "center_in_component": next(((a, v) for a, v in enumerate(values)
                                     if rel.component_of[v] != rel.component_of[a]), None),
        "squares_in_weq": square,
        "idempotent": next(((a,) for a, v in enumerate(values) if values[v] != v), None),
    }
    return Report((Check("well_formed", True), *(Check(name, w is None, w) for name, w in witnesses.items())))


def _component_candidates(rel: RelStruct) -> list[list[int]]:
    """Per component K: the c in K whose square with every member lies in
    W, {c in K : K <= S[c]} & (the AND of S[a], a in K), by the lemma of
    :func:`validate_centers`: O(n) masks in all."""
    s = _square_rows(rel)
    out = []
    for k, comp in zip(rel.component_masks, rel.components):
        common = functools.reduce(operator.and_, map(s.__getitem__, comp), k)
        out.append([c for c in comp if common >> c & 1 and not k & ~s[c]])
    return out


def _search(rel: RelStruct):
    """Yield valid center maps in lexicographic order of the chi tuple.

    Components are processed in first-element order with candidates
    ascending, which makes depth-first emission order coincide with
    lexicographic order on chi (components are listed by least element and
    every prefix of element indices is covered by a prefix of components).
    The candidates of a component K are the c in K with K <= S[c] and c in
    S[a] for every a in K, S the square rows (the lemma of
    :func:`validate_centers`): O(n) masks, no square is built.

    Monotonicity is one bound mask per level, U_j being the up-closure of
    component K_j and d_j its center: c is allowed for K_i iff it is in
    up(d_j) for each earlier j with U_j meeting K_i (an element of K_j
    lies below one of K_i) and in down(d_j) for each with U_i meeting K_j.
    So for any a <= b, the later of their components was bounded by the
    earlier one's center, and each candidate is one bit test.
    """
    lat = rel.lattice
    masks = rel.component_masks
    closures = [functools.reduce(operator.or_, map(lat.up_mask, comp)) for comp in rel.components]
    below = [[j for j in range(i) if closures[j] & masks[i]] for i in range(len(masks))]
    above = [[j for j in range(i) if closures[i] & masks[j]] for i in range(len(masks))]
    candidates = _component_candidates(rel)
    assigned = [0] * len(masks)

    def extend(i: int):
        if i == len(masks):
            yield CenterMap(tuple(map(assigned.__getitem__, rel.component_of)))
            return
        bound = -1
        for j in below[i]:
            bound &= lat.up_mask(assigned[j])
        for j in above[i]:
            bound &= lat.down_mask(assigned[j])
        for c in candidates[i]:
            if bound >> c & 1:
                assigned[i] = c
                yield from extend(i + 1)

    yield from extend(0)


def _require_s2of3(rel: RelStruct) -> None:
    check_s2of3(rel).require(lambda c: S2OF3Failed(c.witness))


def find_centers(rel: RelStruct) -> CenterMap | None:
    """The lexicographically least valid center map, or None."""
    _require_s2of3(rel)
    return next(_search(rel), None)


class CenterEnumeration(FrozenRecord):
    __slots__ = ("maps", "truncated")

    def __init__(self, maps: tuple[CenterMap, ...], truncated: bool):
        _set(self, "maps", maps)
        _set(self, "truncated", truncated)


def enumerate_centers(rel: RelStruct, limit: int = 1024) -> CenterEnumeration:
    """Up to `limit` valid center maps, lexicographically ordered, and
    whether the search had more: it runs one map past `limit`.  A limit
    that is no int, a bool or negative is an input error.  islice takes no
    stop above sys.maxsize, and no search yields that many maps, so a
    larger limit runs the search to its end."""
    require_count("limit", limit)
    _require_s2of3(rel)
    maps = tuple(itertools.islice(_search(rel), min(limit + 1, sys.maxsize)))
    return CenterEnumeration(maps[:limit], len(maps) > limit)


def compute_Jchi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms whose codomain sits below its center: W & (every domain,
    the codomains b <= chi(b)), read on W's op() side by its kit."""
    lat = rel.lattice
    below = sum(1 << b for b in range(lat.n) if lat.leq(b, chi.chi[b]))
    return MorphClass._of(lat, rel.weq.bits & lat._kit.outer((1 << lat.n) - 1, below))


def compute_Qchi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms whose center sits below the domain: J_chi of the
    opposite structure (:func:`compute_Jchi`)."""
    return compute_Jchi(rel.op(), chi).op()


def compute_Wc_chi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms all of whose nondegenerate pushouts stay in W and avoid
    Q_chi: the pushout-stable part of W in S = (W - Q_chi) | identities,
    W & ~(O∘N_S) (:func:`~posetmodels.relative._pushout_stable_part`)."""
    return _pushout_stable_part(rel, rel.weq - compute_Qchi(rel, chi) | MorphClass.identities(rel.lattice), "W_c^chi")


def compute_Wf_chi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms all of whose nondegenerate pullbacks stay in W and avoid
    J_chi: W_c^chi of the opposite structure (:func:`compute_Wc_chi`)."""
    return compute_Wc_chi(rel.op(), chi).op()


def product_centers(rel: RelStruct, chi1: CenterMap, chi2: CenterMap) -> CenterMap:
    """Pointwise product (meet) of two valid center maps, valid again; an
    invalid factor raises :class:`InvalidCenters`."""
    _require_valid_centers(rel, chi1)
    _require_valid_centers(rel, chi2)
    lat = rel.lattice
    chi = CenterMap(tuple(lat.meet(chi1.chi[a], chi2.chi[a]) for a in range(lat.n)))
    validate_centers(rel, chi).require(
        lambda c: InternalCheckFailed(f"product of centers invalid at {c.name}, witness {c.witness}"))
    return chi
