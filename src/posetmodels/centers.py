"""Choices of centers: validation, search, enumeration, derived classes.

A center map collapses each weak-equivalence component onto a single
element whose comparison square with every component member lies in W.
Existence of such a map (together with strong 2-of-3) is exactly what the
recognition decision detects, so the search here is the second, center-based
route to the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import MorphClass
from .errors import InternalCheckFailed, InvalidInput, S2OF3Failed
from .lattice import Pair, iter_bits
from .relative import RelStruct, check_s2of3, _pushout_stable_part
from .report import Check, Report


@dataclass(frozen=True)
class CenterMap:
    """A total element-to-element map; chi[a] is the center of a."""

    chi: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.chi[a]


def center_square(rel: RelStruct, a: int, c: int) -> tuple[Pair, Pair, Pair, Pair]:
    """The four boundary morphisms of the comparison square of a with c."""
    lat = rel.lattice
    m = lat.meet(a, c)
    j = lat.join(a, c)
    return (Pair(m, c), Pair(m, a), Pair(a, j), Pair(c, j))


def _square_in_weq(rel: RelStruct, a: int, c: int) -> bool:
    """Whether all four edges of the comparison square of a with c lie in W."""
    lat = rel.lattice
    ac = 1 << a | 1 << c
    return (rel.weq.rows[lat.meet(a, c)] & ac) == ac and (rel.weq.cols[lat.join(a, c)] & ac) == ac


def validate_centers(rel: RelStruct, chi: CenterMap) -> Report:
    """Check every defining property of a choice of centers, least witness each.

    Only a map that passes is memoised on `rel`, keyed by its chi tuple
    (see :class:`~posetmodels.lattice.Dualizable`); a failing map is
    checked in full on every call.
    """
    key = ("validate_centers", chi.chi)
    report = rel._memo.get(key)
    if report is None:
        report = _check_centers(rel, chi)
        if report.ok:
            report = rel._cached(key, lambda _: report)
    return report


def _check_centers(rel: RelStruct, chi: CenterMap) -> Report:
    lat = rel.lattice
    n = lat.n
    well_formed = len(chi.chi) == n and all(0 <= v < n for v in chi.chi)
    checks = [Check("well_formed", well_formed)]
    if not well_formed:
        return Report(tuple(checks))

    witness = None
    for a in range(n):
        for b in iter_bits(lat.up_mask(a)):
            if not lat.leq(chi.chi[a], chi.chi[b]):
                witness = (a, b)
                break
        if witness:
            break
    checks.append(Check("monotone", witness is None, witness))

    witness = None
    for comp in rel.components:
        vals = {chi.chi[x] for x in comp}
        if len(vals) > 1:
            witness = tuple(comp)
            break
    checks.append(Check("constant_on_components", witness is None, witness))

    witness = None
    for a in range(n):
        if rel.component_of[chi.chi[a]] != rel.component_of[a]:
            witness = (a, chi.chi[a])
            break
    checks.append(Check("center_in_component", witness is None, witness))

    witness = None
    rows = rel.weq.rows
    for a in range(n):
        for p in center_square(rel, a, chi.chi[a]):
            if not rows[p.src] >> p.dst & 1:
                witness = (a, p)
                break
        if witness:
            break
    checks.append(Check("squares_in_weq", witness is None, witness))

    witness = None
    for a in range(n):
        if chi.chi[chi.chi[a]] != chi.chi[a]:
            witness = (a,)
            break
    checks.append(Check("idempotent", witness is None, witness))
    return Report(tuple(checks))


def _component_candidates(rel: RelStruct) -> list[list[int]]:
    """Per component: the elements whose square with every member lies in W."""
    out = []
    for comp in rel.components:
        out.append([c for c in comp if all(_square_in_weq(rel, a, c) for a in comp)])
    return out


def _component_relation(rel: RelStruct) -> list[list[bool]]:
    """rel[i][j]: some element of component i is <= some element of component j."""
    lat = rel.lattice
    k = len(rel.components)
    masks = [0] * k
    for i, comp in enumerate(rel.components):
        for x in comp:
            masks[i] |= 1 << x
    up_of_comp = [0] * k
    for i, comp in enumerate(rel.components):
        for x in comp:
            up_of_comp[i] |= lat.up_mask(x)
    return [[up_of_comp[i] & masks[j] != 0 for j in range(k)] for i in range(k)]


def _search(rel: RelStruct):
    """Yield valid center maps in lexicographic order of the chi tuple.

    Components are processed in first-element order with candidates
    ascending, which makes depth-first emission order coincide with
    lexicographic order on chi (components are listed by least element and
    every prefix of element indices is covered by a prefix of components).
    """
    candidates = _component_candidates(rel)
    crel = _component_relation(rel)
    lat = rel.lattice
    k = len(rel.components)
    assigned: list[int | None] = [None] * k

    def consistent(i: int, c: int) -> bool:
        for j in range(k):
            d = assigned[j]
            if d is None:
                continue
            if crel[j][i] and not lat.leq(d, c):
                return False
            if crel[i][j] and not lat.leq(c, d):
                return False
        return True

    def extend(i: int):
        if i == k:
            chi = [0] * lat.n
            for ci, comp in enumerate(rel.components):
                for x in comp:
                    chi[x] = assigned[ci]
            yield CenterMap(tuple(chi))
            return
        for c in candidates[i]:
            if consistent(i, c):
                assigned[i] = c
                yield from extend(i + 1)
                assigned[i] = None

    yield from extend(0)


def _require_s2of3(rel: RelStruct) -> None:
    rep = check_s2of3(rel)
    if not rep.ok:
        raise S2OF3Failed(rep.witness)


def find_centers(rel: RelStruct) -> CenterMap | None:
    """The lexicographically least valid center map, or None."""
    _require_s2of3(rel)
    for chi in _search(rel):
        return chi
    return None


@dataclass(frozen=True)
class CenterEnumeration:
    maps: tuple[CenterMap, ...]
    truncated: bool


def enumerate_centers(rel: RelStruct, limit: int = 1024) -> CenterEnumeration:
    """Up to `limit` valid center maps, lexicographically ordered; a
    negative limit is an input error."""
    if limit < 0:
        raise InvalidInput(f"limit must be at least 0, got {limit}")
    _require_s2of3(rel)
    maps = []
    truncated = False
    for chi in _search(rel):
        if len(maps) == limit:
            truncated = True
            break
        maps.append(chi)
    return CenterEnumeration(tuple(maps), truncated)


def compute_Jchi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms whose codomain sits below its center.

    On the grid path this is W & (every domain, the codomains b <= chi(b)),
    read on W's op() side by its kit.  The pair-table path scans W.
    """
    lat = rel.lattice
    below = sum(1 << b for b in range(lat.n) if lat.leq(b, chi.chi[b]))
    kit = lat._kit
    if kit is not None:
        return MorphClass._of_grid(lat, rel.weq._grid & kit.outer((1 << lat.n) - 1, below))
    return MorphClass(lat, sum(1 << i for i in iter_bits(rel.weq.mask) if below >> lat.pairs[i].dst & 1))


def compute_Qchi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms whose center sits below the domain: J_chi of the
    opposite structure (:func:`compute_Jchi`)."""
    return compute_Jchi(rel.op(), chi).op()


def compute_Wc_chi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms all of whose nondegenerate pushouts stay in W and avoid Q_chi."""
    allowed = rel.weq.mask & ~compute_Qchi(rel, chi).mask | rel.lattice.identity_mask
    return _pushout_stable_part(rel, allowed, "W_c^chi")


def compute_Wf_chi(rel: RelStruct, chi: CenterMap) -> MorphClass:
    """W-morphisms all of whose nondegenerate pullbacks stay in W and avoid
    J_chi: W_c^chi of the opposite structure (:func:`compute_Wc_chi`)."""
    return compute_Wc_chi(rel.op(), chi).op()


def product_centers(rel: RelStruct, chi1: CenterMap, chi2: CenterMap) -> CenterMap:
    """Pointwise product (meet) of two center maps; always valid again."""
    lat = rel.lattice
    chi = CenterMap(tuple(lat.meet(chi1.chi[a], chi2.chi[a]) for a in range(lat.n)))
    rep = validate_centers(rel, chi)
    if not rep.ok:
        bad = rep.witness_check()
        raise InternalCheckFailed(f"product of centers invalid at {bad.name}, witness {bad.witness}")
    return chi
