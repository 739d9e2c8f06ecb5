"""Identity-functor Quillen comparisons, uniqueness zigzags, and reduction.

Any two verified structures sharing (lattice, W) are connected by a zigzag
of identity left Quillen equivalences routed through the structures that
the J_chi classes of their center maps generate; and every structure
reduces to the trivial structure on its cofibrant-fibrant objects.
"""

from __future__ import annotations

import itertools

from .classes import MorphClass
from .errors import InternalCheckFailed, MismatchedBase, NotALattice, Unbounded
from .lattice import FiniteLattice, build_lattice
from .models import (
    ModelStruct,
    _cofibrant_replacements,
    _enlarged,
    _generated_by,
    _require_verified,
    _verified,
    extract_centers,
)
from .centers import compute_Jchi, product_centers
from .relative import RelStruct
from .report import FrozenRecord, Record, _set


def _require_same_base(m1: ModelStruct, m2: ModelStruct) -> None:
    if m1.lattice != m2.lattice:
        raise MismatchedBase("structures live on different lattices")
    if m1.we.bits != m2.we.bits:
        raise MismatchedBase("structures have different weak equivalences")


def is_identity_left_quillen(m1: ModelStruct, m2: ModelStruct) -> bool:
    """Whether the identity functor is left Quillen from m1 to m2.

    With shared weak equivalences this is containment of cofibration
    classes; the acyclic-cofibration containment follows by intersecting
    with W, and any identity left Quillen functor here is automatically a
    Quillen equivalence.
    """
    _require_same_base(m1, m2)
    _require_verified(m1)
    _require_verified(m2)
    return m1.cof <= m2.cof


class Zigzag(Record):
    """Alternating chain of identity Quillen equivalences.

    directions[i] is "lr" when the identity is left Quillen from nodes[i]
    to nodes[i+1] and "rl" for the opposite direction.  In a chain from
    :func:`build_zigzag`, equal nodes are the same object, the ends are
    the objects it was called with, and the interior nodes are shared by
    every chain built for the same first structure and equal second ones.
    The lists are the caller's own.
    """

    __slots__ = ("nodes", "directions")

    def __init__(self, nodes: list[ModelStruct], directions: list[str]):
        self.nodes = nodes
        self.directions = directions

    def __len__(self) -> int:
        return len(self.directions)

    def edge_ok(self, i: int) -> bool:
        a, b = self.nodes[i], self.nodes[i + 1]
        return is_identity_left_quillen(a, b) if self.directions[i] == "lr" else is_identity_left_quillen(b, a)

    def all_edges_ok(self) -> bool:
        return all(self.edge_ok(i) for i in range(len(self.directions)))


def build_zigzag(m1: ModelStruct, m2: ModelStruct, contract: bool = False) -> Zigzag:
    """The comparison zigzag through the enlarged and the J_chi structures.

    With chi1, chi2 the center maps of m1, m2 and chi their pointwise
    meet, the nodes are m1, N1, C1, C, C2, N2, m2: Ni enlarges the acyclic
    cofibrations of mi by J_chii (:func:`construct_newcofib`), and Ck, C
    are the structures generated by J_chik, J_chi.  Emits the full chain;
    pass contract=True to drop interior nodes wherever a direct identity
    Quillen equivalence already exists.

    The verified full chain is memoised on m1 (per ``op()`` side, see
    :class:`~posetmodels.lattice.Dualizable`), keyed by m2's (cof bits,
    fib bits), so a second call for the same m1 and m2, full or
    contracted, computes no J_chi and verifies no node; contract=True
    contracts a fresh copy of it.  The ends are always the argument
    objects, and an interior node equal to an end is that end.

    Each J_chi is computed once, and a node equal to an end or to an
    earlier node is that node's object: Ni is mi itself when J_chii lies in
    mi's acyclic cofibrations (the lemma of :func:`construct_newcofib`),
    and any other node whose classes an end or an earlier node has is not
    verified again.

    An edge is left Quillen from x to y iff cof(x) <= cof(y).  Write
    G(J) for the structure generated by J: fibrations rc(J), cofibrations
    lc(W & rc(J)).  Both complements reverse inclusion, so J <= J' gives
    rc(J') <= rc(J) and then cof G(J) <= cof G(J'): the generated
    cofibrations grow with J.
      * mi -> Ni: :func:`construct_newcofib` asserts cof(mi) <= cof(Ni).
      * Ck -> Nk: Nk = G(acof(mk) | J_chik), and J_chik lies in that
        generator, so cof(Ck) = cof G(J_chik) <= cof(Nk).
      * C -> Ck: J_chi holds the (a, b) in W with b <= chi(b), and
        chi(b) = chi1(b) ^ chi2(b) <= chik(b), so J_chi <= J_chik and
        cof(C) <= cof(Ck).
    The center structures of :func:`construct_from_centers` do not serve as
    Ck: their fibrations rc(W_c^chi) can lie strictly inside rc(J_chi), and
    then Nk's cofibrations need not contain theirs.  Each node passes
    :func:`verify_model`: a new node when it is built, a repeated one as
    the object that already passed (same base, same classes, same report).
    Each edge is checked when the chain is built.
    """
    _require_same_base(m1, m2)
    _require_verified(m1)
    _require_verified(m2)
    if m1 == m2:
        return Zigzag([m1], [])
    ends = (m1, m2)
    interior = m1._cached(("build_zigzag", m2.cof.bits, m2.fib.bits), lambda _: _interior(m1, m2))
    z = Zigzag([m1, *(ends[x] if type(x) is int else x for x in interior), m2], list(_DIRECTIONS))
    if contract:
        _contract(z)
    return z


_DIRECTIONS = ("lr", "rl", "rl", "lr", "lr", "rl")


def _interior(m1: ModelStruct, m2: ModelStruct) -> tuple:
    """The five interior nodes of :func:`build_zigzag`'s checked full chain,
    with a node equal to m1 or m2 kept as its index 0 or 1, so that the memo
    on m1 holds neither end."""
    rel = m1.rel
    chi1 = extract_centers(m1)
    chi2 = extract_centers(m2)
    j1, j, j2 = (compute_Jchi(rel, c) for c in (chi1, product_centers(rel, chi1, chi2), chi2))
    known = {(m.cof.bits, m.fib.bits): m for m in (m1, m2)}

    def node(rel, cof, fib, context):
        """The node with these classes: a known one, or a new one verified."""
        key = cof.bits, fib.bits
        if key not in known:
            known[key] = _verified(rel, cof, fib, context)
        return known[key]

    nodes = [m1, _enlarged(m1, j1, node)]
    nodes += [node(rel, *_generated_by(rel, jk), "J_chi structure") for jk in (j1, j, j2)]
    nodes += [_enlarged(m2, j2, node), m2]
    z = Zigzag(nodes, list(_DIRECTIONS))
    for i in range(len(_DIRECTIONS)):
        if not z.edge_ok(i):
            raise InternalCheckFailed(f"zigzag edge {i} is not an identity left Quillen functor")
    return tuple(0 if x is m1 else 1 if x is m2 else x for x in nodes[1:-1])


def _contract(z: Zigzag) -> None:
    """Contract z in place, one node at a time: drop the first repeated
    node, else the first interior node whose neighbours have a direct
    identity Quillen equivalence, which replaces its two edges.  A step
    deletes node k and puts its new edges in place of directions k - 1, k."""
    nodes, directions = z.nodes, z.directions
    while True:
        repeats = ((k, directions[k:k + 1]) for k in range(1, len(nodes)) if nodes[k - 1] == nodes[k])
        shortcuts = ((k, [d]) for k in range(1, len(nodes) - 1)
                     for d, x, y in (("lr", nodes[k - 1], nodes[k + 1]), ("rl", nodes[k + 1], nodes[k - 1]))
                     if is_identity_left_quillen(x, y))
        k, edges = next(itertools.chain(repeats, shortcuts), (None, None))
        if k is None:
            return
        del nodes[k]
        directions[k - 1:k + 1] = edges


class ReductionMaps(FrozenRecord):
    """Object maps of the reduction adjunctions.

    iota: element of the reduced lattice -> ambient element.
    gamma: ambient element -> index in the reduced lattice (its center).
    cofibrant / fibrant: ambient element -> its replacement, in the ambient
    lattice.
    """

    __slots__ = ("iota", "gamma", "cofibrant", "fibrant")

    def __init__(self, iota: tuple[int, ...], gamma: tuple[int, ...],
                 cofibrant: tuple[int, ...], fibrant: tuple[int, ...]):
        _set(self, "iota", iota)
        _set(self, "gamma", gamma)
        _set(self, "cofibrant", cofibrant)
        _set(self, "fibrant", fibrant)


def homotopy_reduce(m: ModelStruct) -> tuple[FiniteLattice, ModelStruct, ReductionMaps]:
    """Reduce to the trivial structure on the cofibrant-fibrant objects.

    The reduced order is induced from the ambient lattice; that it is again
    a bounded lattice is re-validated rather than trusted, with its meets
    realized by cofibrant replacement of the ambient meet and its joins by
    fibrant replacement of the ambient join.  Any failure is a library bug.

    The trivial structure, every morphism a cofibration and a fibration,
    passes the guard of every structure the library builds,
    :func:`~posetmodels.models._verified`.  Its W, the identities, is
    wrapped without ``validate_relative``: ``verify_model`` runs the same
    :func:`~posetmodels.classes.subcategory_check` on it, as
    ``we_subcategory``, so no check is skipped.
    """
    _require_verified(m)
    lat = m.lattice
    chi = extract_centers(m)
    d_elems = sorted(set(chi.chi))
    names = [lat.name(e) for e in d_elems]
    rels = [
        (lat.name(a), lat.name(b))
        for a in d_elems
        for b in d_elems
        if a != b and lat.leq(a, b)
    ]
    try:
        d_lat = build_lattice(names, rels)
    except (NotALattice, Unbounded) as e:
        raise InternalCheckFailed(f"reduced order is not a bounded lattice: {e}") from e

    pos = {e: i for i, e in enumerate(d_elems)}
    gamma_cof = _cofibrant_replacements(m)
    gamma_fib = _cofibrant_replacements(m.op())
    # joins are meets in the opposite lattice
    for amb, dl, gamma, bound, side in ((lat, d_lat, gamma_cof, "meet", "cofibrant"),
                                        (lat.op(), d_lat.op(), gamma_fib, "join", "fibrant")):
        for x in d_elems:
            for y in d_elems:
                if d_elems[dl.meet(pos[x], pos[y])] != gamma[amb.meet(x, y)]:
                    raise InternalCheckFailed(
                        f"reduced {bound} of {lat.name(x)}, {lat.name(y)} is not the {side} replacement of the ambient {bound}"
                    )

    every = MorphClass.all_morphisms(d_lat)
    d_model = _verified(RelStruct(d_lat, MorphClass.identities(d_lat)), every, every, "trivial structure on the reduced lattice")
    if len(d_elems) != len(m.rel.components):
        raise InternalCheckFailed("reduced lattice does not have one object per component")

    maps = ReductionMaps(
        iota=tuple(d_elems),
        gamma=tuple(pos[chi.chi[a]] for a in range(lat.n)),
        cofibrant=gamma_cof,
        fibrant=gamma_fib,
    )
    # _cofibrant_replacements has already asserted each replacement's zigzag
    # to a and to its center
    for i, e in enumerate(d_elems):
        if maps.gamma[e] != i:
            raise InternalCheckFailed("gamma is not a retraction of iota")
    return d_lat, d_model, maps
