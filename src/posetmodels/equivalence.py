"""Identity-functor Quillen comparisons, uniqueness zigzags, and reduction.

Any two verified structures sharing (lattice, W) are connected by a zigzag
of identity left Quillen equivalences routed through the center-based
constructions; and every structure reduces to the trivial structure on its
cofibrant-fibrant objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import MorphClass
from .errors import InternalCheckFailed, MismatchedBase, NotALattice, Unbounded
from .lattice import FiniteLattice, build_lattice
from .models import (
    ModelStruct,
    _require_verified,
    construct_from_centers,
    construct_newcofib,
    extract_centers,
    replacement,
    verify_model,
)
from .centers import product_centers
from .relative import validate_relative


def _require_same_base(m1: ModelStruct, m2: ModelStruct) -> None:
    if m1.lattice != m2.lattice:
        raise MismatchedBase("structures live on different lattices")
    if m1.we.mask != m2.we.mask:
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


@dataclass
class Zigzag:
    """Alternating chain of identity Quillen equivalences.

    directions[i] is "lr" when the identity is left Quillen from nodes[i]
    to nodes[i+1] and "rl" for the opposite direction.
    """

    nodes: list[ModelStruct]
    directions: list[str]

    def __len__(self) -> int:
        return len(self.directions)

    def edge_ok(self, i: int) -> bool:
        a, b = self.nodes[i], self.nodes[i + 1]
        return is_identity_left_quillen(a, b) if self.directions[i] == "lr" else is_identity_left_quillen(b, a)

    def all_edges_ok(self) -> bool:
        return all(self.edge_ok(i) for i in range(len(self.directions)))


def build_zigzag(m1: ModelStruct, m2: ModelStruct, contract: bool = False) -> Zigzag:
    """The comparison zigzag through the enlarged and center structures.

    Both ends first pass to their enlarged structure, then to their own
    center structure, and those meet at the structure of the product of
    the two center maps.  Because the product of centers is a pointwise
    meet, the product's Q-class contains each factor's, so the identity is
    left Quillen out of the middle node toward each side.  Emits the full
    chain; pass contract=True to drop interior nodes wherever a direct
    identity Quillen equivalence already exists.
    """
    _require_same_base(m1, m2)
    _require_verified(m1)
    _require_verified(m2)
    if m1 == m2:
        return Zigzag([m1], [])
    rel = m1.rel
    chi1 = extract_centers(m1)
    chi2 = extract_centers(m2)
    chi = product_centers(rel, chi1, chi2)
    nodes = [
        m1,
        construct_newcofib(m1, chi1),
        construct_from_centers(rel, chi1),
        construct_from_centers(rel, chi),
        construct_from_centers(rel, chi2),
        construct_newcofib(m2, chi2),
        m2,
    ]
    directions = ["lr", "rl", "rl", "lr", "lr", "rl"]
    z = Zigzag(nodes, directions)
    for i in range(len(directions)):
        if not z.edge_ok(i):
            raise InternalCheckFailed(f"zigzag edge {i} is not an identity left Quillen functor")
    if contract:
        _contract(z)
    return z


def _contract(z: Zigzag) -> None:
    changed = True
    while changed:
        changed = False
        for i in range(len(z.nodes) - 1):
            if z.nodes[i] == z.nodes[i + 1]:
                del z.nodes[i + 1]
                del z.directions[i]
                changed = True
                break
        else:
            for i in range(1, len(z.nodes) - 1):
                left, right = z.nodes[i - 1], z.nodes[i + 1]
                if is_identity_left_quillen(left, right):
                    del z.nodes[i]
                    z.directions[i - 1 : i + 1] = ["lr"]
                    changed = True
                    break
                if is_identity_left_quillen(right, left):
                    del z.nodes[i]
                    z.directions[i - 1 : i + 1] = ["rl"]
                    changed = True
                    break


@dataclass(frozen=True)
class ReductionMaps:
    """Object maps of the reduction adjunctions.

    iota: element of the reduced lattice -> ambient element.
    gamma: ambient element -> index in the reduced lattice (its center).
    cofibrant / fibrant: ambient element -> its replacement, in the ambient
    lattice.
    """

    iota: tuple[int, ...]
    gamma: tuple[int, ...]
    cofibrant: tuple[int, ...]
    fibrant: tuple[int, ...]


def homotopy_reduce(m: ModelStruct) -> tuple[FiniteLattice, ModelStruct, ReductionMaps]:
    """Reduce to the trivial structure on the cofibrant-fibrant objects.

    The reduced order is induced from the ambient lattice; that it is again
    a bounded lattice is re-validated rather than trusted, with its meets
    realized by cofibrant replacement of the ambient meet and its joins by
    fibrant replacement of the ambient join.  Any failure is a library bug.
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
    gamma_cof = tuple(replacement(m, a, "cofibrant") for a in range(lat.n))
    gamma_fib = tuple(replacement(m, a, "fibrant") for a in range(lat.n))
    # joins are meets in the opposite lattice
    for amb, dl, gamma, bound, side in ((lat, d_lat, gamma_cof, "meet", "cofibrant"),
                                        (lat.op(), d_lat.op(), gamma_fib, "join", "fibrant")):
        for x in d_elems:
            for y in d_elems:
                if d_elems[dl.meet(pos[x], pos[y])] != gamma[amb.meet(x, y)]:
                    raise InternalCheckFailed(
                        f"reduced {bound} of {lat.name(x)}, {lat.name(y)} is not the {side} replacement of the ambient {bound}"
                    )

    d_rel = validate_relative(d_lat, [], add_identities=True)
    d_model = ModelStruct(d_rel, MorphClass.all_morphisms(d_lat), MorphClass.all_morphisms(d_lat))
    if not verify_model(d_model).ok:
        raise InternalCheckFailed("trivial structure on the reduced lattice fails verification")
    if len(d_elems) != len(m.rel.components):
        raise InternalCheckFailed("reduced lattice does not have one object per component")

    maps = ReductionMaps(
        iota=tuple(d_elems),
        gamma=tuple(pos[chi.chi[a]] for a in range(lat.n)),
        cofibrant=gamma_cof,
        fibrant=gamma_fib,
    )
    # replacement() has already asserted each replacement's zigzag to a and
    # to its center
    for i, e in enumerate(d_elems):
        if maps.gamma[e] != i:
            raise InternalCheckFailed("gamma is not a retraction of iota")
    return d_lat, d_model, maps
