"""Relative structures: a lattice with validated weak equivalences.

Implements the strong 2-of-3 check, the maximal pushout/pullback-stable
subclasses of W, and the finite recognition decision.
"""

from __future__ import annotations

from .classes import MorphClass, is_pushout_closed, subcategory_check
from .errors import InternalCheckFailed, MissingIdentities, NotCompositionClosed
from .lattice import Dualizable, FiniteLattice, _memoised, iter_bits, low_bit
from .report import Check, Record, Report


class RelStruct(Dualizable):
    """A finite bounded lattice plus a subcategory of weak equivalences.

    The components of W, the classes of its symmetric-transitive closure
    (zigzag connectivity), are listed by least element: ``component_masks``
    as element masks, ``components`` as sorted tuples, and
    ``component_of[x]`` indexes the one containing x.  Each mask grows
    breadth first over the rows of W | Wᵀ, one element taken off the
    frontier's low bit at a time: n visits, and no W pair is walked.
    W-derived classes and reports, among them the W-only checks of
    ``verify_model`` and the center maps that passed validation, live in
    the memo (see :class:`~posetmodels.lattice.Dualizable`).  ``op()`` is
    the same W over the opposite lattice, with the same components.
    """

    def __init__(self, lattice: FiniteLattice, weq: MorphClass):
        self.lattice = lattice
        self.weq = weq
        rows, cols = weq.rows, weq.cols
        masks, component_of, free = [], [0] * lattice.n, (1 << lattice.n) - 1
        while free:  # the least element not yet placed starts the next component
            grown, frontier = 0, free & -free
            while frontier:
                x = low_bit(frontier)
                grown |= 1 << x
                component_of[x] = len(masks)
                frontier = (frontier | rows[x] | cols[x]) & ~grown
            masks.append(grown)
            free &= ~grown
        members = [[] for _ in masks]
        for x, i in enumerate(component_of):
            members[i].append(x)
        self.component_masks: tuple[int, ...] = tuple(masks)
        self.components: tuple[tuple[int, ...], ...] = tuple(map(tuple, members))
        self.component_of: tuple[int, ...] = tuple(component_of)
        self._op = None
        self._memo = {}

    def _reversed(self) -> "RelStruct":
        """W over the opposite lattice, sharing the components."""
        o = RelStruct.__new__(RelStruct)
        o.lattice, o.weq, o._op, o._memo = self.lattice.op(), self.weq.op(), None, {}
        o.component_masks, o.components, o.component_of = self.component_masks, self.components, self.component_of
        return o

    def __eq__(self, other):
        if not isinstance(other, RelStruct):
            return NotImplemented
        return self.lattice == other.lattice and self.weq.bits == other.weq.bits

    def __hash__(self):
        return hash((self.lattice, self.weq.bits))

    def __repr__(self):
        return f"RelStruct({self.lattice!r}, |W|={len(self.weq)})"

    def component(self, x: int) -> tuple[int, ...]:
        return self.components[self.component_of[x]]


def validate_relative(lattice: FiniteLattice, pairs, add_identities: bool = False) -> RelStruct:
    """Check that `pairs` (plus identities) form a subcategory and wrap it.

    Identities are only added behind the explicit flag; otherwise a missing
    identity is an error.  Composition closure is verified, never repaired.
    """
    weq = MorphClass.from_pairs(lattice, pairs, add_identities=add_identities)
    sub = subcategory_check(weq, "weq")
    if not sub:
        if len(sub.witness) == 1:  # (Pair(x, x),): a missing identity
            raise MissingIdentities(lattice.name(sub.witness[0].src))
        raise NotCompositionClosed(tuple(lattice.name(x) for x in sub.witness))
    return RelStruct(lattice, weq)


@_memoised
def check_s2of3(rel: RelStruct) -> Report:
    """Strong 2-of-3: both factors of any factored W-morphism are in W.

    With O every pair and N = O & ~W, a W-morphism (a, c) has a factor
    outside W iff it is in N∘O (its first factor is in N) or in O∘N (its
    second is), so the check fails iff W & (N∘O | O∘N) is nonzero: two
    kit products.  The witness is the lexicographically least failing
    triple (a, b, c), read off one row (:func:`_least_triple`).
    """
    kit, w = rel.lattice._kit, rel.weq.bits
    outside = kit.order & ~w  # N
    bad = w & (kit.composite(outside, kit.order) | kit.composite(kit.order, outside))
    if not bad:
        return Report((Check("s2of3", True),))
    rows, up = rel.weq.rows, rel.lattice.up_mask

    def third(a, b):  # the c >= b with (a, c) in W and (a, b), else (b, c), outside W
        return up(b) & rows[a] & ~(rows[b] if rows[a] >> b & 1 else 0)
    return Report((Check("s2of3", False, _least_triple(rel, bad, third)),))


def _least_triple(rel: RelStruct, bad: int, third) -> tuple[int, int, int]:
    """The least (a, b, c) with c in ``third(a, b)``, the failing c for
    a <= b, given the failing pairs (a, c), `bad`, in rel's encoding: a is
    the least source in `bad` (the kit's rows, either op() side), and
    only row a is scanned, b ascending, c the lowest bit."""
    a = next(a for a, row in enumerate(rel.lattice._kit.rows(bad)) if row)
    return next((a, b, low_bit(cs)) for b in iter_bits(rel.lattice.up_mask(a)) if (cs := third(a, b)))


def _pushout_stable_part(rel: RelStruct, allowed: MorphClass, label: str) -> MorphClass:
    """The W-morphisms all of whose pushouts lie in `allowed`: W & ~(O∘N)
    (:meth:`~posetmodels.lattice.FiniteLattice._pushout_escapes`).

    The theory guarantees a subcategory; that is asserted, naming `label`.
    """
    lat = rel.lattice
    out = MorphClass._of(lat, rel.weq.bits & ~lat._pushout_escapes(allowed.rows))
    sub = subcategory_check(out, label)
    if not sub:
        raise InternalCheckFailed(f"{label} is not a subcategory, witness {sub.witness}")
    return out


@_memoised
def compute_Wc(rel: RelStruct) -> MorphClass:
    """Largest subcategory of W all of whose pushouts stay in W: W & ~(O∘N_W),
    N_W[c] the b with (c, b v c) outside W
    (:meth:`~posetmodels.lattice.FiniteLattice._pushout_escapes`)."""
    return _pushout_stable_part(rel, rel.weq, "W_c")


def compute_Wf(rel: RelStruct) -> MorphClass:
    """Largest subcategory of W all of whose pullbacks stay in W: W_c of
    the opposite structure (:func:`compute_Wc`)."""
    return compute_Wc(rel.op()).op()


@_memoised
def check_cw_factorization(rel: RelStruct) -> Report:
    """Every W-morphism factors as a W_c morphism followed by a W_f one:
    W & ~(W_c∘W_f) = 0.  The witness is the lowest bit, least in pair order."""
    kit = rel.lattice._kit
    bad = rel.weq.bits & ~kit.composite(compute_Wc(rel).bits, compute_Wf(rel).bits)
    return Report((Check("cw_factorization", not bad, (kit.pair(low_bit(bad)),) if bad else None),))


@_memoised
def recognition_report(rel: RelStruct) -> Report:
    """The finite recognition conditions, as one report.

    Closure of W_c under binary coproducts (the finite shadow of the
    coproduct condition) always holds here; it is asserted as an invariant
    rather than reported, through a guard of the same strength: W_c is
    closed under pushouts.  The coproduct of f = (a, b) and g = (c, d) is
    the composite of (a v c, b v c), the pushout of f along a <= a v c, and
    (b v c, b v d), the pushout of g along c <= b v c.  W_c is a
    subcategory (asserted by :func:`compute_Wc`), so pushout closure plus
    composition closure give binary-coproduct closure.
    """
    checks = check_s2of3(rel).checks + check_cw_factorization(rel).checks
    closed = is_pushout_closed(compute_Wc(rel))
    if not closed:
        raise InternalCheckFailed(f"W_c fails the {closed.name} guard, witness (f, pushout) = {closed.witness}")
    return Report(checks)


class Decision(Record):
    """Outcome of the finite recognition: YES with the terminal structure
    attached, or NO with the failing condition's witness.  The repr leaves
    the structure out."""

    __slots__ = ("yes", "report", "structure")

    def __init__(self, yes: bool, report: Report, structure: object | None = None):
        self.yes = yes
        self.report = report
        self.structure = structure

    def __repr__(self) -> str:
        return f"Decision(yes={self.yes!r}, report={self.report!r})"

    def __bool__(self) -> bool:
        return self.yes

    @property
    def witness(self):
        return self.report.witness


def recognize_finite(rel: RelStruct) -> Decision:
    """Decide existence of a model structure with weak equivalences W."""
    report = recognition_report(rel)
    if not report.ok:
        return Decision(False, report)
    from .models import construct_terminal  # cycle break: models builds on this module

    return Decision(True, report, construct_terminal(rel))
