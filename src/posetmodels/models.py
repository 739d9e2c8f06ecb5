"""Model structures: exhaustive axiom verification and every construction.

A structure is a (weak equivalences, cofibrations, fibrations) triple over
one relative structure.  `verify_model` is always exhaustive; it is the
correctness anchor every construction is checked against.  Constructions
whose defining results guarantee success raise InternalCheckFailed if the
guarantee ever fails, so a miscomputation cannot go unnoticed.  Each dual
construction is its primal run on the opposite structure (``op()``).
"""

from __future__ import annotations

from contextlib import contextmanager

from .centers import (
    CenterMap,
    _require_s2of3,
    _require_valid_centers,
    compute_Jchi,
    compute_Wc_chi,
    compute_Wf_chi,
    validate_centers,
)
from .classes import (
    MorphClass,
    _model_checks,
    left_complement,
    right_complement,
    subcategory_check,
)
from .errors import (
    HypothesisFailed,
    InternalCheckFailed,
    InvalidCenters,
    InvalidInput,
    JNotInW,
    NotWeakEquivalence,
    RecognitionFailed,
    S2OF3Failed,
)
from .lattice import Dualizable, Pair, _memoised, iter_bits, low_bit
from .relative import RelStruct, _least_triple, check_s2of3, compute_Wc, recognition_report
from .report import Check, Report


class ModelStruct(Dualizable):
    """Cofibrations and fibrations over a relative structure; `report` is
    the one :func:`verify_model` attached, if any."""

    __slots__ = ("rel", "cof", "fib", "report", "_op", "_memo", "__weakref__")

    def __init__(self, rel: RelStruct, cof: MorphClass, fib: MorphClass, report: Report | None = None):
        self.rel = rel
        self.cof = cof
        self.fib = fib
        self.report = report
        self._op = None
        self._memo = {}

    def _reversed(self) -> "ModelStruct":
        """The opposite structure: cof and fib swap.  A passing report carries
        over, since the axioms are self-dual and it has no witnesses; the
        memo does not."""
        return ModelStruct(self.rel.op(), self.fib.op(), self.cof.op(), self.report if self.verified else None)

    @property
    def lattice(self):
        return self.rel.lattice

    @property
    def we(self) -> MorphClass:
        return self.rel.weq

    @property
    def verified(self) -> bool:
        return self.report is not None and self.report.ok

    @_memoised
    def acyclic_cofibrations(self) -> MorphClass:
        return self.cof & self.we

    @_memoised
    def acyclic_fibrations(self) -> MorphClass:
        return self.fib & self.we

    def signature(self):
        """Non-identity (cof & we, fib & we) name pairs; what printed
        diagrams pin down about a structure."""
        lat = self.lattice
        return (
            frozenset(lat.pair_names(p) for p in self.acyclic_cofibrations().nonidentity_pairs()),
            frozenset(lat.pair_names(p) for p in self.acyclic_fibrations().nonidentity_pairs()),
        )

    def __eq__(self, other):
        if not isinstance(other, ModelStruct):
            return NotImplemented
        return (
            self.rel == other.rel
            and self.cof.bits == other.cof.bits
            and self.fib.bits == other.fib.bits
        )

    def __hash__(self):
        return hash((self.rel, self.cof.bits, self.fib.bits))

    def __repr__(self):
        return f"ModelStruct(acyclic cof={self.acyclic_cofibrations().name_pairs()}, acyclic fib={self.acyclic_fibrations().name_pairs()})"


def _two_of_three_check(rel: RelStruct) -> Check:
    """2-of-3: of the three pairs of any a <= b <= c, never exactly two in W.

    With N = O & ~W, the failing (a, c) are (W∘W) & N (both factors in W,
    not the composite) and W & (W∘N | N∘W) (the composite and one factor):
    three kit products.  The least failing (a, b, c) is read off one row
    (:func:`~posetmodels.relative._least_triple`).
    """
    kit, w = rel.lattice._kit, rel.weq.bits
    outside = kit.order & ~w  # N
    rows, up = rel.weq.rows, rel.lattice.up_mask

    def third(a, b):  # the c >= b with two of (a, b), (b, c), (a, c) in W
        g, h = rows[b] & up(b), rows[a] & up(b)
        return g ^ h if rows[a] >> b & 1 else g & h
    bad = kit.composite(w, w) & outside | w & (kit.composite(w, outside) | kit.composite(outside, w))
    witness = _least_triple(rel, bad, third)
    return Check("two_of_three", witness is None, witness)


@_memoised
def _weq_checks(rel: RelStruct) -> tuple[Check, Check]:
    """The W-only checks of :func:`verify_model`."""
    return (subcategory_check(rel.weq, "we_subcategory"), _two_of_three_check(rel))


def verify_model(m: ModelStruct) -> Report:
    """Exhaustively verify all model-structure axioms; attaches the report.

    Two checks read only the weak equivalences: W is a subcategory, and W
    has 2-of-3.  They are pure functions of the immutable W, so they are
    memoised on ``m.rel`` (see :class:`~posetmodels.lattice.Dualizable`)
    and shared by every structure over it.  Every check that reads cof or
    fib runs in full on each call, so the verification stays exhaustive;
    those ten are the differences of :func:`~posetmodels.classes._model_fails`
    in the lattice's encoding, the implementation the oracle also runs on
    stacks of candidate grids.
    """
    we_sub, two_of_three = _weq_checks(m.rel)
    m.report = Report((we_sub, *_model_checks(m.cof, m.fib, m.we), two_of_three))
    return m.report


def _unverified(c: Check) -> InvalidInput:
    return InvalidInput(f"structure fails verification at {c.name}, witness {c.witness}")


def _require_verified(m: ModelStruct) -> None:
    # a named error, as a lambda would be built again on every call of this hot guard
    (verify_model(m) if m.report is None else m.report).require(_unverified)


def _verified(rel: RelStruct, cof: MorphClass, fib: MorphClass, context: str) -> ModelStruct:
    m = ModelStruct(rel, cof, fib)
    verify_model(m).require(lambda c: InternalCheckFailed(f"{context} failed {c.name}, witness {c.witness}"))
    return m


@contextmanager
def _witnesses_from_op(rel: RelStruct, chi: CenterMap | None = None):
    """Re-raise a failure of a construction run on ``rel.op()`` with its witness on `rel`."""
    try:
        yield
    except JNotInW as e:
        raise JNotInW(e.pair.op()) from None
    except HypothesisFailed as e:
        raise HypothesisFailed(e.which, e.witness.op()) from None
    except S2OF3Failed:  # the least triple is not op-conjugate: recompute it
        raise S2OF3Failed(check_s2of3(rel).witness) from None
    except InvalidCenters:
        raise InvalidCenters(validate_centers(rel, chi)) from None


def _generated_by(rel: RelStruct, j: MorphClass) -> tuple[MorphClass, MorphClass]:
    """(cof, fib) generated by J <= W: fibrations rc(J) and cofibrations
    lc(W & rc(J)), with rc and lc the right and left complements."""
    fib = right_complement(j)
    return left_complement(fib & rel.weq), fib


def construct_terminal(rel: RelStruct) -> ModelStruct:
    """The terminal structure: fibrations are the right complement of W_c."""
    # memoised on rel: recognize_finite built it already
    recognition_report(rel).require(lambda c: RecognitionFailed(c.name, c.witness))
    cof, fib = _generated_by(rel, compute_Wc(rel))
    return _verified(rel, cof, fib, "terminal construction")


def construct_from_centers(rel: RelStruct, chi: CenterMap) -> ModelStruct:
    """The center structure: fibrations are the right complement of W_c^chi.

    Lemma (dual of the one in :func:`construct_from_centers_dual`, proved
    there on ``rel.op()``, whose Q_chi is this J_chi and whose W_f^chi is
    this W_c^chi): J_chi <= W_c^chi, so rc(W_c^chi) <= rc(J_chi), where
    rc(S) is the right complement of S.  The inclusion can be strict, on
    the same pentagon: (x, b) is in rc(J_chi), but it is in W_c^chi and
    does not lift against itself, so it is not in rc(W_c^chi).
    """
    _require_valid_centers(rel, chi)
    cof, fib = _generated_by(rel, compute_Wc_chi(rel, chi))
    return _verified(rel, cof, fib, "center construction")


def construct_from_centers_dual(rel: RelStruct, chi: CenterMap) -> ModelStruct:
    """The dual center structure: :func:`construct_from_centers` on the
    opposite structure.  Cofibrations are lc(W_f^chi), where lc(S) is the
    left complement of S: the morphisms that lift against every member.

    Lemma: Q_chi <= W_f^chi, so lc(W_f^chi) <= lc(Q_chi).  Let q = (u, v)
    be in Q_chi: q is in W and chi(u) <= u.  Take z <= v and the pullback
    p = (u ^ z, z) of q along z, and put d = chi(z).  chi is monotone and
    constant on the component of u and v, so d <= chi(v) = chi(u) <= u,
    hence z ^ d <= u ^ z <= z.  The comparison square of z with its center
    lies in W, so (z ^ d, z) is in W, and strong 2-of-3 puts its second
    factor p in W.  If p is in J_chi, then z <= chi(z) = d <= u, so
    u ^ z = z and p is an identity.  So every pullback of q is in W and
    avoids J_chi unless it is an identity: q is in W_f^chi.

    The reverse inclusion fails.  On the pentagon 0 < x < b < 1,
    0 < c < 1 with W every pair and chi constant at c, Q_chi has the one
    non-identity (c, 1), and (x, b) lifts against it because x is not
    below c.  But (x, b) is in W_f^chi: its pullbacks are (0, 0), (x, x)
    and itself, and b is not below chi(b) = c.  It does not lift against
    itself, so it is in lc(Q_chi) and not in lc(W_f^chi).  Cofibrations
    lc(Q_chi) with fibrations rc(lc(Q_chi) & W) also verify there, as a
    different structure.
    """
    with _witnesses_from_op(rel, chi):
        return construct_from_centers(rel.op(), chi).op()


def construct_genMC(rel: RelStruct, j: MorphClass) -> ModelStruct:
    """Minimal structure whose acyclic cofibrations contain a given J <= W.

    Fibrations are J's right complement; the two lifting-closure hypotheses
    are checked exhaustively and reported with a witness on failure.  The
    smallness hypothesis holds automatically at finite scale and is not
    checked.
    """
    return _verified(rel, *_genMC_classes(rel, j), "generated construction")


def _genMC_classes(rel: RelStruct, j: MorphClass) -> tuple[MorphClass, MorphClass]:
    """The (cof, fib) of :func:`construct_genMC`, its hypotheses checked, unverified."""
    kit, weq = rel.lattice._kit, rel.weq.bits
    extra = j.bits & ~weq
    if extra:
        raise JNotInW(kit.pair(low_bit(extra)))
    _require_s2of3(rel)
    cof, fib = _generated_by(rel, j)
    bad = right_complement(cof).bits & ~weq
    if bad:
        raise HypothesisFailed(2, kit.pair(low_bit(bad)))
    bad = left_complement(fib).bits & ~weq
    if bad:
        raise HypothesisFailed(3, kit.pair(low_bit(bad)))
    return cof, fib


def construct_genMC_dual(rel: RelStruct, q: MorphClass) -> ModelStruct:
    """Dual generated structure: :func:`construct_genMC` on the opposite
    structure, so cofibrations are the left complement of Q <= W."""
    with _witnesses_from_op(rel):
        return construct_genMC(rel.op(), q.op()).op()


def construct_newcofib(m: ModelStruct, chi: CenterMap) -> ModelStruct:
    """Enlarge the acyclic cofibrations of a verified structure by J_chi.

    The result is G(acof(m) | J_chi), where G(J) is the structure that J
    generates (:func:`_generated_by`: fibrations rc(J), cofibrations
    lc(W & rc(J))) and acof, afib are the acyclic cofibrations and
    fibrations.  The identity functor is left Quillen from the input to the
    result; this containment is asserted.

    Lemma: if J_chi <= acof(m), the result is m, and m itself is returned.
    A model structure is generated by its acyclic cofibrations:
    fib = rc(acof(m)) and cof = lc(afib(m)) (M. Hovey, *Model Categories*,
    1999, Lemma 1.1.10), which :func:`verify_model` checks as the
    maximality checks of acof_fib and cof_afib.  The generator is then
    acof(m), so the fibrations are rc(acof(m)) = fib and the cofibrations
    lc(W & fib) = lc(afib(m)) = cof.  :func:`construct_genMC`'s hypotheses
    hold: hypothesis 2 reads rc(cof) = afib(m) <= W, hypothesis 3 reads
    lc(fib) = acof(m) <= W, and cof(m) <= cof(m).  The checks that come
    first still run: m is verified, chi is valid and strong 2-of-3 holds.
    """
    _require_verified(m)
    _require_valid_centers(m.rel, chi)
    return _enlarged(m, compute_Jchi(m.rel, chi))


def _enlarged(m: ModelStruct, jchi: MorphClass, node=_verified) -> ModelStruct:
    """:func:`construct_newcofib` of a verified `m` by the J_chi of a valid
    center map; ``node(rel, cof, fib, context)`` verifies a new result, as
    :func:`_verified` does, or returns a node already verified."""
    _require_s2of3(m.rel)
    acof = m.acyclic_cofibrations()
    if jchi <= acof:
        return m
    cof, fib = _genMC_classes(m.rel, acof | jchi)
    if not m.cof <= cof:
        raise InternalCheckFailed("enlarged structure does not contain the old cofibrations")
    return node(m.rel, cof, fib, "generated construction")


def construct_newfib_dual(m: ModelStruct, chi: CenterMap) -> ModelStruct:
    """Dually enlarge the acyclic fibrations of a verified structure by
    Q_chi: :func:`construct_newcofib` on the opposite structure."""
    _require_verified(m)
    with _witnesses_from_op(m.rel, chi):
        return construct_newcofib(m.op(), chi).op()


def cofibrant_objects(m: ModelStruct) -> tuple[int, ...]:
    _require_verified(m)
    return tuple(iter_bits(m.cof.rows[m.lattice.bottom]))


def fibrant_objects(m: ModelStruct) -> tuple[int, ...]:
    """:func:`cofibrant_objects` of the opposite structure."""
    _require_verified(m)
    return cofibrant_objects(m.op())


@_memoised
def extract_centers(m: ModelStruct) -> CenterMap:
    """The center map of a verified structure: each component's unique
    cofibrant-and-fibrant object, the one bit of cf & K for each component
    mask K, cf = cof.rows[bottom] & fib.cols[top].

    The map is validated (through :func:`validate_centers`) and memoised
    on `m` only once it passed (see :class:`~posetmodels.lattice.Dualizable`).
    """
    _require_verified(m)
    cf = m.cof.rows[m.lattice.bottom] & m.fib.cols[m.lattice.top]
    centers = []
    for comp, k in zip(m.rel.components, m.rel.component_masks):
        c = cf & k
        if c.bit_count() != 1:
            raise InternalCheckFailed(f"component {comp} has {c.bit_count()} cofibrant-fibrant objects")
        centers.append(low_bit(c))
    out = CenterMap(tuple(map(centers.__getitem__, m.rel.component_of)))
    validate_centers(m.rel, out).require(
        lambda c: InternalCheckFailed(f"extracted centers invalid at {c.name}, witness {c.witness}"))
    return out


def replacement(m: ModelStruct, a: int, side: str) -> int:
    """Cofibrant or fibrant replacement of an object.

    The unique middle of factoring bottom -> a as a cofibration followed by
    an acyclic fibration.  The replacement is one zigzag step from a and one
    from a's center; both memberships are asserted.  Fibrant replacement is
    cofibrant replacement in the opposite structure: the middle of a -> top
    as an acyclic cofibration followed by a fibration.  Every replacement of
    a side comes from one memoised pass, :func:`_cofibrant_replacements`.
    A side other than those two, or an `a` outside range(n), is an input
    error.
    """
    _require_verified(m)
    if side not in ("cofibrant", "fibrant"):
        raise InvalidInput(f"side must be 'cofibrant' or 'fibrant', got {side!r}")
    return _cofibrant_replacements(m if side == "cofibrant" else m.op())[m.lattice._element(a)]


@_memoised
def _cofibrant_replacements(m: ModelStruct) -> tuple[int, ...]:
    """The cofibrant replacement of every object of a verified `m`, in one
    pass over rows: the middles g of bottom -> a are the bits of
    cof.rows[bottom] & afib.cols[a] & down(a), so (g, a) is an acyclic
    fibration; there must be exactly one, and (g, chi(a)) must be an
    acyclic cofibration.  Memoised per structure and ``op()`` side."""
    lat = m.lattice
    chi = extract_centers(m).chi
    cofibrant = m.cof.rows[lat.bottom]
    afib = m.acyclic_fibrations().cols
    acof = m.acyclic_cofibrations().rows
    out = []
    for a in range(lat.n):
        middles = cofibrant & afib[a] & lat.down_mask(a)
        if not middles or middles & (middles - 1):
            raise InternalCheckFailed(f"cofibrant replacement of {lat.name(a)} not unique: {list(iter_bits(middles))}")
        g = low_bit(middles)
        if not (acof[g] >> chi[a]) & 1:
            raise InternalCheckFailed("cofibrant replacement zigzag broken")
        out.append(g)
    return tuple(out)


def factor_via_centers(rel: RelStruct, chi: CenterMap, f: Pair) -> int:
    """Middle of the canonical W_c^chi-then-W_f^chi factorization of a
    weak equivalence: dst ^ (src v chi(src)).  `f` is read through
    ``lattice.pair``: a bad index or an incomparable pair is an input error."""
    lat = rel.lattice
    f = lat.morphism(f)
    if f not in rel.weq:
        raise NotWeakEquivalence(f)
    _require_valid_centers(rel, chi)
    m = lat.meet(f.dst, lat.join(f.src, chi.chi[f.src]))
    wc = compute_Wc_chi(rel, chi)
    wf = compute_Wf_chi(rel, chi)
    first, second = lat._kit.bit(f.src, m), lat._kit.bit(m, f.dst)
    if not (wc.bits & first and wf.bits & second):
        raise InternalCheckFailed(f"canonical factorization of {f} escaped its classes")
    if not right_complement(wc).bits & second:
        raise InternalCheckFailed(f"second factor of {f} not right-lifting against W_c^chi")
    return m


def generating_sets(m: ModelStruct) -> tuple[MorphClass, MorphClass]:
    """Generating (cofibrations, acyclic cofibrations): the classes verbatim.

    At finite scale a verified structure is generated by all of its
    cofibrations, with the right complements recovering the fibration data;
    both complement identities are asserted.
    """
    _require_verified(m)
    if right_complement(m.acyclic_cofibrations()) != m.fib:
        raise InternalCheckFailed("fib is not the right complement of the acyclic cofibrations")
    if right_complement(m.cof) != m.acyclic_fibrations():
        raise InternalCheckFailed("acyclic fibrations are not the right complement of cof")
    return (m.cof, m.acyclic_cofibrations())
