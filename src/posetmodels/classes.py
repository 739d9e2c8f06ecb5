"""Morphism-class algebra: lifting, complements, closures, MLS/WFS checks.

A :class:`MorphClass` is a set of comparable pairs of one fixed lattice,
held in that lattice's one encoding (see the class).  All scans iterate in
pair order, so reported witnesses are lexicographically least.  Dual
checks run their primal on ``s.op()``, the same bits in the opposite lattice.

The algebra that ``verify_model`` uses (both complements, composition
closure S∘S & ~S = 0, the lifting-system checks and factorization
O & ~(lc∘rc) = 0) and pushout closure S & (O∘N_S) = 0 have one path:
they call the kit of their lattice side, grid kernels on dense lattices
and pair-mask ones on sparse lattices (the gate, both kits and the
pushout formula are in :mod:`~posetmodels.lattice`).  Each kit answers
in its side's terms, so no code here asks for the side or the encoding,
and no kernel converts its result.  The ten conditions of
``verify_model`` that read cof or fib have one implementation,
:func:`_model_fails`, which the oracle also runs on stacks of grids, and
one reader, :func:`_wfs_read`, takes the lifting-system witnesses of
``verify_model``, :func:`is_wfs` and :func:`is_mls`.  A pair
witness is the lowest set bit of a difference, the least pair in pair
order on both sides.  Three witnesses take a short second scan: the
composition triple (run only once the product has found a failure), the
lifting g (the least member of rc among the pairs f fails to lift
against) and the escaping pushout (the least pushout of f outside the
class).  The grid formulas are derived in the complements' docstrings.
"""

from __future__ import annotations

import itertools
import operator

from .errors import InvalidInput, NoFactorization, NotPushoutClosed
from .lattice import Dualizable, FiniteLattice, Pair, _from_flags, _two_ends, iter_bits, low_bit
from .report import Check, Report


class MorphClass(Dualizable):
    """An immutable class of morphisms over a fixed finite lattice.

    ``bits`` holds the class in its kit's encoding, the grid on dense
    lattices and the pair mask on sparse ones.  It is the identity that
    equality, hashing, ``<=``, ``|``, ``&`` and ``-`` read, and it orders
    classes as pair masks do.  The pair mask ``mask``, computed on first
    read or kept from ``MorphClass(lattice, mask)``, is the boundary that
    iteration and rendering read and :meth:`from_pairs` builds, through the
    lattice module's reader and writer.  Kernels build with :meth:`_of`.
    """

    __slots__ = ("lattice", "bits", "_mask", "_rows", "_cols", "_op", "__weakref__")

    def __init__(self, lattice: FiniteLattice, mask: int):
        kit = lattice._kit
        # no int, a bool, negative, or a bit past the last pair
        if not isinstance(mask, int) or isinstance(mask, bool) or mask >> kit.npairs:
            raise InvalidInput(f"pair mask must be in range(2**{kit.npairs})")
        self.lattice = lattice
        self.bits = kit.from_mask(mask)
        self._mask = mask
        self._rows = self._cols = self._op = None

    @classmethod
    def _of(cls, lattice: FiniteLattice, bits: int) -> "MorphClass":
        """The class whose bits, in `lattice`'s encoding, are `bits`."""
        out = cls.__new__(cls)
        out.lattice, out.bits = lattice, bits
        out._mask = out._rows = out._cols = out._op = None
        return out

    def _reversed(self) -> "MorphClass":
        """The same morphisms in the opposite lattice: the same bits and mask, rows and cols swap."""
        o = MorphClass._of(self.lattice.op(), self.bits)
        o._mask, o._rows, o._cols = self._mask, self._cols, self._rows
        return o

    @property
    def mask(self) -> int:
        """The pair mask: bit i holds ``lattice.pairs[i]``."""
        if self._mask is None:
            self._mask = self.lattice._kit.to_mask(self.bits)
        return self._mask

    @classmethod
    def from_pairs(cls, lattice, pairs, add_identities: bool = False) -> "MorphClass":
        """The class of `pairs`: a pair of labels is one lookup in the lattice's
        name table, any other item goes through ``lattice.morphism``, the
        checked reader of a morphism argument, in list order, so the first
        offending item raises."""
        pairs, labels = list(pairs), lattice._label_index
        try:
            found = list(map(labels.get, pairs))
        except TypeError:  # an unhashable pair, such as a list: every pair is checked
            found = [None] * len(pairs)
        others = itertools.compress(pairs, map(operator.is_, found, itertools.repeat(None)))
        found += [labels[lattice.pair_names(lattice.morphism(p))] for p in others]
        mask = _from_flags(map(set(found).__contains__, range(len(labels))))
        return cls(lattice, mask | (lattice.identity_mask if add_identities else 0))

    @classmethod
    def identities(cls, lattice) -> "MorphClass":
        return cls._of(lattice, lattice._kit.ids)

    @classmethod
    def all_morphisms(cls, lattice) -> "MorphClass":
        return cls._of(lattice, lattice._kit.order)

    def __contains__(self, pair) -> bool:
        """Whether the pair, a tuple or list of two indices or labels, is a
        member: one bit of a row.  An unknown label is an input error; any
        other value that is no pair of element indices, such as a string,
        a bool, a float or a tuple of another length, is no member."""
        if not _two_ends(pair):
            return False
        (a, b), n = self.lattice._pair_of(*pair), self.lattice.n
        if not all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n for x in (a, b)):
            return False
        return self.rows[a] >> b & 1 == 1

    def __iter__(self):
        return self.lattice._select(self.lattice.pairs, self.mask)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other):
        if not isinstance(other, MorphClass):
            return NotImplemented
        return self.lattice == other.lattice and self.bits == other.bits

    def __hash__(self):
        return hash((self.lattice, self.bits))

    def __or__(self, other: "MorphClass") -> "MorphClass":
        return MorphClass._of(self.lattice, self.bits | other.bits)

    def __and__(self, other: "MorphClass") -> "MorphClass":
        return MorphClass._of(self.lattice, self.bits & other.bits)

    def __sub__(self, other: "MorphClass") -> "MorphClass":
        return MorphClass._of(self.lattice, self.bits & ~other.bits)

    def __le__(self, other: "MorphClass") -> bool:
        return self.bits & ~other.bits == 0

    def __repr__(self):
        names = [f"{self.lattice.name(a)}->{self.lattice.name(b)}" for (a, b) in self.nonidentity_pairs()]
        return f"MorphClass(ids + {names})"

    def pairs(self) -> list[Pair]:
        return list(self)

    def name_pairs(self) -> list[tuple[str, str]]:
        return list(self.lattice._select(self.lattice._label_index, self.mask))

    def nonidentity_pairs(self) -> list[Pair]:
        return [p for p in self if p.src != p.dst]

    def has_identities(self) -> bool:
        return MorphClass.identities(self.lattice) <= self

    @property
    def rows(self) -> list[int]:
        """rows[a] = element mask of all b with (a, b) in the class, read by
        the kit of the class's side."""
        if self._rows is None:
            self._rows = self.lattice._kit.rows(self.bits)
        return self._rows

    @property
    def cols(self) -> list[int]:
        """cols[b] = element mask of all a with (a, b) in the class."""
        if self._cols is None:
            self._cols = self.lattice._kit.cols(self.bits)
        return self._cols


def lifts(lattice: FiniteLattice, f: Pair, g: Pair) -> bool:
    """True iff every commutative square with f on the left and g on the
    right has a diagonal.  In a poset there is at most one square, so this
    reduces to: (src f <= src g and dst f <= dst g) implies dst f <= src g.
    f and g are read through ``lattice.pair``: an index that is no element,
    or a pair that is no morphism, is an input error."""
    (a, b), (c, d) = lattice.morphism(f), lattice.morphism(g)
    if lattice.leq(a, c) and lattice.leq(b, d):
        return lattice.leq(b, c)
    return True


def right_complement(s: MorphClass) -> MorphClass:
    """All g such that every f in s lifts on the left of g.

    On grids it is rc(S) = O & ~((Oᵀ∘S & ~Oᵀ)∘O), where O is the
    order grid (row a is up(a)), Oᵀ its transpose (row c is down(c)) and ∘
    the boolean matrix product.  f = (a, b) fails to lift against
    g = (c, d) exactly when a <= c and b <= d (the one square commutes)
    and b is not <= c (it has no diagonal).  Row c of Oᵀ∘S holds the b
    with (a, b) in S for some a <= c; masking out Oᵀ keeps those with b
    not <= c; the product with O then marks (c, d) for every d >= such a
    b.  Those are exactly the g some member of S fails to lift against,
    and rc(S) is every other pair.  The grid is the same on both op()
    sides, so the kit of L.op() takes this formula as its left complement.
    """
    return MorphClass._of(s.lattice, s.lattice._kit.rc(s.bits))


def left_complement(s: MorphClass) -> MorphClass:
    """All f such that f lifts on the left of every g in s.

    On grids this is lc(S) = O & ~(O∘(S∘Oᵀ & ~Oᵀ)), with the
    notation of :func:`right_complement`, by the same lifting rule read
    from the other end: row c of S∘Oᵀ holds the b <= d for some (c, d) in
    S; masking out Oᵀ keeps those with b not <= c; the product O∘ then
    marks (a, b) for every a <= such a c.  Those are exactly the f that
    fail to lift against some member of S.  The kit of L.op() takes this
    formula as its right complement.
    """
    return MorphClass._of(s.lattice, s.lattice._kit.lc(s.bits))


def proper_factorizations(j: MorphClass, f: Pair, certified: bool = False) -> list[int]:
    """All c != src f with (src f, c) in j and c <= dst f.

    For a pushout-closed j this list is empty exactly when every member of
    j lifts on the left of f.  Certified mode runs :func:`is_pushout_closed`
    on j at each call; if j fails, it raises :class:`NotPushoutClosed` with the witness.
    f is read through ``lattice.pair``: an index that is no element, or a
    pair that is no morphism, is an input error.
    """
    lat = j.lattice
    a, b = lat.morphism(f)
    if certified:
        is_pushout_closed(j).require(lambda c: NotPushoutClosed(c.witness))
    return list(iter_bits(j.rows[a] & lat.down_mask(b) & ~(1 << a)))


def is_pushout_closed(s: MorphClass) -> Check:
    """Every pushout of a member is a member; the witness is the least
    member f and its least escaping pushout, ``(f, pushout)``.

    s is closed iff S & (O∘N_S) = 0
    (:meth:`~posetmodels.lattice.FiniteLattice._pushout_escapes`); only a
    class that fails gathers the pushouts (c, b v c), c >= a, of its least
    failing member (a, b): the least one outside s in pair order is the
    lowest bit of their difference with s, on both op() sides.
    """
    lat, kit = s.lattice, s.lattice._kit
    bad = s.bits & lat._pushout_escapes(s.rows)
    if not bad:
        return Check("pushout_closed", True)
    a, b = f = kit.pair(low_bit(bad))
    pushouts = sum(kit.bit(c, lat.join(b, c)) for c in iter_bits(lat.up_mask(a)))
    return Check("pushout_closed", False, (f, kit.pair(low_bit(pushouts & ~s.bits))))


def _from_op(check: Check, name: str) -> Check:
    """A check run in the opposite lattice, renamed, its witness pairs read back."""
    return Check(name, check.ok, check.witness and tuple(p.op() for p in check.witness))


def is_pullback_closed(s: MorphClass) -> Check:
    """:func:`is_pushout_closed` in the opposite lattice."""
    return _from_op(is_pushout_closed(s.op()), "pullback_closed")


def is_composition_closed(s: MorphClass) -> Check:
    """Closure under composition.  The witness is the least member (a, b)
    in pair order that has some (b, c) in s without (a, c), with the least
    such c.

    s is closed iff S∘S & ~S = 0, S∘S being the kit's composite of S
    with itself, which reads the same on both op() sides and on stacks;
    only a class that fails scans for its witness.
    """
    g = s.bits
    if not s.lattice._kit.composite(g, g) & ~g:
        return Check("composition_closed", True)
    rows = s.rows
    a, b = next(p for p in s if rows[p.dst] & ~rows[p.src])
    return Check("composition_closed", False, (a, b, low_bit(rows[b] & ~rows[a])))


def is_binary_coproduct_closed(s: MorphClass) -> Check:
    """The join of any two members is a member, by a direct O(|s|^2) scan.

    For a subcategory this follows from :func:`is_pushout_closed`, since a
    binary coproduct is a composite of two pushouts; the recognition guard
    checks that instead, and this scan remains as an independent oracle.
    """
    members = s.pairs()
    for f in members:
        for g in members:
            cop = Pair(s.lattice.join(f.src, g.src), s.lattice.join(f.dst, g.dst))
            if cop not in s:
                return Check("binary_coproduct_closed", False, (f, g, cop))
    return Check("binary_coproduct_closed", True)


def is_binary_product_closed(s: MorphClass) -> Check:
    """:func:`is_binary_coproduct_closed` in the opposite lattice."""
    return _from_op(is_binary_coproduct_closed(s.op()), "binary_product_closed")


def subcategory_check(s: MorphClass, name: str) -> Check:
    """Identities plus composition closure.  The witness is the least missing
    identity ``(Pair(x, x),)``, else the least (a, b, c) missing (a, c)."""
    kit = s.lattice._kit
    missing = kit.ids & ~s.bits
    if missing:
        return Check(name, False, (kit.pair(low_bit(missing)),))
    closed = is_composition_closed(s)
    return Check(name, closed.ok, closed.witness)


_WFS_CHECKS = ("lifting", "left_maximal", "right_maximal", "factorization")
# the ten conditions of verify_model that read cof or fib, in report order
_MODEL_CHECKS = ("cof_subcategory", "fib_subcategory",
                 *("cof_afib." + name for name in _WFS_CHECKS), *("acof_fib." + name for name in _WFS_CHECKS))


def _wfs_fails(kit, lg: int, rg: int) -> list[int]:
    """The differences of the lifting-system checks of (lc, rc), whose bits
    in `kit`'s encoding are `lg` and `rg`: with allowed = lc(rc), lifting
    fails on lc & ~allowed, left maximality on allowed & ~lc, right
    maximality on rc(lc) & ~rc and factorization on O & ~(lc∘rc), the
    pairs that are no composite of an lc member followed by an rc member.
    `kit` reads the lattice's side, and may be a stack kit: then each
    argument and result is a stack, checked block by block."""
    allowed = kit.lc(rg)
    return [lg & ~allowed, allowed & ~lg, kit.rc(lg) & ~rg, kit.order & ~kit.composite(lg, rg)]


def _model_fails(kit, cof: int, fib: int, weq: int) -> list[int]:
    """The differences of the ten conditions :data:`_MODEL_CHECKS` of
    (cof, fib) over weq, in that order, in `kit`'s encoding; each condition
    holds iff its difference is zero.  A subcategory misses ids & ~S or
    S∘S & ~S; the lifting-system checks are :func:`_wfs_fails` of
    (cof, fib & weq) and (cof & weq, fib).  The one implementation of those
    conditions on both encodings: ``verify_model`` passes a class's bits
    and the oracle stacks of candidate grids."""
    return [(kit.ids | kit.composite(cof, cof)) & ~cof, (kit.ids | kit.composite(fib, fib)) & ~fib,
            *_wfs_fails(kit, cof, fib & weq), *_wfs_fails(kit, cof & weq, fib)]


def _wfs_read(lat: FiniteLattice, rc: int, fails: list[int], prefix: str) -> list[Check]:
    """The lifting-system checks whose differences are `fails`
    (:func:`_wfs_fails`), rc being `rc`, each named `prefix` + its name.  A
    witness is the lowest bit of its difference, the least pair f in pair
    order on both op() sides; for lifting, with the least g in rc that f
    fails to lift against: f = (a, b) fails against the g = (c, d) with c
    in up(a) & ~up(b) and d in up(b)."""
    kit, up = lat._kit, lat._up
    checks = []
    for name, extra in zip(_WFS_CHECKS, fails):
        if not extra:
            checks.append(Check(prefix + name, True))
            continue
        f = kit.pair(low_bit(extra))
        witness = (f,)
        if name == "lifting":  # the pairs f fails to lift against, then the least of them in rc
            witness = (f, kit.pair(low_bit(kit.outer(up[f.src] & ~up[f.dst], up[f.dst]) & rc)))
        checks.append(Check(prefix + name, False, witness))
    return checks


def _model_checks(cof: MorphClass, fib: MorphClass, weq: MorphClass) -> list[Check]:
    """The ten checks :data:`_MODEL_CHECKS` of ``verify_model``, read off the
    differences of :func:`_model_fails`, with each witness as
    :func:`subcategory_check` and :func:`_wfs_read` give it; a
    subcategory witness is searched only once its difference is nonzero."""
    lat = cof.lattice
    fg, wg = fib.bits, weq.bits
    fails = _model_fails(lat._kit, cof.bits, fg, wg)
    checks = [subcategory_check(s, name) if extra else Check(name, True)
              for s, name, extra in zip((cof, fib), _MODEL_CHECKS, fails)]
    return checks + _wfs_read(lat, fg & wg, fails[2:6], "cof_afib.") + _wfs_read(lat, fg, fails[6:], "acof_fib.")


def is_mls(lc: MorphClass, rc: MorphClass) -> Report:
    """The three maximal-lifting-system checks of (lc, rc): the first three
    of :func:`is_wfs`.

    Lifting fails exactly at the members of lc outside the left complement
    of rc; its witness pairs the least such f with the least g in rc that f
    does not lift against.
    """
    return Report(is_wfs(lc, rc).checks[:3])


def is_wfs(lc: MorphClass, rc: MorphClass) -> Report:
    """The weak-factorization-system checks of (lc, rc): lifting,
    left_maximal and right_maximal (see :func:`is_mls`), then factorization,
    every morphism being an lc member followed by an rc member.  Each
    witness is least in pair order (:func:`_wfs_read`); no class is built."""
    lat = lc.lattice
    return Report(tuple(_wfs_read(lat, rc.bits, _wfs_fails(lat._kit, lc.bits, rc.bits), "")))


def factorize(lc: MorphClass, rc: MorphClass, f: Pair, require: bool = False) -> list[int]:
    """All middles m with (src f, m) in lc and (m, dst f) in rc, ascending;
    f is read through ``lattice.pair``, so an index that is no element, or a
    pair that is no morphism, is an input error."""
    lat = lc.lattice
    a, b = lat.morphism(f)
    middles = lc.rows[a] & rc.cols[b] & lat.up_mask(a) & lat.down_mask(b)
    if require and middles == 0:
        raise NoFactorization(f)
    return list(iter_bits(middles))
