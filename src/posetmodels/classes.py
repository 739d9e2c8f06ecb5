"""Morphism-class algebra: lifting, complements, closures, MLS/WFS checks.

A :class:`MorphClass` is a set of comparable pairs of one fixed lattice,
stored as a bitmask over the lattice's lex-sorted pair list.  All scans
iterate in pair order, so reported witnesses are lexicographically least.
Dual checks run their primal on ``s.op()``, the same mask in the opposite lattice.

On dense lattices (the gate is in the :mod:`~posetmodels.lattice` module
docstring) the algebra that ``verify_model`` uses runs on grids, n^2-bit
ints whose bit a*n + b holds the pair with primal reading (a, b): both
complements (formulas derived in their docstrings), composition closure
(S∘S & ~S = 0), the lifting-system checks and factorization
(O & ~(lc∘rc) = 0, and O & ~(rc∘lc) in op()).  The lifting-system checks
read their three differences straight off grids: they build no class and
convert no grid back to a pair mask.  The ten conditions of
``verify_model`` that read cof or fib have one implementation,
:func:`_model_fails`, which takes a grid or a stack of grids (see
:class:`~posetmodels.lattice._GridKit`), so the oracle checks a whole
chunk of candidates in one call.  A pair witness is the lowest set bit
of a difference, the least pair in pair order on both sides, the same
pair the mask scans report.  Two witnesses take a short second
scan: the composition triple (the pair scan, run only once the product
has found a failure) and the lifting g (the least member of rc among the
pairs f fails to lift against).  The mask stays a class's identity, so
equality, hashing and candidate order do not depend on the path; ``|``,
``&`` and ``-`` carry grids when both operands have one.  Sparse
lattices run the pair-table scans below unchanged.
"""

from __future__ import annotations

import operator

from .errors import NoFactorization, NotComparable, NotPushoutClosed
from .lattice import Dualizable, FiniteLattice, Pair, iter_bits, low_bit
from .report import Check, Report


class MorphClass(Dualizable):
    """An immutable class of morphisms over a fixed finite lattice."""

    __slots__ = ("lattice", "mask", "_g", "_rows", "_cols", "_op", "__weakref__")

    def __init__(self, lattice: FiniteLattice, mask: int):
        self.lattice = lattice
        self.mask = mask
        self._g: int | None = None  # the grid, once known
        self._rows: list[int] | None = None
        self._cols: list[int] | None = None
        self._op = None

    def _reversed(self) -> "MorphClass":
        """The same morphisms in the opposite lattice: the same grid, rows and cols swap."""
        o = MorphClass(self.lattice.op(), self.mask)
        o._g, o._rows, o._cols = self._g, self._cols, self._rows
        return o

    @classmethod
    def _of_grid(cls, lattice, grid: int, mask: int | None = None) -> "MorphClass":
        out = cls(lattice, lattice._kit.to_mask(grid) if mask is None else mask)
        out._g = grid
        return out

    @property
    def _grid(self) -> int:
        """The class's grid (see :class:`~posetmodels.lattice._GridKit`); dense lattices only."""
        if self._g is None:
            self._g = self.lattice._kit.from_mask(self.mask)
        return self._g

    @classmethod
    def from_pairs(cls, lattice, pairs, add_identities: bool = False) -> "MorphClass":
        mask = 0
        index = lattice.pair_index
        for (src, dst) in pairs:
            a = src if isinstance(src, int) else lattice.index(src)
            b = dst if isinstance(dst, int) else lattice.index(dst)
            p = Pair(a, b)
            if p not in index:
                raise NotComparable(lattice.name(a), lattice.name(b))
            mask |= 1 << index[p]
        if add_identities:
            mask |= lattice.identity_mask
        return cls(lattice, mask)

    @classmethod
    def identities(cls, lattice) -> "MorphClass":
        return cls(lattice, lattice.identity_mask)

    @classmethod
    def all_morphisms(cls, lattice) -> "MorphClass":
        return cls(lattice, lattice.all_pairs_mask)

    def __contains__(self, pair) -> bool:
        i = self.lattice.pair_index.get(Pair(*pair))
        return i is not None and (self.mask >> i) & 1 == 1

    def __iter__(self):
        ps = self.lattice.pairs
        return (ps[i] for i in iter_bits(self.mask))

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __eq__(self, other):
        if not isinstance(other, MorphClass):
            return NotImplemented
        return self.lattice == other.lattice and self.mask == other.mask

    def __hash__(self):
        return hash((self.lattice, self.mask))

    def _combined(self, other: "MorphClass", op) -> "MorphClass":
        """op on the masks, and on the grids when both operands carry one."""
        mask = op(self.mask, other.mask)
        if self._g is None or other._g is None:
            return MorphClass(self.lattice, mask)
        return MorphClass._of_grid(self.lattice, op(self._g, other._g), mask)

    def __or__(self, other: "MorphClass") -> "MorphClass":
        return self._combined(other, operator.or_)

    def __and__(self, other: "MorphClass") -> "MorphClass":
        return self._combined(other, operator.and_)

    def __sub__(self, other: "MorphClass") -> "MorphClass":
        return self._combined(other, _and_not)

    def __le__(self, other: "MorphClass") -> bool:
        return self.mask & ~other.mask == 0

    def __repr__(self):
        names = [f"{self.lattice.name(a)}->{self.lattice.name(b)}" for (a, b) in self.nonidentity_pairs()]
        return f"MorphClass(ids + {names})"

    def pairs(self) -> list[Pair]:
        return list(self)

    def name_pairs(self) -> list[tuple[str, str]]:
        return [self.lattice.pair_names(p) for p in self]

    def nonidentity_pairs(self) -> list[Pair]:
        return [p for p in self if p.src != p.dst]

    def has_identities(self) -> bool:
        return self.lattice.identity_mask & ~self.mask == 0

    def _grid_rows(self, transposed: bool) -> list[int]:
        kit = self.lattice._kit
        return kit.rows(kit.transpose(self._grid) if transposed else self._grid)

    @property
    def rows(self) -> list[int]:
        """rows[a] = element mask of all b with (a, b) in the class: on the
        grid path, slices of the grid (of its transpose in op())."""
        if self._rows is None:
            if self.lattice._kit is not None:
                self._rows = self._grid_rows(self.lattice.opposite)
                return self._rows
            rows = [0] * self.lattice.n
            cols = [0] * self.lattice.n
            ps = self.lattice.pairs
            for i in iter_bits(self.mask):
                a, b = ps[i]
                rows[a] |= 1 << b
                cols[b] |= 1 << a
            self._rows = rows
            self._cols = cols
        return self._rows

    @property
    def cols(self) -> list[int]:
        """cols[b] = element mask of all a with (a, b) in the class."""
        if self._cols is None:
            if self.lattice._kit is not None:
                self._cols = self._grid_rows(not self.lattice.opposite)
            else:
                self.rows
        return self._cols


def _and_not(x: int, y: int) -> int:
    return x & ~y


def lifts(lattice: FiniteLattice, f: Pair, g: Pair) -> bool:
    """True iff every commutative square with f on the left and g on the
    right has a diagonal.  In a poset there is at most one square, so this
    reduces to: (src f <= src g and dst f <= dst g) implies dst f <= src g."""
    if lattice.leq(f.src, g.src) and lattice.leq(f.dst, g.dst):
        return lattice.leq(f.dst, g.src)
    return True


def _rc_grid(kit, s: int) -> int:
    return kit.order & ~kit.times_order(kit.order_t_times(s) & ~kit.order_t)


def _lc_grid(kit, s: int) -> int:
    return kit.order & ~kit.order_times(kit.times_order_t(s) & ~kit.order_t)


def right_complement(s: MorphClass) -> MorphClass:
    """All g such that every f in s lifts on the left of g.

    On the grid path this is rc(S) = O & ~((Oᵀ∘S & ~Oᵀ)∘O), where O is the
    order grid (row a is up(a)), Oᵀ its transpose (row c is down(c)) and ∘
    the boolean matrix product.  f = (a, b) fails to lift against
    g = (c, d) exactly when a <= c and b <= d (the one square commutes)
    and b is not <= c (it has no diagonal).  Row c of Oᵀ∘S holds the b
    with (a, b) in S for some a <= c; masking out Oᵀ keeps those with b
    not <= c; the product with O then marks (c, d) for every d >= such a
    b.  Those are exactly the g some member of S fails to lift against,
    and rc(S) is every other pair.  In op() the grid is the same and
    lifting reverses (f lifts against g there iff g lifts against f in L),
    so its right complement is the primal left-complement formula.
    """
    lat = s.lattice
    kit = lat._kit
    if kit is not None:
        return MorphClass._of_grid(lat, _complement_kernels(lat.opposite)[1](kit, s._grid))
    table = lat.nonlift_right
    mask = 0
    for j in range(len(lat.pairs)):
        if s.mask & table[j] == 0:
            mask |= 1 << j
    return MorphClass(lat, mask)


def left_complement(s: MorphClass) -> MorphClass:
    """All f such that f lifts on the left of every g in s.

    On the grid path this is lc(S) = O & ~(O∘(S∘Oᵀ & ~Oᵀ)), with the
    notation of :func:`right_complement`, by the same lifting rule read
    from the other end: row c of S∘Oᵀ holds the b <= d for some (c, d) in
    S; masking out Oᵀ keeps those with b not <= c; the product O∘ then
    marks (a, b) for every a <= such a c.  Those are exactly the f that
    fail to lift against some member of S.  In op() the two formulas swap.
    """
    lat = s.lattice
    kit = lat._kit
    if kit is not None:
        return MorphClass._of_grid(lat, _complement_kernels(lat.opposite)[0](kit, s._grid))
    table = lat.nonlift_left
    mask = 0
    for i in range(len(lat.pairs)):
        if s.mask & table[i] == 0:
            mask |= 1 << i
    return MorphClass(lat, mask)


def proper_factorizations(j: MorphClass, f: Pair, certified: bool = False) -> list[int]:
    """All c != src f with (src f, c) in j and c <= dst f.

    For a pushout-closed j this list is empty exactly when every member of
    j lifts on the left of f.  Certified mode runs :func:`is_pushout_closed`
    on j at each call; if j fails, it raises :class:`NotPushoutClosed` with the witness.
    """
    if certified:
        closed = is_pushout_closed(j)
        if not closed:
            raise NotPushoutClosed(closed.witness)
    lat = j.lattice
    candidates = j.rows[f.src] & lat.down_mask(f.dst) & ~(1 << f.src)
    return list(iter_bits(candidates))


def is_pushout_closed(s: MorphClass) -> Check:
    """Every pushout of a member is a member; the witness is the least
    member f and its least escaping pushout, ``(f, pushout)``."""
    lat = s.lattice
    ps = lat.pairs
    targets = lat.pushout_targets
    for i in iter_bits(s.mask):
        escaped = targets[i] & ~s.mask
        if escaped:
            return Check("pushout_closed", False, (ps[i], ps[low_bit(escaped)]))
    return Check("pushout_closed", True)


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

    On the grid path s is closed iff S∘S & ~S = 0, which reads the same
    on both op() sides; only a class that fails scans for its witness.
    """
    kit = s.lattice._kit
    if kit is not None:
        g = s._grid
        if not kit.product(g, g) & ~g:
            return Check("composition_closed", True)
    ps = s.lattice.pairs
    rows = s.rows
    for i in iter_bits(s.mask):
        a, b = ps[i]
        missing = rows[b] & ~rows[a]
        if missing:
            return Check("composition_closed", False, (a, b, low_bit(missing)))
    return Check("composition_closed", True)


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
    missing = s.lattice.identity_mask & ~s.mask
    if missing:
        return Check(name, False, (s.lattice.pairs[low_bit(missing)],))
    closed = is_composition_closed(s)
    return Check(name, closed.ok, closed.witness)


_WFS_CHECKS = ("lifting", "left_maximal", "right_maximal", "factorization")
# the ten conditions of verify_model that read cof or fib, in report order
_MODEL_CHECKS = ("cof_subcategory", "fib_subcategory",
                 *("cof_afib." + name for name in _WFS_CHECKS), *("acof_fib." + name for name in _WFS_CHECKS))


def _complement_kernels(opposite: bool):
    """(lc, rc): the left and right complement grid kernels of one op() side."""
    return (_rc_grid, _lc_grid) if opposite else (_lc_grid, _rc_grid)


def _wfs_fails(kit, opposite: bool, lg: int, rg: int, factorization: bool = True) -> list[int]:
    """The difference grids of the lifting-system checks of (lc, rc), whose
    grids are `lg` and `rg`: with allowed = lc(rc), lifting fails on
    lc & ~allowed, left maximality on allowed & ~lc, right maximality on
    rc(lc) & ~rc and, with `factorization`, factorization on O & ~(lc∘rc),
    O & ~(rc∘lc) in op().  `kit` may be a stack kit, and then each
    argument and result is a stack, checked block by block."""
    lc, rc = _complement_kernels(opposite)
    allowed = lc(kit, rg)
    fails = [lg & ~allowed, allowed & ~lg, rc(kit, lg) & ~rg]
    if factorization:
        first, second = (rg, lg) if opposite else (lg, rg)
        fails.append(kit.order & ~kit.product(first, second))
    return fails


def _model_fails(kit, opposite: bool, cof: int, fib: int, weq: int) -> list[int]:
    """The difference grids of the ten conditions :data:`_MODEL_CHECKS` of
    (cof, fib) over weq, in that order; each condition holds iff its grid
    is zero.  A subcategory misses ids & ~S or S∘S & ~S; the lifting-system
    checks are :func:`_wfs_fails` of (cof, fib & weq) and (cof & weq, fib).
    The one implementation of those conditions: ``verify_model`` passes
    grids (the stack of one) and the oracle stacks of candidates."""
    return [(kit.ids | kit.product(cof, cof)) & ~cof, (kit.ids | kit.product(fib, fib)) & ~fib,
            *_wfs_fails(kit, opposite, cof, fib & weq), *_wfs_fails(kit, opposite, cof & weq, fib)]


def _wfs_grid_checks(lat: FiniteLattice, rg: int, fails: list[int], prefix: str) -> list[Check]:
    """The lifting-system checks whose difference grids are `fails` (see
    :func:`_wfs_fails`), rc's grid being `rg`.  A witness is the lowest bit
    of its difference, the least pair f in pair order on both op() sides;
    for lifting, with the least g in rc that f fails to lift against."""
    kit = lat._kit
    checks = []
    for name, extra in zip(_WFS_CHECKS, fails):
        if not extra:
            checks.append(Check(prefix + name, True))
            continue
        f = kit.pair(low_bit(extra), lat.opposite)
        witness = (f,)
        if name == "lifting":
            up = lat._up
            srcs, dsts = up[f.src] & ~up[f.dst], up[f.dst]
            against = kit.outer(dsts, srcs) if lat.opposite else kit.outer(srcs, dsts)
            witness = (f, kit.pair(low_bit(against & rg), lat.opposite))
        checks.append(Check(prefix + name, False, witness))
    return checks


def _wfs_checks(lc: MorphClass, rc: MorphClass, prefix: str = "", factorization: bool = True) -> list[Check]:
    """The lifting-system checks of (lc, rc), each named `prefix` + its name:
    lifting, left_maximal, right_maximal and, with `factorization`, the
    factorization check (see :func:`is_mls` and :func:`is_wfs`).

    On the grid path the differences are read off grids
    (:func:`_wfs_fails`): no class is built and no grid is turned back
    into a pair mask.  The pair-table path computes the same three
    differences as pair masks and scans for the least unfactored pair.
    """
    lat = lc.lattice
    kit = lat._kit
    if kit is not None:
        return _wfs_grid_checks(lat, rc._grid, _wfs_fails(kit, lat.opposite, lc._grid, rc._grid, factorization),
                                prefix)
    allowed = left_complement(rc).mask
    fails = (lc.mask & ~allowed, allowed & ~lc.mask, right_complement(lc).mask & ~rc.mask)
    checks = []
    for name, extra in zip(_WFS_CHECKS, fails):
        if not extra:
            checks.append(Check(prefix + name, True))
            continue
        i = low_bit(extra)
        f = lat.pairs[i]
        witness = (f, lat.pairs[low_bit(lat.nonlift_left[i] & rc.mask)]) if name == "lifting" else (f,)
        checks.append(Check(prefix + name, False, witness))
    if factorization:
        checks.append(_factorization_check(lc, rc, prefix + "factorization"))
    return checks


def _model_checks(cof: MorphClass, fib: MorphClass, weq: MorphClass) -> list[Check]:
    """The ten checks :data:`_MODEL_CHECKS` of ``verify_model``.  On the grid
    path they read the difference grids of :func:`_model_fails`, with each
    witness as :func:`subcategory_check` and :func:`_wfs_checks` give it;
    a subcategory witness is searched only once its difference is nonzero."""
    lat = cof.lattice
    kit = lat._kit
    if kit is None:
        return [subcategory_check(cof, _MODEL_CHECKS[0]), subcategory_check(fib, _MODEL_CHECKS[1]),
                *_wfs_checks(cof, fib & weq, "cof_afib."), *_wfs_checks(cof & weq, fib, "acof_fib.")]
    fg, wg = fib._grid, weq._grid
    fails = _model_fails(kit, lat.opposite, cof._grid, fg, wg)
    checks = [subcategory_check(s, name) if extra else Check(name, True)
              for s, name, extra in zip((cof, fib), _MODEL_CHECKS, fails)]
    return checks + _wfs_grid_checks(lat, fg & wg, fails[2:6], "cof_afib.") + _wfs_grid_checks(lat, fg, fails[6:], "acof_fib.")


def is_mls(lc: MorphClass, rc: MorphClass) -> Report:
    """Check the three maximal-lifting-system conditions for (lc, rc).

    Each witness is least in pair order.  Lifting fails exactly at the
    members of lc outside the left complement of rc; its witness pairs the
    least such f with the least g in rc that f does not lift against.  On
    the grid path the three conditions are read straight off grids, with
    no pair-mask round trip, and each witness is the lowest bit of its
    difference grid, the least pair in pair order on both op() sides.
    f = (a, b) fails against the g = (c, d) with c in up(a) & ~up(b) and
    d in up(b): that outer product, met with rc's grid, has the least g at
    its lowest bit.
    """
    return Report(tuple(_wfs_checks(lc, rc, factorization=False)))


def _factorization_check(lc: MorphClass, rc: MorphClass, name: str = "factorization") -> Check:
    """The least pair with no (lc, rc) factorization, by a scan over the
    pair tables' rows; the grid path reads it off :func:`_wfs_fails`."""
    lat = lc.lattice
    lrows = lc.rows
    rcols = rc.cols
    up, down = lat._up, lat._down
    for (a, b) in lat.pairs:
        middles = lrows[a] & rcols[b] & up[a] & down[b]
        if middles == 0:
            return Check(name, False, (Pair(a, b),))
    return Check(name, True)


def is_wfs(lc: MorphClass, rc: MorphClass) -> Report:
    """MLS conditions plus existence of a (lc, rc) factorization of every morphism."""
    return Report(tuple(_wfs_checks(lc, rc)))


def factorize(lc: MorphClass, rc: MorphClass, f: Pair, require: bool = False) -> list[int]:
    """All middles m with (src f, m) in lc and (m, dst f) in rc, ascending."""
    lat = lc.lattice
    middles = lc.rows[f.src] & rc.cols[f.dst] & lat.up_mask(f.src) & lat.down_mask(f.dst)
    if require and middles == 0:
        raise NoFactorization(f)
    return list(iter_bits(middles))
