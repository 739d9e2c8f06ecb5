"""Finite bounded lattices and their categorical calculus.

Elements are integer indices into a name list.  The order convention is
``a -> b`` iff ``a <= b``, so coproducts and pushouts are joins, products
and pullbacks are meets, the initial object is the bottom and the terminal
object is the top.  Element subsets and morphism sets are represented as
integer bitmasks throughout, which keeps the exhaustive scans cheap.

Pushout stability has one formula, :meth:`FiniteLattice._pushout_escapes`:
the pairs with a pushout outside a class S are O∘N, N[c] being the b
with (c, b v c) not in S, one gather per row of the join table and one
kit method.  It builds no table, so W_c, W_c^chi and the pushout guard
(and, in L.op(), W_f, W_f^chi and pullback closure) read none on either
kit.  Two such gathers, through the meet and join rows, give the square
rows of :meth:`FiniteLattice._square_rows`, which decide whether a
comparison square lies in W.  The P-indexed pair tables remain for the
pair-mask kit's lift scans and for outside callers.  Each is built from
per-element pair masks, built once per lattice on the primal side and
memoised there (``_primal_masks``): by_src[x], the pairs with source x, is
one run of bits, as pairs are sorted by source, and by_dst[y] sums the
bits of one run of the pair indices sorted by target.  Every table of
either side reads them through :meth:`FiniteLattice._pair_masks`; L.op()
reads them swapped and L's pair ends as (dsts, srcs), so it builds no
pairs or masks of its own.  src_up[a] and dst_up[b], the pairs with
source >= a and target >= b, are C-level sums of the masks over up(a):
work that grows with |up(a)|, never with n.  src_up, which the pushout
targets and the left lift table of a side both read, is memoised per
side.  Each table is then one map over the pair ends, and no pair is
looked up.  With both sides' src_up the masks take about 4·n·P bits
against 3·P² for the tables: 1.6 against 97 MiB on a 180-element chain
(P = 16,290).

Pair masks have one reader, :func:`_flags`, a byte per pair, and one
writer, :func:`_from_flags`, from a flag per pair: each one C-level pass
over a P-character string, where iter_bits or an OR per bit copies the
P-bit int at every step.  The class boundary, rendering (through
:meth:`FiniteLattice._select`) and _PairKit use them.

The pair layer is built in C-level passes, with no Python step per pair.
:func:`build_lattice` closes the order by Warshall's algorithm (S. Warshall,
"A theorem on Boolean matrices", 1962) on its grid, n steps of
:meth:`_GridKit.closure`, and keeps the closed grid (row a is up(a)) and its
transpose (row c is down(c)), read off the columns of the grid's binary
digits, which also give ``down``.  The cycle check is one AND: the lowest
bit of grid & transpose off the diagonal is the least a in a cycle with its
least partner.  Every later reader takes the kept grids: ``L.op()`` holds
them swapped, the kit gate counts the grid's bits, the grid kit's ``order``
and ``order_t`` are them, and the order's flags, byte a*n + b set iff
a <= b, are :func:`_flags` of the grid: :attr:`FiniteLattice.pairs` divides
by n each grid bit they select, and the grid kit's gathers come from the
grid positions they select.  ``L.op().pairs`` is L's tuple with each pair
reversed.  One name table per side, ``_label_index``, maps each
label pair to its pair index in pair order, and no other table indexes
pairs: rendering selects its keys by a mask, ``MorphClass.from_pairs``
resolves a pair, of labels or of indices through their labels, by one
lookup, ``identity_mask`` looks up the (x, x) and the pair kit's ``bit``
the (a, b).  Labels are str, so no index pair reads as a label pair, and
every morphism argument and relation has one reader, :func:`_ends`;
:meth:`FiniteLattice.morphism` checks what it passes as a pair.  The
covers (:meth:`FiniteLattice.cover_pairs`) are one kit product:
strict & ~(strict∘strict), strict the order less the identities, n loop
steps on a grid and one pass over the pairs on the pair kit.

Duals are computed in the opposite lattice ``L.op()`` (joins and meets,
pushouts and pullbacks swap).  Its pair i is pair i of L reversed, in L's
order, so a class mask names the same morphisms on both sides and witnesses
stay the same least pairs.  Each side builds only its own left lift table,
and no alias names another: the pair kit's right complement reads the left
table of ``L.op()``.  Orientation is part of
equality: ``L.op()`` is not equal to the lattice built from the reversed
order.  Every table is memoised per side (:class:`Dualizable`); a hit
reads the memo directly (:func:`_memoised`).

Each lattice side holds one kit of kernels, ``_kit``.  Dense lattices
hold grid kernels (:class:`_GridKit`).  A grid packs a class into one
n^2-bit int: bit a*n + b is set when the class holds the pair whose
primal reading is (a, b), its reading in the lattice that
:func:`build_lattice` returned rather than in its opposite.  So ``x.op()``
shares x's grid, and the lowest set bit is the least pair in pair order
on both sides.  Complements, composition closure, the lifting-system checks and
factorization become a few boolean matrix products of n loop steps each
(V. L. Arlazarov et al., "On economical construction of the transitive
closure of an oriented graph", 1970).  A product costs ~n^3 bit
operations whatever the pair count P, the pair tables ~P^2, so a lattice
takes the grid path iff n^3 <= 4 * P^2 (``_GRID_DENSITY``); sparser ones
hold pair-mask kernels (:class:`_PairKit`) with the same methods, read
off the pair tables.  4 is where the two ``verify_model`` paths measured
even: on wide lattices (a bottom, k atoms, a top) at n^3/P^2 of about
4.2, on parallel 2-chains between 3.6 and 4.3.  No lattice of the
benchmark's workloads is sparse, but the pair kit stays: with W every
pair, building, validating, ``recognize_finite`` and ``verify_model``
took 134 ms on it against 1,521 ms on a grid kit on the wide lattice of
510 atoms, 31 against 113 ms on 30 parallel 8-chains and 8.5 against
15.8 ms on 60 parallel 2-chains (minima of 5 in each of two processes,
2-vCPU VM).  The narrowest sparse lattices go the other way: on 40 atoms
(n = 42, P = 123) the same path took 1.8 ms on the pair kit against 1.5
ms on a grid kit.
L and L.op() have the same n and P, so they take the same path;
``L.op()._kit`` is a view of L's grid kit that answers in L.op()'s terms.
Every lattice of at most 33 elements takes the grid path, since the wide
one has the fewest pairs, 3n - 3.
The grid kernels also run on stacks, many grids side by side in one int,
bit-parallel across grids ("SIMD within a register": R. J. Fisher and
H. G. Dietz, "Compiling for SIMD within a register", 1998); the oracle
grows, generates and verifies all its candidates that way, on the kit of
:meth:`FiniteLattice._grid_route`: the side's own kit, its gathers the
identity, if dense, else a grid kit built for the call and its gathers.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
import weakref
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    CapExceeded,
    CycleDetected,
    InvalidInput,
    NotALattice,
    NotComparable,
    Unbounded,
    require_count,
)

DEFAULT_MAX_ELEMENTS = 512
MAX_PAIRS = 16_384  # comparable pairs; see build_lattice
# grid path iff n^3 <= _GRID_DENSITY * P^2, the measured crossover of the two
# verify_model paths (module docstring)
_GRID_DENSITY = 4


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def low_bit(mask: int) -> int:
    """The lowest set bit position of a nonzero `mask`: the first of :func:`iter_bits`."""
    return (mask & -mask).bit_length() - 1


_TO_FLAGS, _TO_DIGITS = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"\0\1", b"01")


def _flags(mask: int, width: int) -> bytes:
    """The pair-mask reader: byte i is bit i of `mask`, 0 or 1, for each i < width >= mask.bit_length()."""
    return f"{mask:0{width}b}"[::-1].encode().translate(_TO_FLAGS)


def _from_flags(flags) -> int:
    """The pair-mask writer, inverse to :func:`_flags`: bit i is flags[i], one or more flags of 0 or 1."""
    return int(bytes(flags)[::-1].translate(_TO_DIGITS), 2)


def _same(x: int) -> int:
    """The conversion between an encoding and itself."""
    return x


def _run_sums(values, cuts: bytes) -> list[int]:
    """The sums of `values` over consecutive runs, none empty, cuts[k] set
    iff a run starts at index k or k = len(values): the prefix sums read at
    each cut in one C-level pass, then differenced."""
    prefix = list(itertools.compress(itertools.accumulate(values, initial=0), cuts))
    return list(map(operator.sub, prefix[1:], prefix))


_op_lock = threading.Lock()


class Dualizable:
    """A cached, write-once ``op()`` built by ``_reversed()``; ``x.op().op() is x``.

    x holds its opposite, which refers back weakly: the pair forms no
    reference cycle and is freed with x.  Subclasses set ``_op = None``.
    Concurrent first calls may each build an opposite, but only the first
    one published is ever returned.  The build runs outside the lock:
    ``_reversed`` calls ``op()`` on its parts.

    The memo ``_memo``, which subclasses start empty, holds every derived
    value.  It is per object and ``op()`` side: ``_reversed`` gives the
    opposite an empty one.  :meth:`_cached` publishes with
    ``dict.setdefault``, so the first value published wins and every caller
    gets that object.  A build that raises is never memoised, and center
    maps are memoised only when they pass (``validate_centers``).
    """

    __slots__ = ()

    def op(self):
        o = self._op() if type(self._op) is weakref.ref else self._op
        if o is None:
            built = self._reversed()
            with _op_lock:
                o = self._op() if type(self._op) is weakref.ref else self._op
                if o is None:
                    self._op, built._op = built, weakref.ref(self)
                    o = built
        return o

    def _cached(self, key, build):
        """The memo entry `key`, publishing ``build(self)`` on a miss."""
        value = self._memo.get(key)
        return self._memo.setdefault(key, build(self)) if value is None else value


def _memoised(fn):
    """Memoise ``fn(x)`` on x, under fn's name (see :class:`Dualizable`): a hit
    reads the memo directly, and only a miss calls :meth:`Dualizable._cached`."""
    key = fn.__name__

    @functools.wraps(fn)
    def read(x):
        try:
            return x._memo[key]
        except KeyError:
            return x._cached(key, fn)
    return read


class Pair(NamedTuple):
    """A morphism src -> dst; only valid when src <= dst."""

    src: int
    dst: int

    def op(self) -> "Pair":
        return Pair(self.dst, self.src)


def _two_ends(item) -> bool:
    """Whether `item` has the shape of a morphism or relation: a tuple or list of two."""
    return isinstance(item, (tuple, list)) and len(item) == 2


def _ends(item) -> tuple | list:
    """The one reader of a morphism or relation argument: a tuple or list of
    two ends passes; anything else, such as a string of two labels, is an
    input error naming the item."""
    if _two_ends(item):
        return item
    raise InvalidInput(f"a pair must be a tuple or list of two elements, got {item!r}")


class _GridKit:
    """The grid kernels of one lattice side (module docstring).

    Row a of a grid is bits a*n .. a*n + n - 1.  `order` is the grid of
    every pair (row a is up(a)), `order_t` its transpose (row c is
    down(c)) and `ids` the grid of the identities, all in primal terms,
    as are the grids themselves and :meth:`product`, :meth:`closure` and
    the fixed-operand products.  Conversions are C-level gathers:
    ``f"{x:0{k}b}"`` holds bit k - 1 - j at index j, and an itemgetter
    over precomputed positions picks the output string.

    Sides.  ``L.op()._kit`` is ``L._kit.flipped()``, a view sharing every
    table, and :meth:`lc`, :meth:`rc`, :meth:`composite`, :meth:`pair`,
    :meth:`bit`, :meth:`outer`, :meth:`rows` and :meth:`cols` answer in
    its side's terms, so no caller asks for the side.  In L.op(), (a, b)
    is the primal (b, a); lifting reverses, so lc and rc swap; a composite
    reverses its factors; rows are the primal columns.

    Each complement is two products with O or Oᵀ as one operand, so that
    operand's side of every loop step is precomputed once per lattice:
    step m of X∘O is ``(X >> m & col0) * up(m)`` and of X∘Oᵀ the same with
    down(m); step m of O∘Y is ``col_m * (Y >> m*n & full)``, col_m being
    column m of O (down(m)) spread over the rows, and of Oᵀ∘Y the same
    with up(m).  A step then shifts and masks once where :meth:`product`
    does twice.

    Stacks.  A stack holds k grids side by side in one int, grid j in
    block j, bits j*B .. j*B + n^2 - 1, with B = 8*ceil(n^2/8) so that
    :meth:`pack` and :meth:`unpack` go through ``to_bytes`` and
    ``from_bytes``; the B - n^2 padding bits of every block stay zero.
    ``stacked(k)`` is the kit of k-grid stacks: col0, full, order, order_t
    and ids repeated once per block, the step tables unchanged, so every
    kernel runs on all k grids at once.  This kit is the stack of one.
    No term crosses a block.  A shift by m < n of a stack moves a bit of
    block j + 1 to (j + 1)*B - m or above, past bit j*B + (n - 1)*n, the
    last column-0 bit of block j, so ``x >> m & col0`` keeps column m of
    each block alone; likewise a shift by m*n leaves bits j*B + n and above
    of the next block, so ``y >> m*n & full`` keeps row m of each block
    alone.  A kept column bit at j*B + a*n times an n-bit row fills only
    row a of block j, and a kept row at j*B times the one-block column
    grid (bits a*n, a < n, or col_m of a fixed-operand step) fills only
    rows of block j, ending at j*B + n^2 - 1.  The kept bits are pairwise
    that far apart, so no product carries: each output bit is one term.
    A stack's general product cannot multiply by a row, which differs from
    block to block; its step is ``((x >> m & col0) * row1) & ((y >> m*n &
    full) * col1)`` with the one-block row1 = 2^n - 1 and col1 = column 0,
    x's column m spread along its rows met with y's row m copied down its
    columns: two multiplies where the stack of one takes one.
    """

    __slots__ = ("n", "npairs", "full", "col0", "order", "order_t", "ids", "k", "block_bytes", "opposite", "_steps",
                 "_up_rows", "_down_rows", "_down_cols", "_up_cols", "_from_mask", "_to_mask", "_transpose")

    def __init__(self, lat: "FiniteLattice"):
        """`lat` is the primal side, which this kit reads: its order masks and
        its two grids, kept by :func:`build_lattice`, are `order` and `order_t`."""
        n = self.n = lat.n
        nn = n * n
        self.k = 1
        self.opposite = False
        self.block_bytes = (nn + 7) // 8
        ints = list(range(nn + 1))  # one int object per position value
        self.order, self.order_t = lat._grid, lat._grid_t
        flags = f"{self.order:0{nn}b}".encode().translate(_TO_FLAGS)  # byte j: whether grid bit nn - 1 - j is a pair
        p = self.npairs = flags.count(1)
        # the grid string's index j = nn - 1 - t of each pair's bit t, ascending: pair order read backwards,
        # as the mask string holds its digits, so the pairs' positions there are 0, 1, ..., p - 1
        cells = list(itertools.compress(ints, flags))
        self._to_mask = operator.itemgetter(*cells)
        source = [ints[p]] * nn  # the pad p, after the mask's digits, for every grid bit not a pair
        list(map(source.__setitem__, cells, ints))
        self._from_mask = operator.itemgetter(*source)
        self._transpose = operator.itemgetter(*itertools.chain.from_iterable(ints[a:nn:n] for a in range(n)))
        self._steps = tuple(zip(range(n), ints[::n]))  # (column, row shift)
        self.full = (1 << n) - 1
        self.col0 = ((1 << nn) - 1) // self.full  # bits a*n, a < n: a geometric sum, as in build_lattice
        self.ids = (1 << nn + n) // ((2 << n) - 1)  # bits a*(n + 1), a < n
        # step m of x∘O: (shift of x's column m, row m of O); of x∘Oᵀ likewise
        self._up_rows = tuple(zip(range(n), lat._up))
        self._down_rows = tuple(zip(range(n), lat._down))
        # step m of O∘y: (column m of O spread over the rows, shift of y's row m); of Oᵀ∘y likewise
        col0, order, order_t = self.col0, self.order, self.order_t
        self._down_cols = tuple((order >> m & col0, shift) for m, shift in self._steps)
        self._up_cols = tuple((order_t >> m & col0, shift) for m, shift in self._steps)

    def from_mask(self, mask: int) -> int:
        """The grid of a pair mask; a single position makes itemgetter return a str, which join keeps."""
        return int("".join(self._from_mask(f"{mask:0{self.npairs}b}0")), 2)

    def to_mask(self, grid: int) -> int:
        return int("".join(self._to_mask(f"{grid:0{self.n * self.n}b}")), 2)

    def transpose(self, grid: int) -> int:
        return int("".join(self._transpose(f"{grid:0{self.n * self.n}b}")), 2)

    def rows(self, grid: int) -> list[int]:
        """rows[a] = the element mask of the b with (a, b) in `grid`; cols[b] likewise of the a."""
        return self._slices(self.transpose(grid) if self.opposite else grid)

    def cols(self, grid: int) -> list[int]:
        return self._slices(grid if self.opposite else self.transpose(grid))

    def _slices(self, grid: int) -> list[int]:
        n, full = self.n, self.full
        return [grid >> a * n & full for a in range(n)]

    def flipped(self) -> "_GridKit":
        """This single-grid kit read on the other op() side, sharing every table (class docstring)."""
        view = _GridKit.__new__(_GridKit)
        for name in _GridKit.__slots__:
            setattr(view, name, getattr(self, name))
        view.opposite = not self.opposite
        return view

    def stacked(self, k: int) -> "_GridKit":
        """The kit of k-grid stacks (class docstring), on this kit's side; this kit for k = 1."""
        if k == 1:
            return self
        stack = _GridStack.__new__(_GridStack)
        for name in _GridKit.__slots__:
            setattr(stack, name, getattr(self, name))
        stack.k, stack.row1, stack.col1 = k, self.full, self.col0
        stack.full, stack.col0, stack.order, stack.order_t, stack.ids = map(
            stack.repeat, (self.full, self.col0, self.order, self.order_t, self.ids))
        return stack

    def repeat(self, grid: int) -> int:
        """The stack holding `grid` in each of its k blocks."""
        return int.from_bytes(grid.to_bytes(self.block_bytes, "little") * self.k, "little")

    def pack(self, grids: list[int]) -> int:
        """The stack of `grids`, grid j in block j."""
        width = self.block_bytes
        return int.from_bytes(b"".join(g.to_bytes(width, "little") for g in grids), "little")

    def unpack(self, stack: int) -> list[int]:
        """The k grids of `stack`; inverse to :meth:`pack`."""
        width = self.block_bytes
        raw = stack.to_bytes(width * self.k, "little")
        return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]

    def zero_blocks(self, stack: int) -> list[int]:
        """The indices of the blocks of `stack` that are zero, ascending."""
        width = self.block_bytes
        raw = stack.to_bytes(width * self.k, "little")
        zero = bytes(width)
        return [j for j, i in enumerate(range(0, len(raw), width)) if raw[i:i + width] == zero]

    def product(self, x: int, y: int) -> int:
        """The boolean matrix product x∘y: the OR over m of column m of x,
        spread over the rows, times row m of y.  A row has n bits, so the
        product of a spread column and a row has no carries."""
        full, col0 = self.full, self.col0
        out = 0
        for m, shift in self._steps:
            row = y >> shift & full
            if row:
                out |= (x >> m & col0) * row
        return out

    def closure(self, x: int) -> int:
        """The transitive closure of x (Warshall): step m adds (a, c) for
        every (a, m) and (m, c) present after the earlier steps."""
        full, col0 = self.full, self.col0
        for m, shift in self._steps:
            x |= (x >> m & col0) * (x >> shift & full)
        return x

    def _times_rows(self, x: int, rows) -> int:
        col0 = self.col0
        out = 0
        for m, row in rows:
            out |= (x >> m & col0) * row
        return out

    def _cols_times(self, cols, y: int) -> int:
        full = self.full
        out = 0
        for col, shift in cols:
            row = y >> shift & full
            if row:
                out |= col * row
        return out

    def times_order(self, x: int) -> int:
        """x∘O, equal to ``product(x, order)``."""
        return self._times_rows(x, self._up_rows)

    def times_order_t(self, x: int) -> int:
        """x∘Oᵀ, equal to ``product(x, order_t)``."""
        return self._times_rows(x, self._down_rows)

    def order_times(self, y: int) -> int:
        """O∘y, equal to ``product(order, y)``."""
        return self._cols_times(self._down_cols, y)

    def order_t_times(self, y: int) -> int:
        """Oᵀ∘y, equal to ``product(order_t, y)``."""
        return self._cols_times(self._up_cols, y)

    def lc(self, s: int) -> int:
        """lc(S) of the grid S; the formulas are derived in :mod:`~posetmodels.classes`."""
        return self._rc(s) if self.opposite else self._lc(s)

    def rc(self, s: int) -> int:
        return self._lc(s) if self.opposite else self._rc(s)

    def _lc(self, s: int) -> int:  # the primal left complement
        return self.order & ~self.order_times(self.times_order_t(s) & ~self.order_t)

    def _rc(self, s: int) -> int:  # the primal right complement
        return self.order & ~self.times_order(self.order_t_times(s) & ~self.order_t)

    def composite(self, first: int, second: int) -> int:
        """The grid of every composite of a pair of `first` followed by a pair of `second`."""
        return self.product(second, first) if self.opposite else self.product(first, second)

    def outer(self, srcs: int, dsts: int) -> int:
        """The grid of every pair (a, b) with a in `srcs` and b in `dsts`."""
        if self.opposite:
            srcs, dsts = dsts, srcs
        return sum(dsts << a * self.n for a in iter_bits(srcs))

    def pair(self, bit: int) -> Pair:
        """The pair at grid bit `bit`."""
        a, b = divmod(bit, self.n)
        return Pair(b, a) if self.opposite else Pair(a, b)

    def bit(self, a: int, b: int) -> int:
        """The grid holding the pair (a, b) alone."""
        return 1 << (b * self.n + a if self.opposite else a * self.n + b)

    def reach(self, rows: list[int]) -> int:
        """The grid of every pair (a, b) of this side with b in rows[c] for
        some c >= a: O∘R restricted to the pairs, R the relation whose row
        c is rows[c] (see :meth:`FiniteLattice._pushout_escapes`).  On
        L.op(), O is the primal Oᵀ, and Oᵀ∘R holds the pair (a, b) of L.op()
        at row a, column b, the primal (b, a): its transpose is the grid."""
        n = self.n
        r = sum(row << c * n for c, row in enumerate(rows))
        return self.order & (self.transpose(self.order_t_times(r)) if self.opposite else self.order_times(r))


class _GridStack(_GridKit):
    """The kit of k-grid stacks, k > 1 (see :meth:`_GridKit.stacked`):
    the general product and the closure take two multiplies a step."""

    __slots__ = ("row1", "col1")

    def product(self, x: int, y: int) -> int:
        full, col0, row1, col1 = self.full, self.col0, self.row1, self.col1
        out = 0
        for m, shift in self._steps:
            out |= (x >> m & col0) * row1 & (y >> shift & full) * col1
        return out

    def closure(self, x: int) -> int:
        full, col0, row1, col1 = self.full, self.col0, self.row1, self.col1
        for m, shift in self._steps:
            x |= (x >> m & col0) * row1 & (x >> shift & full) * col1
        return x


class _PairKit:
    """The methods of :class:`_GridKit` that the class algebra calls, on the
    pair masks of one sparse lattice side, in its terms: lc reads this
    side's left lift table and rc that of L.op(), both built from the
    lattice's one set of per-element masks, composite tests the first
    class's row against the second's column, each reading and building its
    masks through :func:`_flags` and :func:`_from_flags`.  The kit holds its
    lattice weakly: no reference cycle (:class:`Dualizable`)."""

    __slots__ = ("_lat", "n", "opposite", "pairs", "npairs", "ids", "order", "_cells")

    def __init__(self, lat: "FiniteLattice"):
        self._lat = weakref.ref(lat)
        self.n, self.opposite, self.pairs, self.npairs = lat.n, lat.opposite, lat.pairs, len(lat.pairs)
        self.ids, self.order = lat.identity_mask, lat.all_pairs_mask
        self._cells = ([(a, 1 << b) for a, b in self.pairs], [(b, 1 << a) for a, b in self.pairs])

    from_mask = to_mask = staticmethod(_same)  # the pair mask is this kit's encoding

    def rows(self, mask: int, end: int = 0) -> list[int]:
        """rows[a] = the element mask of the b with (a, b) in `mask`; with end = 1, cols[b] of the a."""
        out = [0] * self.n
        for a, bit in itertools.compress(self._cells[end], _flags(mask, len(self.pairs))):
            out[a] |= bit
        return out

    def cols(self, mask: int) -> list[int]:
        return self.rows(mask, 1)

    def lc(self, s: int) -> int:
        return _from_flags([not s & row for row in self._lat().nonlift_left])

    def rc(self, s: int) -> int:
        """f lifts left of g iff g lifts left of f in L.op(): the left table of L.op()."""
        return _from_flags([not s & row for row in self._lat().op().nonlift_left])

    def composite(self, first: int, second: int) -> int:
        rows, cols = self.rows(first), self.cols(second)
        return _from_flags([rows[a] & cols[b] != 0 for a, b in self.pairs])

    def outer(self, srcs: int, dsts: int) -> int:
        return _from_flags([srcs >> a & dsts >> b & 1 for a, b in self.pairs])

    def pair(self, bit: int) -> Pair:
        return self.pairs[bit]

    def bit(self, a: int, b: int) -> int:
        lat = self._lat()
        return 1 << lat._label_index[lat.names[a], lat.names[b]]

    def reach(self, rows: list[int]) -> int:
        """:meth:`_GridKit.reach`: row a of O∘R is the OR of rows[c] over c in up(a)."""
        out = [0] * self.n
        for a, up in enumerate(self._lat()._up):
            for c in iter_bits(up):
                out[a] |= rows[c]
        return _from_flags([out[a] >> b & 1 for a, b in self.pairs])


class FiniteLattice(Dualizable):
    """A validated finite bounded lattice.

    Immutable after construction (tables are memoised, see Dualizable),
    safe to share between threads for read-only use.  Build instances with
    :func:`build_lattice`, never directly; ``op()`` gives the opposite.
    """

    def __init__(self, names, up, down, grid, grid_t, join_table, meet_table, bottom, top):
        self.names: tuple[str, ...] = tuple(names)
        self.n = len(self.names)
        self._up = up          # up[a] = bitmask of elements >= a (includes a)
        self._down = down      # down[a] = bitmask of elements <= a
        self._grid = grid      # the order grid: bits a*n .. a*n + n - 1 are up[a]
        self._grid_t = grid_t  # its transpose: row a is down[a]
        self._join = join_table
        self._meet = meet_table
        self.bottom = bottom
        self.top = top
        self._index = {name: i for i, name in enumerate(self.names)}
        self.opposite = False  # True for the lattice returned by build_lattice(...).op()
        self._op = None
        self._memo = {}

    def _reversed(self) -> "FiniteLattice":
        """The opposite lattice, sharing this one's tables, swapped."""
        o = FiniteLattice(self.names, self._down, self._up, self._grid_t, self._grid, self._meet, self._join,
                          self.top, self.bottom)
        o.opposite = not self.opposite
        return o

    # -- order ---------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return (self._up[a] >> b) & 1 == 1

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def up_mask(self, a: int) -> int:
        return self._up[a]

    def down_mask(self, a: int) -> int:
        return self._down[a]

    @property
    def elements(self) -> range:
        return range(self.n)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InvalidInput(f"unknown element label {name!r}") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def _pair_of(self, src, dst) -> Pair:
        """The Pair of two indices or labels, unchecked: a str is a label, and an
        unknown one raises InvalidInput; anything else is kept as an index."""
        return Pair(self.index(src) if isinstance(src, str) else src, self.index(dst) if isinstance(dst, str) else dst)

    def _element(self, x) -> int:
        """x, checked to be an element index: an int, not a bool, in range(n)."""
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n:
            raise InvalidInput(f"object index must be in range({self.n}), got {x!r}")
        return x

    def pair(self, src, dst) -> Pair:
        """Build a Pair from indices or labels, checking indices and comparability."""
        a, b = map(self._element, self._pair_of(src, dst))
        if not self.leq(a, b):
            raise NotComparable(self.names[a], self.names[b])
        return Pair(a, b)

    def morphism(self, f) -> Pair:
        """The morphism argument `f`, a tuple or list of two indices or
        labels (:func:`_ends`), as a checked :meth:`pair`."""
        return self.pair(*_ends(f))

    def pair_names(self, p: Pair) -> tuple[str, str]:
        return (self.names[p.src], self.names[p.dst])

    def _select(self, items, mask: int) -> Iterator:
        """The items, one per pair in pair order, whose bits are set in the pair mask `mask`."""
        return itertools.compress(items, _flags(mask, len(items)))

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.names == other.names and self._up == other._up and self.opposite == other.opposite

    def __hash__(self):
        return hash((self.names, tuple(self._up), self.opposite))

    def __repr__(self):
        return f"FiniteLattice({self.n} elements, bottom={self.names[self.bottom]!r}, top={self.names[self.top]!r})"

    def cover_pairs(self) -> list[Pair]:
        """Covering relations (the Hasse diagram edges), lex-sorted: the strict
        pairs that are no composite of two, strict & ~(strict∘strict) on this
        side's kit; sorted, as L.op()'s pair order is not lexicographic."""
        kit = self._kit
        strict = kit.order & ~kit.ids
        return sorted(self._select(self.pairs, kit.to_mask(strict & ~kit.composite(strict, strict))))

    # -- morphism bookkeeping -------------------------------------------

    @property
    @_memoised
    def pairs(self) -> tuple[Pair, ...]:
        """All comparable pairs (morphisms), sorted lexicographically; in op(), by their primal reading."""
        if self.opposite:  # the primal pairs, each reversed
            primal = self.op().pairs
            return tuple(map(tuple.__new__, itertools.repeat(Pair),
                             zip(map(operator.itemgetter(1), primal), map(operator.itemgetter(0), primal))))
        # the grid bits a*n + b of the pairs, ascending: lexicographic already
        n = self.n
        cells = itertools.compress(range(n * n), _flags(self._grid, n * n))
        return tuple(map(tuple.__new__, itertools.repeat(Pair), map(divmod, cells, itertools.repeat(n))))

    @property
    @_memoised
    def identity_mask(self) -> int:
        """The bits of the (a, a), one name-table lookup each; distinct bits, so their sum is their OR."""
        return sum(map((1).__lshift__, map(self._label_index.__getitem__, zip(self.names, self.names))))

    @property
    @_memoised
    def _label_index(self) -> dict[tuple[str, str], int]:
        """{(name of a, name of b): i} for pair i = (a, b), in pair order: the name table
        (module docstring)."""
        labels = map(list(self.names).__getitem__, itertools.chain.from_iterable(self.pairs))  # a list's is faster
        return dict(zip(zip(labels, labels), itertools.count()))

    @property
    @_memoised
    def _kit(self) -> _GridKit | _PairKit:
        """This side's kernels: grids if dense, else pair masks (module docstring)."""
        if self.n ** 3 > _GRID_DENSITY * self._grid.bit_count() ** 2:
            return _PairKit(self)
        return self.op()._kit.flipped() if self.opposite else _GridKit(self)

    def _grid_route(self) -> tuple[_GridKit, object, object]:
        """This side's grid kit and the gathers from its encoding to grids and back (module docstring)."""
        if isinstance(self._kit, _GridKit):
            return self._kit, _same, _same
        kit = _GridKit(self.op()).flipped() if self.opposite else _GridKit(self)
        return kit, kit.from_mask, kit.to_mask

    @property
    def all_pairs_mask(self) -> int:
        return (1 << len(self.pairs)) - 1

    def _pushout_escapes(self, rows: list[int]) -> int:
        """The bits, in this side's encoding, of every pair with a pushout
        outside the class S whose rows are `rows` (rows[c] = the d with
        (c, d) in S, this side's terms).

        The pushouts of f = (a, b) are the (c, b v c), c >= a.  Let
        N[c] = {b : (c, b v c) not in S}; f has a pushout outside S iff
        b is in N[c] for some c >= a, so these pairs are O∘N, O the order
        relation (row a is up(a)), restricted to the pairs: the kit's
        :meth:`~_GridKit.reach` of N.  So S's pushout-stable part of W is
        W & ~(O∘N), and S is pushout-closed iff S & (O∘N) = 0.  Row c of N
        is one C-level gather: over the string holding at index d the bit d
        of the complement of rows[c] (``bin`` of it with bit n set, read
        backwards), ``itemgetter(*reversed(join[c]))`` read as an int holds
        at bit b the bit of (c, b v c) in N[c] (one position gives a str,
        which join keeps).  On L.op() the join table is L's meet table, so
        the pushouts there are L's pullbacks, and the kit reads O, and gives
        the bits, in L.op()'s terms."""
        full = (1 << self.n) - 1
        return self._kit.reach(self._gather([~row & full for row in rows], self._getters()[0]))

    @_memoised
    def _getters(self) -> tuple[list, list]:
        """The itemgetters over each join row and each meet row, reversed, that
        :meth:`_gather` applies; L.op() reads L's, swapped, as its tables are."""
        if self.opposite:
            return self.op()._getters()[::-1]
        return tuple([operator.itemgetter(*reversed(row)) for row in table] for table in (self._join, self._meet))

    def _gather(self, masks: list[int], getters: list) -> list[int]:
        """For each x, the element mask holding at bit y the bit table[x][y]
        of masks[x], getters[x] being the itemgetter over table[x] reversed:
        one C-level gather per x (:meth:`_pushout_escapes`)."""
        top = 1 << self.n
        return [int("".join(get(bin(top | m)[:2:-1])), 2) for m, get in zip(masks, getters)]

    def _preimages(self, values: tuple[int, ...], masks: list[int]) -> list[int]:
        """For each element mask m, the mask of the x with values[x] in m."""
        return self._gather(masks, [operator.itemgetter(*reversed(values))] * len(masks))

    def _square_rows(self, rows: list[int], cols: list[int]) -> list[int]:
        """S[x] = {y : (x ^ y, x) and (x, x v y) in the class with these
        `rows` and `cols`}: two gathers per x, through x's meet and join
        rows.  The comparison square of a and c lies in the class iff c is
        in S[a] and a in S[c] (``centers.validate_centers``).  S is
        self-dual: on L.op() meets and joins swap, and so do rows and cols."""
        joins, meets = self._getters()
        return [m & j for m, j in zip(self._gather(cols, meets), self._gather(rows, joins))]

    def _pair_masks(self) -> tuple[tuple, tuple, list[int], list[int], tuple, bytes]:
        """This side's pair ends (srcs, dsts), per-element pair masks (by_src,
        by_dst), and up-sets: `ups` lays the elements of each up(a), a
        ascending, end to end, and `cuts` flags where each run starts
        (:func:`_run_sums`).  Read from the primal side's memo, swapped on
        L.op() (module docstring)."""
        if self.opposite:  # L.op()'s pair i is L's reversed: sources and targets swap, up-sets are down-sets
            srcs, dsts, by_src, by_dst, _, by_target, target_cuts = self.op()._primal_masks
            return dsts, srcs, by_dst, by_src, by_target, target_cuts
        srcs, dsts, by_src, by_dst, cuts, _, _ = self._primal_masks
        return srcs, dsts, by_src, by_dst, dsts, cuts

    @property
    @_memoised
    def _primal_masks(self) -> tuple[tuple, tuple, list[int], list[int], bytes, tuple, bytes]:
        """The primal side's pair ends, per-element pair masks and run cuts,
        built once per lattice for both op() sides: srcs, dsts, by_src,
        by_dst, the cuts of the runs of pairs by source, the sources in
        target order (L.op()'s `ups`: the down-sets end to end) and the cuts
        of the runs of pairs by target."""
        srcs, dsts = zip(*self.pairs)
        ends = len(dsts) + 1
        # pairs are sorted by source: those with source x are one run, and their targets are up(x)
        bounds = list(map((1).__lshift__, itertools.accumulate(map(int.bit_count, self._up), initial=0)))
        by_src = list(map(operator.sub, bounds[1:], bounds))
        # sorted by target, those with target y are one run, and their sources are down(y)
        order = sorted(range(len(dsts)), key=dsts.__getitem__)
        starts = itertools.accumulate(map(int.bit_count, self._down), initial=0)
        target_cuts = _flags(sum(map((1).__lshift__, starts)), ends)
        by_dst = _run_sums(map((1).__lshift__, order), target_cuts)
        return srcs, dsts, by_src, by_dst, _flags(sum(bounds), ends), tuple(map(srcs.__getitem__, order)), target_cuts

    @_memoised
    def _src_up(self) -> list[int]:
        """src_up[a], the pairs with source >= a: the masks by_src summed over up(a)."""
        _, _, by_src, _, ups, cuts = self._pair_masks()
        return _run_sums(map(by_src.__getitem__, ups), cuts)

    @property
    @_memoised
    def nonlift_left(self) -> list[int]:
        """nonlift_left[i] = mask of j such that pairs[i] does NOT lift left of
        pairs[j]: for i = (a, b), the j = (x, y) with x in up[a] & ~up[b] and
        y in up[b], src_up[a] & only[b] with only[b] = dst_up[b] ^ src_up[b],
        the pairs with target >= b and source not, as src_up[b] <= dst_up[b].
        It reads this side's masks and src_up, which pushout_targets shares."""
        srcs, dsts, by_src, by_dst, ups, cuts = self._pair_masks()
        src_up = self._src_up()
        only = list(map(operator.xor, _run_sums(map(by_dst.__getitem__, ups), cuts), src_up))
        return list(map(operator.and_, map(src_up.__getitem__, srcs), map(only.__getitem__, dsts)))

    @property
    @_memoised
    def pushout_targets(self) -> list[int]:
        """For each pair index i=(a,b): the pair mask of (c, b v c) over all c >= a.

        This is po[b] & src_up[a], where po[b], the OR over all c of
        by_src[c] & by_dst[b v c] (each term the single bit of one pair),
        holds every pushout of a pair ending in b; the masks and src_up are
        those nonlift_left reads.
        """
        srcs, dsts, by_src, by_dst, _, _ = self._pair_masks()
        po = [sum(map(operator.and_, by_src, map(by_dst.__getitem__, row))) for row in self._join]
        src_up = self._src_up()
        return list(map(operator.and_, map(po.__getitem__, dsts), map(src_up.__getitem__, srcs)))

    @property
    def pullback_targets(self) -> list[int]:
        """For each pair index i=(a,b): the pair mask of (a ^ c, c) over all c <= b; op's pushout targets."""
        return self.op().pushout_targets


def build_lattice(
    names: Iterable[str],
    relations: Iterable[tuple[str, str]],
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> FiniteLattice:
    """Validate and index a finite bounded lattice.

    `relations` may list covers or arbitrary order pairs; the
    reflexive-transitive closure is always taken.  Raises
    :class:`CycleDetected` when antisymmetry fails, :class:`NotALattice`
    when some pair has no unique join or meet, and :class:`Unbounded` when
    there is no global bottom or top (only possible for an empty element
    list once the lattice checks pass).

    A `max_elements` that is no int, a bool or negative is an input error.
    Raises :class:`CapExceeded` for more than `max_elements` elements, and
    for more than :data:`MAX_PAIRS` comparable pairs right after the
    closure, before any table is built: the two lift tables hold P^2 bits,
    so the pair count P, not the element count, bounds their memory.
    """
    require_count("max_elements", max_elements)
    names = list(names)
    n = len(names)
    if n == 0:
        raise Unbounded("an empty element list has no bottom or top")
    if n > max_elements:
        raise CapExceeded("lattice elements", max_elements, n)
    for x in names:
        if not isinstance(x, str):
            raise InvalidInput(f"element labels must be str, got {x!r}")
    index = dict(zip(names, range(n)))
    if len(index) < n:  # name the first label seen twice
        raise InvalidInput(f"duplicate element label {next(x for i, x in enumerate(names) if names.index(x) < i)!r}")

    up = [1 << a for a in range(n)]
    for x, y in map(_ends, relations):
        if not isinstance(x, str) or x not in index:
            raise InvalidInput(f"relation references unknown label {x!r}")
        if not isinstance(y, str) or y not in index:
            raise InvalidInput(f"relation references unknown label {y!r}")
        up[index[x]] |= 1 << index[y]
    # Warshall's transitive closure on the order grid, row a up(a): n steps of _GridKit.closure
    nn, full = n * n, (1 << n) - 1
    rows = range(0, nn, n)
    grid, col0 = sum(map(operator.lshift, up, rows)), ((1 << nn) - 1) // full
    for m, shift in enumerate(rows):
        grid |= (grid >> m & col0) * (grid >> shift & full)
    up = [grid >> shift & full for shift in rows]
    # the transpose: the grid's binary digits from index j in steps of n are column n - 1 - j, down[n - 1 - j]
    digits = f"{grid:0{nn}b}"
    cols = [digits[j::n] for j in range(n)]
    grid_t = int("".join(cols), 2)
    down = [int(c, 2) for c in reversed(cols)]
    # the least a in a cycle, with its least partner b: the lowest (a, b) off the diagonal in both grids
    cycle = grid & grid_t & ~((1 << nn + n) // ((2 << n) - 1))
    if cycle:
        raise CycleDetected(*map(names.__getitem__, divmod(low_bit(cycle), n)))
    n_pairs = grid.bit_count()
    if n_pairs > MAX_PAIRS:
        raise CapExceeded("comparable pairs", MAX_PAIRS, n_pairs)

    # the upper bounds of {a, b} are up[a v b] when the join exists, and
    # otherwise the up-mask of no element; meets likewise through down
    by_up = {m: u for u, m in enumerate(up)}
    by_down = {m: v for v, m in enumerate(down)}
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            least = by_up.get(up[a] & up[b])
            if least is None:
                raise NotALattice(names[a], names[b], "join")
            join_table[a][b] = join_table[b][a] = least
            greatest = by_down.get(down[a] & down[b])
            if greatest is None:
                raise NotALattice(names[a], names[b], "meet")
            meet_table[a][b] = meet_table[b][a] = greatest

    every = (1 << n) - 1
    return FiniteLattice(names, up, down, grid, grid_t, join_table, meet_table, by_up[every], by_down[every])


def join_all(lattice: FiniteLattice, elems: Iterable[int]) -> int:
    """Least upper bound of a set; the empty join is the bottom.  An index
    that is no element is an input error."""
    acc = None
    for e in map(lattice._element, elems):
        acc = e if acc is None else lattice.join(acc, e)
    return lattice.bottom if acc is None else acc


def meet_all(lattice: FiniteLattice, elems: Iterable[int]) -> int:
    """Greatest lower bound of a set; the empty meet is the top.  Dual of :func:`join_all`."""
    return join_all(lattice.op(), elems)


def pushout_of(lattice: FiniteLattice, f: Pair, c: int) -> Pair:
    """Cobase change of f=(a,b) along a <= c, namely (c, b v c); f and
    (a, c) are read through :meth:`FiniteLattice.pair`, so an index that
    is no element, or a pair that is no morphism, is an input error."""
    a, b = lattice.morphism(f)
    c = lattice.pair(a, c).dst
    return Pair(c, lattice.join(b, c))


def pullback_of(lattice: FiniteLattice, f: Pair, c: int) -> Pair:
    """Base change of f=(a,b) along c <= b, namely (a ^ c, c); f and
    (c, b) are read through :meth:`FiniteLattice.pair`, so an index that
    is no element, or a pair that is no morphism, is an input error."""
    a, b = lattice.morphism(f)
    c = lattice.pair(c, b).src
    return Pair(lattice.meet(a, c), c)
