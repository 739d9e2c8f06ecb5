"""The grid kernels, the pair-mask kernels and the density gate that chooses between them.

Every result of the class algebra must be the same on both paths, least
witnesses included; the kernels are checked against naive loops.
"""

import gc
import itertools
import random
import time
import weakref

import pytest

import posetmodels.lattice as lattice_module
from posetmodels import (
    Check,
    InstanceGen,
    ModelStruct,
    MorphClass,
    build_lattice,
    build_zigzag,
    check_s2of3,
    compute_Jchi,
    compute_Qchi,
    compute_Wc,
    compute_Wc_chi,
    compute_Wf,
    compute_Wf_chi,
    construct_from_centers,
    construct_from_centers_dual,
    construct_terminal,
    enumerate_model_structures,
    find_centers,
    homotopy_reduce,
    is_composition_closed,
    is_mls,
    is_pullback_closed,
    is_pushout_closed,
    is_wfs,
    left_complement,
    load,
    random_instances,
    recognize_finite,
    right_complement,
    subcategory_check,
    validate_relative,
    verify_model,
)
from posetmodels.classes import _model_fails
from posetmodels.lattice import _GridKit, _PairKit, _flags, _from_flags, iter_bits, low_bit
from posetmodels.models import _generated_by

from helpers import (
    compose_close,
    memo_entry,
    naive_left_complement,
    naive_right_complement,
    on_grid_path,
    permuted_instances,
    record_calls,
    reference_pair_index,
    reference_pushout_closed,
    reference_pushout_stable_part,
)
from test_lattice import _grid

ALWAYS, NEVER = 10**12, 0  # gate constants that force the grid path and the table path


def _chain(n):
    names = [f"c{i}" for i in range(n)]
    return build_lattice(names, zip(names, names[1:]))


def _wide(n):
    """Bottom, n - 2 pairwise incomparable atoms, top: the fewest pairs, 3n - 3, of any n-element lattice."""
    atoms = [f"a{i}" for i in range(n - 2)]
    return build_lattice(["b", *atoms, "t"], [("b", a) for a in atoms] + [(a, "t") for a in atoms])


def _rebuilt(rel):
    """`rel` on a fresh lattice with the same labels and pair order, so its gate is decided again."""
    lat = rel.lattice
    fresh = build_lattice(lat.names, [lat.pair_names(p) for p in lat.cover_pairs()])
    return validate_relative(fresh, rel.weq.name_pairs())


def _small_rels(two_structures, forced, s2of3_fail, trunc1, two_chain):
    one = build_lattice(["x"], [])
    return [validate_relative(one, [], add_identities=True), two_chain, two_structures, forced, s2of3_fail, trunc1]


def _shares_tables(view, kit):
    """Whether `view` reads every table of `kit`: both op() sides share one kit's tables."""
    return all(getattr(view, name) is getattr(kit, name) for name in _GridKit.__slots__ if name != "opposite")


def _naive_product(n, x, y):
    out = 0
    for a in range(n):
        for c in range(n):
            if any(x >> (a * n + b) & 1 and y >> (b * n + c) & 1 for b in range(n)):
                out |= 1 << (a * n + c)
    return out


def _naive_rows(s):
    rows, cols = [0] * s.lattice.n, [0] * s.lattice.n
    for (a, b) in s:
        rows[a] |= 1 << b
        cols[b] |= 1 << a
    return rows, cols


def _kernel_battery(rel, rng):
    for side in (rel, rel.op()):
        lat = side.lattice
        kit = lat._kit
        assert on_grid_path(lat) and _shares_tables(kit, rel.lattice._kit)  # one kit's tables for both sides
        n = lat.n
        cells = [(b, a) if lat.opposite else (a, b) for (a, b) in lat.pairs]  # primal readings
        assert cells == sorted(cells)
        for _ in range(6):
            mask = rng.getrandbits(len(lat.pairs))
            s = MorphClass(lat, mask)
            grid = s.bits  # a dense lattice's encoding is the grid
            assert grid == sum(1 << (a * n + b) for i, (a, b) in enumerate(cells) if mask >> i & 1)
            assert kit.to_mask(grid) == mask
            assert kit.transpose(grid) == sum(1 << (b * n + a) for i, (a, b) in enumerate(cells) if mask >> i & 1)
            assert kit.transpose(kit.transpose(grid)) == grid
            assert (s.rows, s.cols) == _naive_rows(s)
            assert s.op().bits == grid and (s.op().rows, s.op().cols) == _naive_rows(s.op())
            y = rng.getrandbits(n * n)
            assert kit.product(grid, y) == _naive_product(n, grid, y)
        assert kit.order == MorphClass.all_morphisms(lat).bits
        assert kit.order_t == kit.transpose(kit.order)


def test_kernels_on_fixtures(two_structures, forced, s2of3_fail, trunc1, two_chain):
    # the one-element lattice has a single position (itemgetter returns a str)
    rng = random.Random(1)
    for rel in _small_rels(two_structures, forced, s2of3_fail, trunc1, two_chain):
        _kernel_battery(rel, rng)


def test_kernels_on_permuted_instances():
    # index order that is not a linear extension of the order
    rng = random.Random(2)
    for rel in (r for _, r in zip(range(40), permuted_instances(InstanceGen(seed=11)))):
        _kernel_battery(rel, rng)


def _fixed_operand_battery(rel, rng):
    for lat in (rel.lattice, rel.lattice.op()):
        kit = lat._kit
        n = kit.n
        for x in [0, kit.order, kit.order_t, (1 << n * n) - 1] + [rng.getrandbits(n * n) for _ in range(6)]:
            assert kit.times_order(x) == kit.product(x, kit.order)
            assert kit.times_order_t(x) == kit.product(x, kit.order_t)
            assert kit.order_times(x) == kit.product(kit.order, x)
            assert kit.order_t_times(x) == kit.product(kit.order_t, x)


def test_fixed_operand_kernels_on_fixtures(two_structures, forced, s2of3_fail, trunc1, two_chain):
    rng = random.Random(6)
    for rel in _small_rels(two_structures, forced, s2of3_fail, trunc1, two_chain):
        _fixed_operand_battery(rel, rng)


def test_fixed_operand_kernels_on_permuted_instances():
    rng = random.Random(7)
    for rel in (r for _, r in zip(range(40), permuted_instances(InstanceGen(seed=12)))):
        _fixed_operand_battery(rel, rng)


def test_product_matches_naive_triple_loop():
    rng = random.Random(3)
    for n in range(1, 8):
        kit = _chain(n)._kit
        for _ in range(20):
            x, y = rng.getrandbits(n * n), rng.getrandbits(n * n)
            assert kit.product(x, y) == _naive_product(n, x, y)


def _naive_closure(n, x):
    pairs = compose_close({divmod(t, n) for t in range(n * n) if x >> t & 1})
    return sum(1 << a * n + b for (a, b) in pairs)


def _stack_battery(lat, rng):
    """Every stacked kernel against the single-grid kernel, block by block,
    for stacks of 1, 2, 7 and 64 grids.  Saturated grids sit next to every
    operand grid, so a term that crossed a block boundary would show."""
    kit = lat._kit
    n = kit.n
    assert kit.block_bytes * 8 - 8 < n * n <= kit.block_bytes * 8
    sat = (1 << n * n) - 1
    for k in (1, 2, 7, 64):
        stack = kit.stacked(k)
        assert (stack is kit) == (k == 1)
        xs = [sat if j % 2 else rng.getrandbits(n * n) for j in range(k)]
        ys = [rng.getrandbits(n * n) if j % 2 else sat for j in range(k)]
        zs = [(0, sat, rng.getrandbits(n * n) | 1)[j % 3] for j in range(k)]
        x, y, z = stack.pack(xs), stack.pack(ys), stack.pack(zs)
        assert stack.unpack(x) == xs and x >> k * kit.block_bytes * 8 == 0
        for grid in (kit.order, kit.order_t, kit.ids, kit.col0, kit.full):
            assert stack.unpack(stack.repeat(grid)) == [grid] * k
        assert [stack.order, stack.order_t, stack.ids] == [stack.repeat(g) for g in (kit.order, kit.order_t, kit.ids)]
        assert stack.unpack(stack.product(x, y)) == [kit.product(a, b) for a, b in zip(xs, ys)]
        assert stack.unpack(stack.product(y, x)) == [kit.product(b, a) for a, b in zip(xs, ys)]
        assert stack.unpack(stack.closure(x)) == [kit.closure(a) for a in xs]
        for on_stack, on_kit in ((stack.lc, kit.lc), (stack.rc, kit.rc)):
            assert stack.unpack(on_stack(x)) == [on_kit(a) for a in xs]
            assert stack.unpack(on_stack(y)) == [on_kit(b) for b in ys]
        assert stack.zero_blocks(z) == [j for j, g in enumerate(zs) if g == 0]
        assert stack.zero_blocks(x) == [j for j, g in enumerate(xs) if g == 0]
        weq = rng.getrandbits(n * n)
        stacked = _model_fails(stack, x, y, stack.repeat(weq))
        assert [stack.unpack(d) for d in stacked] == [list(col) for col in zip(
            *(_model_fails(kit, a, b, weq) for a, b in zip(xs, ys)))]
    for _ in range(4):
        a = rng.getrandbits(n * n)
        assert kit.closure(a) == _naive_closure(n, a)


def _stack_lattices():
    one = build_lattice(["x"], [])
    return [one, _chain(2), _chain(3), _chain(5), build_lattice(*_grid(3, 3)), load("trunc-3").lattice]


def test_stacked_kernels_on_fixtures(two_structures, forced, s2of3_fail, trunc1):
    # n = 1, 2, 3, 5, 9 and 27: no n^2 is a multiple of 8, so every block has padding bits
    rng = random.Random(8)
    lats = _stack_lattices() + [rel.lattice for rel in (two_structures, forced, s2of3_fail, trunc1)]
    for lat in lats:
        for side in (lat, lat.op()):
            _stack_battery(side, rng)


def test_stacked_kernels_on_permuted_instances():
    rng = random.Random(9)
    for rel in (r for _, r in zip(range(25), permuted_instances(InstanceGen(seed=13)))):
        for side in (rel.lattice, rel.lattice.op()):
            _stack_battery(side, rng)


def _random_class(lat, rng):
    mask = rng.getrandbits(len(lat.pairs))
    if rng.random() < 0.5:
        mask &= rng.getrandbits(len(lat.pairs))
    if rng.random() < 0.5:
        mask |= lat.identity_mask
    return mask


@pytest.mark.parametrize("gate", [ALWAYS, NEVER])
def test_classes_with_the_same_pairs_are_equal_however_built(gate, monkeypatch):
    # a class's identity is its bits in its lattice's one encoding: built
    # from a mask, from pairs, by a complement or by |, & and -, two classes
    # are equal, and hash alike, iff they hold the same pairs, on both op()
    # sides and both paths; each gives back its mask, and bits sort as masks
    monkeypatch.setattr(lattice_module, "_GRID_DENSITY", gate)
    rng = random.Random(10)
    for rel in (r for _, r in zip(range(60), random_instances(InstanceGen(seed=23)))):
        for side in (rel, rel.op()):
            lat = side.lattice
            assert on_grid_path(lat) == (gate == ALWAYS)
            mx, my = _random_class(lat, rng), _random_class(lat, rng)
            x, y = MorphClass(lat, mx), MorphClass(lat, my)
            rc, lc = right_complement(x), left_complement(x)

            index = reference_pair_index(lat)

            def mask_of(pairs):
                return sum(1 << index[p] for p in pairs)

            built = [  # (class, the mask of its pairs, computed without the class algebra)
                (x, mx), (y, my), (x | y, mx | my), (y | x, mx | my), (x & y, mx & my), (x - y, mx & ~my),
                ((x - y) | (x & y), mx), (rc, mask_of(naive_right_complement(x))),
                (lc, mask_of(naive_left_complement(x))), (left_complement(rc), mask_of(naive_left_complement(rc))),
                (right_complement(lc), mask_of(naive_right_complement(lc))),
                (MorphClass.identities(lat), lat.identity_mask), (MorphClass.all_morphisms(lat), lat.all_pairs_mask),
            ]
            built += [(MorphClass.from_pairs(lat, [lat.pair_names(lat.pairs[i]) for i in iter_bits(m)]), m)
                      for _, m in built[:4]]
            built += [(MorphClass(lat, m), m) for _, m in built]
            for s, mask in built:
                assert s.mask == mask and MorphClass(lat, s.mask) == s and s.op().mask == mask
                assert s.pairs() == [lat.pairs[i] for i in iter_bits(mask)] and len(s) == bin(mask).count("1")
            for (s, m), (t, u) in itertools.product(built, repeat=2):
                assert (s == t) == (m == u) and (s <= t) == (m & ~u == 0)
                assert m != u or hash(s) == hash(t)
            order = sorted(range(len(built)), key=lambda i: built[i][0].bits)
            assert [built[i][1] for i in order] == sorted(m for _, m in built)


@pytest.mark.parametrize("gate", [ALWAYS, NEVER])
def test_mls_checks_are_the_first_three_wfs_checks(gate, monkeypatch):
    # is_mls reports is_wfs's lifting, left_maximal and right_maximal checks,
    # witnesses included, on both op() sides and both paths: for random
    # classes and for each maximal lifting system (lc(rc(x)), rc(x))
    monkeypatch.setattr(lattice_module, "_GRID_DENSITY", gate)
    rng = random.Random(12)
    failed, passed = set(), set()
    for rel in (r for _, r in zip(range(60), random_instances(InstanceGen(seed=31)))):
        for side in (rel, rel.op()):
            lat = side.lattice
            assert on_grid_path(lat) == (gate == ALWAYS)
            x, y = MorphClass(lat, _random_class(lat, rng)), MorphClass(lat, _random_class(lat, rng))
            rc = right_complement(x)
            for left, right in ((x, y), (y, x), (left_complement(rc), rc)):
                wfs = is_wfs(left, right)
                assert is_mls(left, right).checks == wfs.checks[:3] and len(wfs.checks) == 4
                failed.update(c.name for c in wfs.checks if not c.ok)
                passed.update(c.name for c in wfs.checks if c.ok)
    assert failed == passed == {"lifting", "left_maximal", "right_maximal", "factorization"}


def _results(rel, masks, pairings, failed):
    """Every class-algebra result on both sides of `rel`, witnesses included."""
    out = []
    for side in (rel, rel.op()):
        lat = side.lattice
        classes = [MorphClass(lat, m) for m in masks]
        for s in classes:
            rc, lc = right_complement(s), left_complement(s)
            checks = [is_composition_closed(s), subcategory_check(s, "s")]
            out += [rc.mask, lc.mask, *checks]
            failed.update(c.name for c in checks if not c.ok)
            if lat.n <= 8:
                assert set(rc) == naive_right_complement(s) and set(lc) == naive_left_complement(s)
        for i, j in pairings:
            x, y = classes[i], classes[j]
            reports = [is_mls(x, y), is_wfs(x, y), verify_model(ModelStruct(side, x, y))]
            out += reports
            failed.update(c.name for r in reports for c in r.failures())
    return out


def _both_paths_agree(rel, rng, monkeypatch, failed):
    masks = [rel.weq.mask] + [_random_class(rel.lattice, rng) for _ in range(5)]
    masks += [c.mask for c in _generated_by(rel, MorphClass(rel.lattice, masks[-1] & rel.weq.mask))]
    pairings = [(rng.randrange(len(masks)), rng.randrange(len(masks))) for _ in range(6)] + [(6, 7)]
    by_path = []
    for gate in (ALWAYS, NEVER):
        with monkeypatch.context() as m:
            m.setattr(lattice_module, "_GRID_DENSITY", gate)
            fresh = _rebuilt(rel)
            assert on_grid_path(fresh.lattice) == (gate == ALWAYS)
            assert on_grid_path(fresh.lattice.op()) == (gate == ALWAYS)
            by_path.append(_results(fresh, masks, pairings, failed))
    assert by_path[0] == by_path[1]


def test_both_paths_agree_on_fixtures(two_structures, forced, s2of3_fail, trunc1, two_chain, monkeypatch):
    rng = random.Random(4)
    for rel in _small_rels(two_structures, forced, s2of3_fail, trunc1, two_chain) + [load("trunc-3")]:
        _both_paths_agree(rel, rng, monkeypatch, set())


def test_both_paths_agree_on_random_instances(monkeypatch):
    rng = random.Random(5)
    failed = set()
    for rel in (r for _, r in zip(range(150), random_instances(InstanceGen(seed=7)))):
        _both_paths_agree(rel, rng, monkeypatch, failed)
    # failing classes ran every witness branch, on both paths
    for name in ("composition_closed", "lifting", "left_maximal", "right_maximal", "factorization", "cof_subcategory",
                 "fib_subcategory", "cof_afib.factorization", "acof_fib.lifting"):
        assert name in failed, name


def _kit_battery(lat, rng):
    """The pair-mask kit against a grid kit of `lat`'s side, method by
    method, each result read as a pair mask; operands are pair masks and
    their grids."""
    pk, gk = _PairKit(lat), lat._grid_route()[0]
    n, npairs = lat.n, len(lat.pairs)
    assert pk.ids == gk.to_mask(gk.ids) == lat.identity_mask and pk.order == gk.to_mask(gk.order)
    assert [pk.pair(i) for i in range(npairs)] == [gk.pair(low_bit(gk.from_mask(1 << i))) for i in range(npairs)]
    masks = [0, pk.ids, pk.order] + [_random_class(lat, rng) for _ in range(5)]
    for x, y in [(x, y) for x in masks for y in masks[:4]] + [(rng.choice(masks), rng.choice(masks)) for _ in range(8)]:
        gx, gy = gk.from_mask(x), gk.from_mask(y)
        assert pk.from_mask(x) == pk.to_mask(x) == x
        assert (pk.rows(x), pk.cols(x)) == (gk.rows(gx), gk.cols(gx))
        assert (pk.lc(x), pk.rc(x)) == (gk.to_mask(gk.lc(gx)), gk.to_mask(gk.rc(gx)))
        assert pk.composite(x, y) == gk.to_mask(gk.composite(gx, gy))
        srcs, dsts = rng.getrandbits(n), rng.getrandbits(n)
        assert pk.outer(srcs, dsts) == gk.to_mask(gk.outer(srcs, dsts))
        rows = [rng.getrandbits(n) for _ in range(n)]
        assert pk.reach(rows) == gk.to_mask(gk.reach(rows))
    assert all(pk.bit(a, b) == gk.to_mask(gk.bit(a, b)) for a, b in lat.pairs)


def test_pair_kit_matches_grid_kit_on_random_instances():
    rng = random.Random(11)
    for rel in (r for _, r in zip(range(60), random_instances(InstanceGen(seed=29)))):
        for side in (rel.lattice, rel.lattice.op()):
            _kit_battery(side, rng)


def test_pair_kit_matches_grid_kit_on_wide_lattices():
    # the sparse side of the gate, where the pair-mask kit is the lattice's own
    rng = random.Random(12)
    for n in range(34, 41):
        lat = _wide(n)
        for side in (lat, lat.op()):
            assert not on_grid_path(side)
            _kit_battery(side, rng)


def _or_per_bit(flags) -> int:
    mask = 0
    for i, flag in enumerate(flags):
        if flag:
            mask |= 1 << i
    return mask


def test_reader_and_writer_round_trip_random_masks():
    # the reader against iter_bits and the writer against an OR per bit,
    # on seeded random masks and flags of widths 1 to 2,000
    rng = random.Random(41)
    for width in [*range(1, 80), *(rng.randint(80, 2000) for _ in range(40)), 2000]:
        for mask in (0, (1 << width) - 1, 1 << width - 1, rng.getrandbits(width)):
            flags = _flags(mask, width)
            assert len(flags) == width and set(flags) <= {0, 1}
            assert [i for i, flag in enumerate(flags) if flag] == list(iter_bits(mask))
            assert _from_flags(flags) == _from_flags(bytearray(flags)) == mask
        flags = [rng.random() < 0.5 for _ in range(width)]
        assert _from_flags(flags) == _or_per_bit(flags)
        assert list(_flags(_from_flags(flags), width)) == flags


def test_reader_and_writer_round_trip_at_the_pair_width_of_both_kits():
    # a dense lattice and a wide one of 40 atoms, on both op() sides: the
    # class boundary reads and builds pair masks through the pair
    rng = random.Random(42)
    for lat in (build_lattice(*_grid(4, 5)), _wide(42)):
        for side in (lat, lat.op()):
            pairs = side.pairs
            assert on_grid_path(side) == (lat.n == 20)
            assert side.identity_mask == _or_per_bit(a == b for a, b in pairs)
            for mask in (0, side.identity_mask, side.all_pairs_mask, *(rng.getrandbits(len(pairs)) for _ in range(20))):
                assert _from_flags(_flags(mask, len(pairs))) == mask
                members = [pairs[i] for i in iter_bits(mask)]
                s = MorphClass(side, mask)
                assert list(s) == members and all(p in s for p in members)
                assert not any(p in s for p in pairs if p not in members)
                assert MorphClass.from_pairs(side, members).mask == mask
                assert MorphClass.from_pairs(side, members, add_identities=True).mask == mask | side.identity_mask


def test_reader_and_writer_are_linear():
    # one round trip of a 2^19-bit mask takes tens of milliseconds; an OR
    # per bit, quadratic in the width, takes seconds
    rng = random.Random(43)
    width = 1 << 19
    for mask in ((1 << width) - 1, rng.getrandbits(width)):
        start = time.perf_counter()
        assert _from_flags(_flags(mask, width)) == mask
        assert time.perf_counter() - start < 0.5


def test_kits_form_no_reference_cycle():
    # once both sides' kits are built and used, a lattice and its opposite
    # are freed by reference counting alone, on either side of the gate: a
    # kit forms no reference cycle with its lattice (Dualizable's contract)
    gc.disable()
    try:
        for build, n in ((_wide, 36), (_chain, 5)):
            lat = build(n)
            rel = validate_relative(lat, [lat.pair_names(p) for p in lat.pairs])
            m = construct_terminal(rel)
            assert verify_model(m).ok and verify_model(m.op()).ok  # both sides' kits, lift tables and products
            refs = [weakref.ref(lat), weakref.ref(lat.op())]
            del lat, rel, m
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_gate_paths():
    # every lattice of at most 33 elements is dense enough: the wide one has the fewest pairs
    for lat in (load("chain-64").lattice, _chain(178), build_lattice(*_grid(12, 10)), _wide(10), _wide(33)):
        assert on_grid_path(lat) and _shares_tables(lat.op()._kit, lat._kit)
    for rel in (r for _, r in zip(range(50), random_instances(InstanceGen(seed=3, max_elements=10)))):
        assert on_grid_path(rel.lattice) and on_grid_path(rel.lattice.op())
    for n in (34, 64, 128, 256, 512):
        lat = _wide(n)
        assert not on_grid_path(lat) and not on_grid_path(lat.op())


def test_gate_is_deterministic_and_symmetric():
    # the gate reads n and the pair count, which L and L.op() share: built
    # from either side, in either order, it decides alike
    for n in range(30, 40):
        verdicts = set()
        for first_op in (False, True):
            lat = _wide(n)
            sides = (lat.op(), lat) if first_op else (lat, lat.op())
            verdicts.add(tuple(on_grid_path(s) for s in sides))
        assert len(verdicts) == 1 and len(set(next(iter(verdicts)))) == 1
        assert (n < 34) == next(iter(verdicts))[0]


@pytest.mark.parametrize("gate", [ALWAYS, NEVER])
def test_grids_ride_along_class_operations(gate, monkeypatch):
    monkeypatch.setattr(lattice_module, "_GRID_DENSITY", gate)
    rel = _rebuilt(load("two-structures"))
    to_mask = record_calls(monkeypatch, _GridKit, "to_mask")
    fib = right_complement(rel.weq)
    derived = (fib & rel.weq, fib | rel.weq, fib - rel.weq, fib.op() & rel.weq.op())
    assert to_mask == []  # kernels and class operations gather nothing back into a pair mask
    for d in derived:
        grid = on_grid_path(d.lattice)
        assert grid == (gate == ALWAYS)
        assert d.bits == (d.lattice._kit.from_mask(d.mask) if grid else d.mask)


def _pushout_battery(rel) -> int:
    """W_c, W_f, W_c^chi and W_f^chi for the least center map, and the
    pushout and pullback closure checks of W, W_c and the identities, on
    both op() sides, against the scans of the pushout tables; the number
    of failing closure checks."""
    failed = 0
    for side in (rel, rel.op()):
        lat = side.lattice
        w, ids = side.weq.mask, lat.identity_mask
        assert compute_Wc(side).mask == reference_pushout_stable_part(side, w)
        assert compute_Wf(side).mask == reference_pushout_stable_part(side.op(), w)
        chi = find_centers(side) if check_s2of3(side).ok else None
        if chi is not None:
            q, j = compute_Qchi(side, chi).mask, compute_Jchi(side, chi).mask
            assert compute_Wc_chi(side, chi).mask == reference_pushout_stable_part(side, w & ~q | ids)
            assert compute_Wf_chi(side, chi).mask == reference_pushout_stable_part(side.op(), w & ~j | ids)
        for s in (side.weq, compute_Wc(side), MorphClass.identities(lat)):
            po, pb = reference_pushout_closed(s), reference_pushout_closed(s.op())
            assert is_pushout_closed(s) == Check("pushout_closed", po is None, po)
            assert is_pullback_closed(s) == Check("pullback_closed", pb is None, pb and tuple(p.op() for p in pb))
            failed += (po is not None) + (pb is not None)
    return failed


@pytest.mark.parametrize("gate", [ALWAYS, NEVER])
def test_pushout_stability_matches_the_table_scans(gate, monkeypatch):
    # one formula, O∘N, on both kits and both op() sides: every class and
    # least witness as the pushout tables give it, on index orders that are
    # no linear extension of the order, where the least escaping pullback
    # in pair order is not the one along the least element
    monkeypatch.setattr(lattice_module, "_GRID_DENSITY", gate)
    failed = 0
    for rel in (r for _, r in zip(range(150), permuted_instances(InstanceGen(seed=41)))):
        assert on_grid_path(rel.lattice) == (gate == ALWAYS)
        failed += _pushout_battery(rel)
    assert failed > 100


def test_pushout_stability_matches_the_table_scans_on_wide_lattices():
    # the sparse side of the gate: W is the identities, some pairs from the
    # bottom and some to the top, never both through one atom
    rng = random.Random(13)
    for n in range(34, 41):
        lat = _wide(n)
        atoms = list(range(1, n - 1))
        rng.shuffle(atoms)
        low, high = atoms[:n // 3], atoms[n // 3:2 * n // 3]
        weq = [("b", lat.name(a)) for a in low] + [(lat.name(a), "t") for a in high]
        rel = validate_relative(lat, weq, add_identities=True)
        assert not on_grid_path(lat)
        assert _pushout_battery(rel) > 0


def _row_weqs(rows, cols):
    """The rows x cols grid lattice with W the identities and each row's (i.0, i.1)."""
    lat = build_lattice(*_grid(rows, cols))
    return validate_relative(lat, [(f"{i}.0", f"{i}.1") for i in range(rows)], add_identities=True)


def test_dense_lattices_build_no_pair_table():
    # on the grid path every library call decides pushout stability and
    # lifting on grids: no side memoises a P-indexed table
    for rel in (load("two-structures"), load("chain-8"), _row_weqs(6, 5)):
        lat = rel.lattice
        assert on_grid_path(lat)
        assert recognize_finite(rel).yes
        chi = find_centers(rel)
        m1, m2 = construct_from_centers(rel, chi), construct_from_centers_dual(rel, chi)
        assert verify_model(m1).ok and verify_model(m2).ok
        found = enumerate_model_structures(rel, max_elements=lat.n, max_generators=len(rel.weq))
        assert build_zigzag(found[0], found[-1]).all_edges_ok()
        homotopy_reduce(m1)
        for side in (lat, lat.op()):
            keys = ("pushout_targets", "nonlift_left", "_primal_masks", "_src_up")
            assert [key for key in keys if memo_entry(side, key)] == []
