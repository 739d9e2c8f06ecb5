"""The grid kernels and the density gate that chooses between them and the pair tables.

Every result of the class algebra must be the same on both paths, least
witnesses included; the kernels are checked against naive loops.
"""

import random

import pytest

import posetmodels.lattice as lattice_module
from posetmodels import (
    InstanceGen,
    ModelStruct,
    MorphClass,
    build_lattice,
    is_composition_closed,
    is_mls,
    is_wfs,
    left_complement,
    load,
    random_instances,
    right_complement,
    subcategory_check,
    validate_relative,
    verify_model,
)
from posetmodels.classes import _model_fails
from posetmodels.lattice import _GridKit
from posetmodels.models import _generated_by

from helpers import compose_close, naive_left_complement, naive_right_complement, permuted_instances
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
        assert kit is not None and _shares_tables(kit, rel.lattice._kit)  # one kit's tables for both sides
        n = lat.n
        cells = [(b, a) if lat.opposite else (a, b) for (a, b) in lat.pairs]  # primal readings
        assert cells == sorted(cells)
        for _ in range(6):
            mask = rng.getrandbits(len(lat.pairs))
            s = MorphClass(lat, mask)
            grid = s._grid
            assert grid == sum(1 << (a * n + b) for i, (a, b) in enumerate(cells) if mask >> i & 1)
            assert kit.to_mask(grid) == mask
            assert kit.transpose(grid) == sum(1 << (b * n + a) for i, (a, b) in enumerate(cells) if mask >> i & 1)
            assert kit.transpose(kit.transpose(grid)) == grid
            assert (s.rows, s.cols) == _naive_rows(s)
            assert s.op()._grid == grid and (s.op().rows, s.op().cols) == _naive_rows(s.op())
            y = rng.getrandbits(n * n)
            assert kit.product(grid, y) == _naive_product(n, grid, y)
        assert kit.order == MorphClass.all_morphisms(lat)._grid
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
            assert (fresh.lattice._kit is None) == (gate == NEVER)
            assert (fresh.lattice.op()._kit is None) == (gate == NEVER)
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


def test_gate_paths():
    # every lattice of at most 33 elements is dense enough: the wide one has the fewest pairs
    for lat in (load("chain-64").lattice, _chain(178), build_lattice(*_grid(12, 10)), _wide(10), _wide(33)):
        assert lat._kit is not None and _shares_tables(lat.op()._kit, lat._kit)
    for rel in (r for _, r in zip(range(50), random_instances(InstanceGen(seed=3, max_elements=10)))):
        assert rel.lattice._kit is not None and rel.lattice.op()._kit is not None
    for n in (34, 64, 128, 256, 512):
        lat = _wide(n)
        assert lat._kit is None and lat.op()._kit is None


def test_gate_is_deterministic_and_symmetric():
    # the gate reads n and the pair count, which L and L.op() share: built
    # from either side, in either order, it decides alike
    for n in range(30, 40):
        verdicts = set()
        for first_op in (False, True):
            lat = _wide(n)
            sides = (lat.op(), lat) if first_op else (lat, lat.op())
            verdicts.add(tuple(s._kit is None for s in sides))
        assert len(verdicts) == 1 and len(set(next(iter(verdicts)))) == 1
        assert (n >= 34) == next(iter(verdicts))[0]


@pytest.mark.parametrize("gate", [ALWAYS, NEVER])
def test_grids_ride_along_class_operations(gate, monkeypatch):
    monkeypatch.setattr(lattice_module, "_GRID_DENSITY", gate)
    rel = _rebuilt(load("two-structures"))
    fib = right_complement(rel.weq)
    derived = (fib & rel.weq, fib | rel.weq, fib - rel.weq, fib.op() & rel.weq.op())
    for d in derived:
        assert (d._g is not None) == (gate == ALWAYS)
        if gate == ALWAYS:
            assert d._g == d.lattice._kit.from_mask(d.mask)
