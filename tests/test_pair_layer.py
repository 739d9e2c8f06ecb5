"""The pair layer's row passes against the per-pair loops they replaced.

``FiniteLattice.pairs`` on both op() sides, ``identity_mask``, the name
table, ``build_lattice``'s ``down`` and cycle check, the grid kit's
gathers, ``formats._pair_list`` and ``MorphClass.from_pairs`` are built in
C-level passes, and ``cover_pairs`` by one kit product; the bodies they
replaced are the ``helpers.reference_*``.  Values, order, types and every
error, type and message, must agree, and a line-event count pins the
Python-level work of the instance boundary below one step per two pairs.
"""

import itertools
import random

import pytest

from posetmodels import InstanceGen, MorphClass, Pair, build_lattice, random_instances, validate_relative
from posetmodels.errors import InvalidInput, PosetModelError
from posetmodels.formats import InstanceFile, _pair_list, class_name_pairs, parse_instance, print_instance
from posetmodels.fixtures import fixture
from posetmodels.lattice import _GridKit

from helpers import (
    line_events,
    on_grid_path,
    permuted_instances,
    reference_build_lattice,
    reference_cover_pairs,
    reference_from_pairs,
    reference_grid_kit,
    reference_grids,
    reference_identity_mask,
    reference_name_pairs,
    reference_pair_list,
    reference_pairs,
    small_lattices,
)
from test_grid import _chain, _wide
from test_lattice import _grid


def outcome(fn, *args):
    """("ok", the value) of ``fn(*args)``, or the type, message and args of the input error it raises."""
    try:
        return "ok", fn(*args)
    except (PosetModelError, ValueError) as e:
        return type(e), str(e), e.args


def lattices():
    """Every lattice of at most 5 elements, 200 random ones and as many
    re-indexed, wide-36 (pair-mask kernels) and chain-178 (the pair cap)."""
    out = [lat for n in range(1, 6) for lat in small_lattices(n)]
    out += [rel.lattice for rel in itertools.islice(random_instances(InstanceGen(seed=24, max_elements=9)), 200)]
    out += [rel.lattice for rel in itertools.islice(permuted_instances(InstanceGen(seed=25, max_elements=9)), 200)]
    return out + [_wide(36), _chain(178)]


def test_row_passes_match_the_per_pair_references():
    rng = random.Random(24)
    sides = 0
    for lat in lattices():
        rebuilt = reference_build_lattice(lat.names, map(lat.pair_names, lat.cover_pairs()))
        assert (rebuilt._up, rebuilt._down) == (lat._up, lat._down)
        # the opposite side first on half of them: its pairs build the primal's
        for side in (lat.op(), lat) if rng.random() < 0.5 else (lat, lat.op()):
            ps = side.pairs
            assert ps == reference_pairs(side) and all(type(p) is Pair for p in ps)
            assert side.cover_pairs() == reference_cover_pairs(side)
            assert side.identity_mask == reference_identity_mask(side)
            assert tuple(side._label_index) == reference_name_pairs(side)
            assert list(side._label_index.values()) == list(range(len(ps)))
            assert (side._grid, side._grid_t) == reference_grids(side._up, side._down)
            sides += 1
        assert lat.op().pairs == tuple(p.op() for p in lat.pairs)
        kit, ref = _GridKit(lat), reference_grid_kit(lat)
        p, nn = len(lat.pairs), lat.n * lat.n
        for _ in range(3):
            mask, grid = rng.getrandbits(p), rng.getrandbits(nn)
            assert kit.from_mask(mask) == ref.from_mask(mask)
            assert kit.to_mask(grid) == ref.to_mask(grid) and kit.to_mask(kit.from_mask(mask)) == mask
            assert kit.transpose(grid) == ref.transpose(grid)
    assert sides > 2 * 400
    assert not on_grid_path(_wide(36)) and on_grid_path(_chain(178))


def test_a_dense_kit_reads_the_grids_its_lattice_kept():
    # build_lattice's closed grid and its transpose are the kit's order and
    # order_t, not sums of the rows again; L.op() holds them swapped
    for lat in (_chain(20), build_lattice(*_grid(6, 5)), small_lattices(5)[2]):
        assert on_grid_path(lat)
        kit = lat._kit
        assert kit.order is lat._grid and kit.order_t is lat._grid_t
        assert lat.op()._grid is lat._grid_t and lat.op()._grid_t is lat._grid
        assert lat.op()._kit.order is lat._grid and lat._grid_route()[0] is kit
        route = lat.op()._grid_route()[0]
        assert route.order is lat._grid and route.opposite
    sparse = _wide(36)  # pair-mask kernels: the oracle's grid kit, built for the call, reads the same grids
    assert not on_grid_path(sparse)
    for side in (sparse, sparse.op()):
        route = side._grid_route()[0]
        assert (route.order, route.order_t, route.opposite) == (sparse._grid, sparse._grid_t, side.opposite)
        assert route.order is sparse._grid


def test_from_pairs_matches_the_reference():
    rng = random.Random(2024)
    for lat in lattices()[::7]:
        for side in (lat, lat.op()):
            for _ in range(4):
                chosen = [p for p in side.pairs if rng.random() < 0.4]
                # labels, indices, Pairs and lists, in any order
                spelled = [rng.choice((side.pair_names(p), tuple(p), p, list(side.pair_names(p)))) for p in chosen]
                rng.shuffle(spelled)
                for add in (False, True):
                    got = MorphClass.from_pairs(side, iter(spelled), add_identities=add)
                    assert got == reference_from_pairs(side, spelled, add_identities=add)
                    assert got.mask == reference_from_pairs(side, spelled, add_identities=add).mask
                assert MorphClass.from_pairs(side, [side.pair_names(p) for p in chosen]).pairs() == chosen


def test_cycles_and_non_lattices_raise_as_the_reference_does():
    # the least (a, b) of a cycle; a missing join before a missing meet at the least pair
    rng = random.Random(7)
    kinds = set()
    for _ in range(600):
        n = rng.randint(1, 7)
        names = [f"e{i}" for i in range(n)]
        rng.shuffle(names)
        density = rng.random() * 0.5
        rels = [(names[a], names[b]) for a in range(n) for b in range(n) if a != b and rng.random() < density / 2]
        got, want = outcome(build_lattice, names, rels), outcome(reference_build_lattice, names, rels)
        if got[0] == "ok":
            lat, ref = got[1], want[1]
            assert (lat.names, lat._up, lat._down, lat._join, lat._meet, lat.bottom, lat.top) == \
                (ref.names, ref._up, ref._down, ref._join, ref._meet, ref.bottom, ref.top)
        else:
            assert got == want
        kinds.add(got[0] if got[0] == "ok" else (got[0].__name__, "join" in got[1]))
    assert {"ok", ("CycleDetected", False), ("NotALattice", True), ("NotALattice", False)} <= kinds


def _orders_beyond_seven():
    """(names, relations) of 1 to 102 elements, past the random sweep's 7."""
    def chain(n):
        return [f"c{i}" for i in range(n)], [(f"c{i}", f"c{i + 1}") for i in range(n - 1)]
    atoms = [f"a{i}" for i in range(100)]
    trunc = fixture("trunc-4")
    return [chain(n) for n in (1, 2, 8, 16, 32, 64)] + [
        _grid(6, 5), (trunc.elements, trunc.leq), (["b", *atoms, "t"], [("b", a) for a in atoms] + [(a, "t") for a in atoms])]


def test_the_grid_closure_builds_what_the_reference_does_beyond_seven_elements():
    # each order as given, with a relation closing a cycle, with two elements
    # above the last that have no join, and with a label repeated; element
    # and relation order shuffled
    rng = random.Random(64)
    kinds = set()
    for names, rels in _orders_beyond_seven():
        for variant in ("order", "cycle", "no join", "duplicate"):
            ns, rs = list(names), list(rels)
            if variant == "cycle":
                rs.append((ns[-1], ns[0]))
            elif variant == "no join":
                rs += [(ns[-1], "x"), (ns[-1], "y")]
                ns += ["x", "y"]
            elif variant == "duplicate":
                ns.append(rng.choice(ns))
            rng.shuffle(ns)
            rng.shuffle(rs)
            got, want = outcome(build_lattice, ns, rs), outcome(reference_build_lattice, ns, rs)
            if got[0] == "ok":
                lat, ref = got[1], want[1]
                assert (lat.names, lat._up, lat._down, lat._join, lat._meet, lat.bottom, lat.top) == \
                    (ref.names, ref._up, ref._down, ref._join, ref._meet, ref.bottom, ref.top)
                for side in (lat, lat.op()):
                    assert (side._grid, side._grid_t) == reference_grids(side._up, side._down)
            else:
                assert got == want
            kinds.add(got[0] if got[0] == "ok" else got[0].__name__)
    assert kinds == {"ok", "CycleDetected", "NotALattice", "InvalidInput"}


def test_malformed_pair_lists_name_the_first_bad_item():
    rng = random.Random(11)
    items = [["a", "b"], ["c", "a"], ("a", "b"), ["a"], [], ["a", "b", "c"], ["a", 1], [1, "b"], [None, None],
             "ab", 3, None, {"a": "b"}, [["a"], "b"], ["a", "b", 2]]
    bad = 0
    for _ in range(500):
        raw = [rng.choice(items[:2]) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.7:
            raw.insert(rng.randint(0, len(raw)), rng.choice(items[2:]))
            raw.extend(rng.choice(items) for _ in range(rng.randint(0, 2)))
        got, want = outcome(_pair_list, raw, "weq"), outcome(reference_pair_list, raw, "weq")
        assert got == want
        if got[0] == "ok":
            assert all(type(p) is tuple for p in got[1])
        else:
            bad += 1
    assert bad > 300
    for raw in ({"a": "b"}, "ab", None, 3, ("a", "b")):
        assert outcome(_pair_list, raw, "leq") == outcome(reference_pair_list, raw, "leq")


def test_the_first_offending_pair_raises():
    # unknown labels, incomparable pairs, indices outside range(n) and bool
    # indices, mixed with valid pairs: the error of the first offender, the
    # one ``lattice.pair`` raises on it alone, whatever follows
    rng = random.Random(13)
    for lat in (_chain(3), small_lattices(5)[2], _wide(36)):
        for side in (lat, lat.op()):
            a, b = side.pair_names(side.pairs[1])
            wrong = [("zz", a), (a, "zz"), (b, a), (side.n, 0), (-1, 0), (0, side.n), (True, 1), (1, True),
                     (0, False), (False, 0), (side.index(a), "zz"), ["zz", "yy"], (b, side.index(a)), (a, 2.5)]
            good = [side.pair_names(p) for p in side.pairs] + list(side.pairs)
            for _ in range(150):
                pairs = [rng.choice(good if rng.random() < 0.7 else wrong) for _ in range(rng.randint(1, 6))]
                first = next((p for p in pairs if outcome(side.pair, *p)[0] != "ok"), None)
                got = outcome(MorphClass.from_pairs, side, pairs)
                if first is None:
                    assert got[0] == "ok"
                    assert got[1] == reference_from_pairs(side, pairs)
                else:
                    assert got == outcome(side.pair, *first)
                if not any(isinstance(x, bool) for p in pairs for x in p):
                    want = outcome(reference_from_pairs, side, pairs)
                    assert got[0] == want[0] and (got[0] == "ok" or got == want)
    with pytest.raises(InvalidInput, match=r"^a pair must be a tuple or list of two elements, got \('c0', 'c1', 'c2'\)$"):
        MorphClass.from_pairs(_chain(3), [("c0", "c1", "c2")])


def test_a_bool_is_no_element_index():
    lat = _chain(3)
    with pytest.raises(InvalidInput, match=r"^object index must be in range\(3\), got True$"):
        MorphClass.from_pairs(lat, [(True, 1)])
    for side in (lat, lat.op()):
        every = MorphClass.all_morphisms(side)
        assert all(p in every for p in side.pairs) and (1, 1) in every
        assert (True, 1) not in every and (1, True) not in every and (False, 2) not in every


def test_a_mask_outside_the_pairs_is_an_input_error():
    for lat in (_chain(3), _wide(36)):
        for side in (lat, lat.op()):
            p = len(side.pairs)
            for mask in (1 << p, (1 << p) | 1, -1, -(1 << p)):
                with pytest.raises(InvalidInput, match=rf"^pair mask must be in range\(2\*\*{p}\)$"):
                    MorphClass(side, mask)
            every = MorphClass(side, (1 << p) - 1)
            assert every == MorphClass.all_morphisms(side) and len(every) == p == len(list(every))
            assert MorphClass(side, 0).pairs() == []


def test_the_instance_boundary_takes_under_one_python_step_per_two_pairs():
    # chain-178 with every pair in W, P = 15,931: the per-pair loops ran
    # 95,796 line events in parse_instance and 513,550 after build_lattice
    n = 178
    names = [f"c{i}" for i in range(n)]
    weq = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    text = print_instance(InstanceFile(names, list(zip(names, names[1:])), weq, add_identities=True))
    npairs = n * (n + 1) // 2
    parsed = []
    assert line_events(lambda: parsed.append(parse_instance(text))) < npairs / 2
    inst = parsed[0]
    lat = build_lattice(inst.elements, inst.leq)
    out = []

    def boundary():
        lat.pairs
        lat.op().pairs
        rel = validate_relative(lat, inst.weq, add_identities=inst.add_identities)
        out.append(class_name_pairs(rel.weq))
    assert line_events(boundary) < npairs / 2
    assert len(lat.pairs) == npairs and out == [tuple(weq)]
