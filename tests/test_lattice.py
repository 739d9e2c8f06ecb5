import itertools
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posetmodels import InstanceGen, Pair, build_lattice, join_all, meet_all, pullback_of, pushout_of
from posetmodels import lattice as lattice_module
from posetmodels.cli import run_cli
from posetmodels.errors import (
    CapExceeded,
    CycleDetected,
    InvalidInput,
    NotALattice,
    NotComparable,
    PosetModelError,
    Unbounded,
)
from posetmodels.fixtures import fixture
from posetmodels.formats import InstanceFile, print_instance
from posetmodels.lattice import FiniteLattice

from helpers import (
    line_events,
    memo_entry,
    naive_join,
    naive_lifts,
    naive_meet,
    permuted_instances,
    record_calls,
    reference_cover_pairs,
    reference_pair_index,
    reference_pair_tables,
)


@st.composite
def lattices(draw, max_n=5):
    """Random bounded lattices by rejection over random DAG closures."""
    n = draw(st.integers(2, max_n))
    names = [f"e{i}" for i in range(n)]
    all_edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges)))
    try:
        return build_lattice(names, edges)
    except (NotALattice, Unbounded):
        assume(False)


def test_two_chain():
    lat = build_lattice(["bot", "top"], [("bot", "top")])
    assert lat.bottom == 0 and lat.top == 1
    assert lat.join(0, 1) == 1 and lat.meet(0, 1) == 0
    assert lat.leq(0, 1) and not lat.leq(1, 0)


def test_two_structures_tables(two_structures):
    lat = two_structures.lattice
    b, bp, a, c = lat.index("B"), lat.index("Bp"), lat.index("A"), lat.index("C")
    assert lat.join(b, bp) == c
    assert lat.meet(b, bp) == a
    # the same values by exhaustive bound scan
    assert naive_join(lat, b, bp) == c
    assert naive_meet(lat, b, bp) == a


def test_incomparable_minimal_upper_bounds_rejected():
    # a, b < c, d gives two incomparable minimal upper bounds of {a, b}
    with pytest.raises(NotALattice) as exc:
        build_lattice(
            ["bot", "a", "b", "c", "d", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "top"), ("d", "top")],
        )
    assert {exc.value.a, exc.value.b} == {"a", "b"}


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_lattice(["x", "y"], [("x", "y"), ("y", "x")])


def test_empty_is_unbounded():
    with pytest.raises(Unbounded):
        build_lattice([], [])


def test_duplicate_and_unknown_labels():
    with pytest.raises(InvalidInput):
        build_lattice(["x", "x"], [])
    with pytest.raises(InvalidInput):
        build_lattice(["x"], [("x", "zzz")])


def test_labels_are_str():
    # an int label could be read as an index: with labels [1, 0], the
    # index pair (1, 1) would be looked up as the label pair of element 0
    for names in ([1, 0], ["a", 0], ["a", None], ["a", ("b",)]):
        bad = next(x for x in names if not isinstance(x, str))
        with pytest.raises(InvalidInput, match=f"^element labels must be str, got {re.escape(repr(bad))}$"):
            build_lattice(names, [])
    with pytest.raises(InvalidInput, match=r"^element labels must be str, got 1$"):
        build_lattice([1, 0], [(1, 0)])
    for relation, bad in (((["a"], "b"), ["a"]), (("a", {"b"}), {"b"}), ((0, "b"), 0)):
        with pytest.raises(InvalidInput, match=f"^relation references unknown label {re.escape(repr(bad))}$"):
            build_lattice(["a", "b"], [relation])


def test_size_cap():
    names = [f"n{i}" for i in range(6)]
    with pytest.raises(CapExceeded):
        build_lattice(names, [(names[i], names[i + 1]) for i in range(5)], max_elements=5)


def _chain(n):
    names = [f"n{i}" for i in range(n)]
    return names, [(names[i], names[i + 1]) for i in range(n - 1)]


def test_pair_cap_boundary(monkeypatch):
    monkeypatch.setattr(lattice_module, "MAX_PAIRS", 15)  # a 5-chain has 15 pairs
    assert len(build_lattice(*_chain(5)).pairs) == 15
    monkeypatch.setattr(lattice_module, "MAX_PAIRS", 14)
    with pytest.raises(CapExceeded) as exc:
        build_lattice(*_chain(5))
    assert (exc.value.what, exc.value.limit, exc.value.actual) == ("comparable pairs", 14, 15)


def test_pair_cap_on_a_512_chain():
    # within the element cap, but its lift tables would take gigabytes
    with pytest.raises(CapExceeded) as exc:
        build_lattice(*_chain(512))
    assert (exc.value.what, exc.value.actual) == ("comparable pairs", 512 * 513 // 2)
    assert exc.value.limit == lattice_module.MAX_PAIRS
    assert len(build_lattice(*_chain(66)).pairs) == 2211  # chain-64 still builds


def test_pair_cap_cli_diagnostic(tmp_path, capsys):
    names, leq = _chain(512)
    path = tmp_path / "chain-512.json"
    path.write_text(print_instance(InstanceFile(elements=names, leq=leq, weq=[], add_identities=True)),
                    encoding="utf-8")
    assert run_cli(["recognize", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: CapExceeded: comparable pairs: 131328 exceeds cap {lattice_module.MAX_PAIRS}\n"


def test_closure_of_arbitrary_order_pairs():
    # relations need not be covers
    lat = build_lattice(["x", "y", "z"], [("x", "z"), ("x", "y"), ("y", "z")])
    assert lat.leq(lat.index("x"), lat.index("z"))
    covers = {lat.pair_names(p) for p in lat.cover_pairs()}
    assert covers == {("x", "y"), ("y", "z")}


def test_join_all_meet_all(two_structures, forced):
    lat = two_structures.lattice
    assert join_all(lat, [lat.index("B")]) == lat.index("B")
    assert join_all(lat, [lat.index("B"), lat.index("Bp")]) == lat.index("C")
    assert join_all(lat, []) == lat.bottom
    assert meet_all(lat, []) == lat.top
    flat = forced.lattice
    d, dp = flat.index("D"), flat.index("Dp")
    assert meet_all(flat, [d, dp]) == flat.index("C")
    assert naive_meet(flat, d, dp) == flat.index("C")


def test_folds_check_their_elements(two_structures):
    lat = two_structures.lattice
    for fold in (join_all, meet_all):
        for elems, bad in (([9], 9), ([True, 2], True), ([1, -1], -1), ([2, 1.0], 1.0), (["A"], "A")):
            with pytest.raises(InvalidInput, match=rf"^object index must be in range\(6\), got {bad!r}$"):
                fold(lat, elems)
    assert join_all(lat, (x for x in [1, 2])) == 2 and meet_all(lat, iter([2, 3])) == 1


@pytest.mark.parametrize("cap, message", [
    (True, "max_elements must be an int, got True"), (1.5, "max_elements must be an int, got 1.5"),
    ("3", "max_elements must be an int, got '3'"), (-1, "max_elements must be at least 0, got -1")])
def test_the_element_cap_is_a_count(cap, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        build_lattice(*_chain(2), max_elements=cap)
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        build_lattice([], [], max_elements=cap)  # checked before the elements are
    with pytest.raises(CapExceeded, match="^lattice elements: 1 exceeds cap 0$"):
        build_lattice(["x"], [], max_elements=0)
    assert build_lattice(*_chain(2), max_elements=2).n == 2


def test_pushout_pullback_examples(two_structures, forced):
    lat = two_structures.lattice
    a, b, bp, c = (lat.index(x) for x in ("A", "B", "Bp", "C"))
    assert pushout_of(lat, Pair(a, b), a) == Pair(a, b)
    assert pushout_of(lat, Pair(a, b), bp) == Pair(bp, c)
    flat = forced.lattice
    cc, d, e, u = (flat.index(x) for x in ("C", "D", "E", "U"))
    assert pullback_of(flat, Pair(cc, d), e) == Pair(u, e)
    with pytest.raises(NotComparable):
        pushout_of(lat, Pair(b, c), a)  # a is not above src b
    with pytest.raises(NotComparable):
        pullback_of(lat, Pair(a, b), c)  # c is not below dst b


@pytest.mark.parametrize("bad", [-1, 3, 9, 1.0, True])
def test_every_element_index_is_checked_alike(bad):
    # pair, pushout_of and pullback_of share one check: an index that is not
    # an int (a bool counts as none) or lies outside range(n) is an input
    # error; pair reads only a str as a label, so 1.0 is a bad index there too
    lat = build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c")])
    calls = [lambda: pushout_of(lat, Pair(0, 1), bad), lambda: pullback_of(lat, Pair(0, 2), bad),
             lambda: pushout_of(lat, Pair(bad, 2), 2), lambda: pullback_of(lat, Pair(0, bad), 0),
             lambda: lat.pair(0, bad), lambda: lat.pair(bad, 2)]
    for call in calls:
        with pytest.raises(InvalidInput, match=rf"^object index must be in range\(3\), got {bad!r}$"):
            call()


@st.composite
def relation_lists(draw, max_n=6):
    """Element lists with arbitrary relation lists: cycles and non-lattices included."""
    n = draw(st.integers(1, max_n))
    names = [f"e{i}" for i in range(n)]
    label = st.sampled_from(names)
    return names, draw(st.lists(st.tuples(label, label), max_size=2 * n))


def _pair_mask(lat, pairs):
    index = reference_pair_index(lat)
    return sum(1 << index[p] for p in set(pairs))


@given(lattices())
@settings(max_examples=60, deadline=None)
def test_order_table_agreement(lat):
    for a in range(lat.n):
        for b in range(lat.n):
            assert lat.join(a, b) == naive_join(lat, a, b)
            assert lat.meet(a, b) == naive_meet(lat, a, b)
            assert lat.leq(a, b) == (lat.join(a, b) == b) == (lat.meet(a, b) == a)
    ps = lat.pairs
    for i, f in enumerate(ps):
        for j, g in enumerate(ps):
            assert bool(lat.nonlift_left[i] >> j & 1) == (not naive_lifts(lat, f, g))
            assert bool(lat.op().nonlift_left[j] >> i & 1) == (not naive_lifts(lat, f, g))
    for i, (a, b) in enumerate(ps):
        above = [c for c in lat.elements if lat.leq(a, c)]
        below = [c for c in lat.elements if lat.leq(c, b)]
        assert lat.pushout_targets[i] == _pair_mask(lat, [(c, naive_join(lat, b, c)) for c in above])
        assert lat.pullback_targets[i] == _pair_mask(lat, [(naive_meet(lat, a, c), c) for c in below])


def _grid(rows, cols):
    names = [f"{i}.{j}" for i in range(rows) for j in range(cols)]
    rels = [(f"{i}.{j}", f"{i + 1}.{j}") for i in range(rows - 1) for j in range(cols)]
    rels += [(f"{i}.{j}", f"{i}.{j + 1}") for i in range(rows) for j in range(cols - 1)]
    return names, rels


# the eight-element lattice of the c/w-factorization NO instances
CW_GADGET_LEQ = [
    ("x0", "x1"), ("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x2", "x5"),
    ("x2", "x6"), ("x3", "x6"), ("x4", "x5"), ("x5", "x7"), ("x6", "x7"),
]


def _wide(atoms):
    names = ["b", *(f"a{i}" for i in range(atoms)), "t"]
    return names, [("b", a) for a in names[1:-1]] + [(a, "t") for a in names[1:-1]]


LARGE_LATTICES = {
    "chain-32": (fixture("chain-32").elements, fixture("chain-32").leq),
    "grid-6x5": _grid(6, 5),
    "trunc-4": (fixture("trunc-4").elements, fixture("trunc-4").leq),
    "cw-gadget": ([f"x{i}" for i in range(8)], CW_GADGET_LEQ),
    "wide-42": _wide(40),  # sparse: pair-mask kernels
}


def _naive_tables(lat):
    """Both target lists and both lift tables from the order relation alone."""
    ps = lat.pairs
    index = {p: i for i, p in enumerate(ps)}
    join = [[naive_join(lat, a, b) for b in lat.elements] for a in lat.elements]
    meet = [[naive_meet(lat, a, b) for b in lat.elements] for a in lat.elements]
    pushouts = [sum(1 << index[(c, join[b][c])] for c in lat.elements if lat.leq(a, c)) for (a, b) in ps]
    pullbacks = [sum(1 << index[(meet[a][c], c)] for c in lat.elements if lat.leq(c, b)) for (a, b) in ps]
    left = [sum(1 << j for j, g in enumerate(ps) if not naive_lifts(lat, f, g)) for f in ps]
    right = [sum(1 << i for i, row in enumerate(left) if row >> j & 1) for j in range(len(ps))]
    return pushouts, pullbacks, left, right


def _four_tables(lat):
    return lat.pushout_targets, lat.pullback_targets, lat.nonlift_left, lat.op().nonlift_left


@pytest.mark.parametrize("name", sorted(LARGE_LATTICES))
def test_tables_on_large_lattices(name, monkeypatch):
    # lattices with hundreds of pairs, beyond what `lattices()` draws: every
    # bit of both target lists and both lift tables, on L and on L.op(),
    # against the naive scans and against the same formulas on masks built
    # afresh for each table
    def no_lookup(self):
        raise AssertionError("a table build looked up the name table")

    monkeypatch.setattr(FiniteLattice, "_label_index", property(no_lookup))
    lat = build_lattice(*LARGE_LATTICES[name])
    lat.pairs
    tables = [_four_tables(side) for side in (lat, lat.op())]
    # each side memoises its two tables and its src_up; L alone memoises the
    # per-element masks, which L.op() reads swapped, and L.op()'s tables read
    # L's pairs: L.op() builds no pairs or masks of its own
    assert set(lat._memo) == {"pairs", "_primal_masks", "_src_up", "pushout_targets", "nonlift_left"}
    assert set(lat.op()._memo) == {"_src_up", "pushout_targets", "nonlift_left"}
    srcs, dsts, by_src, by_dst, *_ = lat._primal_masks
    assert all(x is y for x, y in zip(lat.op()._pair_masks()[:4], (dsts, srcs, by_dst, by_src)))
    assert tables == [_naive_tables(side) for side in (lat, lat.op())]
    assert tables == [reference_pair_tables(side) for side in (lat, lat.op())]


@given(lattices())
@settings(max_examples=60, deadline=None)
def test_shared_masks_give_the_per_table_values(lat):
    # the four tables of each side, built from the masks of the lattice,
    # against the same formulas each on masks of its own
    for side in (lat, lat.op()):
        assert _four_tables(side) == reference_pair_tables(side)


@pytest.mark.parametrize("name", ["chain-32", "wide-42"])
def test_the_tables_of_both_sides_build_the_masks_once(name, monkeypatch):
    # every miss goes through _cached: one mask build per lattice and one
    # src_up per side, whether the pair kit's lc and rc (on the sparse
    # lattice they read the left lift tables of both sides) come first
    misses = record_calls(monkeypatch, FiniteLattice, "_cached")
    lat = build_lattice(*LARGE_LATTICES[name])
    kit = lat._kit
    kit.lc(lat.identity_mask), kit.rc(lat.identity_mask)
    for side in (lat, lat.op()):
        _four_tables(side)
    keys = [key for _, key, _ in misses]
    assert keys.count("_primal_masks") == 1 and keys.count("_src_up") == 2
    assert memo_entry(lat.op(), "_primal_masks") is None


@pytest.mark.parametrize("name", ["chain-32", "cw-gadget", "wide-42"])
def test_the_tables_read_in_any_order_are_equal(name):
    reads = [lambda lat: lat.pushout_targets, lambda lat: lat.pullback_targets,
             lambda lat: lat.nonlift_left, lambda lat: lat.op().nonlift_left]
    expected = _four_tables(build_lattice(*LARGE_LATTICES[name]))
    for order in itertools.permutations(range(4)):
        lat = build_lattice(*LARGE_LATTICES[name])
        values = {}
        for k in order:
            values[k] = reads[k](lat)
        assert tuple(values[k] for k in range(4)) == expected, order


@given(lattices())
@settings(max_examples=60, deadline=None)
def test_cover_pairs_match_the_reference(lat):
    for side in (lat, lat.op()):
        assert side.cover_pairs() == reference_cover_pairs(side)


@pytest.mark.parametrize("name", [*sorted(LARGE_LATTICES), "wide-40", "wide-510", "chain-180"])
def test_cover_pairs_match_the_reference_on_large_lattices(name):
    # one kit product on both op() sides: grids, and the pair kit of the wide lattices
    shapes = {**LARGE_LATTICES, "wide-40": _wide(38), "wide-510": _wide(508), "chain-180": _chain(180)}
    lat = build_lattice(*shapes[name])
    for side in (lat, lat.op()):
        assert side.cover_pairs() == reference_cover_pairs(side)


def test_the_forced_tables_take_under_one_python_step_per_two_pairs():
    # chain-64, P = 2,080: the three tables a benchmark op reads and the left
    # lift table of L.op(), built from per-element masks in C-level passes,
    # with no Python step per pair
    names = [f"c{i}" for i in range(64)]
    lat = build_lattice(names, zip(names, names[1:]))
    npairs = len(lat.pairs)
    assert npairs == 2080
    reads = lambda: (lat.pushout_targets, lat.pullback_targets, lat.nonlift_left, lat.op().nonlift_left)
    assert line_events(reads) < npairs / 2
    assert lat.nonlift_left[0] == 0 and lat.pushout_targets[0] == sum(1 << lat.pairs.index((c, c)) for c in range(64))


def _build_outcome(names, relations):
    try:
        return build_lattice(names, relations)
    except PosetModelError as e:
        return type(e), str(e)


@given(relation_lists(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_closure_and_errors_ignore_relation_order(names_rels, rng):
    names, rels = names_rels
    shuffled = list(rels)
    rng.shuffle(shuffled)
    outcome = _build_outcome(names, rels)
    assert _build_outcome(names, rels[::-1]) == outcome
    assert _build_outcome(names, shuffled) == outcome


@given(lattices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_absorption_and_associativity(lat, rng):
    for _ in range(20):
        a, b, c = (rng.randrange(lat.n) for _ in range(3))
        assert lat.join(a, lat.meet(a, b)) == a
        assert lat.meet(a, lat.join(a, b)) == a
        assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
        assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))


@given(lattices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_pushout_pasting(lat, rng):
    # pushout along c then d equals pushout along c v d = d, for a <= c <= d
    for _ in range(20):
        a = rng.randrange(lat.n)
        ups = [u for u in range(lat.n) if lat.leq(a, u)]
        b = rng.choice(ups)
        c = rng.choice(ups)
        ds = [d for d in range(lat.n) if lat.leq(c, d)]
        d = rng.choice(ds)
        f = Pair(a, b)
        assert pushout_of(lat, pushout_of(lat, f, c), d) == pushout_of(lat, f, lat.join(c, d))


def test_bounds(two_structures):
    lat = two_structures.lattice
    assert lat.name(lat.bottom) == "bot" and lat.name(lat.top) == "top"
    for x in range(lat.n):
        assert lat.leq(lat.bottom, x) and lat.leq(x, lat.top)


def test_pairs_are_lexicographic_on_both_sides_whichever_is_built_first():
    # index orders that are not linear extensions included; op() lists the
    # primal pairs reversed, in primal order
    for _, rel in zip(range(30), permuted_instances(InstanceGen(seed=13))):
        lat = rel.lattice
        for op_first in (False, True):
            fresh = build_lattice(lat.names, [lat.pair_names(p) for p in lat.cover_pairs()])
            if op_first:
                fresh.op().pairs
            primal = fresh.pairs
            assert list(primal) == sorted(Pair(a, b) for a in fresh.elements for b in fresh.elements if fresh.leq(a, b))
            assert list(fresh.op().pairs) == [p.op() for p in primal]
