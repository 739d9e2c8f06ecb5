import hashlib
import itertools
import math
import random
import re

import pytest

from posetmodels import (
    InstanceGen,
    ModelStruct,
    MorphClass,
    build_lattice,
    check_s2of3,
    decide_by_enumeration,
    enumerate_model_structures,
    find_centers,
    left_complement,
    load,
    oracle,
    random_instances,
    recognize_finite,
    right_complement,
    validate_relative,
    verify_model,
)
from posetmodels.errors import CapExceeded, InvalidInput, S2OF3Failed
from posetmodels.models import _weq_checks

from helpers import (
    all_weak,
    check_all_centers,
    closed_classes,
    composition_closed_weqs,
    compose_close,
    naive_closed_classes,
    on_grid_path,
    pentagon,
    permuted,
    permuted_instances,
    record_calls,
    reference_enumeration,
    small_lattices,
)
from test_grid import _chain, _wide
from test_lattice import _grid
from test_models import LEFT_SIG, RIGHT_SIG, identity_rel, non_subcategory_rel


def test_instance_gen_checks_its_fields_at_construction():
    # a cap below 2 or a density outside [0, 1] once failed at the first
    # draw, or never; the bounds themselves draw 2-element lattices, and no
    # or every pair
    density = r"weq_density must be a real in \[0, 1\], got "
    for fields, message in [
        ({"max_elements": 1}, "max_elements must be at least 2, got 1"),
        ({"max_elements": True}, "max_elements must be an int, got True"),
        ({"max_elements": 7.0}, "max_elements must be an int, got 7.0"),
        ({"weq_density": 2.0}, density + "2.0"), ({"weq_density": -0.1}, density + "-0.1"),
        ({"weq_density": "x"}, density + "'x'"), ({"weq_density": True}, density + "True"),
        ({"weq_density": float("nan")}, density + "nan"),
    ]:
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            InstanceGen(**fields)
    for rel in itertools.islice(random_instances(InstanceGen(seed=1, max_elements=2, weq_density=1)), 5):
        assert rel.lattice.n == 2 and len(rel.weq) == 3
    for rel in itertools.islice(random_instances(InstanceGen(seed=1, weq_density=0)), 5):
        assert rel.weq.mask == rel.lattice.identity_mask


def test_identities_only_gives_trivial():
    rel = identity_rel()
    structs = enumerate_model_structures(rel)
    assert len(structs) == 1
    m = structs[0]
    assert m.cof.mask == rel.lattice.all_pairs_mask
    assert m.fib.mask == rel.lattice.all_pairs_mask


def test_two_structures_enumeration(two_structures):
    structs = enumerate_model_structures(two_structures)
    sigs = {m.signature() for m in structs}
    assert LEFT_SIG in sigs and RIGHT_SIG in sigs
    # deterministic order
    again = enumerate_model_structures(two_structures)
    assert [(m.cof.mask, m.fib.mask) for m in structs] == [
        (m.cof.mask, m.fib.mask) for m in again
    ]


def test_s2of3_fail_enumeration_empty(s2of3_fail):
    assert enumerate_model_structures(s2of3_fail) == []
    assert decide_by_enumeration(s2of3_fail) is False


def test_forced_enumeration_is_forced(forced):
    structs = enumerate_model_structures(forced)
    assert len(structs) == 1
    sig_cof, sig_fib = structs[0].signature()
    assert {("U", "C"), ("Up", "C"), ("E", "D"), ("Ep", "Dp")} == sig_cof
    assert {("U", "E"), ("Up", "Ep"), ("C", "D"), ("C", "Dp")} == sig_fib


def test_caps():
    gen = InstanceGen(seed=3, max_elements=7)
    rel = next(random_instances(gen))
    with pytest.raises(CapExceeded):
        enumerate_model_structures(rel, max_elements=1)
    big = next(r for r in random_instances(gen) if len(r.weq.nonidentity_pairs()) >= 2)
    with pytest.raises(CapExceeded):
        enumerate_model_structures(big, max_generators=1)


@pytest.mark.parametrize("cap", [True, 1.5, "3"])
@pytest.mark.parametrize("name", ["max_elements", "max_generators"])
def test_caps_that_are_no_int_are_input_errors(two_structures, name, cap):
    # a bool is no cap, as a bool is no enumeration limit
    with pytest.raises(InvalidInput, match=rf"^{name} must be an int, got {re.escape(repr(cap))}$"):
        enumerate_model_structures(two_structures, **{name: cap})


def test_non_subcategory_w_enumerates_to_nothing_after_both_caps(monkeypatch):
    # W's own checks reject it before any class grows, so growth may assume
    # W is a subcategory; both caps are checked first, so a W that fails
    # 2-of-3 with too many generators still exceeds the cap
    grown = record_calls(monkeypatch, oracle, "_closed_grids")
    rel = non_subcategory_rel()
    assert [c.ok for c in _weq_checks(rel)] == [False, False]
    for side in (rel, rel.op()):
        assert enumerate_model_structures(side) == []
        assert not decide_by_enumeration(side)
        with pytest.raises(CapExceeded, match="non-identity weak equivalences"):
            enumerate_model_structures(side, max_generators=1)
        with pytest.raises(CapExceeded, match="lattice elements"):
            enumerate_model_structures(side, max_elements=2)
    assert grown == []


def test_random_stream_deterministic():
    a = [r for r, _ in zip(random_instances(InstanceGen(seed=0)), range(25))]
    b = [r for r, _ in zip(random_instances(InstanceGen(seed=0)), range(25))]
    assert [(r.lattice.names, r.weq.mask) for r in a] == [
        (r.lattice.names, r.weq.mask) for r in b
    ]
    c = [r for r, _ in zip(random_instances(InstanceGen(seed=1)), range(25))]
    assert [(r.lattice.names, r.weq.mask) for r in a] != [
        (r.lattice.names, r.weq.mask) for r in c
    ]


def test_random_stream_valid_and_filtered():
    for rel in itertools.islice(random_instances(InstanceGen(seed=5)), 40):
        # re-validation succeeds: the stream emits only valid relative structures
        revalidated = validate_relative(
            rel.lattice, [tuple(p) for p in rel.weq.nonidentity_pairs()], add_identities=True
        )
        assert revalidated.weq.mask == rel.weq.mask
    for rel in itertools.islice(random_instances(InstanceGen(seed=5), s2of3_only=True), 40):
        assert check_s2of3(rel).ok


def test_three_way_agreement_sample():
    # a quick slice of the acceptance property; the full run is criterion 5
    gen = InstanceGen(seed=42, max_elements=6)
    for rel in itertools.islice(random_instances(gen), 60):
        dec = recognize_finite(rel)
        centers_exist = check_s2of3(rel).ok and find_centers(rel) is not None
        assert dec.yes == centers_exist == decide_by_enumeration(rel)


def test_three_way_agreement_on_permuted_indices():
    """Recognition, the center search and the oracle agree when element
    indices are not a linear extension of the order."""
    unsorted = 0
    gen = InstanceGen(seed=42, max_elements=6)
    for rel in itertools.islice(permuted_instances(gen), 80):
        unsorted += any(p.src > p.dst for p in rel.lattice.pairs)
        dec = recognize_finite(rel)
        centers_exist = check_s2of3(rel).ok and find_centers(rel) is not None
        assert dec.yes == centers_exist == decide_by_enumeration(rel)
        if dec.yes:
            assert dec.structure.verified
            assert check_all_centers(rel) >= 1
    assert unsorted >= 40


def test_closures_match_naive_on_permuted_indices():
    """build_lattice's and the grid route's Warshall closures against the
    naive fixpoint, on indices that are not a linear extension."""
    rng = random.Random(9)
    unsorted = 0
    for rel in itertools.islice(random_instances(InstanceGen(seed=9)), 300):
        p = permuted(rel, rng)
        lat = p.lattice
        covers = {(lat.index(a), lat.index(b))
                  for a, b in (rel.lattice.pair_names(c) for c in rel.lattice.cover_pairs())}
        assert set(lat.pairs) == compose_close(covers | {(x, x) for x in range(lat.n)})
        chosen = {tuple(q) for q in lat.pairs if q.src != q.dst and rng.random() < 0.5}
        kit, _, from_grid = lat._grid_route()
        closed = MorphClass._of(lat, from_grid(kit.closure(sum(kit.bit(a, b) for a, b in chosen))))
        assert set(closed) == compose_close(chosen)
        unsorted += any(a > b for (a, b) in covers)
    assert unsorted >= 150


def test_closed_classes_match_naive_closure(two_structures, forced, s2of3_fail, trunc1, two_chain):
    for rel in (two_structures, forced, s2of3_fail, trunc1, two_chain):
        assert closed_classes(rel, 14) == naive_closed_classes(rel)
    stream = random_instances(InstanceGen(seed=3, weq_density=0.6))
    small = (rel for rel in stream if len(rel.weq.nonidentity_pairs()) <= 8)
    sizes = set()
    for rel in itertools.islice(small, 150):
        classes = closed_classes(rel, 8)
        assert classes == naive_closed_classes(rel)
        sizes.add(len(classes))
    assert max(sizes) >= 10  # the sample grows more than a few classes


# sha256 of every closed class and every enumerated (cof mask, fib mask)
# of the instances below, recorded with the closure that rebuilt each
# class from all of its pairs
CLOSED_CLASSES_SHA256 = "026ba4e4357299c33c6f170e11a9948d2925a2c5ed02479f79e869a234fc2375"
STRUCTURES_SHA256 = "50b1765b3b67d85266e8c24c1645149f0803f1b6734e68c80e781d9316466568"


def test_enumeration_digests():
    stream = random_instances(InstanceGen(seed=7))
    cases = [(rel, 14) for rel in itertools.islice(
        (rel for rel in stream if len(rel.weq.nonidentity_pairs()) <= 14), 200)]
    cases += [(load("two-structures"), 14), (load("forced"), 14), (load("chain-8"), 28)]
    classes, structures = hashlib.sha256(), hashlib.sha256()
    for rel, cap in cases:
        for mask in closed_classes(rel, cap):
            classes.update(b"%x," % mask)
        classes.update(b";")
        for m in enumerate_model_structures(rel, max_generators=cap):
            structures.update(b"%x %x," % (m.cof.mask, m.fib.mask))
        structures.update(b";")
    assert classes.hexdigest() == CLOSED_CLASSES_SHA256
    assert structures.hexdigest() == STRUCTURES_SHA256


def _grown(rel, cap=14):
    """oracle._closed_grids on `rel`, as enumerate_model_structures calls it."""
    kit, to_grid, _ = rel.lattice._grid_route()
    return oracle._closed_grids(rel.lattice, kit, to_grid(rel.weq.bits), oracle._generators(rel, cap))


def _digest_cases():
    """The instances and generator caps of test_enumeration_digests."""
    stream = random_instances(InstanceGen(seed=7))
    cases = [(rel, 14) for rel in itertools.islice(
        (rel for rel in stream if len(rel.weq.nonidentity_pairs()) <= 14), 200)]
    return cases + [(load("two-structures"), 14), (load("forced"), 14), (load("chain-8"), 28)]


def test_canonical_growth_forms_each_closed_class_once():
    """No grid twice on either op() side: on the digest instances, and on
    every (L, W) with |L| <= 4, where the grids sort to the naive closed
    classes, which are distinct."""
    grown = 0
    for rel, cap in _digest_cases():
        for side in (rel, rel.op()):
            grids = _grown(side, cap)
            assert len(set(grids)) == len(grids)
            grown += len(grids)
    assert grown >= 3_900  # chain-8 grows 1,430 on each side
    for n in range(1, 5):
        for lat in small_lattices(n):
            for rel in composition_closed_weqs(lat):
                for side in (rel, rel.op()):
                    assert closed_classes(side, 14) == naive_closed_classes(side)


def test_closed_classes_do_not_depend_on_element_indices():
    """The class list, read as sets of name pairs, is the same after
    helpers.permuted re-indexes the elements, which reorders the generators."""
    rng = random.Random(29)
    rels = [load("two-structures"), load("forced"), _block_chain((4, 2, 2, 1))]
    rels += list(itertools.islice(random_instances(InstanceGen(seed=31)), 60))
    unsorted = 0
    for rel in rels:
        p = permuted(rel, rng)
        unsorted += any(q.src > q.dst for q in p.lattice.pairs)
        for side, other in ((rel, p), (rel.op(), p.op())):
            named = [sorted(sorted(map(r.lattice.pair_names, MorphClass(r.lattice, mask).pairs()))
                            for mask in closed_classes(r, 14)) for r in (side, other)]
            assert named[0] == named[1]
    assert unsorted >= 30


@pytest.mark.parametrize("name, cap, closures", [
    ("two-structures", 14, [11, 11]), ("forced", 14, [8, 8]), ("chain-8", 28, [5134, 2806]),
])
def test_closures_formed_by_canonical_growth(name, cap, closures, monkeypatch):
    # grids passed to the stacked closure on each op() side; growth that
    # deduplicated its closures closed 13, 8 and 14,217 on either side
    rel = load(name)
    chunks = record_calls(monkeypatch, oracle, "_chunks")
    formed = []
    for side in (rel, rel.op()):
        chunks.clear()
        closed_classes(side, cap)
        formed.append(sum(len(grids) for _, grids in chunks))
    assert formed == closures


# sha256 of (names, pairs, W mask) of the first 200 instances of seeds 0, 5
# and 42, recorded when W was closed by a Warshall loop on element rows
RANDOM_STREAM_SHA256 = "f0caaed272b8a85d1b3dc78f597059aad01d739b1ac74c50b0ceb2666042b7a9"


def test_random_stream_matches_naive_compose_close():
    digest = hashlib.sha256()
    for seed in (0, 5, 42):
        for rel in itertools.islice(random_instances(InstanceGen(seed=seed)), 200):
            lat, pairs = rel.lattice, set(map(tuple, rel.weq))
            assert compose_close(pairs) == pairs
            digest.update(repr((lat.names, tuple(map(tuple, lat.pairs)), rel.weq.mask)).encode())
    assert digest.hexdigest() == RANDOM_STREAM_SHA256


def _block_chain(blocks):
    """A chain of sum(blocks) elements with W every pair inside one block."""
    names = [f"c{i}" for i in range(sum(blocks))]
    weq, start = [], 0
    for b in blocks:
        weq += [(names[i], names[j]) for i in range(start, start + b) for j in range(i + 1, start + b)]
        start += b
    return validate_relative(build_lattice(names, zip(names, names[1:])), weq, add_identities=True)


@pytest.mark.parametrize("blocks, count", [
    ((2,), 2), ((3,), 5), ((4,), 14), ((5,), 42),  # Catalan numbers: the n-chain with W every pair
    ((2, 2, 1), 4), ((3, 2), 10), ((4, 2, 2, 1), 56),  # products of the blocks' Catalan numbers
])
def test_chain_structure_counts_are_catalan(blocks, count):
    # with W every morphism a model structure is a weak factorization
    # system; on the n-chain these are counted by the Catalan number C_n
    # (Balchin, Barnes, Roitzheim, "N-infinity operads and associahedra")
    assert len(enumerate_model_structures(_block_chain(blocks))) == count


def _compositions(n):
    """The 2^(n-1) ways to cut n into consecutive positive block sizes."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
                size = 0
            size += 1
        yield (*sizes, size)


def _catalan(k):
    return math.comb(2 * k, k) // (k + 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_admitting_w_on_a_chain_has_the_product_of_catalan_numbers(n):
    # on the n-chain the W that admit a model structure are the 2^(n-1)
    # interval partitions (test_small_world's closed-form test proves it);
    # each has prod C_|K| structures over its components K, and they sum to
    # C(2n - 1, n).  W every pair of the 6-chain has 15 generators, one over
    # the default cap
    total = 0
    for blocks in _compositions(n):
        rel = _block_chain(blocks)
        assert sorted(map(len, rel.components)) == sorted(blocks)
        found = len(enumerate_model_structures(rel, max_generators=15))
        assert found == math.prod(_catalan(len(k)) for k in rel.components)
        total += found
    assert total == math.comb(2 * n - 1, n)


def test_the_product_of_catalan_numbers_fails_off_chains():
    # the square 0 < 1, 2 < 3 with 1 and 2 incomparable, W = {0 -> 1}: the
    # components {0, 1}, {2}, {3} give C_2 = 2, but one structure exists
    lat = build_lattice(["0", "1", "2", "3"], [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")])
    rel = validate_relative(lat, [("0", "1")], add_identities=True)
    assert math.prod(_catalan(len(k)) for k in rel.components) == 2
    assert len(enumerate_model_structures(rel)) == 1


def test_square_has_ten_structures():
    # the 2x2 square with W every pair: ten, the transfer-system count for C_pq
    assert len(enumerate_model_structures(all_weak(build_lattice(*_grid(2, 2))))) == 10


def _enumerated(rel):
    """((cof mask, fib mask), report) of each enumerated structure, the
    element cap raised to fit; each report equals the one a fresh
    verify_model gives."""
    out = []
    for m in enumerate_model_structures(rel, max_elements=rel.lattice.n):
        assert m.report == verify_model(ModelStruct(rel, m.cof, m.fib))
        out.append(((m.cof.mask, m.fib.mask), m.report))
    return out


def test_oracle_matches_reference_route(two_structures, forced, s2of3_fail, trunc1, two_chain):
    """The stacked oracle against naive closure, _generated_by and verify_model, structure by structure."""
    rels = [two_structures, forced, s2of3_fail, trunc1, two_chain]
    stream = random_instances(InstanceGen(seed=13, max_elements=8))
    rels += list(itertools.islice((rel for rel in stream if len(rel.weq.nonidentity_pairs()) <= 8), 150))
    found = 0
    for rel in rels:
        for side in (rel, rel.op()):
            expected = reference_enumeration(side)
            assert _enumerated(side) == expected
            found += len(expected)
    assert found >= 300


def test_oracle_on_sparse_lattice_matches_reference_route():
    # a wide lattice past the density gate: the oracle builds its grid kit for
    # the call; b -> a1 and b -> a2 push out to (x, t) outside W, so four
    # closed classes grow, and three of their candidates fail verification
    lat = _wide(36)
    assert not on_grid_path(lat)
    rel = validate_relative(lat, [("a0", "t"), ("b", "a1"), ("b", "a2"), ("a3", "t")], add_identities=True)
    for side in (rel, rel.op()):
        expected = reference_enumeration(side)
        assert len(expected) == 1
        assert _enumerated(side) == expected
        assert closed_classes(side, 14) == naive_closed_classes(side) and len(naive_closed_classes(side)) == 4


def test_enumeration_does_not_depend_on_chunk_size(two_structures, forced, monkeypatch):
    # the default chunk holds every stack of these instances; smaller ones
    # split closure growth and verification across many stacks
    rels = [two_structures, forced, _block_chain((4, 2, 2, 1))]
    rels += list(itertools.islice(random_instances(InstanceGen(seed=19)), 30))
    expected = [(_enumerated(rel), closed_classes(rel, 14)) for rel in rels]
    assert sum(len(structures) for structures, _ in expected) >= 90
    for size in (1, 40, 200):
        monkeypatch.setattr(oracle, "_STACK_BYTES", size)
        assert [(_enumerated(rel), closed_classes(rel, 14)) for rel in rels] == expected


def _m3():
    return build_lattice(["0", "a", "b", "c", "1"], [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


@pytest.mark.parametrize("rel, count", [
    (all_weak(build_lattice(*_grid(2, 3))), 68), (all_weak(_m3()), 19), (pentagon(), 26),
])
def test_closed_class_counts_with_every_pair_weak(rel, count):
    # with W every pair the closed classes are the left classes of the weak
    # factorization systems, and J -> rc(J) is an inclusion-reversing bijection
    # onto the pullback-closed classes (Franchere, Ormsby, Osorno, Qin, Waugh,
    # "Self-duality of the lattice of transfer systems via weak factorization
    # systems"): L and L.op() have as many
    for side in (rel, rel.op()):
        assert len(closed_classes(side, 14)) == count


def test_closed_classes_are_left_complements_of_their_right_complements():
    checked = 0
    stream = random_instances(InstanceGen(seed=17, weq_density=0.6))
    for rel in itertools.islice((rel for rel in stream if len(rel.weq.nonidentity_pairs()) <= 14), 100):
        for side in (rel, rel.op()):
            for mask in closed_classes(side, 14):
                j = MorphClass(side.lattice, mask)
                assert left_complement(right_complement(j)).mask == mask
                checked += 1
    assert checked >= 1000


def test_exhaustive_small_world():
    """Every lattice of at most 5 elements with every subcategory W: the
    counts match OEIS A006966 and A006455, and recognition, the center
    search and the oracle agree on every instance, on both op() sides."""
    lattices = {n: small_lattices(n) for n in range(1, 6)}
    assert [len(lattices[n]) for n in range(1, 6)] == [1, 1, 1, 2, 5]
    chains = [composition_closed_weqs(_chain(n)) for n in range(2, 6)]
    assert [len(ws) for ws in chains] == [2, 7, 40, 357]
    instances = yes = 0
    for n, lats in lattices.items():
        for lat in lats:
            for rel in composition_closed_weqs(lat):
                for side in (rel, rel.op()):
                    decision = recognize_finite(side).yes
                    try:
                        centers = find_centers(side) is not None
                    except S2OF3Failed:
                        centers = False
                    assert decision == centers == decide_by_enumeration(side)
                instances += 1
                yes += decision
    assert (instances, yes) == (1144, 131)

