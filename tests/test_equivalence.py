import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from posetmodels import (
    ModelStruct,
    build_zigzag,
    centers,
    compute_Wc_chi,
    construct_from_centers,
    enumerate_model_structures,
    extract_centers,
    homotopy_reduce,
    is_identity_left_quillen,
    load,
    models,
    recognize_finite,
    replacement,
)
from posetmodels.errors import InternalCheckFailed, MismatchedBase
from posetmodels.report import Check, Report

from helpers import memo_entry, pentagon, pentagon_pair, record_calls, reference_zigzag
from test_models import left_printed, right_printed, trivial_structure, identity_rel


def test_ilq_reflexive(two_structures):
    left = left_printed(two_structures)
    assert is_identity_left_quillen(left, left)


def test_ilq_printed_structures(two_structures):
    left = left_printed(two_structures)
    right = right_printed(two_structures)
    # cof(right) is contained in cof(left) = everything, not conversely
    assert is_identity_left_quillen(right, left)
    assert not is_identity_left_quillen(left, right)
    lat = two_structures.lattice
    assert (lat.index("A"), lat.index("B")) in left.cof
    assert (lat.index("A"), lat.index("B")) not in right.cof


def test_ilq_mismatched_base(two_structures):
    rel = identity_rel()
    with pytest.raises(MismatchedBase):
        is_identity_left_quillen(trivial_structure(rel), left_printed(two_structures))


def test_zigzag_trivial(two_structures):
    left = left_printed(two_structures)
    z = build_zigzag(left, left)
    assert len(z) == 0 and z.nodes == [left]


def test_zigzag_printed_structures(two_structures):
    left = left_printed(two_structures)
    right = right_printed(two_structures)
    z = build_zigzag(left, right)
    assert len(z) <= 6
    assert z.all_edges_ok()
    assert z.nodes[0] == left and z.nodes[-1] == right
    zc = build_zigzag(left, right, contract=True)
    assert zc.all_edges_ok() and len(zc) <= len(z)
    assert zc.nodes[0] == left and zc.nodes[-1] == right


def test_zigzag_pairwise_forced(forced):
    structs = enumerate_model_structures(forced)
    for m1 in structs:
        for m2 in structs:
            z = build_zigzag(m1, m2)
            assert z.all_edges_ok()


def test_zigzag_pairwise_two_structures(two_structures):
    structs = enumerate_model_structures(two_structures)
    for m1 in structs:
        for m2 in structs:
            assert build_zigzag(m1, m2).all_edges_ok()


def test_zigzag_on_the_pentagon_pair_in_both_orders():
    # b's centers are constant at 3, and W_c^chi of that map holds 1->2,
    # which is no cofibration of b: a zigzag through construct_from_centers
    # broke edge 4 (edge 1 in the other order); through J_chi it holds
    rel = pentagon()
    a, b = pentagon_pair(rel)
    chi = extract_centers(b)
    assert chi.chi == (3,) * 5
    lat = rel.lattice
    assert (lat.index("1"), lat.index("2")) in compute_Wc_chi(rel, chi)
    assert not construct_from_centers(rel, chi).cof <= b.cof
    for m1, m2 in ((a, b), (b, a)):
        for contract in (False, True):
            z = build_zigzag(m1, m2, contract=contract)
            assert z.all_edges_ok() and z.nodes[0] == m1 and z.nodes[-1] == m2
            assert all(node.verified for node in z.nodes)


def test_zigzag_every_ordered_pair_on_the_pentagon():
    structures = enumerate_model_structures(pentagon())
    assert len(structures) == 26
    for m1 in structures:
        for m2 in structures:
            for contract in (False, True):
                z = build_zigzag(m1, m2, contract=contract)
                assert z.all_edges_ok() and z.nodes[0] == m1 and z.nodes[-1] == m2


def test_zigzag_ends_are_the_argument_objects():
    # the chain memoised on m1 is read with the ends it is called with; an
    # interior node equal to the second end is that end, on the pentagon pair
    # the enlarged N2 is b itself
    a, b = pentagon_pair(pentagon())
    z = build_zigzag(a, b)
    assert z.nodes[-2] is b
    twin = ModelStruct(b.rel, b.cof, b.fib, b.report)
    for contract in (False, True):
        zt = build_zigzag(a, twin, contract=contract)
        assert zt.nodes[0] is a and zt.nodes[-1] is twin and not any(x is b for x in zt.nodes)
        assert all(x is twin for x in zt.nodes if x == b)
    zt = build_zigzag(a, twin)
    assert all(x is y for x, y in zip(zt.nodes, z.nodes) if y != b)
    # each call gets lists of its own: contracting one leaves the memo whole
    assert zt.nodes is not z.nodes and len(build_zigzag(a, b).nodes) == 7


def test_reduce_trivial():
    rel = identity_rel()
    triv = trivial_structure(rel)
    d_lat, d_model, maps = homotopy_reduce(triv)
    assert d_lat.names == rel.lattice.names
    assert d_model.verified
    assert maps.gamma == tuple(range(rel.lattice.n))


def test_reduce_printed_structures(two_structures):
    for m in (left_printed(two_structures), right_printed(two_structures)):
        d_lat, d_model, maps = homotopy_reduce(m)
        assert d_lat.names == ("bot", "C", "top")  # a three-chain
        assert d_lat.leq(0, 1) and d_lat.leq(1, 2)
        assert d_model.verified
        assert d_model.we.mask == d_lat.identity_mask
        assert d_model.cof.mask == d_lat.all_pairs_mask
        assert d_model.fib.mask == d_lat.all_pairs_mask
        # one object per weak equivalence component, gamma retracts iota
        assert d_lat.n == len(m.rel.components)
        for i, e in enumerate(maps.iota):
            assert maps.gamma[e] == i


def test_reduce_forced(forced):
    m = enumerate_model_structures(forced)[0]
    d_lat, d_model, maps = homotopy_reduce(m)
    assert d_lat.names == ("bot", "C", "top")
    assert d_model.verified


def test_reduce_counit_memberships(two_structures):
    m = right_printed(two_structures)
    _, _, maps = homotopy_reduce(m)
    afib = m.acyclic_fibrations()
    acof = m.acyclic_cofibrations()
    for a in range(m.lattice.n):
        assert (maps.cofibrant[a], a) in afib
        assert (a, maps.fibrant[a]) in acof


def test_reduce_validates_centers_once_per_side(monkeypatch):
    # one full validation for m and one for m.op(), whatever n and |D|
    calls = record_calls(monkeypatch, models, "validate_centers")
    structures = enumerate_model_structures(load("two-structures"))
    assert len(structures) == 10
    for m in structures:
        calls.clear()
        homotopy_reduce(m)
        assert len(calls) == 2
        homotopy_reduce(m)
        assert len(calls) == 2


def test_reduce_computes_each_replacement_once(monkeypatch):
    # one cofibrant pass on m and one on m.op() give every replacement; the
    # reduced meet and join checks, a second reduction and replacement()
    # read them back instead of recomputing.  A pass runs on a memo miss,
    # which is the one call to _cached under its key.
    misses = record_calls(monkeypatch, ModelStruct, "_cached")
    for m in enumerate_model_structures(load("two-structures")) + enumerate_model_structures(load("forced")):
        misses.clear()
        homotopy_reduce(m)
        passes = [x for (x, key, _) in misses if key == "_cofibrant_replacements"]
        assert len(passes) == 2 and passes[0] is m and passes[1] is m.op()
        _, _, maps = homotopy_reduce(m)
        for a in range(m.lattice.n):
            assert replacement(m, a, "cofibrant") == maps.cofibrant[a]
            assert replacement(m, a, "fibrant") == maps.fibrant[a]
        assert [x for (x, key, _) in misses if key == "_cofibrant_replacements"] == passes


def test_zigzags_check_each_center_map_once_per_side(monkeypatch):
    # extract_centers, product_centers and every center construction share
    # the memo on the relative structure: no (side, chi) is checked twice
    calls = record_calls(monkeypatch, centers, "_check_centers")
    structures = enumerate_model_structures(load("two-structures"))
    for m1 in structures[:4]:
        for m2 in structures:
            assert build_zigzag(m1, m2).all_edges_ok()
            homotopy_reduce(m2)
    checked = [(id(rel), chi.chi) for rel, chi in calls]
    assert checked and len(checked) == len(set(checked))


def test_center_memo_written_after_validation_not_carried_to_op(monkeypatch):
    m = enumerate_model_structures(load("two-structures"))[0]
    assert memo_entry(m, "extract_centers") is None
    chi = extract_centers(m)
    assert memo_entry(m, "extract_centers") is chi and extract_centers(m) is chi
    o = m.op()
    assert memo_entry(o, "extract_centers") is None
    assert extract_centers(o) == chi and memo_entry(o, "extract_centers") is not chi
    # a map that fails validation is never memoised: every call re-checks
    failed = Report((Check("idempotent", False, (0,)),))
    monkeypatch.setattr(models, "validate_centers", lambda rel, chi: failed)
    m = enumerate_model_structures(load("two-structures"))[0]
    for _ in range(2):
        with pytest.raises(InternalCheckFailed):
            extract_centers(m)
        assert memo_entry(m, "extract_centers") is None


def test_memos_are_safe_to_share_across_threads():
    # more threads than cores race on the first write of every memo, and of
    # each class's pair mask, which the oracle's classes compute on first
    # read; each must see the same report, centers, reduction and masks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rel = load("two-structures")
        structures = enumerate_model_structures(load("two-structures"))

        def work(_):
            return (
                [(m.cof.mask, m.fib.mask, m.acyclic_fibrations().mask) for m in structures],
                recognize_finite(rel).report,
                [extract_centers(m) for m in structures],
                [homotopy_reduce(m)[2] for m in structures],
                [[id(x) for x in build_zigzag(m1, m2).nodes] for m1 in structures for m2 in structures],
            )

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, i) for i in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    assert results[0][0] == [(m.cof.mask, m.fib.mask, (m.fib & m.we).mask) for m in structures]
    assert memo_entry(rel, "recognition_report") == results[0][1]
    assert [memo_entry(m, "extract_centers") for m in structures] == results[0][2]
    # the zigzags hold new nodes too, and every thread got the same objects
    assert len({i for chain in results[0][4] for i in chain}) > len(structures)


def test_zigzag_verifies_each_new_interior_node_once(monkeypatch):
    # a node equal to an end or an earlier node is not verified again;
    # some pairs repeat an end at every interior node and verify nothing.
    # m1 memoises the chain: a second build_zigzag of the same m1 and m2,
    # contracted after full or full after contracted, verifies no node.
    calls = record_calls(monkeypatch, models, "verify_model")
    structures = enumerate_model_structures(pentagon()) + enumerate_model_structures(load("two-structures"))
    counts = []
    for first, second in ((False, True), (True, False)):
        fresh = [ModelStruct(m.rel, m.cof, m.fib, m.report) for m in structures]  # empty memos
        for m1 in fresh:
            for m2 in structures:
                if m1.rel is not m2.rel or m1 == m2:
                    continue
                nodes, _ = reference_zigzag(m1, m2)
                new = set(nodes[1:-1]) - {nodes[0], nodes[-1]}
                calls.clear()
                build_zigzag(m1, m2, contract=first)
                assert sorted((m.cof.mask, m.fib.mask) for (m,) in calls) == sorted(new)
                counts.append(len(new))
                calls.clear()
                assert build_zigzag(m1, m2, contract=second).all_edges_ok() and calls == []
    assert len(counts) == 2 * (26 * 25 + 10 * 9) and counts.count(0) > 0 and max(counts) > 1


def test_acyclic_classes_are_memoised_per_side(two_structures):
    m = right_printed(two_structures)
    o = m.op()
    for name in ("acyclic_cofibrations", "acyclic_fibrations"):
        assert memo_entry(m, name) is None and memo_entry(o, name) is None
        first = getattr(m, name)()
        assert getattr(m, name)() is first and memo_entry(m, name) is first
        assert memo_entry(o, name) is None
        assert getattr(o, name)() is not first and getattr(o, name)() is memo_entry(o, name)
    assert o.acyclic_cofibrations().mask == m.acyclic_fibrations().mask
    assert o.acyclic_fibrations().mask == m.acyclic_cofibrations().mask
