import itertools
import random

import pytest

from posetmodels import (
    CenterMap,
    InstanceGen,
    MorphClass,
    Pair,
    build_lattice,
    check_s2of3,
    compute_Jchi,
    compute_Qchi,
    compute_Wc_chi,
    compute_Wf_chi,
    construct_from_centers,
    construct_from_centers_dual,
    enumerate_centers,
    centers,
    find_centers,
    load,
    product_centers,
    random_instances,
    validate_centers,
    validate_relative,
)
from posetmodels.errors import S2OF3Failed
from posetmodels.lattice import FiniteLattice

from helpers import check_all_centers, memo_entry, record_calls, reference_check_centers
from test_grid import _wide
from test_reference_scans import small_world


def identity_rel():
    lat = build_lattice(["p", "q"], [("p", "q")])
    return validate_relative(lat, [], add_identities=True)


def const_chi(rel, name):
    """chi collapsing the big component to `name`, identity on singletons."""
    lat = rel.lattice
    target = lat.index(name)
    comp = rel.component(target)
    return CenterMap(tuple(target if a in comp else a for a in range(lat.n)))


def test_validate_identity_map():
    rel = identity_rel()
    chi = CenterMap(tuple(range(rel.lattice.n)))
    assert validate_centers(rel, chi).ok


def test_validate_two_structures_centers(two_structures):
    assert validate_centers(two_structures, const_chi(two_structures, "C")).ok
    assert validate_centers(two_structures, const_chi(two_structures, "A")).ok


def test_a_center_map_given_a_list_holds_its_tuple(two_structures):
    # the list and tuple forms are one map: equal, hashed alike, and both
    # validate and construct, keyed in the memos by the same chi tuple
    listed, tupled = CenterMap([0, 1, 1, 1, 1, 5]), CenterMap((0, 1, 1, 1, 1, 5))
    assert listed.chi == tupled.chi == (0, 1, 1, 1, 1, 5)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert validate_centers(two_structures, listed).ok and validate_centers(two_structures, tupled).ok
    for construct in (construct_from_centers, construct_from_centers_dual):
        assert construct(two_structures, listed) == construct(two_structures, tupled)


def test_validate_catches_bad_maps(two_structures):
    lat = two_structures.lattice
    # collapsing the big component onto bot leaves its component
    bot = lat.index("bot")
    comp = two_structures.component(lat.index("A"))
    chi = CenterMap(tuple(bot if a in comp else a for a in range(lat.n)))
    rep = validate_centers(two_structures, chi)
    assert not rep.ok and not rep["center_in_component"].ok
    # the identity map is not constant on the big component
    rep = validate_centers(two_structures, CenterMap(tuple(range(lat.n))))
    assert not rep.ok and not rep["constant_on_components"].ok
    # one element deviating from the collapse point breaks constancy
    chi = list(const_chi(two_structures, "C").chi)
    chi[lat.index("B")] = lat.index("B")
    rep = validate_centers(two_structures, CenterMap(tuple(chi)))
    assert not rep.ok


def test_passing_center_maps_are_memoised_per_side(monkeypatch):
    rel = load("two-structures")
    checked = record_calls(monkeypatch, centers, "_check_centers")
    good = const_chi(rel, "C")
    first = validate_centers(rel, good)
    assert first.ok and validate_centers(rel, good) is first
    assert len(checked) == 1
    # every check is self-dual: the opposite reads the passing report and
    # memoises it on its own side, with no second check
    assert validate_centers(rel.op(), good) is first and validate_centers(rel.op(), good) is first
    assert len(checked) == 1
    assert memo_entry(rel.op(), ("validate_centers", good.chi)) is first
    # a failing map is never memoised: every call checks it again
    bad = CenterMap(tuple(range(rel.lattice.n)))
    for _ in range(2):
        assert not validate_centers(rel, bad).ok
    assert len(checked) == 3
    assert memo_entry(rel, ("validate_centers", good.chi)) is first
    assert memo_entry(rel, ("validate_centers", bad.chi)) is None


def test_square_rows_are_built_once_per_relative_structure(monkeypatch):
    # find_centers and both center constructions read S on rel and rel.op();
    # S is self-dual, so one build serves both sides
    built = record_calls(monkeypatch, FiniteLattice, "_square_rows")
    rels = [load("two-structures"), load("chain-8"), *itertools.islice(random_instances(InstanceGen(seed=11)), 40)]
    reached = 0
    for rel in rels:
        before = len(built)
        try:
            chi = find_centers(rel)
        except S2OF3Failed:
            continue
        if chi is not None:
            construct_from_centers(rel, chi)
            construct_from_centers_dual(rel, chi)
        assert centers._square_rows(rel.op()) is centers._square_rows(rel)
        assert len(built) == before + 1 and built[-1][0] is rel.lattice
        reached += 1
    assert reached > 20


def test_squares_witness_is_first_missing_edge(forced):
    # U's square with Up misses both bot->Up and bot->U; the edges are
    # scanned meet->center, meet->a, a->join, center->join
    lat = forced.lattice
    u, up = lat.index("U"), lat.index("Up")
    chi = list(range(lat.n))
    chi[u] = up
    rep = validate_centers(forced, CenterMap(tuple(chi)))
    assert rep["squares_in_weq"].witness == (u, Pair(lat.bottom, up))


def test_find_on_identities():
    rel = identity_rel()
    assert find_centers(rel) == CenterMap(tuple(range(rel.lattice.n)))


def test_find_and_enumerate_two_structures(two_structures):
    lat = two_structures.lattice
    found = enumerate_centers(two_structures)
    assert not found.truncated
    assert len(found.maps) == 4
    values = [chi.chi[lat.index("A")] for chi in found.maps]
    assert values == [lat.index(x) for x in ("A", "B", "Bp", "C")]
    assert find_centers(two_structures) == found.maps[0]
    # lexicographically least comes first
    assert found.maps == tuple(sorted(found.maps, key=lambda m: m.chi))


def test_enumeration_cap(two_structures):
    found = enumerate_centers(two_structures, limit=2)
    assert found.truncated and len(found.maps) == 2


def test_enumeration_limit_zero_still_proves_existence(two_structures, s2of3_fail):
    # a truncated enumeration has seen a map, even when the limit keeps none
    found = enumerate_centers(two_structures, limit=0)
    assert found.truncated and found.maps == ()
    with pytest.raises(S2OF3Failed):
        enumerate_centers(s2of3_fail, limit=0)


def test_enumeration_is_the_sorted_brute_force_list_on_the_small_world():
    # every one of the n^n maps checked by the per-pair reference scans:
    # the search's bound masks may neither drop nor add a map, nor reorder
    for rel in small_world():
        for side in (rel, rel.op()):
            if not check_s2of3(side).ok:
                with pytest.raises(S2OF3Failed):
                    enumerate_centers(side)
                continue
            n = side.lattice.n
            expected = [chi for chi in itertools.product(range(n), repeat=n)
                        if reference_check_centers(side, CenterMap(chi)).ok]
            found = enumerate_centers(side)
            assert not found.truncated and [m.chi for m in found.maps] == expected


def test_forced_center(forced):
    lat = forced.lattice
    chi = const_chi(forced, "C")
    assert validate_centers(forced, chi).ok
    assert find_centers(forced) == chi  # C is the only candidate


def test_s2of3_gate(s2of3_fail):
    with pytest.raises(S2OF3Failed):
        find_centers(s2of3_fail)
    with pytest.raises(S2OF3Failed):
        enumerate_centers(s2of3_fail)


def test_jchi_qchi(two_structures, forced):
    rel = identity_rel()
    chi = CenterMap(tuple(range(rel.lattice.n)))
    assert compute_Jchi(rel, chi).mask == rel.lattice.identity_mask
    assert compute_Qchi(rel, chi).mask == rel.lattice.identity_mask

    lat = two_structures.lattice
    chi = const_chi(two_structures, "C")
    assert compute_Jchi(two_structures, chi).mask == two_structures.weq.mask
    q = compute_Qchi(two_structures, chi)
    assert q.nonidentity_pairs() == []
    assert set(q.name_pairs()) == {("C", "C"), ("bot", "bot"), ("top", "top")}

    flat = forced.lattice
    fchi = const_chi(forced, "C")
    assert (flat.index("U"), flat.index("C")) in compute_Jchi(forced, fchi)
    assert (flat.index("C"), flat.index("D")) in compute_Qchi(forced, fchi)


def test_jchi_matches_scan_over_w(two_structures, forced, trunc1):
    """J_chi, read off grids on dense lattices, against a scan over W, on
    both op() sides; for valid center maps and for arbitrary maps."""
    rng = random.Random(3)
    wide = validate_relative(_wide(36), [("a0", "t"), ("b", "a1")], add_identities=True)
    rels = [two_structures, forced, trunc1, wide]
    rels += list(itertools.islice(random_instances(InstanceGen(seed=21)), 120))
    for rel in rels:
        for side in (rel, rel.op()):
            lat = side.lattice
            maps = [chi for chi in enumerate_centers(rel, limit=8).maps] if check_s2of3(rel).ok else []
            maps += [CenterMap(tuple(rng.randrange(lat.n) for _ in range(lat.n))) for _ in range(3)]
            for chi in maps:
                scan = sum(1 << i for i in range(len(lat.pairs))
                           if side.weq.mask >> i & 1 and lat.leq(lat.pairs[i].dst, chi(lat.pairs[i].dst)))
                assert compute_Jchi(side, chi).mask == scan


def test_wc_chi(two_structures):
    rel = identity_rel()
    chi = CenterMap(tuple(range(rel.lattice.n)))
    assert compute_Wc_chi(rel, chi).mask == rel.lattice.identity_mask
    assert compute_Wf_chi(rel, chi).mask == rel.lattice.identity_mask
    chi = const_chi(two_structures, "C")
    assert compute_Wc_chi(two_structures, chi).mask == two_structures.weq.mask
    # J_chi <= Wc_chi and Q_chi <= Wf_chi on every validated map
    for chi in enumerate_centers(two_structures).maps:
        assert compute_Jchi(two_structures, chi) <= compute_Wc_chi(two_structures, chi)
        assert compute_Qchi(two_structures, chi) <= compute_Wf_chi(two_structures, chi)


def test_product_centers(two_structures):
    lat = two_structures.lattice
    chi_b = const_chi(two_structures, "B")
    chi_bp = const_chi(two_structures, "Bp")
    prod = product_centers(two_structures, chi_b, chi_bp)
    assert prod == const_chi(two_structures, "A")
    assert product_centers(two_structures, chi_b, chi_b) == chi_b
    least = find_centers(two_structures)
    prod2 = product_centers(two_structures, least, chi_b)
    assert all(lat.leq(prod2.chi[a], least.chi[a]) and lat.leq(prod2.chi[a], chi_b.chi[a])
               for a in range(lat.n))


def test_center_laws_on_fixtures(two_structures, forced, trunc1):
    assert check_all_centers(two_structures) == 4
    assert check_all_centers(forced) >= 1
    assert check_all_centers(trunc1) >= 1
