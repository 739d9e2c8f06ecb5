"""Exhaustive sweeps over every lattice of a few elements with every subcategory W.

The tier-1 sweep takes every (L, W) with |L| <= 5; the ``slow`` sweep, which
the default options deselect (run it with ``pytest -m slow``), takes
|L| = 6.  Random streams miss the pairs of structures whose zigzags once
failed; an exhaustive sweep misses none.
"""

import math

import pytest

from posetmodels import (
    ModelStruct,
    MorphClass,
    RelStruct,
    build_zigzag,
    check_s2of3,
    compute_Jchi,
    construct_from_centers,
    construct_from_centers_dual,
    construct_genMC,
    construct_newcofib,
    construct_newfib_dual,
    construct_terminal,
    decide_by_enumeration,
    enumerate_centers,
    enumerate_model_structures,
    extract_centers,
    find_centers,
    homotopy_reduce,
    recognize_finite,
    replacement,
)
from posetmodels.errors import S2OF3Failed

from helpers import (
    all_weak,
    composition_closed_weqs,
    reference_quotient_order,
    reference_replacement,
    reference_zigzag,
    small_lattices,
    subcategory_masks,
)
from test_grid import _chain


def _instances(n):
    for lat in small_lattices(n):
        yield from composition_closed_weqs(lat)


def _masks(m):
    return m.cof.mask, m.fib.mask


def _reduce_and_connect(rel, structures, contracts, reference=False):
    """Reduce every structure over `rel` and connect every ordered pair of
    distinct ones by each zigzag of `contracts`, whose ends must be the
    argument objects and whose equal nodes must be one object.  When
    `contracts` has more than one entry, each pair is built again, in the
    reverse order, from a copy of m1 with an empty memo, so that every kind
    of zigzag is also read back from the memo.  The homotopy category
    depends only on W, so the reduced lattice, read through ``iota``, is L
    modulo W's components (:func:`reference_quotient_order`), one element
    per component.  With `reference`, each
    zigzag must have the nodes and directions of :func:`reference_zigzag`,
    and every replacement, on both sides, must be
    :func:`reference_replacement`.  Returns the pair count."""
    comp, order = reference_quotient_order(rel)
    for m in structures:
        d_lat, d_model, maps = homotopy_reduce(m)
        assert d_model.verified and d_lat.n == len(rel.components)
        assert sorted(comp[x] for x in maps.iota) == sorted(set(comp))
        assert all(d_lat.leq(i, j) == ((comp[x], comp[y]) in order)
                   for i, x in enumerate(maps.iota) for j, y in enumerate(maps.iota))
        if reference:
            for side, got in (("cofibrant", maps.cofibrant), ("fibrant", maps.fibrant)):
                expected = tuple(reference_replacement(m, a, side) for a in range(rel.lattice.n))
                assert got == expected
                assert tuple(replacement(m, a, side) for a in range(rel.lattice.n)) == expected
    pairs = 0
    for m1 in structures:
        for m2 in structures:
            if m1 is m2:
                continue
            pairs += 1
            expected = {c: reference_zigzag(m1, m2, c) for c in contracts} if reference else {}
            runs = [(m1, contracts)]
            if len(contracts) > 1:  # a copy of m1 starts with an empty memo
                runs.append((ModelStruct(m1.rel, m1.cof, m1.fib, m1.report), contracts[::-1]))
            for first, order in runs:
                for contract in order:
                    z = build_zigzag(first, m2, contract=contract)
                    assert z.all_edges_ok() and z.nodes[0] is first and z.nodes[-1] is m2
                    assert len({id(m) for m in z.nodes}) == len({_masks(m) for m in z.nodes})
                    if reference:
                        assert ([_masks(m) for m in z.nodes], z.directions) == expected[contract]
    return pairs


def test_canonical_subcategories_match_the_brute_force_scan():
    """Close-by-One lists every subcategory of each lattice with at most 5
    elements once, as the scan over every pair subset does; on the chains
    the counts are A006455."""
    for n in range(1, 6):
        for lat in small_lattices(n):
            masks = subcategory_masks(lat)
            assert len(set(masks)) == len(masks)
            assert sorted(masks) == sorted(rel.weq.mask for rel in composition_closed_weqs(lat))
    assert [len(subcategory_masks(_chain(n))) for n in range(2, 7)] == [2, 7, 40, 357, 4824]


@pytest.mark.slow
def test_seven_chain_subcategories():
    # the next A006455 term; the brute-force scan would test 2^21 subsets
    assert len(subcategory_masks(_chain(7))) == 96428


@pytest.mark.parametrize("n", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_chain_counts_match_their_closed_forms(n):
    """On the n-chain 0 < 1 < ... < n - 1: C_n weak factorization systems
    (the model structures with W every pair), 2^(n-1) subcategories W that
    admit a model structure, and C(2n - 1, n) model structures over all W.

    Proof of the middle count.  Strong 2-of-3 puts both factors of a
    W-morphism (i, k) in W, so (i, k) in W puts every cover (j, j + 1),
    i <= j < k, in W; W holds the composites of those covers, so the
    converse holds too.  So W is the set of pairs inside the blocks of the
    interval partition cut at the covers outside W, and each of the
    2^(n-1) subsets of the n - 1 covers gives one such W, which has strong
    2-of-3, as the factors of a pair inside a block stay in it.  A pushout
    of (i, k) in W along i <= c is (c, max(k, c)): the identity if c > k,
    and else a pair inside the block of i and k.  So W_c = W, and likewise
    W_f = W, and (i, k) factors as itself, in W_c, followed by (k, k), in
    W_f: the c/w factorization holds.  By the recognition principle the W
    that admit a model structure are exactly those with strong 2-of-3,
    which the oracle confirms W by W."""
    lat = _chain(n)
    cap = n * (n - 1) // 2
    admitting = structures = 0
    for mask in subcategory_masks(lat):
        rel = RelStruct(lat, MorphClass(lat, mask))
        found = len(enumerate_model_structures(rel, max_generators=cap))
        assert (found > 0) == check_s2of3(rel).ok
        admitting += found > 0
        structures += found
    wfs = len(enumerate_model_structures(all_weak(lat), max_generators=cap))
    assert (wfs, admitting, structures) == (math.comb(2 * n, n) // (n + 1), 2 ** (n - 1), math.comb(2 * n - 1, n))


def _check_extreme_cofibrations(rel, ms) -> None:
    """The terminal structure has the greatest cofibrations of the structures
    `ms` over `rel`, its dual the least (construct_terminal's proof), and
    both are among them."""
    if ms:
        top, bottom = construct_terminal(rel), construct_terminal(rel.op()).op()
        assert all(bottom.cof <= m.cof <= top.cof for m in ms)
        assert {_masks(top), _masks(bottom)} <= set(map(_masks, ms))


def test_zigzag_and_reduce_every_structure_of_at_most_five_elements():
    structures, pairs = [], []
    for n in range(1, 6):
        found = connected = 0
        for rel in _instances(n):
            ms = enumerate_model_structures(rel)
            _check_extreme_cofibrations(rel, ms)
            found += len(ms)
            connected += _reduce_and_connect(rel, ms, (False, True), reference=True)
        structures.append(found)
        pairs.append(connected)
    assert structures == [1, 3, 10, 58, 412]
    assert pairs == [0, 2, 24, 342, 5740]


def test_newcofib_returns_its_input_exactly_when_Jchi_is_acyclic_already():
    """On every structure and valid center map of |L| <= 5, on both op()
    sides, the enlargement is construct_genMC of acof(m) | J_chi, and it is
    m itself exactly when J_chi lies in the acyclic cofibrations acof(m)."""
    kept = enlarged = 0
    for n in range(1, 6):
        for rel in _instances(n):
            ms = enumerate_model_structures(rel)
            maps = enumerate_centers(rel).maps if ms else ()
            for m in ms:
                for side in (m, m.op()):
                    acof = side.acyclic_cofibrations()
                    for chi in maps:
                        j = compute_Jchi(side.rel, chi)
                        out = construct_newcofib(side, chi)
                        assert _masks(out) == _masks(construct_genMC(side.rel, acof | j))
                        assert (out is side) == (j <= acof)
                        kept += out is side
                        enlarged += out is not side
    assert (kept, enlarged) == (1584, 1952)


@pytest.mark.slow
def test_every_six_element_instance():
    """Recognition, the center search and the oracle agree on both op()
    sides; every center construction and its dual build, and so do the
    enlargements of every structure by its own centers; every structure
    reduces, and every ordered pair of distinct structures is connected.
    The 6-chain with W every pair has 15 generators, one over the oracle's
    default cap."""
    instances = yes = structures = pairs = maps = 0
    for rel in _instances(6):
        for side in (rel, rel.op()):
            decision = recognize_finite(side).yes
            try:
                centers = find_centers(side) is not None
            except S2OF3Failed:
                centers = False
            assert decision == centers == decide_by_enumeration(side, max_generators=15)
        instances += 1
        yes += decision
        if not decision:
            continue
        for chi in enumerate_centers(rel).maps:
            assert construct_from_centers(rel, chi).verified and construct_from_centers_dual(rel, chi).verified
            maps += 1
        ms = enumerate_model_structures(rel, max_generators=15)
        _check_extreme_cofibrations(rel, ms)
        for m in ms:
            chi = extract_centers(m)
            assert construct_newcofib(m, chi).verified and construct_newfib_dual(m, chi).verified
        structures += len(ms)
        pairs += _reduce_and_connect(rel, ms, (False,))
    assert (instances, yes, maps, structures, pairs) == (28499, 758, 1576, 3474, 116184)
