"""Exhaustive sweeps over every lattice of a few elements with every subcategory W.

The tier-1 sweep takes every (L, W) with |L| <= 5; the ``slow`` sweep, which
the default options deselect (run it with ``pytest -m slow``), takes
|L| = 6.  Random streams miss the pairs of structures whose zigzags once
failed; an exhaustive sweep misses none.
"""

import pytest

from posetmodels import (
    build_zigzag,
    construct_from_centers,
    construct_from_centers_dual,
    construct_newcofib,
    construct_newfib_dual,
    decide_by_enumeration,
    enumerate_centers,
    enumerate_model_structures,
    extract_centers,
    find_centers,
    homotopy_reduce,
    recognize_finite,
)
from posetmodels.errors import S2OF3Failed

from helpers import composition_closed_weqs, small_lattices


def _instances(n):
    for lat in small_lattices(n):
        yield from composition_closed_weqs(lat)


def _reduce_and_connect(rel, structures, contracts):
    """Reduce every structure over `rel` and connect every ordered pair of
    distinct ones by each zigzag of `contracts`; returns the pair count."""
    for m in structures:
        d_lat, d_model, _ = homotopy_reduce(m)
        assert d_model.verified and d_lat.n == len(rel.components)
    pairs = 0
    for m1 in structures:
        for m2 in structures:
            if m1 is m2:
                continue
            pairs += 1
            for contract in contracts:
                z = build_zigzag(m1, m2, contract=contract)
                assert z.all_edges_ok() and z.nodes[0] == m1 and z.nodes[-1] == m2
    return pairs


def test_zigzag_and_reduce_every_structure_of_at_most_five_elements():
    structures, pairs = [], []
    for n in range(1, 6):
        found = connected = 0
        for rel in _instances(n):
            ms = enumerate_model_structures(rel)
            found += len(ms)
            connected += _reduce_and_connect(rel, ms, (False, True))
        structures.append(found)
        pairs.append(connected)
    assert structures == [1, 3, 10, 58, 412]
    assert pairs == [0, 2, 24, 342, 5740]


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
        for m in ms:
            chi = extract_centers(m)
            assert construct_newcofib(m, chi).verified and construct_newfib_dual(m, chi).verified
        structures += len(ms)
        pairs += _reduce_and_connect(rel, ms, (False,))
    assert (instances, yes, maps, structures, pairs) == (28499, 758, 1576, 3474, 116184)
