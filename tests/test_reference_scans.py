"""The kit-product checks against the per-pair scans they replaced.

Strong 2-of-3, 2-of-3, center validation and the center candidates are
decided by kit differences and the square rows S; the scans in
``helpers.reference_*`` are the bodies they replaced.  Whole reports,
witnesses included, must agree on both op() sides, and the checks must
not fall back to a scan on a passing instance.
"""

import itertools
import random

import pytest

from posetmodels import (
    CenterMap,
    InstanceGen,
    MorphClass,
    RelStruct,
    build_lattice,
    centers,
    check_s2of3,
    construct_from_centers,
    construct_from_centers_dual,
    enumerate_centers,
    find_centers,
    models,
    random_instances,
    recognize_finite,
    relative,
    validate_centers,
    validate_relative,
)
from posetmodels.errors import InvalidInput

from helpers import (
    composition_closed_weqs,
    on_grid_path,
    permuted_instances,
    reference_check_centers,
    reference_component_candidates,
    reference_s2of3,
    reference_two_of_three,
    small_lattices,
)
from test_grid import _wide

CENTER_CHECKS = ("well_formed", "monotone", "constant_on_components", "center_in_component",
                 "squares_in_weq", "idempotent")


def small_world():
    """Every W of every lattice with at most 4 elements."""
    return [rel for n in range(1, 5) for lat in small_lattices(n) for rel in composition_closed_weqs(lat)]


def wide_rels():
    """W choices on a bottom, 34 atoms and a top, which keeps pair-mask kernels."""
    lat = _wide(36)
    assert not on_grid_path(lat)
    every = [lat.pair_names(p) for p in lat.pairs if p.src != p.dst]
    choices = [[], every, [("a0", "t"), ("b", "a1")], [("b", "a0"), ("a0", "t"), ("b", "t")], [("b", "t")],
               [("b", "t"), ("b", "a3"), ("a3", "t"), ("a5", "t")]]
    return [validate_relative(lat, pairs, add_identities=True) for pairs in choices]


def center_maps(rel, rng: random.Random) -> list:
    """Valid maps of `rel`, each with one value moved, and random maps."""
    n = rel.lattice.n
    valid = list(enumerate_centers(rel, limit=6).maps) if check_s2of3(rel).ok else []
    maps = list(valid)
    for chi in valid:
        moved = list(chi.chi)
        moved[rng.randrange(n)] = rng.randrange(n)
        maps.append(CenterMap(tuple(moved)))
    maps += [CenterMap(tuple(rng.randrange(n) for _ in range(n))) for _ in range(3)]
    maps += [CenterMap((v,) * n) for v in range(n)]
    return maps


def assert_agree(rel, maps=()) -> list:
    """Both 2-of-3 checks, the candidates and each map's report agree with
    the reference scans on both op() sides; the failing check names."""
    failed = []
    for side in (rel, rel.op()):
        assert check_s2of3(side) == reference_s2of3(side)
        assert models._two_of_three_check(side) == reference_two_of_three(side)
        assert centers._component_candidates(side) == reference_component_candidates(side)
        for chi in maps:
            report = validate_centers(side, chi)
            assert report == reference_check_centers(side, chi), (side, chi)
            failed += [c.name for c in report.failures()]
    return failed


def test_small_world_agrees_with_the_scans():
    rng = random.Random(5)
    rels = small_world()
    assert len(rels) > 40
    failed = set()
    for rel in rels:
        failed.update(assert_agree(rel, center_maps(rel, rng)))
    assert failed == set(CENTER_CHECKS) - {"well_formed"}


def test_malformed_maps_agree_with_the_scans(two_structures):
    n = two_structures.lattice.n
    for values in [(0,) * (n - 1), (0,) * (n + 1), (n,) * n, (-1,) * n, (0.0,) * n, (False,) * n, ("0",) * n]:
        chi = CenterMap(values)
        report = validate_centers(two_structures, chi)
        assert report == reference_check_centers(two_structures, chi)
        assert [c.name for c in report.checks] == ["well_formed"] and not report.ok


def test_non_subcategories_agree_with_the_scans():
    # bare RelStructs over random pair sets, identities or not: W need not
    # be a subcategory, and both 2-of-3 checks still read every triple
    rng = random.Random(11)
    checked = 0
    for n in range(1, 6):
        for lat in small_lattices(n):
            for _ in range(12):
                rel = RelStruct(lat, MorphClass(lat, rng.getrandbits(len(lat.pairs))))
                for side in (rel, rel.op()):
                    assert check_s2of3(side) == reference_s2of3(side)
                    assert models._two_of_three_check(side) == reference_two_of_three(side)
                checked += 1
    assert checked > 100


def test_random_and_permuted_instances_agree_with_the_scans():
    rng = random.Random(7)
    rels = list(itertools.islice(random_instances(InstanceGen(seed=4)), 60))
    rels += list(itertools.islice(permuted_instances(InstanceGen(seed=9)), 60))
    rels += list(itertools.islice(permuted_instances(InstanceGen(seed=9), s2of3_only=True), 60))
    failed = set()
    for rel in rels:
        failed.update(assert_agree(rel, center_maps(rel, rng)))
    assert failed == set(CENTER_CHECKS) - {"well_formed"}


def test_wide_lattice_agrees_with_the_scans():
    rng = random.Random(13)
    outcomes = set()
    for rel in wide_rels():
        assert_agree(rel, center_maps(rel, rng))
        outcomes.add(check_s2of3(rel).ok)
    assert outcomes == {True, False}


def reference_search(monkeypatch, rel, limit: int):
    """``enumerate_centers`` run on the reference candidates."""
    with monkeypatch.context() as m:
        m.setattr(centers, "_component_candidates", reference_component_candidates)
        return enumerate_centers(rel, limit=limit)


def test_center_search_agrees_with_the_reference_candidates(monkeypatch):
    rels = [rel for rel in small_world() if check_s2of3(rel).ok]
    rels += list(itertools.islice(permuted_instances(InstanceGen(seed=3), s2of3_only=True), 80))
    rels += [rel for rel in wide_rels() if check_s2of3(rel).ok]
    found = 0
    for rel in rels:
        for side in (rel, rel.op()):
            expected = reference_search(monkeypatch, side, 64)
            assert enumerate_centers(side, limit=64) == expected
            assert find_centers(side) == (expected.maps[0] if expected.maps else None)
            found += len(expected.maps)
    assert found > 200


def block_chain(n: int, blocks: int):
    """The n-chain with W every pair inside one of `blocks` equal blocks."""
    names = [f"c{i}" for i in range(n)]
    size = n // blocks
    weq = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if i // size == j // size]
    return validate_relative(build_lattice(names, list(zip(names, names[1:]))), weq, add_identities=True)


def test_passing_checks_make_no_pair_scan(monkeypatch):
    # a passing instance is decided by kit products and row gathers alone:
    # no per-pair scan in the relative, model or center layers
    rel = block_chain(32, 4)
    calls = []
    for module in (relative, models, centers):
        for name in ("iter_bits", "center_square", "_square_in_weq"):
            def counted(*args, _name=name, _module=module, _f=getattr(module, name, None)):
                calls.append((_module.__name__, _name))
                return _f(*args)
            monkeypatch.setattr(module, name, counted, raising=False)
    assert recognize_finite(rel)
    chi = find_centers(rel)
    assert chi is not None
    construct_from_centers(rel, chi)
    construct_from_centers_dual(rel, chi)
    assert calls == []


def test_non_int_center_values_fail_well_formedness(two_structures):
    n = two_structures.lattice.n
    for values in [(0.0,) * n, (True,) * n]:
        report = validate_centers(two_structures, CenterMap(values))
        assert not report.ok and report.witness_check().name == "well_formed"


@pytest.mark.parametrize("limit", [1.5, True, "2", None])
def test_enumerate_centers_rejects_a_non_int_limit(two_structures, limit):
    with pytest.raises(InvalidInput, match="limit must be an int"):
        enumerate_centers(two_structures, limit=limit)


def test_square_rows_are_self_dual():
    # each op() side reads the square rows its opposite memoised, so the
    # rows built on the two sides must be the same masks
    rels = small_world() + wide_rels() + list(itertools.islice(permuted_instances(InstanceGen(seed=5)), 40))
    for rel in rels:
        op = rel.op()
        s = rel.lattice._square_rows(rel.weq.rows, rel.weq.cols)
        assert s == op.lattice._square_rows(op.weq.rows, op.weq.cols)
