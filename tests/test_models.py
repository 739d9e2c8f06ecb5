import pytest

from posetmodels import (
    CenterMap,
    ModelStruct,
    MorphClass,
    Pair,
    RelStruct,
    build_lattice,
    cofibrant_objects,
    compute_Jchi,
    compute_Qchi,
    compute_Wc_chi,
    compute_Wf,
    compute_Wf_chi,
    construct_from_centers,
    construct_from_centers_dual,
    construct_genMC,
    construct_newcofib,
    construct_newfib_dual,
    construct_terminal,
    enumerate_model_structures,
    extract_centers,
    factor_via_centers,
    fibrant_objects,
    find_centers,
    generating_sets,
    left_complement,
    load,
    recognize_finite,
    replacement,
    right_complement,
    validate_relative,
    verify_model,
)
from posetmodels import classes, models
from posetmodels.errors import (
    HypothesisFailed,
    InvalidInput,
    JNotInW,
    NotWeakEquivalence,
    RecognitionFailed,
)

from helpers import (
    check_center_invariants,
    check_model_invariants,
    memo_entry,
    on_grid_path,
    structure_from_acyclic_cofibs,
)
from test_centers import const_chi

LEFT_SIG = (
    frozenset({("A", "B"), ("A", "Bp"), ("A", "C"), ("B", "C"), ("Bp", "C")}),
    frozenset(),
)
RIGHT_SIG = (
    frozenset({("A", "C"), ("B", "C"), ("Bp", "C")}),
    frozenset({("A", "B"), ("A", "Bp")}),
)


def left_printed(rel):
    return structure_from_acyclic_cofibs(
        rel, [("A", "B"), ("A", "Bp"), ("A", "C"), ("B", "C"), ("Bp", "C")]
    )


def right_printed(rel):
    return structure_from_acyclic_cofibs(rel, [("A", "C"), ("B", "C"), ("Bp", "C")])


def trivial_structure(rel):
    lat = rel.lattice
    m = ModelStruct(rel, MorphClass.all_morphisms(lat), MorphClass.all_morphisms(lat))
    verify_model(m)
    return m


def identity_rel(names=("p", "q"), rels=(("p", "q"),)):
    lat = build_lattice(list(names), list(rels))
    return validate_relative(lat, [], add_identities=True)


def test_verify_trivial_structure():
    rel = identity_rel()
    assert trivial_structure(rel).verified


def test_verify_printed_structures(two_structures):
    left = left_printed(two_structures)
    right = right_printed(two_structures)
    assert left.verified and right.verified
    assert left.signature() == LEFT_SIG
    assert right.signature() == RIGHT_SIG


VERIFY_CHECKS = (
    "we_subcategory", "cof_subcategory", "fib_subcategory",
    "cof_afib.lifting", "cof_afib.left_maximal", "cof_afib.right_maximal", "cof_afib.factorization",
    "acof_fib.lifting", "acof_fib.left_maximal", "acof_fib.right_maximal", "acof_fib.factorization",
    "two_of_three",
)


def test_verify_model_check_names_in_order(two_structures, s2of3_fail):
    # three subcategories, two weak factorization systems of
    # four checks each, 2-of-3; a wide lattice of 40 elements is sparse
    atoms = [f"a{i}" for i in range(38)]
    wide = identity_rel(["b", *atoms, "t"], [("b", a) for a in atoms] + [(a, "t") for a in atoms])
    assert not on_grid_path(wide.lattice) and on_grid_path(two_structures.lattice)
    lat = s2of3_fail.lattice
    failing = ModelStruct(s2of3_fail, MorphClass.identities(lat), MorphClass.identities(lat))
    for m in (left_printed(two_structures), right_printed(two_structures), failing, trivial_structure(wide)):
        for side in (m, m.op()):
            assert tuple(c.name for c in verify_model(side).checks) == VERIFY_CHECKS
            assert tuple(c.name for c in classes.is_wfs(side.cof, side.fib).checks) == (
                "lifting", "left_maximal", "right_maximal", "factorization")
            assert tuple(c.name for c in classes.is_mls(side.cof, side.fib).checks) == (
                "lifting", "left_maximal", "right_maximal")
    assert not failing.verified


def test_verify_rejects_bad_we(s2of3_fail):
    lat = s2of3_fail.lattice
    m = ModelStruct(s2of3_fail, MorphClass.all_morphisms(lat), MorphClass.all_morphisms(lat))
    assert not verify_model(m).ok


def test_construct_terminal(two_structures):
    rel = identity_rel()
    t = construct_terminal(rel)
    assert t.cof.mask == rel.lattice.all_pairs_mask
    assert t.fib.mask == rel.lattice.all_pairs_mask

    t = construct_terminal(two_structures)
    assert t == left_printed(two_structures)
    # the corollary class ^complement(W_f) carries its own verified structure,
    # distinct here from the terminal cofibrations
    cof2 = left_complement(compute_Wf(two_structures))
    fib2 = right_complement(cof2 & two_structures.weq)
    m2 = ModelStruct(two_structures, cof2, fib2)
    assert verify_model(m2).ok
    assert cof2.mask != t.cof.mask


def test_construct_terminal_requires_yes(s2of3_fail):
    with pytest.raises(RecognitionFailed):
        construct_terminal(s2of3_fail)


def test_construct_from_centers(two_structures):
    rel = identity_rel()
    chi = CenterMap(tuple(range(rel.lattice.n)))
    assert construct_from_centers(rel, chi) == trivial_structure(rel)
    assert construct_from_centers_dual(rel, chi) == trivial_structure(rel)

    chi = const_chi(two_structures, "C")
    m = construct_from_centers(two_structures, chi)
    assert m == left_printed(two_structures)
    assert construct_from_centers_dual(two_structures, chi) == m


def test_center_classes_can_be_strictly_inside_the_complements_of_Jchi_Qchi():
    """The pentagon of the construct_from_centers_dual docstring: the dual's
    cofibrations lc(W_f^chi) are strictly inside lc(Q_chi), and the
    primal's fibrations rc(W_c^chi) strictly inside rc(J_chi)."""
    lat = build_lattice(["0", "x", "b", "c", "1"],
                        [("0", "x"), ("x", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
    rel = validate_relative(lat, [lat.pair_names(p) for p in lat.pairs])
    chi = CenterMap((lat.index("c"),) * lat.n)
    check_center_invariants(rel, chi)
    xb = lat.pair("x", "b")
    dual = construct_from_centers_dual(rel, chi)
    assert dual.cof == left_complement(compute_Wf_chi(rel, chi))
    assert xb in left_complement(compute_Qchi(rel, chi)) and xb not in dual.cof
    primal = construct_from_centers(rel, chi)
    assert primal.fib == right_complement(compute_Wc_chi(rel, chi))
    assert xb in right_complement(compute_Jchi(rel, chi)) and xb not in primal.fib
    # lc(Q_chi) gives a model structure here too, a different one
    cof = left_complement(compute_Qchi(rel, chi))
    other = ModelStruct(rel, cof, right_complement(cof & rel.weq))
    assert verify_model(other).ok and other != dual


def test_construct_genmc(two_structures):
    rel = identity_rel()
    assert construct_genMC(rel, MorphClass.identities(rel.lattice)) == trivial_structure(rel)

    w = two_structures.weq
    assert construct_genMC(two_structures, w) == left_printed(two_structures)
    with pytest.raises(JNotInW):
        construct_genMC(two_structures, MorphClass.all_morphisms(two_structures.lattice))
    # a small generator either yields a verified structure or a witnessed failure
    j = MorphClass.from_pairs(two_structures.lattice, [("A", "B")], add_identities=True)
    masks = {(m.cof.mask, m.fib.mask) for m in enumerate_model_structures(two_structures)}
    try:
        m = construct_genMC(two_structures, j)
        assert m.verified and (m.cof.mask, m.fib.mask) in masks
    except HypothesisFailed as e:
        assert e.which in (2, 3) and e.witness is not None


def test_construct_newcofib(two_structures):
    rel = identity_rel()
    triv = trivial_structure(rel)
    chi = CenterMap(tuple(range(rel.lattice.n)))
    assert construct_newcofib(triv, chi) == triv
    assert construct_newfib_dual(triv, chi) == triv

    right = right_printed(two_structures)
    chi = const_chi(two_structures, "C")
    enlarged = construct_newcofib(right, chi)
    assert enlarged.verified
    assert compute_Jchi(two_structures, chi) <= enlarged.acyclic_cofibrations()
    assert right.cof <= enlarged.cof
    # fibrations out of objects whose center sits below them survive
    qchi = compute_Qchi(two_structures, chi)
    lat = two_structures.lattice
    for (x, y) in right.fib:
        if (x, x) in qchi:
            assert (x, y) in enlarged.fib

    dual = construct_newfib_dual(right, chi)
    assert dual.verified and right.fib <= dual.fib


def test_cofibrant_fibrant_objects(two_structures):
    rel = identity_rel()
    triv = trivial_structure(rel)
    assert cofibrant_objects(triv) == tuple(range(rel.lattice.n))
    assert fibrant_objects(triv) == tuple(range(rel.lattice.n))

    lat = two_structures.lattice
    left = left_printed(two_structures)
    assert cofibrant_objects(left) == tuple(range(lat.n))
    assert [lat.name(x) for x in fibrant_objects(left)] == ["bot", "C", "top"]
    right = right_printed(two_structures)
    assert lat.index("B") not in cofibrant_objects(right)
    assert lat.index("A") in cofibrant_objects(right)


def test_extract_centers(two_structures):
    rel = identity_rel()
    assert extract_centers(trivial_structure(rel)) == CenterMap(tuple(range(rel.lattice.n)))
    chi = const_chi(two_structures, "C")
    assert extract_centers(left_printed(two_structures)) == chi
    assert extract_centers(right_printed(two_structures)) == chi


def test_replacement(two_structures, forced):
    lat = two_structures.lattice
    left = left_printed(two_structures)
    for a in cofibrant_objects(left):
        assert replacement(left, a, "cofibrant") == a
    right = right_printed(two_structures)
    assert replacement(right, lat.index("B"), "cofibrant") == lat.index("A")
    m = enumerate_model_structures(forced)[0]
    flat = forced.lattice
    assert replacement(m, flat.index("D"), "cofibrant") == flat.index("C")


def test_replacement_rejects_object_indices_outside_the_lattice(two_structures):
    m = right_printed(two_structures)
    n = two_structures.lattice.n
    for a in (-1, n, 1.0, True):
        for side in ("cofibrant", "fibrant"):
            with pytest.raises(InvalidInput, match=f"range\\({n}\\), got {a!r}$"):
                replacement(m, a, side)


def test_factor_via_centers(two_structures, forced):
    chi = const_chi(two_structures, "C")
    lat = two_structures.lattice
    a = lat.index("A")
    assert factor_via_centers(two_structures, chi, Pair(a, a)) == a
    assert factor_via_centers(two_structures, chi, Pair(a, lat.index("C"))) == lat.index("C")
    fchi = const_chi(forced, "C")
    flat = forced.lattice
    assert factor_via_centers(forced, fchi, Pair(flat.index("U"), flat.index("D"))) == flat.index("C")
    with pytest.raises(NotWeakEquivalence):
        factor_via_centers(two_structures, chi, Pair(lat.bottom, a))


def test_generating_sets(two_structures):
    rel = identity_rel()
    gcof, gacof = generating_sets(trivial_structure(rel))
    assert gcof.mask == rel.lattice.all_pairs_mask
    assert gacof.mask == rel.lattice.identity_mask

    left = left_printed(two_structures)
    gcof, gacof = generating_sets(left)
    assert gcof.mask == left.cof.mask and gacof.mask == two_structures.weq.mask
    right = right_printed(two_structures)
    gcof, gacof = generating_sets(right)
    assert set(gacof.name_pairs()) - {(x, x) for x in two_structures.lattice.names} == {
        ("A", "C"), ("B", "C"), ("Bp", "C"),
    }


def test_model_invariants_on_fixture_structures(two_structures, forced, trunc1):
    for rel in (two_structures, forced):
        for m in enumerate_model_structures(rel):
            check_model_invariants(m)
    check_model_invariants(construct_terminal(trunc1))


def test_constructions_are_enumerated(two_structures):
    masks = {(m.cof.mask, m.fib.mask) for m in enumerate_model_structures(two_structures)}
    dec = recognize_finite(two_structures)
    assert (dec.structure.cof.mask, dec.structure.fib.mask) in masks
    chi = find_centers(two_structures)
    for m in (
        construct_from_centers(two_structures, chi),
        construct_from_centers_dual(two_structures, chi),
    ):
        assert (m.cof.mask, m.fib.mask) in masks


def count_weq_checks(monkeypatch) -> list:
    """Record (check name, lattice) of every W-only check verify_model runs."""
    runs = []
    subcategory, two_of_three = classes.subcategory_check, models._two_of_three_check

    def counted_subcategory(s, name):
        if name == "we_subcategory":
            runs.append((name, s.lattice))
        return subcategory(s, name)

    def counted_two_of_three(rel):
        runs.append(("two_of_three", rel.lattice))
        return two_of_three(rel)

    monkeypatch.setattr(classes, "subcategory_check", counted_subcategory)
    monkeypatch.setattr(models, "subcategory_check", counted_subcategory)
    monkeypatch.setattr(models, "_two_of_three_check", counted_two_of_three)
    return runs


def test_weq_checks_run_once_per_side(monkeypatch):
    rel = load("two-structures")
    runs = count_weq_checks(monkeypatch)
    structs = enumerate_model_structures(rel)
    assert len(structs) >= 2  # so verify_model ran on two candidates at least
    primal = [("we_subcategory", rel.lattice), ("two_of_three", rel.lattice)]
    assert runs == primal
    chi = extract_centers(structs[0])
    for _ in range(2):
        construct_from_centers_dual(rel, chi)
    op = rel.op()
    assert runs == primal + [("we_subcategory", op.lattice), ("two_of_three", op.lattice)]
    # the op side holds its own checks, not those of rel
    assert memo_entry(op, "_weq_checks") == (
        classes.subcategory_check(op.weq, "we_subcategory"),
        models._two_of_three_check(op),
    )


def non_subcategory_rel() -> RelStruct:
    """The 3-chain x < y < z with W the identities, x -> y and y -> z: a
    bare RelStruct, not validated, whose W is no subcategory (x -> z is
    missing) and fails 2-of-3."""
    lat = build_lattice(["x", "y", "z"], [("x", "y"), ("y", "z")])
    return RelStruct(lat, MorphClass.from_pairs(lat, [("x", "y"), ("y", "z")], add_identities=True))


def test_weq_checks_fail_on_every_call_with_each_sides_witness(monkeypatch):
    runs = count_weq_checks(monkeypatch)
    rel = non_subcategory_rel()
    lat = rel.lattice
    everything = MorphClass.all_morphisms(lat)
    ids = MorphClass.identities(lat)
    for cof, fib in ((everything, ids), (ids, everything), (everything, ids)):
        check = verify_model(ModelStruct(rel, cof, fib))["we_subcategory"]
        assert not check.ok and check.witness == (0, 1, 2)
    # built after rel's checks are cached, the opposite still computes its own
    op = rel.op()
    reports = [verify_model(ModelStruct(op, everything.op(), ids.op())) for _ in range(2)]
    # failing checks are cached too: each side computes its checks once
    assert runs == [
        ("we_subcategory", lat), ("two_of_three", lat),
        ("we_subcategory", op.lattice), ("two_of_three", op.lattice),
    ]
    for report in reports:
        assert report["we_subcategory"].witness == (2, 1, 0)
        assert report["two_of_three"] == models._two_of_three_check(op)
