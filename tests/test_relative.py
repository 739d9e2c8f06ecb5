import itertools
import random

import pytest

from posetmodels import (
    InstanceGen,
    MorphClass,
    Pair,
    build_lattice,
    check_cw_factorization,
    check_s2of3,
    compute_Wc,
    compute_Wf,
    is_binary_coproduct_closed,
    is_composition_closed,
    is_pullback_closed,
    is_pushout_closed,
    load,
    random_instances,
    recognize_finite,
    relative,
    validate_relative,
)
from posetmodels.errors import (
    InternalCheckFailed,
    MissingIdentities,
    NotComparable,
    NotCompositionClosed,
)
from posetmodels.relative import recognition_report

from helpers import memo_entry, permuted, record_calls, permuted_instances, pushout_compose_close

FIXTURES = ("two-structures", "forced", "s2of3-fail", "chain-3", "chain-8", "trunc-1", "trunc-2")


def three_chain():
    return build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_validate_identities_only():
    lat = three_chain()
    rel = validate_relative(lat, [], add_identities=True)
    assert rel.components == ((0,), (1,), (2,))


def test_validate_two_structures(two_structures):
    rel = two_structures
    names = [tuple(rel.lattice.name(x) for x in comp) for comp in rel.components]
    assert names == [("bot",), ("A", "B", "Bp", "C"), ("top",)]
    assert rel.weq.has_identities()


def test_component_of_indexes_each_elements_component(two_structures, forced, s2of3_fail, trunc1, two_chain):
    # components against zigzag connectivity recomputed from W's pairs, on
    # index orders that are and are not linear extensions of the order
    rng = random.Random(5)
    fixtures = [two_structures, forced, s2of3_fail, trunc1, two_chain]
    rels = fixtures + [permuted(rel, rng) for rel in fixtures for _ in range(3)]
    rels += itertools.islice(permuted_instances(InstanceGen(seed=11)), 60)
    for rel in rels:
        n = rel.lattice.n
        linked = [1 << x for x in range(n)]
        for (a, b) in rel.weq:
            linked[a] |= 1 << b
            linked[b] |= 1 << a
        for k in range(n):  # transitive closure of the symmetric relation
            for x in range(n):
                if linked[x] >> k & 1:
                    linked[x] |= linked[k]
        expected = sorted({tuple(x for x in range(n) if m >> x & 1) for m in linked})
        assert list(rel.components) == expected
        for x in range(n):
            assert x in rel.components[rel.component_of[x]]


def test_validate_errors():
    lat = three_chain()
    with pytest.raises(MissingIdentities):
        validate_relative(lat, [("a", "b")])
    with pytest.raises(NotCompositionClosed) as exc:
        validate_relative(lat, [("a", "b"), ("b", "c")], add_identities=True)
    assert exc.value.witness == ("a", "b", "c")
    with pytest.raises(NotComparable):
        validate_relative(lat, [("c", "a")], add_identities=True)


def test_s2of3(two_structures, s2of3_fail):
    lat = three_chain()
    rel = validate_relative(lat, [], add_identities=True)
    assert check_s2of3(rel).ok
    assert check_s2of3(two_structures).ok
    rep = check_s2of3(s2of3_fail)
    assert not rep.ok
    assert rep.witness == (0, 1, 2)


def test_wc_wf(two_structures, trunc1):
    lat = three_chain()
    rel = validate_relative(lat, [], add_identities=True)
    assert compute_Wc(rel).mask == lat.identity_mask
    assert compute_Wf(rel).mask == lat.identity_mask
    assert compute_Wc(two_structures).mask == two_structures.weq.mask
    assert compute_Wf(two_structures).mask == two_structures.weq.mask
    # truncation: exactly the morphisms with escaping pushouts are cut,
    # the same ones the infinite example cuts; nothing extra at finite stage
    tl = trunc1.lattice
    wc = compute_Wc(trunc1)
    cut = {tl.pair_names(p) for p in trunc1.weq if p not in wc}
    assert cut == {("U1", "E1"), ("U1", "D1"), ("U1", "Dp1"), ("Up1", "Ep1"),
                   ("Up1", "D1"), ("Up1", "Dp1"), ("C1", "D1"), ("C1", "Dp1")}
    assert (tl.index("A0"), tl.index("A1")) in wc
    assert (tl.index("U1"), tl.index("C1")) in wc


def test_wc_wf_closures(two_structures, forced, trunc1):
    for rel in (two_structures, forced, trunc1):
        wc = compute_Wc(rel)
        assert is_composition_closed(wc).ok
        assert is_pushout_closed(wc).ok
        assert is_binary_coproduct_closed(wc).ok
        wf = compute_Wf(rel)
        assert is_composition_closed(wf).ok
        assert is_pullback_closed(wf).ok


def test_cw_factorization(two_structures, s2of3_fail):
    lat = three_chain()
    rel = validate_relative(lat, [], add_identities=True)
    assert check_cw_factorization(rel).ok
    assert check_cw_factorization(two_structures).ok
    # computed independently of the s2of3 verdict; here both checks fail
    rep = check_cw_factorization(s2of3_fail)
    assert not rep.ok and rep.witness == (Pair(0, 2),)
    assert not check_s2of3(s2of3_fail).ok


def test_recognize(two_structures, forced, s2of3_fail):
    dec = recognize_finite(two_structures)
    assert dec.yes and dec.structure.verified
    assert recognize_finite(forced).yes
    dec = recognize_finite(s2of3_fail)
    assert not dec.yes
    assert dec.structure is None
    assert dec.report["s2of3"].witness == (0, 1, 2)


def test_recognition_matches_oracle_on_fixtures(two_structures, s2of3_fail):
    from posetmodels import decide_by_enumeration

    assert decide_by_enumeration(two_structures) is True
    assert decide_by_enumeration(s2of3_fail) is False


def test_pushout_guard_implies_coproduct_closure():
    # the recognition guard checks pushout closure of W_c; the direct
    # coproduct scan is the oracle for the lemma that this is no weaker
    rels = [load(name) for name in FIXTURES]
    rels += [r for r, _ in zip(random_instances(InstanceGen(seed=5)), range(250))]
    for rel in rels:
        wc = compute_Wc(rel)
        assert is_pushout_closed(wc).ok
        assert is_composition_closed(wc).ok
        assert is_binary_coproduct_closed(wc).ok


def test_pushout_and_composition_closure_is_coproduct_closed():
    rng = random.Random(7)
    lattices = [load(name).lattice for name in ("two-structures", "trunc-1", "chain-8")]
    bigger = (r.lattice for r in random_instances(InstanceGen(seed=3)) if r.lattice.n >= 5)
    lattices += [lat for lat, _ in zip(bigger, range(12))]
    for lat in lattices:
        for _ in range(4):
            seed = [p for p in lat.pairs if p.src != p.dst and rng.random() < 0.15]
            s = MorphClass.from_pairs(lat, pushout_compose_close(lat, seed))
            assert is_pushout_closed(s).ok and is_composition_closed(s).ok
            assert is_binary_coproduct_closed(s).ok


def test_recognition_guard_fires_on_non_pushout_closed_wc():
    rel = load("two-structures")
    lat = rel.lattice
    bad_wc = MorphClass.from_pairs(lat, [("A", "B")], add_identities=True)
    assert rel._cached("compute_Wc", lambda _: bad_wc) is bad_wc
    with pytest.raises(InternalCheckFailed) as exc:
        recognition_report(rel)
    # the least member with an escaping pushout, and that pushout along A <= Bp
    witness = (Pair(lat.index("A"), lat.index("B")), Pair(lat.index("Bp"), lat.index("C")))
    assert is_pushout_closed(bad_wc).witness == witness
    assert str(exc.value).endswith(f"W_c fails the pushout_closed guard, witness (f, pushout) = {witness}")
    assert memo_entry(rel, "recognition_report") is None


def test_recognition_report_cached_per_structure():
    rel = load("s2of3-fail")
    report = recognition_report(rel)
    assert recognition_report(rel) is report
    # the opposite never starts from the primal's report, whenever it is built
    assert memo_entry(rel._reversed(), "recognition_report") is None
    o = rel.op()
    assert recognition_report(o).checks == check_s2of3(o).checks + check_cw_factorization(o).checks


def test_recognize_runs_the_guard_once(monkeypatch):
    calls = record_calls(monkeypatch, relative, "is_pushout_closed")
    for name in ("two-structures", "forced", "trunc-1", "chain-8"):
        rel = load(name)
        calls.clear()
        assert recognize_finite(rel).yes
        assert len(calls) == 1
        recognize_finite(rel)
        assert len(calls) == 1
