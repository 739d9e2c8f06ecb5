import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmodels import (
    MorphClass,
    Pair,
    build_lattice,
    enumerate_model_structures,
    factor_via_centers,
    factorize,
    find_centers,
    is_binary_coproduct_closed,
    is_binary_product_closed,
    is_composition_closed,
    is_mls,
    is_pullback_closed,
    is_pushout_closed,
    is_wfs,
    left_complement,
    lifts,
    proper_factorizations,
    pullback_of,
    pushout_of,
    right_complement,
)
from posetmodels.errors import InvalidInput, NoFactorization, NotComparable, NotPushoutClosed
from posetmodels.lattice import iter_bits

from helpers import naive_left_complement, naive_lifts, naive_right_complement
from test_lattice import lattices


@st.composite
def lattice_with_class(draw):
    lat = draw(lattices())
    chosen = draw(st.lists(st.sampled_from(list(lat.pairs)), unique=True, max_size=len(lat.pairs)))
    return lat, MorphClass.from_pairs(lat, chosen)


def W(rel):
    return rel.weq


def test_membership_and_construction(two_structures):
    # a pair is given by labels or indices, as from_pairs takes it; a known
    # pair that is no member, comparable or not, is absent, and an unknown
    # label is an input error
    lat = two_structures.lattice
    s = MorphClass.from_pairs(lat, [("A", "B")], add_identities=True)
    a, b = lat.index("A"), lat.index("B")
    assert ("A", "B") in s and (a, b) in s and Pair(a, b) in s and ("A", b) in s and (a, "B") in s
    assert ("C", "C") in s and (lat.index("C"),) * 2 in s
    assert ("A", "C") not in s and (a, lat.index("C")) not in s  # comparable, no member
    assert ("B", "Bp") not in s and ("B", "A") not in s  # incomparable, and reversed
    with pytest.raises(InvalidInput, match="unknown element label 'Z'"):
        ("A", "Z") in s
    assert s.has_identities()
    with pytest.raises(NotComparable):
        MorphClass.from_pairs(lat, [("B", "Bp")])


@pytest.mark.parametrize("src, dst, bad", [(99, 0, 99), (-1, 0, -1), (0, -1, -1), (0, 3, 3)])
def test_indices_outside_the_lattice_are_input_errors(src, dst, bad):
    # an int index must lie in range(n): a negative one does not count from
    # the end, and neither names an element in the diagnostic
    lat = build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c")])
    message = rf"object index must be in range\(3\), got {bad}$"
    with pytest.raises(InvalidInput, match=message):
        lat.pair(src, dst)
    with pytest.raises(InvalidInput, match=message):
        MorphClass.from_pairs(lat, [(0, 1), (src, dst)])
    assert lat.pair(0, 2) == Pair(0, 2) and MorphClass.from_pairs(lat, [(0, 2)]).pairs() == [Pair(0, 2)]
    with pytest.raises(NotComparable, match="'c' and 'a'"):
        MorphClass.from_pairs(lat, [(2, 0)])


@pytest.mark.parametrize("bad", [-1, 6, True, 1.5])
def test_factorize_proper_factorizations_and_lifts_check_indices(two_structures, bad):
    # a negative index would read the top's row, a bool element 1 and n past
    # the last row: each is an input error, as in pair and pushout_of
    lat, weq = two_structures.lattice, two_structures.weq
    every, top = MorphClass.all_morphisms(lat), lat.top
    calls = [lambda: factorize(every, every, Pair(bad, top)), lambda: factorize(every, every, Pair(0, bad)),
             lambda: proper_factorizations(weq, Pair(bad, top)), lambda: proper_factorizations(weq, Pair(0, bad)),
             lambda: lifts(lat, Pair(bad, 1), Pair(0, 1)), lambda: lifts(lat, Pair(0, bad), Pair(0, 1)),
             lambda: lifts(lat, Pair(0, 1), Pair(bad, 1)), lambda: lifts(lat, Pair(0, 1), Pair(0, bad))]
    for call in calls:
        with pytest.raises(InvalidInput, match=rf"^object index must be in range\(6\), got {re.escape(repr(bad))}$"):
            call()
    assert factorize(every, every, Pair(0, top)) == list(range(lat.n))
    assert lifts(lat, Pair(0, top), Pair(0, 1)) and proper_factorizations(weq, Pair(0, 0)) == []


def test_morphism_arguments_are_read_as_morphisms(two_structures):
    # a reversed pair (top, bot) is no morphism: each reader raises what
    # lattice.pair raises on it, and a plain index tuple reads as its Pair
    lat, weq = two_structures.lattice, two_structures.weq
    every, top, bot = MorphClass.all_morphisms(lat), lat.top, lat.bottom
    f = Pair(top, bot)
    calls = [(lambda: lifts(lat, f, Pair(0, 1)), "top", "bot"), (lambda: lifts(lat, Pair(0, 1), f), "top", "bot"),
             (lambda: factorize(weq, weq, f), "top", "bot"), (lambda: factorize(every, every, f), "top", "bot"),
             (lambda: proper_factorizations(weq, f), "top", "bot"), (lambda: pushout_of(lat, f, top), "top", "bot"),
             (lambda: pullback_of(lat, f, bot), "top", "bot"), (lambda: pushout_of(lat, Pair(1, 1), bot), "A", "bot"),
             (lambda: pullback_of(lat, Pair(1, 1), top), "top", "A")]
    for call, x, y in calls:
        with pytest.raises(NotComparable, match=f"^elements '{x}' and '{y}' are not comparable$"):
            call()
    a, b, c = (lat.index(x) for x in ("A", "B", "C"))
    assert lifts(lat, (a, b), (c, top)) == lifts(lat, Pair(a, b), Pair(c, top))
    assert not lifts(lat, (a, b), (a, c))
    assert factorize(every, every, (a, c)) == factorize(every, every, Pair(a, c)) == [a, b, lat.index("Bp"), c]
    assert proper_factorizations(weq, (a, c)) == proper_factorizations(weq, Pair(a, c)) == [b, lat.index("Bp"), c]
    assert pushout_of(lat, (a, b), lat.index("Bp")) == Pair(lat.index("Bp"), c)
    assert pullback_of(lat, (a, c), b) == Pair(a, b)


@pytest.mark.parametrize("bad", ["AC", "AB", (0, 1, 2), [0, 1, 2], (0,), 5, None, {0: 1}])
def test_a_morphism_argument_is_a_tuple_or_list_of_two(two_structures, bad):
    # a string of two labels is no morphism, nor a sequence of another
    # length or a non-sequence: each reader, and build_lattice for such a
    # relation, raises the input error that names the item, while
    # membership answers False
    rel, lat, weq = two_structures, two_structures.lattice, two_structures.weq
    every, top, chi = MorphClass.all_morphisms(lat), lat.top, find_centers(two_structures)
    calls = [lambda: lifts(lat, bad, (0, 1)), lambda: lifts(lat, (0, 1), bad), lambda: factorize(every, every, bad),
             lambda: proper_factorizations(weq, bad), lambda: proper_factorizations(weq, bad, certified=True),
             lambda: pushout_of(lat, bad, 0), lambda: pullback_of(lat, bad, top),
             lambda: factor_via_centers(rel, chi, bad), lambda: MorphClass.from_pairs(lat, [(0, 1), bad]),
             lambda: MorphClass.from_pairs(lat, [bad, ("A", "A")]), lambda: build_lattice(["A", "B"], [bad]),
             lambda: lat.morphism(bad), lambda: lat.op().morphism(bad)]
    for call in calls:
        with pytest.raises(InvalidInput, match=f"^a pair must be a tuple or list of two elements, got {re.escape(repr(bad))}$"):
            call()
    assert bad not in weq and bad not in every
    assert lat.morphism([0, 1]) == lat.morphism((0, 1)) == lat.pair(0, 1)


def test_membership_masks_check_their_inputs(two_structures):
    # a tuple of another length is no pair, and a mask that is no int (a
    # bool counts as none) is as bad as one out of range
    lat, weq = two_structures.lattice, two_structures.weq
    for side, s in ((lat, weq), (lat.op(), weq.op())):
        assert (0, 1, 2) not in s and (0,) not in s and () not in s and (0, 0) in s
        p = len(side.pairs)
        for mask in (True, False, 1.5, "1", None):
            with pytest.raises(InvalidInput, match=rf"^pair mask must be in range\(2\*\*{p}\)$"):
                MorphClass(side, mask)
        assert MorphClass(side, 1).pairs() == [side.pairs[0]]


def test_membership_is_false_for_anything_but_a_pair_of_elements(two_structures):
    # only a tuple or list of two element indices or labels can be a member:
    # a non-sequence, a string (even of two labels), a float, None, a bool
    # or an index outside range(n) is no member; an unknown label is an input error
    lat, weq = two_structures.lattice, two_structures.weq
    a, b = lat.index("A"), lat.index("B")
    for side, s, (x, y) in ((lat, weq, (a, b)), (lat.op(), weq.op(), (b, a))):
        for bad in (5, None, 1.5, "AB", "BA", "AA", (0, 1.5), (1.0, 2), (0, None), (None, 0), (True, True), (a, True),
                    (False, False), (-1, 0), (0, lat.n), [a, lat.n], {a: 0, b: 0}, (a, b, b)):
            assert bad not in s
        assert (a, a) in s and [a, a] in s and ("A", "A") in s and Pair(a, a) in s
        assert (x, y) in s and (side.name(x), side.name(y)) in s and [side.name(x), y] in s and Pair(x, y) in set(s)
        with pytest.raises(InvalidInput, match="unknown element label 'Z'"):
            ("A", "Z") in s


def test_lifts_examples(two_structures):
    lat = two_structures.lattice
    a, b, c, top = (lat.index(x) for x in ("A", "B", "C", "top"))
    for g in lat.pairs:
        assert lifts(lat, Pair(a, a), g)  # identities lift against everything
    assert lifts(lat, Pair(a, b), Pair(c, top))
    assert not lifts(lat, Pair(a, b), Pair(a, c))


@given(lattice_with_class(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_lifts_matches_naive(lc, rng):
    lat, _ = lc
    for _ in range(30):
        f = lat.pairs[rng.randrange(len(lat.pairs))]
        g = lat.pairs[rng.randrange(len(lat.pairs))]
        assert lifts(lat, f, g) == naive_lifts(lat, f, g)


def test_right_complement_examples(two_structures):
    lat = two_structures.lattice
    w = W(two_structures)
    ids = MorphClass.identities(lat)
    assert right_complement(ids).mask == lat.all_pairs_mask
    rc = right_complement(w)
    assert (lat.index("C"), lat.index("top")) in rc
    assert (lat.index("bot"), lat.index("A")) in rc
    assert (lat.index("A"), lat.index("C")) not in rc
    assert left_complement(MorphClass.all_morphisms(lat)).mask == lat.identity_mask


@given(lattice_with_class())
@settings(max_examples=50, deadline=None)
def test_complements_match_naive(lc):
    lat, s = lc
    assert set(right_complement(s)) == naive_right_complement(s)
    assert set(left_complement(s)) == naive_left_complement(s)


@given(lattice_with_class())
@settings(max_examples=50, deadline=None)
def test_complement_closure_laws(lc):
    # right complements are pullback- and binary-product-closed; dually left
    _, s = lc
    rc = right_complement(s)
    assert is_pullback_closed(rc).ok
    assert is_binary_product_closed(rc).ok
    lcomp = left_complement(s)
    assert is_pushout_closed(lcomp).ok
    assert is_binary_coproduct_closed(lcomp).ok


@given(lattice_with_class())
@settings(max_examples=50, deadline=None)
def test_galois_laws(lc):
    _, s = lc
    rc = right_complement(s)
    assert s <= left_complement(rc)
    assert right_complement(left_complement(rc)).mask == rc.mask


def test_proper_factorizations(two_structures):
    lat = two_structures.lattice
    w = W(two_structures)
    ids = MorphClass.identities(lat)
    for f in lat.pairs:
        assert proper_factorizations(ids, f) == []
    a, c, top = lat.index("A"), lat.index("C"), lat.index("top")
    # every (A, m) in W with m <= C and m != A, including the codomain itself
    assert proper_factorizations(w, Pair(a, c)) == [lat.index("B"), lat.index("Bp"), c]
    assert proper_factorizations(w, Pair(c, top)) == []
    assert proper_factorizations(w, Pair(c, top), certified=True) == []


def test_proper_factorizations_certified_mode(two_structures):
    lat = two_structures.lattice
    not_closed = MorphClass.from_pairs(lat, [("A", "B")], add_identities=True)
    assert not is_pushout_closed(not_closed).ok
    with pytest.raises(NotPushoutClosed):
        proper_factorizations(not_closed, Pair(lat.index("A"), lat.index("C")), certified=True)


@given(lattice_with_class())
@settings(max_examples=60, deadline=None)
def test_see_lift_equivalence(lc):
    # for pushout-closed j: no proper factorizations of f <=> j lifts left of f
    lat, seed = lc
    mask = seed.mask | lat.identity_mask
    # the equivalence needs pushout-closure, so close the seed first
    changed = True
    while changed:
        changed = False
        for i in list(range(len(lat.pairs))):
            if (mask >> i) & 1:
                for t in iter_bits(lat.pushout_targets[i]):
                    if (mask >> t) & 1 == 0:
                        mask |= 1 << t
                        changed = True
    j = MorphClass(lat, mask)
    assert is_pushout_closed(j).ok
    for f in lat.pairs:
        empty = proper_factorizations(j, f) == []
        assert empty == all(lifts(lat, g, f) for g in j)


def test_closure_checks(two_structures):
    lat = two_structures.lattice
    ids = MorphClass.identities(lat)
    assert is_pushout_closed(ids).ok and is_pullback_closed(ids).ok
    assert is_composition_closed(ids).ok and is_binary_coproduct_closed(ids).ok
    assert is_pushout_closed(W(two_structures)).ok
    not_closed = MorphClass.from_pairs(lat, [("A", "B"), ("B", "C")], add_identities=True)
    check = is_composition_closed(not_closed)
    assert not check.ok
    assert check.witness == (lat.index("A"), lat.index("B"), lat.index("C"))


def test_is_mls_examples(two_structures, two_chain):
    lat = two_structures.lattice
    assert is_mls(MorphClass.all_morphisms(lat), MorphClass.identities(lat)).ok
    w = W(two_structures)
    assert is_mls(w, right_complement(w)).ok
    clat = two_chain.lattice
    ids = MorphClass.identities(clat)
    rep = is_mls(ids, ids)
    assert not rep.ok
    assert not rep["right_maximal"].ok
    assert rep["right_maximal"].witness == (Pair(0, 1),)


def naive_lifting_witness(lc: MorphClass, rc: MorphClass):
    """The least f in lc, then the least g in rc, with f not lifting against g."""
    return next(((f, g) for f in lc for g in rc if not naive_lifts(lc.lattice, f, g)), None)


@given(lattice_with_class(), st.data())
@settings(max_examples=60, deadline=None)
def test_lifting_check_matches_naive_scan(lc, data):
    lat, s = lc
    other = MorphClass.from_pairs(lat, data.draw(st.lists(st.sampled_from(list(lat.pairs)), unique=True)))
    for left, right in ((s, other), (other, s)):
        check = is_mls(left, right)["lifting"]
        witness = naive_lifting_witness(left, right)
        assert (check.ok, check.witness) == (witness is None, witness)


def test_lifting_check_matches_naive_scan_on_failing_candidates(two_structures, forced):
    failing = 0
    for rel in (two_structures, forced):
        for m in enumerate_model_structures(rel):
            # the classes of a model structure, paired every way: most
            # pairings fail to lift
            classes = (m.cof, m.fib, m.acyclic_cofibrations(), m.acyclic_fibrations())
            for left in classes:
                for right in classes:
                    check = is_mls(left, right)["lifting"]
                    witness = naive_lifting_witness(left, right)
                    assert (check.ok, check.witness) == (witness is None, witness)
                    failing += not check.ok
    assert failing > 100


def test_is_wfs_examples(two_structures, trunc1):
    lat = two_structures.lattice
    assert is_wfs(MorphClass.all_morphisms(lat), MorphClass.identities(lat)).ok
    w = W(two_structures)
    assert is_wfs(w, right_complement(w)).ok
    from posetmodels import compute_Wc

    wc = compute_Wc(trunc1)
    assert is_wfs(wc, right_complement(wc)).ok


def test_factorize(two_structures, forced):
    lat = two_structures.lattice
    ids = MorphClass.identities(lat)
    alls = MorphClass.all_morphisms(lat)
    a = lat.index("A")
    assert a in factorize(alls, alls, Pair(a, a))
    # left printed structure: middles of (A, top) through (cof=all, fib&we=ids)
    assert factorize(alls, ids, Pair(a, lat.index("top"))) == [lat.index("top")]
    # forced fixture: (U, D) through (cof&we, fib) has the single middle C
    from posetmodels import enumerate_model_structures

    m = enumerate_model_structures(forced)[0]
    u, d = forced.lattice.index("U"), forced.lattice.index("D")
    assert factorize(m.acyclic_cofibrations(), m.fib, Pair(u, d)) == [forced.lattice.index("C")]
    with pytest.raises(NoFactorization):
        factorize(ids, ids, Pair(a, lat.index("B")), require=True)
