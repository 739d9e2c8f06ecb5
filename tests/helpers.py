"""Shared test utilities: independent oracles and invariant batteries.

The naive_* functions re-derive results from the order relation alone and
deliberately avoid the library's precomputed tables, so tests comparing
against them are genuine dual-route checks.
"""

from __future__ import annotations

import itertools
import operator
import random
import sys

from posetmodels import (
    Check,
    MorphClass,
    ModelStruct,
    Pair,
    Report,
    Zigzag,
    build_lattice,
    check_s2of3,
    cofibrant_objects,
    compute_Jchi,
    compute_Qchi,
    compute_Wc_chi,
    compute_Wf_chi,
    construct_genMC,
    enumerate_centers,
    extract_centers,
    factor_via_centers,
    factorize,
    fibrant_objects,
    generating_sets,
    is_binary_coproduct_closed,
    is_binary_product_closed,
    is_identity_left_quillen,
    is_pullback_closed,
    is_pushout_closed,
    left_complement,
    lifts,
    product_centers,
    pullback_of,
    random_instances,
    replacement,
    right_complement,
    validate_relative,
    verify_model,
)
from posetmodels import lattice as lattice_module
from posetmodels import oracle
from posetmodels.centers import center_square
from posetmodels.errors import CapExceeded, CycleDetected, InvalidInput, NotALattice, Unbounded
from posetmodels.lattice import DEFAULT_MAX_ELEMENTS, FiniteLattice, _from_flags, _GridKit, iter_bits, low_bit
from posetmodels.models import _generated_by


def naive_upper_bounds(lattice, elems):
    return [u for u in range(lattice.n) if all(lattice.leq(e, u) for e in elems)]


def naive_lower_bounds(lattice, elems):
    return [v for v in range(lattice.n) if all(lattice.leq(v, e) for e in elems)]


def naive_join(lattice, a, b):
    """Unique least upper bound by exhaustive scan, or None."""
    uppers = naive_upper_bounds(lattice, [a, b])
    least = [u for u in uppers if all(lattice.leq(u, v) for v in uppers)]
    return least[0] if len(least) == 1 else None


def naive_meet(lattice, a, b):
    lowers = naive_lower_bounds(lattice, [a, b])
    greatest = [v for v in lowers if all(lattice.leq(u, v) for u in lowers)]
    return greatest[0] if len(greatest) == 1 else None


def naive_lifts(lattice, f, g):
    """Square condition straight from the order relation."""
    square = lattice.leq(f[0], g[0]) and lattice.leq(f[1], g[1])
    return (not square) or lattice.leq(f[1], g[0])


def naive_right_complement(s: MorphClass) -> set:
    lat = s.lattice
    members = s.pairs()
    return {g for g in lat.pairs if all(naive_lifts(lat, f, g) for f in members)}


def naive_left_complement(s: MorphClass) -> set:
    lat = s.lattice
    members = s.pairs()
    return {f for f in lat.pairs if all(naive_lifts(lat, f, g) for g in members)}


def compose_close(pairs) -> set:
    pairs = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def pushout_compose_close(lattice, pairs) -> set:
    """Least pair set containing `pairs` and closed under pushouts (a, b)
    -> (c, b v c) for every c >= a, and under composition; joins come from
    :func:`naive_join`."""
    out = set(pairs)
    while True:
        grown = compose_close(
            out
            | {
                (c, naive_join(lattice, b, c))
                for (a, b) in out
                for c in range(lattice.n)
                if lattice.leq(a, c)
            }
        )
        if grown == out:
            return out
        out = grown


def naive_closed_classes(rel) -> list[int]:
    """The masks of pushout_compose_close(ids | S) over every subset S of
    the non-identity weak equivalences, kept when they stay inside W.

    Closure is monotone and idempotent, so the closure of S is that of
    (closure of S minus its last generator) plus that generator; starts
    are memoised, and a subset whose smaller closure left W leaves it too.
    """
    lat = rel.lattice
    gens = [tuple(p) for p in rel.weq.nonidentity_pairs()]
    weq = {tuple(p) for p in rel.weq}
    ids = frozenset(pushout_compose_close(lat, {(x, x) for x in range(lat.n)}))
    closure = {(): ids}
    memo = {}
    for k in range(1, len(gens) + 1):
        for subset in itertools.combinations(range(len(gens)), k):
            below = closure[subset[:-1]]
            if below is not None:
                start = below | {gens[subset[-1]]}
                if start not in memo:
                    c = frozenset(pushout_compose_close(lat, start))
                    memo[start] = c if c <= weq else None
                below = memo[start]
            closure[subset] = below
    return sorted({MorphClass.from_pairs(lat, c).mask for c in closure.values() if c is not None})


def closed_classes(rel, cap: int) -> list[int]:
    """The oracle's closed classes of `rel` (``oracle._closed_grids`` on the
    lattice's grid route, at most `cap` generators), as sorted pair masks;
    W must be a subcategory."""
    lat = rel.lattice
    kit, to_grid, from_grid = lat._grid_route()
    grids = oracle._closed_grids(lat, kit, to_grid(rel.weq.bits), oracle._generators(rel, cap))
    return sorted(MorphClass._of(lat, from_grid(g)).mask for g in grids)


def reference_pushout_stable_part(rel, allowed: int) -> int:
    """The mask of the W-morphisms all of whose pushouts lie in the pair
    mask `allowed`, by a scan of the lattice's ``pushout_targets`` table."""
    targets = rel.lattice.pushout_targets
    return sum(1 << i for i in iter_bits(rel.weq.mask) if targets[i] & ~allowed == 0)


def reference_pushout_closed(s: MorphClass):
    """``is_pushout_closed``'s witness by a scan of ``pushout_targets``: the
    least member and its least escaping pushout in pair order, or None."""
    ps, targets, mask = s.lattice.pairs, s.lattice.pushout_targets, s.mask
    for i in iter_bits(mask):
        escaped = targets[i] & ~mask
        if escaped:
            return ps[i], ps[low_bit(escaped)]
    return None


def reference_s2of3(rel) -> Report:
    """``check_s2of3`` by a scan of every pair (a, b), a <= b, for the
    least failing c: the least triple (a, b, c) with (a, c) in W and
    (a, b) or (b, c) outside it."""
    lat = rel.lattice
    rows = rel.weq.rows
    witness = None
    for a in range(lat.n):
        if witness:
            break
        for b in iter_bits(lat.up_mask(a)):
            cs = lat.up_mask(b) & rows[a]  # c >= b with (a, c) in W
            if (rows[a] >> b) & 1:
                bad = cs & ~rows[b]  # the factor (b, c) is missing from W
            else:
                bad = cs  # the factor (a, b) is already missing
            if bad:
                witness = (a, b, low_bit(bad))
                break
    return Report((Check("s2of3", witness is None, witness),))


def reference_two_of_three(rel) -> Check:
    """``verify_model``'s 2-of-3 check by a scan of every pair (a, b),
    a <= b: the least (a, b, c) with exactly two of its pairs in W."""
    lat = rel.lattice
    rows = rel.weq.rows
    for a in range(lat.n):
        for b in iter_bits(lat.up_mask(a)):
            cs = lat.up_mask(b)
            g = rows[b] & cs  # c with (b, c) in we
            h = rows[a] & cs  # c with (a, c) in we
            if (rows[a] >> b) & 1:
                bad = (g & ~h) | (h & ~g)
            else:
                bad = g & h
            if bad:
                return Check("two_of_three", False, (a, b, low_bit(bad)))
    return Check("two_of_three", True)


def reference_square_in_weq(rel, a: int, c: int) -> bool:
    """Whether all four edges of the comparison square of a with c lie in W."""
    lat = rel.lattice
    ac = 1 << a | 1 << c
    return (rel.weq.rows[lat.meet(a, c)] & ac) == ac and (rel.weq.cols[lat.join(a, c)] & ac) == ac


def reference_check_centers(rel, chi) -> Report:
    """``validate_centers``' report by per-pair scans: monotonicity over
    every a <= b and each square edge by edge.  A well-formed map holds n
    ints, not bools, in range(n)."""
    lat = rel.lattice
    n = lat.n
    well_formed = len(chi.chi) == n and all(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n
                                            for v in chi.chi)
    checks = [Check("well_formed", well_formed)]
    if not well_formed:
        return Report(tuple(checks))

    witness = None
    for a in range(n):
        for b in iter_bits(lat.up_mask(a)):
            if not lat.leq(chi.chi[a], chi.chi[b]):
                witness = (a, b)
                break
        if witness:
            break
    checks.append(Check("monotone", witness is None, witness))

    witness = None
    for comp in rel.components:
        vals = {chi.chi[x] for x in comp}
        if len(vals) > 1:
            witness = tuple(comp)
            break
    checks.append(Check("constant_on_components", witness is None, witness))

    witness = None
    for a in range(n):
        if rel.component_of[chi.chi[a]] != rel.component_of[a]:
            witness = (a, chi.chi[a])
            break
    checks.append(Check("center_in_component", witness is None, witness))

    witness = None
    rows = rel.weq.rows
    for a in range(n):
        for p in center_square(rel, a, chi.chi[a]):
            if not rows[p.src] >> p.dst & 1:
                witness = (a, p)
                break
        if witness:
            break
    checks.append(Check("squares_in_weq", witness is None, witness))

    witness = None
    for a in range(n):
        if chi.chi[chi.chi[a]] != chi.chi[a]:
            witness = (a,)
            break
    checks.append(Check("idempotent", witness is None, witness))
    return Report(tuple(checks))


def reference_component_candidates(rel) -> list[list[int]]:
    """Per component: the elements whose square with every member lies in
    W, one :func:`reference_square_in_weq` per pair of members."""
    return [[c for c in comp if all(reference_square_in_weq(rel, a, c) for a in comp)] for comp in rel.components]


def reference_enumeration(rel) -> list:
    """The oracle's route through the library's single-structure parts:
    :func:`naive_closed_classes`, then ``_generated_by`` and ``verify_model``
    on each candidate.  ((cof mask, fib mask), report) of each structure
    that passes, sorted."""
    found = {}
    for mask in naive_closed_classes(rel):
        m = ModelStruct(rel, *_generated_by(rel, MorphClass(rel.lattice, mask)))
        if verify_model(m).ok:
            found[m.cof.mask, m.fib.mask] = m.report
    return sorted(found.items())


def reference_zigzag(m1: ModelStruct, m2: ModelStruct, contract: bool = False):
    """``build_zigzag``'s chain between distinct m1, m2 with each of its
    five interior nodes built and verified on its own: Ni through
    ``construct_genMC`` on acof(mi) | J_chii, and Ck, C as the verified
    structures that J_chik, J_chi generate.  ((cof mask, fib mask) of each
    node, directions)."""
    rel = m1.rel
    chi1, chi2 = extract_centers(m1), extract_centers(m2)
    chi = product_centers(rel, chi1, chi2)

    def generated(j):
        m = ModelStruct(rel, *_generated_by(rel, j))
        assert verify_model(m).ok
        return m

    def enlarged(m, c):
        return construct_genMC(rel, m.acyclic_cofibrations() | compute_Jchi(rel, c))

    nodes = [m1, enlarged(m1, chi1), *(generated(compute_Jchi(rel, c)) for c in (chi1, chi, chi2)),
             enlarged(m2, chi2), m2]
    z = Zigzag(nodes, ["lr", "rl", "rl", "lr", "lr", "rl"])
    assert z.all_edges_ok()
    if contract:
        reference_contract(z)
    return [(m.cof.mask, m.fib.mask) for m in z.nodes], z.directions


def reference_contract(z: Zigzag) -> None:
    """The contraction ``build_zigzag(contract=True)`` once ran, in place:
    a pass that drops the node after the first repeated one, and only when
    no node repeats, a pass that drops the first interior node whose
    neighbours have a direct identity left Quillen functor, lr tried before
    rl; both restart after each drop."""
    changed = True
    while changed:
        changed = False
        for i in range(len(z.nodes) - 1):
            if z.nodes[i] == z.nodes[i + 1]:
                del z.nodes[i + 1]
                del z.directions[i]
                changed = True
                break
        else:
            for i in range(1, len(z.nodes) - 1):
                left, right = z.nodes[i - 1], z.nodes[i + 1]
                if is_identity_left_quillen(left, right):
                    del z.nodes[i]
                    z.directions[i - 1 : i + 1] = ["lr"]
                    changed = True
                    break
                if is_identity_left_quillen(right, left):
                    del z.nodes[i]
                    z.directions[i - 1 : i + 1] = ["rl"]
                    changed = True
                    break


def reference_replacement(m: ModelStruct, a: int, side: str) -> int:
    """The per-element route ``replacement`` once took, written on m for
    both sides: the unique middle g of ``factorize`` of bottom -> a into a
    cofibration then an acyclic fibration, with (g, chi(a)) an acyclic
    cofibration; fibrant, the unique middle g of a -> top into an acyclic
    cofibration then a fibration, with (chi(a), g) an acyclic fibration."""
    lat = m.lattice
    acof, afib = m.acyclic_cofibrations(), m.acyclic_fibrations()
    center = extract_centers(m).chi[a]
    if side == "cofibrant":
        [g] = factorize(m.cof, afib, Pair(lat.bottom, a))
        assert (g, a) in afib and (g, center) in acof
    else:
        [g] = factorize(acof, m.fib, Pair(a, lat.top))
        assert (a, g) in acof and (center, g) in afib
    return g


def reference_quotient_order(rel) -> tuple[list[int], set]:
    """L modulo W's components, naively: comp[x] is the least element
    joined to x by a path of W-morphisms, either way round, and (i, j) is
    in the order when comparisons a_1 <= b_1, ..., a_k <= b_k lead from
    component i to j: a_1 in i, b_k in j, and each b_t in the component
    of a_(t+1)."""
    lat, n = rel.lattice, rel.lattice.n
    comp = list(range(n))
    for _ in range(n):  # the least label spreads one W-morphism a round
        for a, b in rel.weq.pairs():
            comp[a] = comp[b] = min(comp[a], comp[b])
    order = {(comp[a], comp[b]) for a in range(n) for b in range(n) if lat.leq(a, b)}
    for k in set(comp):  # Warshall's transitive closure
        order |= {(i, j) for i, k1 in order if k1 == k for k2, j in order if k2 == k}
    return comp, order


def small_lattices(n: int) -> list:
    """Every n-element lattice up to isomorphism.  Each is a bottom, a top
    and a naturally labelled poset on the n - 2 elements between them (its
    relations (i, j) have i < j); those that are lattices are kept, one per
    class: the least sorted relation list over relabellings of the middle."""
    if n == 1:
        return [build_lattice(["0"], [])]
    middle = range(1, n - 1)
    top = str(n - 1)
    found = {}
    for chosen in itertools.product((False, True), repeat=len(list(itertools.combinations(middle, 2)))):
        order = {p for p, keep in zip(itertools.combinations(middle, 2), chosen) if keep}
        if any((i, j) in order and (j, k) in order and (i, k) not in order for i in middle for j in middle for k in middle):
            continue  # not transitively closed: its closure is listed on its own
        key = min(tuple(sorted((perm[i - 1], perm[j - 1]) for (i, j) in order))
                  for perm in itertools.permutations(middle))
        if key in found:
            continue
        names = [str(x) for x in range(n)]
        rels = [("0", str(x)) for x in middle] + [(str(x), top) for x in middle] + [("0", top)]
        try:
            found[key] = build_lattice(names, rels + [(str(i), str(j)) for (i, j) in order])
        except NotALattice:
            found[key] = None
    return [lat for lat in found.values() if lat is not None]


def composition_closed_weqs(lat) -> list:
    """Every subcategory W of `lat`: the identities plus each
    composition-closed set of non-identity pairs, as relative structures."""
    pairs = [p for p in lat.pairs if p.src != p.dst]
    out = []
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        w = {p for p, keep in zip(pairs, chosen) if keep}
        if all((a, d) in w for (a, b) in w for (c, d) in w if b == c):
            out.append(validate_relative(lat, [lat.pair_names(p) for p in w], add_identities=True))
    return out


def subcategory_masks(lat) -> list[int]:
    """The pair mask of every subcategory W of `lat`, each once: Close-by-One
    over transitive closure, the scheme of the oracle's canonical growth.

    The non-identity pairs (a, b) are ordered by their grid bit a*n + b,
    and a class is held as its grid of non-identity pairs and its rows
    (rows[x] the y with (x, y) in it).  A class s reached with start j has
    the children t = the transitive closure of s + {g_i}, i >= j, g_i not
    in s, that hold the same pairs below g_i as s; each starts its own
    children at i + 1.  Adding (a, b) to a transitively closed s adds
    (x, y) for every x that is a or has (x, a) in s and every y that is b
    or has (b, y) in s."""
    n, index = lat.n, reference_pair_index(lat)
    gens = sorted((a * n + b, a, b) for a, b in lat.pairs if a != b)
    grids = []

    def grow(grid, rows, start):
        grids.append(grid)
        for i in range(start, len(gens)):
            bit, a, b = gens[i]
            if grid >> bit & 1:
                continue
            succ = rows[b] | 1 << b
            new = [row | succ if x == a or row >> a & 1 else row for x, row in enumerate(rows)]
            t = sum(row << x * n for x, row in enumerate(new))
            if not (t ^ grid) & ((1 << bit) - 1):
                grow(t, new, i + 1)

    grow(0, [0] * n, 0)
    ids = lat.identity_mask
    return [ids | sum(1 << index[Pair(*divmod(bit, n))] for bit in iter_bits(grid)) for grid in grids]


def memo_entry(x, key):
    """The value memoised on x under `key` (see ``Dualizable``), or None."""
    return x._memo.get(key)


def on_grid_path(lat) -> bool:
    """Whether `lat` keeps grid kernels (the dense side of the density gate)
    rather than pair-mask ones."""
    return isinstance(lat._kit, _GridKit)


def record_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that appends each call's
    positional arguments, as a tuple, to the returned list and then calls
    the original; monkeypatch undoes it after the test."""
    calls = []
    f = getattr(owner, name)

    def record(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


def permuted(rel, rng: random.Random):
    """`rel` rebuilt from its cover pairs with its elements indexed in an
    order drawn from `rng`.  Labels, order and W stay the same, but index
    order is in general not a linear extension of the order, which the
    indices of :func:`random_instances` always are."""
    lat = rel.lattice
    names = list(lat.names)
    rng.shuffle(names)
    covers = [lat.pair_names(p) for p in lat.cover_pairs()]
    return validate_relative(build_lattice(names, covers), rel.weq.name_pairs())


def permuted_instances(gen, s2of3_only: bool = False):
    """``random_instances(gen, s2of3_only)``, each instance re-indexed by
    :func:`permuted` with an order drawn from a generator seeded by
    gen.seed; the underlying stream is left as it is."""
    rng = random.Random(gen.seed)
    for rel in random_instances(gen, s2of3_only):
        yield permuted(rel, rng)


def structure_from_acyclic_cofibs(rel, name_pairs) -> ModelStruct:
    """Rebuild a printed structure from its decorated acyclic cofibrations,
    using WFS maximality for the full classes."""
    a = MorphClass.from_pairs(rel.lattice, name_pairs, add_identities=True)
    fib = right_complement(a)
    cof = left_complement(fib & rel.weq)
    m = ModelStruct(rel, cof, fib)
    verify_model(m)
    return m


def all_weak(lat):
    """`lat` with W every pair."""
    return validate_relative(lat, [lat.pair_names(p) for p in lat.pairs if p.src != p.dst], add_identities=True)


def pentagon():
    """The pentagon 0 < 1 < 2 < 4, 0 < 3 < 4 with W every pair."""
    names = ["0", "1", "2", "3", "4"]
    return all_weak(build_lattice(names, [("0", "1"), ("1", "2"), ("2", "4"), ("0", "3"), ("3", "4")]))


def pentagon_pair(rel):
    """Two verified structures on :func:`pentagon`: a with cofibrations the
    identities, b with cofibrations 0->3, 1->4, 2->4 (centers constant at 3)."""
    a = structure_from_acyclic_cofibs(rel, [])
    b = structure_from_acyclic_cofibs(rel, [("0", "3"), ("1", "4"), ("2", "4")])
    assert a.verified and b.verified
    assert b.fib.nonidentity_pairs() == [Pair(0, 1), Pair(0, 2), Pair(1, 2), Pair(3, 4)]
    return a, b


def check_model_invariants(m: ModelStruct) -> None:
    """Every per-structure law of the verified world; raises on violation."""
    assert m.verified
    rel, lat = m.rel, m.lattice
    assert check_s2of3(rel).ok

    cofib = set(cofibrant_objects(m))
    fibr = set(fibrant_objects(m))
    for (a, b) in lat.pairs:
        if b in cofib:
            assert (a, b) in m.cof, f"morphism into cofibrant {lat.name(b)} not a cofibration"
        if a in fibr:
            assert (a, b) in m.fib, f"morphism out of fibrant {lat.name(a)} not a fibration"

    chi = extract_centers(m)
    acof = m.acyclic_cofibrations()
    afib = m.acyclic_fibrations()
    for (u, c) in rel.weq:
        if chi.chi[c] == c:
            assert (u, c) in acof, "weak equivalence into a center not an acyclic cofibration"
        if chi.chi[u] == u:
            assert (u, c) in afib, "weak equivalence out of a center not an acyclic fibration"

    for f in lat.pairs:
        assert len(factorize(m.cof, afib, f)) == 1
        assert len(factorize(acof, m.fib, f)) == 1
    cofib_mask = 0
    for x in cofib:
        cofib_mask |= 1 << x
    for a in range(lat.n):
        # the canonical zigzag a <= gamma(a) -> chi(a) is the only one whose
        # middle is cofibrant (degenerate identity legs admit others)
        zigzags = [
            g
            for g in range(lat.n)
            if (cofib_mask >> g) & 1
            and (g, a) in afib
            and lat.leq(g, chi.chi[a])
            and (g, chi.chi[a]) in acof
        ]
        assert zigzags == [replacement(m, a, "cofibrant")], (
            f"zigzag to center of {lat.name(a)} not unique: {zigzags}"
        )
        replacement(m, a, "fibrant")

    assert is_pullback_closed(m.fib).ok and is_binary_product_closed(m.fib).ok
    assert is_pushout_closed(m.cof).ok and is_binary_coproduct_closed(m.cof).ok
    assert is_pullback_closed(afib).ok and is_pushout_closed(acof).ok
    generating_sets(m)


def check_center_invariants(rel, chi) -> None:
    """Every law of a validated center map; raises on violation."""
    lat = rel.lattice
    jchi = compute_Jchi(rel, chi)
    qchi = compute_Qchi(rel, chi)
    wc = compute_Wc_chi(rel, chi)
    wf = compute_Wf_chi(rel, chi)
    for j in jchi:
        for q in qchi:
            assert lifts(lat, j, q)
    assert is_binary_coproduct_closed(jchi).ok
    assert is_binary_product_closed(qchi).ok
    for (a, b) in lat.pairs:
        if chi.chi[a] == chi.chi[b]:
            assert (a, b) in rel.weq
    for w in wc:
        for q in qchi:
            assert lifts(lat, w, q)
    for j in jchi:
        for w in wf:
            assert lifts(lat, j, w)
    assert jchi <= wc and qchi <= wf
    # the lemmas of construct_from_centers and its dual; equality can fail
    assert right_complement(wc) <= right_complement(jchi)
    assert left_complement(wf) <= left_complement(qchi)
    for f in rel.weq:
        mid = factor_via_centers(rel, chi, f)
        u = lat.join(f.src, chi.chi[f.src])
        q = Pair(u, lat.join(f.dst, chi.chi[f.src]))
        assert q in qchi
        assert pullback_of(lat, q, f.dst) == Pair(mid, f.dst)


def check_all_centers(rel, limit: int = 64) -> int:
    n = 0
    for chi in enumerate_centers(rel, limit=limit).maps:
        check_center_invariants(rel, chi)
        n += 1
    return n


def line_events(fn) -> int:
    """The number of line events that ``fn()`` runs in frames of the
    posetmodels package, counted through ``sys.settrace``: Python-level
    work, with no clock in it.  The trace function in force before is put
    back afterwards."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_globals.get("__name__", "").startswith("posetmodels") else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(before)
    return count


# -- the pair layer's per-pair loops, as they were before the row passes --

def reference_pairs(lat) -> tuple:
    """``FiniteLattice.pairs``, one Pair built per step."""
    # rows ascending, each row's bits ascending: lexicographic already;
    # in op() the primal up-masks are this side's down-masks
    if lat.opposite:
        return tuple(Pair(b, a) for a in range(lat.n) for b in iter_bits(lat._down[a]))
    return tuple(Pair(a, b) for a in range(lat.n) for b in iter_bits(lat._up[a]))


def reference_pair_index(lat) -> dict:
    return {p: i for i, p in enumerate(lat.pairs)}


def reference_cover_pairs(lat) -> list:
    """``FiniteLattice.cover_pairs``, one pair and its interval per step."""
    out = []
    for a in range(lat.n):
        strict_up = lat._up[a] & ~(1 << a)
        for b in iter_bits(strict_up):
            between = lat._up[a] & lat._down[b] & ~(1 << a) & ~(1 << b)
            if between == 0:
                out.append(Pair(a, b))
    return out


def reference_identity_mask(lat) -> int:
    return _from_flags([a == b for a, b in lat.pairs])


def reference_name_pairs(lat) -> tuple:
    """The name table that rendering read: one ``pair_names`` call per pair, in pair order."""
    return tuple(map(lat.pair_names, lat.pairs))


def reference_grid_positions(up: list[int]) -> tuple[list, list, list]:
    """The positions of ``_GridKit``'s gathers from a pair mask, to a pair
    mask and for the transpose, one pair or grid bit per step."""
    n = len(up)
    nn = n * n
    cells = [a * n + b for a in range(n) for b in iter_bits(up[a])]  # pair i's grid bit
    p = len(cells)
    ints = list(range(nn + 1))  # one int object per position value
    source = [ints[p]] * nn  # grid bit -> index of its pair's digit in the mask string, or the pad
    for i, t in enumerate(cells):
        source[t] = ints[p - 1 - i]
    return (list(reversed(source)), [ints[nn - 1 - t] for t in reversed(cells)],
            [ints[b * n + a] for a in range(n) for b in range(n)])


def reference_grid_kit(lat: FiniteLattice) -> _GridKit:
    """``_GridKit(lat)`` with its gathers over :func:`reference_grid_positions`."""
    kit = _GridKit(lat)
    kit._from_mask, kit._to_mask, kit._transpose = map(lambda ps: operator.itemgetter(*ps),
                                                       reference_grid_positions(lat._up))
    return kit


def reference_pair_list(raw, name: str) -> list[tuple[str, str]]:
    """``formats._pair_list``, one item per step."""
    if not isinstance(raw, list):
        raise InvalidInput(f"field {name!r} must be a list of two-element label arrays")
    out = []
    for k, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2 or not all(isinstance(x, str) for x in item):
            raise InvalidInput(f"field {name}[{k}] must be a two-element label array")
        out.append((item[0], item[1]))
    return out


def reference_from_pairs(lattice, pairs, add_identities: bool = False) -> MorphClass:
    """``MorphClass.from_pairs``, one Pair built per pair.  It reads a bool
    index as the int it equals, when that makes a pair."""
    index = reference_pair_index(lattice)
    flags = bytearray(len(index))
    for (src, dst) in pairs:
        p = lattice._pair_of(src, dst)
        if p not in index:
            lattice.pair(*p)  # raises: an index outside range(n), or incomparable
        flags[index[p]] = 1
    return MorphClass(lattice, _from_flags(flags) | (lattice.identity_mask if add_identities else 0))


def reference_build_lattice(names, relations, max_elements: int = DEFAULT_MAX_ELEMENTS) -> FiniteLattice:
    """``build_lattice`` with its cycle check and ``down`` one pair per step."""
    names = list(names)
    n = len(names)
    if n == 0:
        raise Unbounded("an empty element list has no bottom or top")
    if n > max_elements:
        raise CapExceeded("lattice elements", max_elements, n)
    seen = set()
    for name in names:
        if name in seen:
            raise InvalidInput(f"duplicate element label {name!r}")
        seen.add(name)
    index = {name: i for i, name in enumerate(names)}

    up = [1 << a for a in range(n)]
    for (x, y) in relations:
        if x not in index:
            raise InvalidInput(f"relation references unknown label {x!r}")
        if y not in index:
            raise InvalidInput(f"relation references unknown label {y!r}")
        up[index[x]] |= 1 << index[y]
    for k in range(n):  # Warshall's transitive closure
        for a in range(n):
            if up[a] >> k & 1:
                up[a] |= up[k]

    for a in range(n):
        for b in iter_bits(up[a]):
            if b != a and (up[b] >> a) & 1:
                raise CycleDetected(names[a], names[b])
    n_pairs = sum(m.bit_count() for m in up)
    if n_pairs > lattice_module.MAX_PAIRS:
        raise CapExceeded("comparable pairs", lattice_module.MAX_PAIRS, n_pairs)

    down = [0] * n
    for a in range(n):
        for b in iter_bits(up[a]):
            down[b] |= 1 << a

    by_up = {m: u for u, m in enumerate(up)}
    by_down = {m: v for v, m in enumerate(down)}
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            least = by_up.get(up[a] & up[b])
            if least is None:
                raise NotALattice(names[a], names[b], "join")
            join_table[a][b] = join_table[b][a] = least
            greatest = by_down.get(down[a] & down[b])
            if greatest is None:
                raise NotALattice(names[a], names[b], "meet")
            meet_table[a][b] = meet_table[b][a] = greatest

    every = (1 << n) - 1
    grid, grid_t = reference_grids(up, down)
    return FiniteLattice(names, up, down, grid, grid_t, join_table, meet_table, by_up[every], by_down[every])


def reference_grids(up: list[int], down: list[int]) -> tuple[int, int]:
    """The order grid and its transpose, row a up[a] and down[a], summed row by row."""
    n = len(up)
    return sum(row << a * n for a, row in enumerate(up)), sum(row << a * n for a, row in enumerate(down))
