"""Duality: each dual construction is its primal on the opposite lattice.

`snapshot` records every dual's output on a built-in fixture: returned
masks, closure witnesses, and the type, message and witness of each
failure.  `PINNED` holds those snapshots as the hand-written duals produced
them; the op() route must reproduce them exactly.
"""

import ast
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from posetmodels import (
    InstanceGen,
    MorphClass,
    ModelStruct,
    Pair,
    RelStruct,
    build_lattice,
    check_cw_factorization,
    check_s2of3,
    compute_Qchi,
    compute_Wc,
    compute_Wf,
    compute_Wf_chi,
    construct_from_centers_dual,
    construct_terminal,
    construct_genMC_dual,
    construct_newfib_dual,
    enumerate_centers,
    enumerate_model_structures,
    extract_centers,
    fibrant_objects,
    is_binary_product_closed,
    is_pullback_closed,
    left_complement,
    load,
    meet_all,
    random_instances,
    recognize_finite,
    replacement,
    right_complement,
)
from posetmodels import models
from posetmodels.centers import CenterMap, validate_centers
from posetmodels.errors import PosetModelError
from posetmodels.lattice import iter_bits
from posetmodels.relative import recognition_report

FIXTURES = ("two-structures", "forced", "s2of3-fail", "chain-3", "trunc-1")
CAPS = {"trunc-1": {"max_elements": 24, "max_generators": 32}}

# generator sets (non-identity name pairs) that drive construct_genMC_dual
# down each of its paths
GENMC_DUAL_INPUTS = {
    "two-structures": [[("A", "C")], [("bot", "A")]],
    "forced": [[], [("U", "C"), ("C", "D"), ("C", "Dp")]],
    "s2of3-fail": [[("a", "c")]],
}


def _failure(call):
    try:
        m = call()
    except PosetModelError as e:
        witness = getattr(e, "witness", getattr(e, "pair", None))
        return (type(e).__name__, str(e), witness)
    return (m.cof.mask, m.fib.mask)


def snapshot(name):
    rel = load(name)
    lat = rel.lattice
    out = {
        "pullback_targets": tuple(tuple(iter_bits(t)) for t in lat.pullback_targets),
        "meet_all": tuple(meet_all(lat, comp) for comp in rel.components) + (meet_all(lat, ()),),
        "Wf": compute_Wf(rel).mask,
    }
    for label, s in (("weq", rel.weq), ("Wc", compute_Wc(rel)), ("Wf", compute_Wf(rel))):
        for check in (is_pullback_closed(s), is_binary_product_closed(s)):
            out[f"{check.name}[{label}]"] = (check.ok, check.witness)
    for k, gens in enumerate(GENMC_DUAL_INPUTS.get(name, [])):
        q = MorphClass.from_pairs(lat, gens, add_identities=True)
        out[f"genMC_dual[{k}]"] = _failure(lambda: construct_genMC_dual(rel, q))
    bad_chi = CenterMap(tuple(reversed(range(lat.n))))
    out["centers_dual[invalid]"] = _failure(lambda: construct_from_centers_dual(rel, bad_chi))
    if not check_s2of3(rel).ok:
        return out
    for k, chi in enumerate(enumerate_centers(rel, limit=4).maps):
        out[f"Qchi[{k}]"] = compute_Qchi(rel, chi).mask
        out[f"Wf_chi[{k}]"] = compute_Wf_chi(rel, chi).mask
        out[f"centers_dual[{k}]"] = _failure(lambda: construct_from_centers_dual(rel, chi))
    structures = enumerate_model_structures(rel, **CAPS.get(name, {}))
    for k, m in enumerate(structures[:4]):
        chi = extract_centers(m)
        out[f"fibrant_objects[{k}]"] = fibrant_objects(m)
        out[f"fibrant_replacement[{k}]"] = tuple(replacement(m, a, "fibrant") for a in lat.elements)
        out[f"newfib_dual[{k}]"] = _failure(lambda: construct_newfib_dual(m, chi))
    m = structures[0]
    unverified = ModelStruct(rel, m.fib, m.cof)
    out["newfib_dual[unverified]"] = _failure(lambda: construct_newfib_dual(unverified, chi))
    out["newfib_dual[invalid]"] = _failure(lambda: construct_newfib_dual(m, bad_chi))
    return out


PINNED = {'two-structures': {'pullback_targets': ((0,), (0, 1), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3, 4),
                                         (0, 1, 2, 3, 4, 5), (0, 6), (0, 6, 7), (0, 6, 8),
                                         (0, 6, 7, 8, 9), (0, 6, 7, 8, 9, 10), (0, 6, 11),
                                         (0, 6, 8, 11, 12), (0, 6, 8, 11, 12, 13), (0, 6, 14),
                                         (0, 6, 7, 14, 15), (0, 6, 7, 14, 15, 16),
                                         (0, 6, 11, 14, 17), (0, 6, 11, 14, 17, 18),
                                         (0, 6, 11, 14, 17, 19)),
                    'meet_all': (0, 1, 5, 5),
                    'Wf': 711617,
                    'pullback_closed[weq]': (True, None),
                    'binary_product_closed[weq]': (True, None),
                    'pullback_closed[Wc]': (True, None),
                    'binary_product_closed[Wc]': (True, None),
                    'pullback_closed[Wf]': (True, None),
                    'binary_product_closed[Wf]': (True, None),
                    'genMC_dual[0]': (1047651, 937983),
                    'genMC_dual[1]': ('JNotInW',
                                      'generator Pair(src=0, dst=1) is not a weak equivalence',
                                      Pair(src=0, dst=1)),
                    'centers_dual[invalid]': ('InvalidCenters',
                                              'invalid choice of centers: monotone, witness (0, 1)',
                                              None),
                    'Qchi[0]': 711617,
                    'Wf_chi[0]': 711617,
                    'centers_dual[0]': (1010787, 1048575),
                    'Qchi[1]': 661505,
                    'Wf_chi[1]': 678209,
                    'centers_dual[1]': (1043687, 948607),
                    'Qchi[2]': 704513,
                    'Wf_chi[2]': 706753,
                    'centers_dual[2]': (1015147, 1034495),
                    'Qchi[3]': 655361,
                    'Wf_chi[3]': 673857,
                    'centers_dual[3]': (1048575, 936063),
                    'fibrant_objects[0]': (0, 1, 2, 3, 4, 5),
                    'fibrant_replacement[0]': (0, 1, 2, 3, 4, 5),
                    'newfib_dual[0]': (1010787, 1048575),
                    'fibrant_objects[1]': (0, 1, 3, 4, 5),
                    'fibrant_replacement[1]': (0, 1, 4, 3, 4, 5),
                    'newfib_dual[1]': (1010787, 1048575),
                    'fibrant_objects[2]': (0, 3, 4, 5),
                    'fibrant_replacement[2]': (0, 3, 4, 3, 4, 5),
                    'newfib_dual[2]': (1015147, 1034495),
                    'fibrant_objects[3]': (0, 1, 2, 4, 5),
                    'fibrant_replacement[3]': (0, 1, 2, 4, 4, 5),
                    'newfib_dual[3]': (1010787, 1048575),
                    'newfib_dual[unverified]': ('InvalidInput',
                                                'structure fails verification at acof_fib.lifting, '
                                                'witness (Pair(src=1, dst=2), Pair(src=1, dst=5))',
                                                None),
                    'newfib_dual[invalid]': ('InvalidCenters',
                                             'invalid choice of centers: monotone, witness (0, 1)',
                                             None)},
 'forced': {'pullback_targets': ((0,), (0, 1), (0, 2), (0, 1, 3), (0, 2, 4), (0, 1, 2, 5),
                                 (0, 1, 2, 3, 5, 6), (0, 1, 2, 4, 5, 7),
                                 (0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 9), (0, 9, 10), (0, 2, 9, 11),
                                 (0, 2, 9, 10, 11, 12), (0, 2, 4, 9, 11, 13),
                                 (0, 2, 4, 9, 10, 11, 12, 13, 14), (0, 15), (0, 15, 16),
                                 (0, 1, 15, 17), (0, 1, 3, 15, 17, 18), (0, 1, 15, 16, 17, 19),
                                 (0, 1, 3, 15, 16, 17, 18, 19, 20), (0, 9, 21),
                                 (0, 2, 9, 11, 21, 22), (0, 2, 4, 9, 11, 13, 21, 22, 23),
                                 (0, 15, 24), (0, 1, 15, 17, 24, 25),
                                 (0, 1, 3, 15, 17, 18, 24, 25, 26), (0, 9, 15, 27),
                                 (0, 9, 10, 15, 27, 28), (0, 9, 15, 16, 27, 29),
                                 (0, 9, 10, 15, 16, 27, 28, 29, 30), (0, 9, 15, 21, 27, 31),
                                 (0, 9, 15, 16, 21, 27, 29, 31, 32), (0, 9, 15, 24, 27, 33),
                                 (0, 9, 10, 15, 24, 27, 28, 33, 34),
                                 (0, 9, 15, 21, 24, 27, 31, 33, 35)),
            'meet_all': (0, 0, 8, 8),
            'Wf': 46055654913,
            'pullback_closed[weq]': (False, (Pair(src=1, dst=5), Pair(src=0, dst=2))),
            'binary_product_closed[weq]': (False,
                                           (Pair(src=1, dst=1), Pair(src=2, dst=5),
                                            Pair(src=0, dst=1))),
            'pullback_closed[Wc]': (False, (Pair(src=1, dst=5), Pair(src=0, dst=2))),
            'binary_product_closed[Wc]': (False,
                                          (Pair(src=1, dst=1), Pair(src=2, dst=5),
                                           Pair(src=0, dst=1))),
            'pullback_closed[Wf]': (True, None),
            'binary_product_closed[Wf]': (True, None),
            'genMC_dual[0]': ('HypothesisFailed',
                              'hypothesis (2) fails, witness Pair(src=1, dst=8)',
                              Pair(src=1, dst=8)),
            'genMC_dual[1]': ('HypothesisFailed',
                              'hypothesis (3) fails, witness Pair(src=0, dst=2)',
                              Pair(src=0, dst=2)),
            'centers_dual[invalid]': ('InvalidCenters',
                                      'invalid choice of centers: monotone, witness (0, 1)', None),
            'Qchi[0]': 46036680705,
            'Wf_chi[0]': 46055654913,
            'centers_dual[0]': (67913304871, 68604233727),
            'fibrant_objects[0]': (0, 5, 6, 7, 8),
            'fibrant_replacement[0]': (0, 5, 5, 6, 7, 5, 6, 7, 8),
            'newfib_dual[0]': (67913304871, 68604233727),
            'newfib_dual[unverified]': ('InvalidInput',
                                        'structure fails verification at cof_afib.lifting, witness '
                                        '(Pair(src=0, dst=1), Pair(src=2, dst=5))',
                                        None),
            'newfib_dual[invalid]': ('InvalidCenters',
                                     'invalid choice of centers: monotone, witness (0, 1)', None)},
 's2of3-fail': {'pullback_targets': ((0,), (0, 1), (0, 1, 2), (0, 3), (0, 3, 4), (0, 3, 5)),
                'meet_all': (0, 1, 2),
                'Wf': 41,
                'pullback_closed[weq]': (False, (Pair(src=0, dst=2), Pair(src=0, dst=1))),
                'binary_product_closed[weq]': (False,
                                               (Pair(src=0, dst=2), Pair(src=1, dst=1),
                                                Pair(src=0, dst=1))),
                'pullback_closed[Wc]': (True, None),
                'binary_product_closed[Wc]': (True, None),
                'pullback_closed[Wf]': (True, None),
                'binary_product_closed[Wf]': (True, None),
                'genMC_dual[0]': ('S2OF3Failed', 'strong 2-of-3 fails, witness (0, 1, 2)',
                                  (0, 1, 2)),
                'centers_dual[invalid]': ('InvalidCenters',
                                          'invalid choice of centers: monotone, witness (0, 1)',
                                          None)},
 'chain-3': {'pullback_targets': ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 5),
                                  (0, 5, 6), (0, 5, 6, 7), (0, 5, 6, 7, 8), (0, 5, 9),
                                  (0, 5, 9, 10), (0, 5, 9, 10, 11), (0, 5, 9, 12),
                                  (0, 5, 9, 12, 13), (0, 5, 9, 12, 14)),
             'meet_all': (0, 1, 4, 4),
             'Wf': 22241,
             'pullback_closed[weq]': (True, None),
             'binary_product_closed[weq]': (True, None),
             'pullback_closed[Wc]': (True, None),
             'binary_product_closed[Wc]': (True, None),
             'pullback_closed[Wf]': (True, None),
             'binary_product_closed[Wf]': (True, None),
             'centers_dual[invalid]': ('InvalidCenters',
                                       'invalid choice of centers: monotone, witness (0, 1)',
                                       None),
             'Qchi[0]': 22241,
             'Wf_chi[0]': 22241,
             'centers_dual[0]': (31539, 32767),
             'Qchi[1]': 22017,
             'Wf_chi[1]': 22049,
             'centers_dual[1]': (31607, 32319),
             'Qchi[2]': 20481,
             'Wf_chi[2]': 21025,
             'centers_dual[2]': (32767, 29247),
             'fibrant_objects[0]': (0, 1, 2, 3, 4),
             'fibrant_replacement[0]': (0, 1, 2, 3, 4),
             'newfib_dual[0]': (31539, 32767),
             'fibrant_objects[1]': (0, 2, 3, 4),
             'fibrant_replacement[1]': (0, 2, 2, 3, 4),
             'newfib_dual[1]': (31607, 32319),
             'fibrant_objects[2]': (0, 1, 3, 4),
             'fibrant_replacement[2]': (0, 1, 3, 3, 4),
             'newfib_dual[2]': (31539, 32767),
             'fibrant_objects[3]': (0, 3, 4),
             'fibrant_replacement[3]': (0, 3, 3, 3, 4),
             'newfib_dual[3]': (32699, 29311),
             'newfib_dual[unverified]': ('InvalidInput',
                                         'structure fails verification at acof_fib.lifting, '
                                         'witness (Pair(src=1, dst=2), Pair(src=1, dst=4))',
                                         None),
             'newfib_dual[invalid]': ('InvalidCenters',
                                      'invalid choice of centers: monotone, witness (0, 1)',
                                      None)},
 'trunc-1': {'pullback_targets': ((0,), (0, 1, 3), (0, 1, 2, 3, 4, 7), (0, 3), (0, 4), (0, 3, 5),
                                  (0, 4, 6), (0, 3, 4, 7), (0, 3, 4, 5, 7, 8), (0, 3, 4, 6, 7, 9),
                                  (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (0, 11, 18),
                                  (0, 4, 11, 12, 18, 20), (0, 4, 6, 11, 12, 13, 18, 19, 20, 21, 22),
                                  (0, 11, 14, 18, 25, 38),
                                  (0, 11, 14, 15, 18, 19, 25, 26, 38, 39, 40), (0, 16, 18),
                                  (0, 4, 16, 17, 18, 20), (0, 18), (0, 18, 19), (0, 4, 18, 20),
                                  (0, 4, 18, 19, 20, 21), (0, 4, 6, 18, 20, 22),
                                  (0, 4, 6, 16, 17, 18, 19, 20, 21, 22, 23), (0, 1, 3, 24, 25, 27),
                                  (0, 25), (0, 25, 26), (0, 3, 25, 27), (0, 3, 5, 25, 27, 28),
                                  (0, 3, 25, 26, 27, 29), (0, 1, 3, 5, 24, 25, 26, 27, 28, 29, 30),
                                  (0, 18, 31), (0, 4, 18, 20, 31, 32),
                                  (0, 4, 6, 16, 17, 18, 20, 22, 31, 32, 33), (0, 25, 34),
                                  (0, 3, 25, 27, 34, 35), (0, 1, 3, 5, 24, 25, 27, 28, 34, 35, 36),
                                  (0, 16, 18, 25, 37, 38), (0, 18, 25, 38), (0, 18, 19, 25, 38, 39),
                                  (0, 18, 25, 26, 38, 40),
                                  (0, 16, 18, 19, 25, 26, 37, 38, 39, 40, 41),
                                  (0, 18, 25, 31, 38, 42),
                                  (0, 16, 18, 25, 26, 31, 37, 38, 40, 42, 43),
                                  (0, 18, 25, 34, 38, 44),
                                  (0, 16, 18, 19, 25, 34, 37, 38, 39, 44, 45),
                                  (0, 11, 14, 18, 25, 31, 34, 38, 42, 44, 46)),
             'meet_all': (0, 1, 0, 10, 10),
             'Wf': 94302550902785,
             'pullback_closed[weq]': (False, (Pair(src=1, dst=2), Pair(src=0, dst=4))),
             'binary_product_closed[weq]': (False,
                                            (Pair(src=1, dst=1), Pair(src=4, dst=7),
                                             Pair(src=0, dst=3))),
             'pullback_closed[Wc]': (False, (Pair(src=1, dst=2), Pair(src=0, dst=4))),
             'binary_product_closed[Wc]': (False,
                                           (Pair(src=1, dst=1), Pair(src=4, dst=7),
                                            Pair(src=0, dst=3))),
             'pullback_closed[Wf]': (True, None),
             'binary_product_closed[Wf]': (True, None),
             'centers_dual[invalid]': ('InvalidCenters',
                                       'invalid choice of centers: monotone, witness (0, 1)',
                                       None),
             'Qchi[0]': 94283122098177,
             'Wf_chi[0]': 94302550902785,
             'centers_dual[0]': (139087341681823, 140619478323199),
             'fibrant_objects[0]': (0, 2, 7, 8, 9, 10),
             'fibrant_replacement[0]': (0, 2, 2, 7, 7, 8, 9, 7, 8, 9, 10),
             'newfib_dual[0]': (139087341681823, 140619478323199),
             'newfib_dual[unverified]': ('InvalidInput',
                                         'structure fails verification at cof_afib.lifting, '
                                         'witness (Pair(src=0, dst=2), Pair(src=1, dst=2))',
                                         None),
             'newfib_dual[invalid]': ('InvalidCenters',
                                      'invalid choice of centers: monotone, witness (0, 1)',
                                      None)}}


@pytest.mark.parametrize("name", FIXTURES)
def test_duals_pinned(name):
    assert snapshot(name) == PINNED[name]


def test_op_is_a_cached_involution(two_structures):
    rel = two_structures
    lat = rel.lattice
    m = recognize_finite(rel).structure
    for x in (lat, rel.weq, rel, m):
        assert x.op() is x.op() and x.op().op() is x
    assert [p.op() for p in lat.op().pairs] == list(lat.pairs)
    assert lat.op().pushout_targets is lat.pullback_targets
    assert rel.op().components is rel.components
    assert (m.op().cof.mask, m.op().fib.mask) == (m.fib.mask, m.cof.mask)
    assert m.op().verified


def test_op_race_publishes_one_opposite():
    # concurrent first calls on fresh objects: every thread gets the same
    # opposite of each, and it still points back to its primal
    template = recognize_finite(load("two-structures")).structure
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rel = load("two-structures")
            lat = rel.lattice
            m = ModelStruct(rel, MorphClass(lat, template.cof.mask), MorphClass(lat, template.fib.mask))
            objects = [lat, rel.weq, rel, m]
            barrier = threading.Barrier(8)

            def work(k):
                barrier.wait(timeout=60)
                order = objects[k % 4:] + objects[:k % 4]
                opposites = {id(x): x.op() for x in order}
                return [opposites[id(x)] for x in objects]

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(work, k) for k in range(8)]]
            for i, x in enumerate(objects):
                assert all(r[i] is results[0][i] for r in results)
                assert x.op() is results[0][i] and x.op().op() is x
    finally:
        sys.setswitchinterval(interval)


def _chain_with_every_pair(n):
    names = [f"c{i}" for i in range(n)]
    lat = build_lattice(names, zip(names, names[1:]))
    return RelStruct(lat, MorphClass.all_morphisms(lat))


def test_memo_race_publishes_one_value():
    # concurrent first calls on fresh objects: every thread gets the same
    # object from each memoised value, the first one published
    probes = {
        "compute_Wc": lambda rel, m, lat: compute_Wc(rel),
        "compute_Wf": lambda rel, m, lat: compute_Wf(rel),
        "check_s2of3": lambda rel, m, lat: check_s2of3(rel),
        "check_cw_factorization": lambda rel, m, lat: check_cw_factorization(rel),
        "recognition_report": lambda rel, m, lat: recognition_report(rel),
        "_weq_checks": lambda rel, m, lat: models._weq_checks(rel),
        "extract_centers": lambda rel, m, lat: extract_centers(m),
        "pushout_targets": lambda rel, m, lat: lat.pushout_targets,
        "nonlift_left": lambda rel, m, lat: lat.nonlift_left,
    }
    names = list(probes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rel = _chain_with_every_pair(30)
            m = construct_terminal(_chain_with_every_pair(30))
            lat = _chain_with_every_pair(30).lattice
            barrier = threading.Barrier(4)

            def work(k):
                barrier.wait(timeout=60)
                return {name: probes[name](rel, m, lat) for name in names[k:] + names[:k]}

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(work, k) for k in range(4)]]
            for name in names:
                assert all(r[name] is results[0][name] for r in results), name
    finally:
        sys.setswitchinterval(interval)


def test_op_starts_with_an_empty_memo():
    # fill each memo (those of lat and rel before their opposites exist):
    # no value of one side reaches the other
    rel = _chain_with_every_pair(6)
    lat = rel.lattice
    lat.pushout_targets, lat.nonlift_left, lat.identity_mask
    check_s2of3(rel), compute_Wc(rel), models._weq_checks(rel)
    assert validate_centers(rel, CenterMap((0,) * lat.n)).ok
    m = construct_terminal(_chain_with_every_pair(6))
    extract_centers(m)
    for x in (lat, rel, m):
        assert x._memo and x._reversed()._memo == {}
        assert x.op()._memo == {}


def test_orientation_is_part_of_equality(two_structures):
    lat = two_structures.lattice
    reversed_order = build_lattice(lat.names, [(lat.name(b), lat.name(a)) for (a, b) in lat.pairs])
    assert lat.op().leq(5, 0) and reversed_order.leq(5, 0)
    assert lat.op() != reversed_order and lat.op() != lat
    assert lat.op().op() == lat
    assert len({lat, lat.op(), reversed_order}) == 3


def test_equal_classes_hash_equal():
    first, second = load("two-structures"), load("two-structures")
    assert first.lattice is not second.lattice
    assert first.weq == second.weq
    assert len({first.weq, second.weq}) == 1


def _instances():
    for name in ("two-structures", "forced", "s2of3-fail", "chain-3"):
        yield name, load(name)
    count = 0
    for rel in random_instances(InstanceGen(seed=11, max_elements=7)):
        if len(rel.weq.nonidentity_pairs()) > 10:
            continue
        yield f"random[{count}]", rel
        count += 1
        if count == 250:
            break


def test_op_route_agrees():
    """The opposite structure as a fourth route: recognition, the oracle and
    the dual center structure all commute with op()."""
    center_maps = 0
    for name, rel in _instances():
        assert recognize_finite(rel.op()).yes == recognize_finite(rel).yes, name
        via_op = {(m.cof.mask, m.fib.mask) for m in enumerate_model_structures(rel.op())}
        direct = {(m.op().cof.mask, m.op().fib.mask) for m in enumerate_model_structures(rel)}
        assert via_op == direct, name
        if not check_s2of3(rel).ok:
            continue
        lat = rel.lattice
        for chi in enumerate_centers(rel, limit=16).maps:
            # the hand-written formula: cofibrations are the left complement of Q_chi
            q = MorphClass.from_pairs(lat, [p for p in rel.weq if lat.leq(chi.chi[p.src], p.src)])
            cof = left_complement(q)
            fib = right_complement(cof & rel.weq)
            m = construct_from_centers_dual(rel, chi)
            assert (m.cof.mask, m.fib.mask) == (cof.mask, fib.mask), (name, chi)
            center_maps += 1
    assert center_maps > 250


def test_only_the_lattice_module_reads_opposite():
    # every other module answers op() questions through its side's lattice
    # and kit, never by branching on the orientation flag
    src = Path(__file__).resolve().parent.parent / "src" / "posetmodels"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    readers = sorted(path.name for path in modules
                     if any(isinstance(node, ast.Attribute) and node.attr == "opposite"
                            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert readers == ["lattice.py"]


def test_only_the_lattice_module_reads_the_pair_tables():
    # pushout stability and lifting are decided behind the lattice's kits:
    # no other module names a P-indexed table
    tables = {"pushout_targets", "pullback_targets", "nonlift_left", "nonlift_right", "_pair_masks"}
    src = Path(__file__).resolve().parent.parent / "src" / "posetmodels"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    readers = sorted(path.name for path in modules
                     if any(isinstance(node, ast.Attribute) and node.attr in tables
                            or isinstance(node, ast.Name) and node.id in tables
                            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert readers == ["lattice.py"]


def test_only_the_class_boundary_converts_encodings():
    # a class's encoding is decided behind MorphClass: besides the lattice
    # module, which defines the gathers and hands the oracle its grid route,
    # only the class module converts between grids and pair masks
    src = Path(__file__).resolve().parent.parent / "src" / "posetmodels"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    readers = sorted(path.name for path in modules
                     if any(isinstance(node, ast.Attribute) and node.attr in ("to_mask", "from_mask")
                            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert set(readers) - {"lattice.py"} == {"classes.py"}


def test_only_the_report_and_error_modules_pick_the_failing_check():
    # a guard turns a failed check or report into an exception through
    # Check.require or Report.require alone: no other module calls
    # witness_check to pick the failing check and raise by hand
    src = Path(__file__).resolve().parent.parent / "src" / "posetmodels"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    readers = sorted(path.name for path in modules
                     if any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "witness_check"
                            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert readers == ["errors.py", "report.py"]


def test_only_the_lattice_module_reads_or_builds_mask_bits():
    # the reader and the writer of pair masks, and every other string
    # gather, live in the lattice module: no other module calls bin,
    # int(..., 2) or .translate
    src = Path(__file__).resolve().parent.parent / "src" / "posetmodels"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10

    def gathers(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", None)
        return (name == "bin" or getattr(node.func, "attr", None) == "translate"
                or name == "int" and (len(node.args) > 1 or any(k.arg == "base" for k in node.keywords)))

    readers = sorted(path.name for path in modules
                     if any(map(gathers, ast.walk(ast.parse(path.read_text(encoding="utf-8"))))))
    assert readers == ["lattice.py"]


def _kit_reads(tree) -> set:
    """The names that `tree` binds to a ``_kit`` read, "_kit" itself included."""
    names = {"_kit"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                tuples = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                for t, v in zip(target.elts, node.value.elts) if tuples else [(target, node.value)]:
                    if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr == "_kit":
                        names.add(t.id)
    return names


def _tests_the_kit(node, kits: set) -> bool:
    """Whether `node` asks which kit a lattice keeps: compares, negates or
    combines a kit read (a name in `kits`), or passes it to isinstance or type."""
    def is_kit(x):
        return getattr(x, "attr", None) in kits or getattr(x, "id", None) in kits
    if isinstance(node, ast.Compare):
        return any(map(is_kit, [node.left, *node.comparators]))
    if isinstance(node, ast.BoolOp):
        return any(map(is_kit, node.values))
    if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
        return is_kit(node.test)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return is_kit(node.operand)
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "type")
            and any(map(is_kit, node.args)))


def test_only_the_lattice_module_chooses_a_kit():
    # the density gate, both kits and the choice between them live in the
    # lattice module; every other module calls its side's kit without asking
    # which one it is, and the oracle takes its grid kit from the lattice
    src = Path(__file__).resolve().parent.parent / "src" / "posetmodels"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    named = {"_GridKit", "_GridStack", "_PairKit", "_GRID_DENSITY"}
    offenders = []
    for path in modules:
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kits = _kit_reads(tree)
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if _tests_the_kit(node, kits) or name in named:
                offenders.append((path.name, getattr(node, "lineno", None), name))
    assert offenders == []
