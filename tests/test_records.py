"""The package's record classes: construction, defaults, equality, hashing,
immutability and repr text."""

import copy
import pickle

import pytest

from posetmodels import (
    CenterEnumeration,
    CenterMap,
    Check,
    Decision,
    InstanceGen,
    ModelStruct,
    ReductionMaps,
    Report,
    Zigzag,
    build_lattice,
    construct_terminal,
    recognize_finite,
    validate_relative,
)
from posetmodels.formats import InstanceFile, ReportFile

REL = validate_relative(build_lattice(["bot", "top"], [("bot", "top")]), [], add_identities=True)
M = construct_terminal(REL)
TERMINAL = (
    "ModelStruct(acyclic cof=[('bot', 'bot'), ('top', 'top')], acyclic fib=[('bot', 'bot'), ('top', 'top')])"
)
YES = "Report(checks=(Check(name='s2of3', ok=True, witness=None), Check(name='cw_factorization', ok=True, witness=None)))"

# name: (a factory of equal records, one field, the record's repr text)
FROZEN = {
    "Check": (lambda: Check("two_of_three", False, (0, 1, 2)), "ok",
              "Check(name='two_of_three', ok=False, witness=(0, 1, 2))"),
    "Report": (lambda: Report((Check("a", True), Check("b", False, ((0, 1),)))), "checks",
               "Report(checks=(Check(name='a', ok=True, witness=None), Check(name='b', ok=False, witness=((0, 1),))))"),
    "CenterMap": (lambda: CenterMap((0, 2, 2)), "chi", "CenterMap(chi=(0, 2, 2))"),
    "CenterEnumeration": (lambda: CenterEnumeration((CenterMap((0, 1)),), False), "truncated",
                          "CenterEnumeration(maps=(CenterMap(chi=(0, 1)),), truncated=False)"),
    "ReductionMaps": (lambda: ReductionMaps((0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 2)), "gamma",
                      "ReductionMaps(iota=(0, 2), gamma=(0, 1, 1), cofibrant=(0, 1, 2), fibrant=(0, 2, 2))"),
    "InstanceGen": (lambda: InstanceGen(), "seed", "InstanceGen(seed=0, max_elements=7, weq_density=0.35)"),
}
MUTABLE = {
    "Decision": (lambda: Decision(True, recognize_finite(REL).report, M), "yes", f"Decision(yes=True, report={YES})"),
    "InstanceFile": (lambda: InstanceFile(["a", "b"], [("a", "b")], [], cof=[("a", "b")]), "weq",
                     "InstanceFile(elements=['a', 'b'], leq=[('a', 'b')], weq=[], add_identities=False, "
                     "cof=[('a', 'b')], fib=None, version=1)"),
    "ReportFile": (lambda: ReportFile(["validate", "x.json"], "valid", structures=[{"we": []}]), "decision",
                   "ReportFile(command=['validate', 'x.json'], decision='valid', witnesses=[], "
                   "structures=[{'we': []}], centers=[], zigzag=None, timings=None, version=1)"),
    "Zigzag": (lambda: Zigzag([M, M], ["lr"]), "directions", f"Zigzag(nodes=[{TERMINAL}, {TERMINAL}], directions=['lr'])"),
}
RECORDS = {**FROZEN, **MUTABLE}


def test_constructors_take_fields_by_position_and_keyword_with_their_defaults():
    assert Check("c", True) == Check(name="c", ok=True, witness=None) and Check("c", True).witness is None
    assert Report(checks=(Check("c", True),)).ok and not Report((Check("c", False, (1,)),)).ok
    assert CenterMap(chi=(0, 1)) == CenterMap((0, 1)) and CenterMap((0, 1))(1) == 1
    assert CenterEnumeration(maps=(), truncated=True) == CenterEnumeration((), True)
    assert ReductionMaps(iota=(0,), gamma=(0,), cofibrant=(0,), fibrant=(0,)) == ReductionMaps((0,), (0,), (0,), (0,))
    gen = InstanceGen()
    assert (gen.seed, gen.max_elements, gen.weq_density) == (0, 7, 0.35)
    assert InstanceGen(3, weq_density=0.5) == InstanceGen(seed=3, max_elements=7, weq_density=0.5)
    no = Report((Check("s2of3", False, (0, 1)),))
    assert Decision(False, no) == Decision(yes=False, report=no, structure=None)
    assert Decision(False, no).structure is None and Decision(False, no).witness == (0, 1)
    inst = InstanceFile(["a"], [], [])
    assert (inst.add_identities, inst.cof, inst.fib, inst.version) == (False, None, None, 1)
    assert inst == InstanceFile(elements=["a"], leq=[], weq=[], add_identities=False, cof=None, fib=None, version=1)
    first, second = ReportFile(["c"], "d"), ReportFile(command=["c"], decision="d")
    assert first == second and (first.zigzag, first.timings, first.version) == (None, None, 1)
    for name in ("witnesses", "structures", "centers"):
        assert getattr(first, name) == [] and getattr(first, name) is not getattr(second, name)
    assert Zigzag(nodes=[M], directions=[]) == Zigzag([M], []) and len(Zigzag([M, M], ["lr"])) == 1
    m = ModelStruct(REL, M.cof, M.fib)
    assert m.report is None and m == ModelStruct(rel=REL, cof=M.cof, fib=M.fib, report=M.report) == M
    assert hash(m) == hash(M) and m.op().op() is m


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_only_to_an_equal_record_of_the_same_type(name):
    make, field, _ = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b and a is not b
    other = copy.copy(a)  # equal fields, but of a subclass
    object.__setattr__(other, "__class__", type("Renamed", (type(a),), {"__slots__": ()}))
    assert a != other and other != a and a != object()
    if name in MUTABLE:
        setattr(b, field, None)
        assert a != b


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_by_value_and_refuse_assignment(name):
    make, field, _ = FROZEN[name]
    a, b = make(), make()
    assert hash(a) == hash(b) and len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(MUTABLE[name][0]())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_text(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


def test_repr_of_a_decision_and_a_structure():
    assert repr(recognize_finite(REL)) == f"Decision(yes=True, report={YES})"
    assert repr(M) == TERMINAL


def test_require_returns_what_holds_and_raises_the_error_of_the_first_failing_check():
    passing, failing = Check("a", True), Check("b", False, ((0, 1),))
    assert passing.require(KeyError) is passing
    report = Report((passing, passing))
    assert report.require(KeyError) is report
    for holder in (failing, Report((passing, failing, Check("c", False, (2,))))):
        with pytest.raises(KeyError) as raised:
            holder.require(KeyError)
        assert raised.value.args == (failing,)
