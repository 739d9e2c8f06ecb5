"""The structured errors: their messages, fields, copies and pickles, and
their one constructor."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import posetmodels.errors as errors_module
from posetmodels.errors import (
    CapExceeded,
    CycleDetected,
    HypothesisFailed,
    InternalCheckFailed,
    InvalidCenters,
    InvalidInput,
    JNotInW,
    MismatchedBase,
    MissingIdentities,
    NoFactorization,
    NotALattice,
    NotComparable,
    NotCompositionClosed,
    NotPushoutClosed,
    NotWeakEquivalence,
    PosetModelError,
    RecognitionFailed,
    S2OF3Failed,
    Unbounded,
    UnknownFixture,
)
from posetmodels.lattice import Pair
from posetmodels.report import Check, Report

CENTERS_REPORT = Report((Check("well_formed", True), Check("monotone", False, (1, 2)), Check("idempotent", False, (3,))))

# (an error built with fixed arguments, its message, its field attributes)
STRUCTURED = [
    (CycleDetected("a", "b"), "antisymmetry violated: 'a' <= 'b' and 'b' <= 'a'", {"a": "a", "b": "b"}),
    (NotALattice("a", "b", "join"), "pair ('a', 'b') has no unique join", {"a": "a", "b": "b", "kind": "join"}),
    (NotComparable("A", "B"), "elements 'A' and 'B' are not comparable", {"a": "A", "b": "B"}),
    (NotPushoutClosed((Pair(0, 1), Pair(2, 3))),
     "class is not pushout-closed, witness (Pair(src=0, dst=1), Pair(src=2, dst=3))",
     {"witness": (Pair(0, 1), Pair(2, 3))}),
    (NotCompositionClosed(("a", "b", "c")), "missing composite, witness ('a', 'b', 'c')",
     {"witness": ("a", "b", "c")}),
    (MissingIdentities("A"), "identity of element 'A' missing; pass add_identities=True to auto-complete",
     {"element": "A"}),
    (NoFactorization(Pair(0, 2)), "no factorization of Pair(src=0, dst=2)", {"pair": Pair(0, 2)}),
    (S2OF3Failed((0, 1, 2)), "strong 2-of-3 fails, witness (0, 1, 2)", {"witness": (0, 1, 2)}),
    (RecognitionFailed("cw_factorization", (Pair(0, 1), Pair(1, 2))),
     "recognition failed at cw_factorization, witness (Pair(src=0, dst=1), Pair(src=1, dst=2))",
     {"check_name": "cw_factorization", "witness": (Pair(0, 1), Pair(1, 2))}),
    (InvalidCenters(CENTERS_REPORT), "invalid choice of centers: monotone, witness (1, 2)",
     {"report": CENTERS_REPORT}),
    (HypothesisFailed(2, Pair(1, 3)), "hypothesis (2) fails, witness Pair(src=1, dst=3)",
     {"which": 2, "witness": Pair(1, 3)}),
    (JNotInW(Pair(0, 1)), "generator Pair(src=0, dst=1) is not a weak equivalence", {"pair": Pair(0, 1)}),
    (NotWeakEquivalence(Pair(0, 1)), "Pair(src=0, dst=1) is not a weak equivalence", {"pair": Pair(0, 1)}),
    (CapExceeded("lattice elements", 5, 9), "lattice elements: 9 exceeds cap 5",
     {"what": "lattice elements", "limit": 5, "actual": 9}),
    (UnknownFixture("nope"), "unknown fixture 'nope'", {"name": "nope"}),
    (InternalCheckFailed("gamma is not a retraction of iota"),
     "internal invariant violated (library bug): gamma is not a retraction of iota",
     {"detail": "gamma is not a retraction of iota"}),
]
PLAIN = [PosetModelError("cannot read x.json"), InvalidInput("bad label"), Unbounded("no top element"),
         MismatchedBase("structures live on different lattices")]


def _id(case):
    return type(case[0]).__name__


def test_every_structured_error_is_pinned():
    errors = {cls for cls in vars(errors_module).values() if isinstance(cls, type) and issubclass(cls, PosetModelError)}
    assert len(STRUCTURED) == 16 and {type(e) for e, _, _ in STRUCTURED} == errors - {type(e) for e in PLAIN}


@pytest.mark.parametrize("case", STRUCTURED, ids=_id)
def test_messages(case):
    error, message, _ = case
    assert str(error) == message


@pytest.mark.parametrize("case", STRUCTURED, ids=_id)
def test_fields_are_the_args_and_attributes(case):
    error, _, fields = case
    assert error.args == tuple(fields.values())
    assert {name: getattr(error, name) for name in fields} == fields


@pytest.mark.parametrize("case", STRUCTURED + [(e, str(e), {}) for e in PLAIN], ids=_id)
def test_copies_and_pickles_keep_the_type_message_args_and_fields(case):
    error, message, fields = case
    for twin in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
        assert type(twin) is type(error) and twin is not error
        assert (str(twin), twin.args) == (message, error.args)
        assert {name: getattr(twin, name) for name in fields} == fields


def test_an_error_with_no_fields_keeps_its_plain_message():
    for error in PLAIN:
        assert str(error) == error.args[0]


def test_repr_is_the_constructor_form():
    assert repr(S2OF3Failed((0, 1, 2))) == "S2OF3Failed((0, 1, 2))"
    assert repr(CapExceeded("lattice elements", 5, 9)) == "CapExceeded('lattice elements', 5, 9)"


def test_a_wrong_number_of_fields_is_a_type_error():
    with pytest.raises(TypeError, match=r"CycleDetected takes 2 arguments \('a', 'b'\), got 1"):
        CycleDetected("a")


def test_only_the_base_error_defines_a_constructor():
    # every other error declares its fields and message: no subclass
    # stores its fields or formats its message by hand
    path = Path(__file__).resolve().parent.parent / "src" / "posetmodels" / "errors.py"
    owners = sorted(cls.name for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(cls, ast.ClassDef)
                    and any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in cls.body))
    assert owners == ["PosetModelError"]
