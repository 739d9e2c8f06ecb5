"""The report and instance emitter against ``json.dumps(obj, indent=2)``."""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmodels import MorphClass, build_lattice, construct_terminal, load, recognize_finite
from posetmodels.formats import NamePairs, ReportFile, _render, class_name_pairs, print_report, structure_to_dict

from helpers import all_weak, on_grid_path
from test_grid import _wide
from test_lattice import _grid

# every code point, lone surrogates included, with the characters JSON
# escapes drawn often
characters = st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\x80\u2028\ud800\udfff\U0001f600'),
    st.characters(exclude_categories=()),
)
text = st.text(characters, max_size=8)
floats = st.one_of(st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e16, 5e-324]),
                   st.floats())
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(2**1000), 2**1000), floats, text)
keys = st.one_of(text, st.none(), st.booleans(), st.integers(), floats)
values = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(text, min_size=1, max_size=3),  # the shape of pairs and label lists
        st.dictionaries(keys, kids, max_size=3),
    ),
    max_leaves=12,
)


@given(values)
@settings(max_examples=1000, deadline=None)
def test_render_matches_json_dumps_indent_2(value):
    assert _render(value) == json.dumps(value, indent=2)


pair_items = st.one_of(st.lists(text, min_size=2, max_size=2), st.tuples(text, text), scalars,
                       st.lists(st.one_of(text, st.integers()), max_size=3))


@given(st.lists(pair_items, min_size=1, max_size=6), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_render_matches_json_dumps_on_pair_lists(items, depth):
    # a list of 2-item lists or tuples of strings renders in one join; any
    # other item sends the list through the loop
    for value in (items, [pair for pair in items if isinstance(pair, (list, tuple)) and len(pair) == 2]):
        for _ in range(depth):
            value = {"pairs": value}
        assert _render(value) == json.dumps(value, indent=2)


def test_render_rejects_what_json_rejects():
    for bad in ({(1, 2): 0}, [object()], {"a": [1, {2}]}, [["a", "b"], ["c", object()]]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            _render(bad)


def test_class_name_pairs_keep_the_lattice_pair_order():
    """Rows on a lattice, columns on its opposite: the order of its pairs."""
    for name in ("forced", "trunc-2"):
        m = construct_terminal(load(name))
        for s in (m.we, m.cof, m.fib):
            for side in (s, s.op()):
                assert class_name_pairs(side) == tuple(map(side.lattice.pair_names, side.nonidentity_pairs()))


def _agrees_with_json(pairs: NamePairs) -> None:
    """`pairs` renders at every nesting depth 0-4 as json.dumps renders its
    list form there, json.dumps without indent reads it as that list, and it
    copies and pickles."""
    plain = [list(p) for p in pairs]
    assert json.dumps(pairs) == json.dumps(plain)
    assert copy.deepcopy(pairs) == pickle.loads(pickle.dumps(pairs)) == pairs  # as a plain tuple
    for depth in range(5):
        pad = "  " * depth
        assert _render(pairs, pad) == json.dumps(plain, indent=2).replace("\n", "\n" + pad)


FIXTURES = ("two-structures", "forced", "s2of3-fail", "trunc-1", "trunc-2", "trunc-3", "trunc-4", "chain-3",
            "chain-8")


def test_class_name_pairs_render_as_their_list_form():
    """Every class of each fixture's terminal structure (W alone where there
    is none), on both op() sides."""
    for name in FIXTURES:
        rel = load(name)
        decision = recognize_finite(rel)
        classes = (decision.structure.we, decision.structure.cof, decision.structure.fib) if decision.yes \
            else (rel.weq,)
        for s in classes:
            for side in (s, s.op()):
                _agrees_with_json(class_name_pairs(side))


def test_class_name_pairs_render_on_both_kits():
    # a grid-kit lattice and a pair-kit one, every pair in W and random classes
    rng = random.Random(7)
    for lat in (build_lattice(*_grid(4, 5)), _wide(40)):
        assert on_grid_path(lat) == (lat.n == 20)
        for side in (lat, lat.op()):
            _agrees_with_json(class_name_pairs(all_weak(side).weq))
            for _ in range(5):
                _agrees_with_json(class_name_pairs(MorphClass(side, rng.getrandbits(len(side.pairs)))))


def test_the_identity_class_renders_as_an_empty_list():
    lat = build_lattice(*_grid(2, 3))
    for side in (lat, lat.op()):
        pairs = class_name_pairs(MorphClass.identities(side))
        assert pairs == () and _render(pairs, "    ") == "[]" and json.dumps(pairs) == "[]"


def test_labels_that_json_escapes_render_as_json_spells_them():
    names = ['"', "\\", "caf\u00e9", "\x07", "\u2028", "\U0001f600", "a/b"]
    lat = build_lattice(names, zip(names, names[1:]))
    for side in (lat, lat.op()):
        _agrees_with_json(class_name_pairs(all_weak(side).weq))


def test_reports_on_one_lattice_share_its_pair_texts_read_only():
    m = construct_terminal(load("trunc-3"))

    def report():
        return print_report(ReportFile(["recognize", "trunc-3.json"], "yes", structures=[structure_to_dict(m)]))
    first = report()
    texts = {key: value for key, value in m.lattice._memo.items() if key[0] == "pair_texts"}
    assert len(texts) == 1
    assert report() == first and all(m.lattice._memo[key] is value for key, value in texts.items())
    assert first == json.dumps({"version": 1, "command": ["recognize", "trunc-3.json"], "decision": "yes",
                                "witnesses": [], "structures": [structure_to_dict(m)], "centers": []},
                               indent=2) + "\n"
