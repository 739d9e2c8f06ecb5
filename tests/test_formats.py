"""The report and instance emitter against ``json.dumps(obj, indent=2)``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmodels import construct_terminal, load
from posetmodels.formats import _render, class_name_pairs

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
                assert class_name_pairs(side) == [list(side.lattice.pair_names(p))
                                                  for p in side.nonidentity_pairs()]
