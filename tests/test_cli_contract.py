"""The command line's contract on malformed instance files.

Each run of ``validate`` and ``recognize`` on a mutated fixture either
ends in a report (exit 0 or 1) that ``parse_report`` reads back, or in one
diagnostic line on stderr (exit 2): never a traceback, and never an
internal check that fails.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from posetmodels import fixture
from posetmodels.cli import run_cli
from posetmodels.formats import instance_to_dict, parse_report

FIXTURES = ("two-structures", "forced", "s2of3-fail", "trunc-2", "chain-3")
FIELDS = ("version", "elements", "leq", "weq", "options")
VALUES = (None, True, 0, 1, 1.5, "a", [], {}, ["a"], [["a", "b"]], {"addIdentities": "yes"}, {"addIdentities": True})
# any text but lone surrogates, which UTF-8 cannot hold
LABELS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


def _mutate(data, draw):
    """One mutation of the labels or pairs of an instance dict, in place."""
    kind = draw(st.sampled_from(("unknown", "duplicate", "rename", "cycle", "no join", "pair", "length")))
    elements, pairs = data["elements"], data[draw(st.sampled_from(("leq", "weq")))]
    some = st.sampled_from(elements)
    if kind == "unknown":  # a label no element has, or an existing one, on either end
        pairs.append(draw(st.permutations([draw(LABELS), draw(some)])))
    elif kind == "duplicate":
        elements.append(draw(some))
    elif kind == "rename":  # one label renamed everywhere, so it may clash with another
        old, new = draw(some), draw(LABELS)
        for k in ("elements", "leq", "weq"):
            data[k] = [[new if x == old else x for x in v] if isinstance(v, list) else new if v == old else v
                       for v in data[k]]
    elif kind == "cycle" and pairs:  # a pair reversed
        pairs.append(list(reversed(draw(st.sampled_from(pairs)))))
    elif kind == "no join":  # two new elements above one old one, with no upper bound in common
        low, x, y = draw(some), draw(LABELS), draw(LABELS)
        elements += [x, y]
        data["leq"] += [[low, x], [low, y]]
    elif kind == "pair":  # any two elements, comparable or not
        pairs.append([draw(some), draw(some)])
    elif kind == "length" and pairs:  # a pair cut short, made too long, or a bare label
        i = draw(st.integers(0, len(pairs) - 1))
        p = pairs[i]
        pairs[i] = draw(st.sampled_from((p[:1], [*p, *p[:1]], [], *p[:1])))


@st.composite
def mutated_instances(draw):
    data = json.loads(json.dumps(instance_to_dict(fixture(draw(st.sampled_from(FIXTURES))))))
    for _ in range(draw(st.integers(0, 3))):  # before any field is dropped or retyped
        _mutate(data, draw)
    field = draw(st.sampled_from(FIELDS))
    edit = draw(st.sampled_from(("drop", "retype", "keep", "keep", "keep", "keep")))  # most keep their fields
    if edit == "drop":
        data.pop(field, None)
    elif edit == "retype":
        data[field] = draw(st.sampled_from(VALUES))
    return json.dumps(data, ensure_ascii=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(text=mutated_instances())
def test_every_run_is_a_report_or_one_diagnostic_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "instance.json"
    path.write_text(text, encoding="utf-8")
    for command in ("validate", "recognize"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli([command, str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert "library bug" not in out + err
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and err.endswith("\n"), err
        else:
            assert code in (0, 1) and err == "", (code, err)
            assert parse_report(out).decision in (("valid",) if command == "validate" else ("yes", "no"))
