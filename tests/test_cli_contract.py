"""The command line's contract on malformed instance files and arguments.

Each run of ``validate`` and ``recognize`` on a mutated fixture, and each
run with a bad flag value, an unknown flag or a missing positional, either
ends in a report (exit 0 or 1) that ``parse_report`` reads back, or in one
diagnostic line on stderr (exit 2): never a traceback, never a usage
block, and never an internal check that fails.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmodels import fixture
from posetmodels.cli import run_cli
from posetmodels.formats import instance_to_dict, parse_report, print_instance

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


DECISIONS = {"validate": ("valid",), "recognize": ("yes", "no"), "centers": ("found", "absent"),
             "enumerate": ("yes", "no"), "synthesize": ("synthesized", "failed")}


def _holds(argv) -> int:
    """Run `argv` and hold it to the contract (module docstring); its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "library bug" not in out + err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and err.endswith("\n"), err
    else:
        assert code in (0, 1) and err == "", (code, err)
        assert parse_report(out).decision in DECISIONS[argv[0]]
    return code


@settings(max_examples=150, deadline=None)
@given(text=mutated_instances())
def test_every_run_is_a_report_or_one_diagnostic_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "instance.json"
    path.write_text(text, encoding="utf-8")
    for command in ("validate", "recognize"):
        _holds([command, str(path)])


# enumerate with both caps at 10^20 takes up to ~150 ms on these; on larger fixtures far longer
SMALL = ("two-structures", "forced", "s2of3-fail", "chain-3", "chain-8")  # at most 10 elements
FLAG_VALUES = st.one_of(st.sampled_from(("0", "1", str(2 ** 70), "x", "1.5", "True", "")),
                        st.integers(-3, -1).map(str))
METHODS = ("terminal", "centers", "centers-dual", "genmc", "newcofib")


@st.composite
def flag_runs(draw, path):
    """An argv for `path` with a bad or extreme flag value, an unknown flag or a missing positional."""
    kind = draw(st.sampled_from(("limit", "caps", "method", "unknown", "missing")))
    if kind == "limit":
        head, flags = ["centers", draw(st.sampled_from(("find", "enumerate"))), path], ["--limit", draw(FLAG_VALUES)]
    elif kind == "caps":  # each cap given or left out
        head, flags = ["enumerate", path], []
        for flag in ("--max-elements", "--max-generators"):
            flags += [flag, draw(FLAG_VALUES)] if draw(st.booleans()) else []
    elif kind == "method":
        head, flags = ["synthesize", path], ["--method", draw(st.one_of(FLAG_VALUES, st.sampled_from(METHODS)))]
    elif kind == "unknown":  # a flag no command has, or one of another command
        head = [draw(st.sampled_from(("validate", "recognize"))), path]
        flags = draw(st.sampled_from((["--bogus"], ["-x"], ["--limit", "3"], ["--method", "terminal"],
                                      ["--max-elements", "5"], ["--contract"])))
    else:  # no instance, no action or no command at all
        return draw(st.sampled_from((["validate"], ["recognize"], ["centers", path], ["centers", "find"],
                                     ["synthesize", "--method", "terminal"], ["enumerate", "--max-elements", "5"],
                                     [])))
    return head + flags if draw(st.booleans()) else [head[0], *flags, *head[1:]]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_run_with_bad_flags_is_a_report_or_one_diagnostic_line(tmp_path_factory, data):
    name = data.draw(st.sampled_from(SMALL))
    path = tmp_path_factory.getbasetemp() / f"{name}.json"
    path.write_text(print_instance(fixture(name)), encoding="utf-8")
    _holds(data.draw(flag_runs(str(path))))


@pytest.mark.parametrize("argv", [
    ["centers", "enumerate", "{path}", "--limit", "x"],
    ["synthesize", "{path}", "--method", "nope"],
    ["recognize", "{path}", "--bogus"],
    ["recognize"],
    ["zigzag", "{path}"],
    ["nope", "{path}"],
    [],
])
def test_argument_errors_are_one_line_with_no_usage_block(tmp_path, argv):
    # argparse would print its usage block and "posetmodels: error: ..."
    path = tmp_path / "two-structures.json"
    path.write_text(print_instance(fixture("two-structures")), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli([arg.format(path=path) for arg in argv])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: InvalidInput: posetmodels") and err.getvalue().count("\n") == 1
    assert "usage" not in err.getvalue()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["centers", "--help"], ["enumerate", "-h"]])
def test_help_prints_the_full_help_and_exits_0(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().startswith("usage: posetmodels") and "options:" in out.getvalue()


def test_a_line_break_in_an_argument_stays_on_the_one_line(tmp_path):
    for argv in (["recognize", str(tmp_path / "a\nb.json")], ["recognize", "x.json", "a\r\nb"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run_cli(argv) == 2
        assert err.getvalue().count("\n") == 1 and "\r" not in err.getvalue(), err.getvalue()
