import io
import json
import re
from contextlib import redirect_stdout

import pytest

from posetmodels import (
    MorphClass,
    ModelStruct,
    build_lattice,
    enumerate_centers,
    enumerate_model_structures,
    fixture,
    validate_relative,
)
from posetmodels.cli import run_cli
from posetmodels.dot import export_dot
from posetmodels.errors import InvalidInput, UnknownFixture
from posetmodels.formats import (
    InstanceFile,
    ReportFile,
    instance_from_dict,
    parse_instance,
    parse_report,
    print_instance,
    print_report,
    report_from_dict,
)

from helpers import pentagon, pentagon_pair
from test_models import left_printed, right_printed


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_cli(argv)
    return code, buf.getvalue()


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    code, out = run(["fixture", name])
    assert code == 0
    path.write_text(out, encoding="utf-8")
    return str(path)


def write_structure(tmp_path, rel_name, m, filename):
    inst = fixture(rel_name)
    inst.cof = [tuple(p) for p in sorted(m.cof.name_pairs()) if p[0] != p[1]]
    inst.fib = [tuple(p) for p in sorted(m.fib.name_pairs()) if p[0] != p[1]]
    path = tmp_path / filename
    path.write_text(print_instance(inst), encoding="utf-8")
    return str(path)


def test_instance_round_trip():
    inst = fixture("two-structures")
    assert parse_instance(print_instance(inst)) == inst
    full = fixture("forced")
    full.cof = [("U", "C")]
    full.fib = [("C", "D")]
    assert parse_instance(print_instance(full)) == full


def test_report_round_trip():
    rep = ReportFile(
        command=["recognize", "x.json"],
        decision="yes",
        witnesses=[{"check": "s2of3", "witness": ["a", "b", "c"]}],
        structures=[{"we": [["a", "b"]], "cof": [], "fib": []}],
        centers=[[["a", "a"], ["b", "a"]]],
        zigzag={"directions": ["lr", "rl"]},
    )
    assert parse_report(print_report(rep)) == rep


def test_parse_errors_name_line_and_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1,\n  "elements": [1],\n}', encoding="utf-8")
    code, _ = run(["validate", str(bad)])
    assert code == 2
    bad.write_text(json.dumps({"version": 1, "elements": [1]}), encoding="utf-8")
    code, _ = run(["validate", str(bad)])
    assert code == 2
    bad.write_text(json.dumps({"version": 2, "elements": []}), encoding="utf-8")
    code, _ = run(["validate", str(bad)])
    assert code == 2


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture("nope")
    code, _ = run(["fixture", "nope"])
    assert code == 2


def test_validate_and_recognize(tmp_path):
    path = write_fixture(tmp_path, "two-structures")
    code, out = run(["validate", path])
    assert code == 0 and parse_report(out).decision == "valid"
    code, out = run(["recognize", path])
    assert code == 0 and parse_report(out).decision == "yes"

    bad = write_fixture(tmp_path, "s2of3-fail")
    code, out = run(["recognize", bad])
    rep = parse_report(out)
    assert code == 1 and rep.decision == "no"
    assert rep.witnesses[0]["check"] == "s2of3"
    assert rep.witnesses[0]["witness"] == ["a", "b", "c"]


def test_add_identities_flag(tmp_path):
    inst = fixture("two-structures")
    inst.add_identities = False
    path = tmp_path / "no-ids.json"
    path.write_text(print_instance(inst), encoding="utf-8")
    code, _ = run(["validate", str(path)])
    assert code == 2  # MissingIdentities
    code, _ = run(["--add-identities", "validate", str(path)])
    assert code == 0
    code, _ = run(["validate", str(path), "--add-identities"])
    assert code == 0


def test_centers_commands(tmp_path):
    path = write_fixture(tmp_path, "two-structures")
    code, out = run(["centers", "find", path])
    rep = parse_report(out)
    assert code == 0 and rep.decision == "found" and len(rep.centers) == 1
    assert ["A", "A"] in rep.centers[0]
    code, out = run(["centers", "enumerate", path])
    assert code == 0 and len(parse_report(out).centers) == 4
    code, out = run(["centers", "enumerate", "--limit", "2", path])
    rep = parse_report(out)
    assert len(rep.centers) == 2
    assert any(w["check"] == "enumeration_truncated" for w in rep.witnesses)
    bad = write_fixture(tmp_path, "s2of3-fail")
    code, out = run(["centers", "find", bad])
    assert code == 1 and parse_report(out).decision == "absent"


def test_synthesize_methods(tmp_path):
    path = write_fixture(tmp_path, "two-structures")
    for method in ("terminal", "centers", "centers-dual"):
        code, out = run(["synthesize", "--method", method, path])
        rep = parse_report(out)
        assert code == 0 and rep.decision == "synthesized"
        assert rep.structures[0]["we"]
    gens = tmp_path / "gens.json"
    inst = fixture("two-structures")
    inst.weq = [("A", "C"), ("B", "C"), ("Bp", "C")]
    gens.write_text(print_instance(inst), encoding="utf-8")
    code, out = run(["synthesize", "--method", "genmc", "--generators", str(gens), path])
    assert code == 0
    bad = write_fixture(tmp_path, "s2of3-fail")
    code, out = run(["synthesize", "--method", "terminal", bad])
    assert code == 1 and parse_report(out).decision == "failed"


def test_verify_and_newcofib(tmp_path, two_structures):
    right = right_printed(two_structures)
    spath = write_structure(tmp_path, "two-structures", right, "right.json")
    code, out = run(["verify", spath])
    assert code == 0 and parse_report(out).decision == "verified"
    code, out = run(["synthesize", "--method", "newcofib", spath])
    assert code == 0

    broken = fixture("two-structures")
    broken.cof = [("A", "B")]
    broken.fib = [("A", "B")]
    bpath = tmp_path / "broken.json"
    bpath.write_text(print_instance(broken), encoding="utf-8")
    code, out = run(["verify", str(bpath)])
    rep = parse_report(out)
    assert code == 1 and rep.decision == "failed" and rep.witnesses


def test_enumerate_command(tmp_path):
    path = write_fixture(tmp_path, "forced")
    code, out = run(["enumerate", path])
    rep = parse_report(out)
    assert code == 0 and rep.decision == "yes" and len(rep.structures) == 1
    bad = write_fixture(tmp_path, "s2of3-fail")
    code, out = run(["enumerate", bad])
    assert code == 1 and parse_report(out).structures == []
    big = write_fixture(tmp_path, "trunc-2")
    code, _ = run(["enumerate", big])
    assert code == 2  # default caps exceeded
    code, out = run(["enumerate", "--max-elements", "24", "--max-generators", "32", big])
    assert code == 0


def test_zigzag_and_reduce_commands(tmp_path, two_structures):
    left = write_structure(tmp_path, "two-structures", left_printed(two_structures), "l.json")
    right = write_structure(tmp_path, "two-structures", right_printed(two_structures), "r.json")
    code, out = run(["zigzag", left, right])
    rep = parse_report(out)
    assert code == 0 and rep.decision == "equivalent"
    assert len(rep.structures) == len(rep.zigzag["directions"]) + 1
    code, out = run(["zigzag", "--contract", left, right])
    assert code == 0

    from posetmodels import enumerate_model_structures, load

    forced_struct = enumerate_model_structures(load("forced"))[0]
    opath = write_structure(tmp_path, "forced", forced_struct, "forced-struct.json")
    code, _ = run(["zigzag", left, opath])
    assert code == 2  # mismatched base

    code, out = run(["reduce", right])
    rep = parse_report(out)
    assert code == 0 and rep.decision == "reduced"
    assert rep.centers[0] == [["bot", "bot"], ["A", "C"], ["B", "C"],
                              ["Bp", "C"], ["C", "C"], ["top", "top"]]


@pytest.mark.parametrize("value", ["0", "3", str(2**70), "x"])
def test_centers_find_takes_no_limit(tmp_path, capsys, value):
    # find returns one map, so a limit on it is an input error, whatever its value or position
    path = write_fixture(tmp_path, "two-structures")
    for argv in (["centers", "find", path, "--limit", value], ["centers", "--limit", value, "find", path]):
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput: posetmodels centers") and err.count("\n") == 1, err
    code, out = run(["centers", "find", path])
    assert code == 0 and parse_report(out).decision == "found"


def test_centers_enumerate_limit_zero(tmp_path):
    # YES: the limit keeps no map, but the truncated enumeration saw one
    code, out = run(["centers", "enumerate", "--limit", "0", write_fixture(tmp_path, "two-structures")])
    rep = parse_report(out)
    assert (code, rep.decision, rep.centers) == (0, "found", [])
    assert rep.witnesses == [{"check": "enumeration_truncated", "witness": []}]
    # NO: strong 2-of-3 fails, so no map exists
    code, out = run(["centers", "enumerate", "--limit", "0", write_fixture(tmp_path, "s2of3-fail")])
    rep = parse_report(out)
    assert (code, rep.decision, rep.centers) == (1, "absent", [])
    assert [w["check"] for w in rep.witnesses] == ["s2of3"]


def test_half_structure_files_are_input_errors(tmp_path, capsys):
    for field in ("cof", "fib"):
        inst = fixture("two-structures")
        setattr(inst, field, [("A", "B")])
        path = tmp_path / f"only-{field}.json"
        path.write_text(print_instance(inst), encoding="utf-8")
        for command in ("export-dot", "verify", "reduce"):
            capsys.readouterr()
            code, out = run([command, str(path)])
            assert code == 2 and out == ""
            assert capsys.readouterr().err == "error: InvalidInput: structure file requires 'cof' and 'fib' fields\n"


def test_export_dot(tmp_path, two_structures):
    code, out = run(["export-dot", write_fixture(tmp_path, "two-structures")])
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert '"A" -> "B" [label="~"];' in out

    left = write_structure(tmp_path, "two-structures", left_printed(two_structures), "l.json")
    code, out = run(["export-dot", left])
    assert code == 0
    # weak equivalences that are also cofibrations combine attributes
    assert '"A" -> "B" [arrowtail="hook", dir="both", label="~"];' in out
    assert '"A" -> "C" [arrowtail="hook", dir="both", label="~"];' in out
    # trivial 2-chain: one edge carrying both cof and fib attributes
    two = InstanceFile(elements=["bot", "top"], leq=[("bot", "top")], weq=[],
                       add_identities=True, cof=[("bot", "top")], fib=[("bot", "top")])
    tpath = tmp_path / "two.json"
    tpath.write_text(print_instance(two), encoding="utf-8")
    code, out = run(["export-dot", str(tpath)])
    assert code == 0
    assert '"bot" -> "top" [arrowhead="normalnormal", arrowtail="hook", dir="both"];' in out


DOT_ID = r'"(?:[^"\\]|\\.)*"'


def dot_label(token):
    """The label a DOT quoted ID spells."""
    assert re.fullmatch(DOT_ID, token)
    return re.sub(r"\\(.)", r"\1", token[1:-1])


def test_export_dot_escapes_quotes_and_backslashes():
    labels = ["\\", '"', '\\"', 'a"q', "b\\s", "c\\", '""', "\\\\n", "plain"]
    lat = build_lattice(labels, list(zip(labels, labels[1:])))
    rel = validate_relative(lat, [], add_identities=True)
    everything = MorphClass.all_morphisms(lat)
    for target in (rel, ModelStruct(rel, everything, everything)):
        body = export_dot(target).split("\n")[2:-2]
        nodes, edges = body[:len(labels)], body[len(labels):]
        assert [dot_label(re.fullmatch(rf"  ({DOT_ID});", line)[1]) for line in nodes] == labels
        ends = [re.fullmatch(rf"  ({DOT_ID}) -> ({DOT_ID})( \[.*\])?;", line) for line in edges]
        assert [(dot_label(m[1]), dot_label(m[2])) for m in ends] == list(zip(labels, labels[1:]))


def test_byte_identical_reports(tmp_path):
    path = write_fixture(tmp_path, "two-structures")
    for argv in (
        ["recognize", path],
        ["enumerate", path],
        ["centers", "enumerate", path],
        ["synthesize", "--method", "terminal", path],
        ["export-dot", path],
    ):
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert (code1, out1) == (code2, out2)
        assert out1.encode("utf-8") == out2.encode("utf-8")


def test_timings_flag(tmp_path):
    path = write_fixture(tmp_path, "two-structures")
    code, out = run(["--timings", "recognize", path])
    assert code == 0
    assert parse_report(out).timings is not None
    code, out = run(["recognize", path])
    assert parse_report(out).timings is None


def test_out_flag(tmp_path):
    path = write_fixture(tmp_path, "two-structures")
    target = tmp_path / "report.json"
    code, out = run(["--out", str(target), "recognize", path])
    assert code == 0 and out == ""
    assert parse_report(target.read_text(encoding="utf-8")).decision == "yes"


def test_flags_accepted_after_subcommand(tmp_path):
    path = write_fixture(tmp_path, "two-structures")
    target = tmp_path / "trailing.json"
    code, out = run(["recognize", path, "--out", str(target)])
    assert code == 0 and out == ""
    assert parse_report(target.read_text(encoding="utf-8")).decision == "yes"
    code, out = run(["recognize", path, "--timings"])
    assert code == 0 and parse_report(out).timings is not None


def test_timings_report_differs_only_by_its_seconds(tmp_path, two_structures):
    path = write_fixture(tmp_path, "two-structures")
    bad = write_fixture(tmp_path, "s2of3-fail")
    left = write_structure(tmp_path, "two-structures", left_printed(two_structures), "l.json")
    broken = fixture("two-structures")
    broken.cof = broken.fib = [("A", "B")]
    (tmp_path / "broken.json").write_text(print_instance(broken), encoding="utf-8")
    for command in (["recognize", path], ["recognize", bad], ["centers", "enumerate", "--limit", "2", path],
                    ["synthesize", "--method", "centers", bad], ["zigzag", left, left],
                    ["reduce", str(tmp_path / "broken.json")], ["verify", str(tmp_path / "broken.json")]):
        code, plain = run(command)
        for timed_argv in (["--timings", *command], [*command, "--timings"]):
            timed_code, timed = run(timed_argv)
            rep = parse_report(timed)
            assert timed_code == code and rep.command == timed_argv
            assert list(rep.timings) == ["seconds"] and isinstance(rep.timings["seconds"], float)
            rep.command, rep.timings = command, None
            assert print_report(rep) == plain


@pytest.mark.parametrize("field, value, what", [
    ("command", "abc", "a list of strings"),
    ("command", ["recognize", 1], "a list of strings"),
    ("decision", 5, "a string"),
    ("decision", None, "a string"),
    ("witnesses", {"k": 1}, "a list of objects"),
    ("witnesses", [["s2of3"]], "a list of objects"),
    ("structures", [[]], "a list of objects"),
    ("centers", {}, "a list"),
    ("zigzag", ["lr"], "an object"),
    ("zigzag", None, "an object"),
    ("timings", 0.5, "an object"),
])
def test_report_fields_must_have_their_types(field, value, what):
    data = {"version": 1, "command": ["recognize", "x.json"], "decision": "yes", field: value}
    with pytest.raises(InvalidInput, match=f"^field '{field}' must be {what}$"):
        report_from_dict(data)


def test_report_fields_are_checked_in_order_and_default_when_absent():
    with pytest.raises(InvalidInput, match="^field 'command' must be a list of strings$"):
        parse_report('{"version": 1, "command": "abc", "decision": 5, "witnesses": {"k": 1}}')
    assert report_from_dict({"version": 1}) == ReportFile(command=[], decision="")


def test_trunc_fixture_recognize(tmp_path):
    path = write_fixture(tmp_path, "trunc-2")
    code, out = run(["recognize", path])
    assert code == 0 and parse_report(out).decision == "yes"


def test_missing_generators_file_is_an_input_error(tmp_path, capsys):
    path = write_fixture(tmp_path, "two-structures")
    capsys.readouterr()
    missing = tmp_path / "no-such-generators.json"
    code, out = run(["synthesize", "--method", "genmc", "--generators", str(missing), path])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: PosetModelError: cannot read {missing}: ")


def test_unwritable_out_path_is_an_input_error(tmp_path, capsys):
    path = write_fixture(tmp_path, "two-structures")
    capsys.readouterr()
    target = tmp_path / "no-such-dir" / "report.json"
    code, out = run(["--out", str(target), "recognize", path])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: PosetModelError: cannot write {target}: ")


def test_zigzag_command_on_the_pentagon_pair_in_both_orders(tmp_path):
    rel = pentagon()
    lat = rel.lattice
    paths = []
    for name, m in zip("ab", pentagon_pair(rel)):
        inst = InstanceFile(list(lat.names), [lat.pair_names(p) for p in lat.cover_pairs()],
                            [lat.pair_names(p) for p in rel.weq.nonidentity_pairs()], add_identities=True,
                            cof=[lat.pair_names(p) for p in m.cof.nonidentity_pairs()],
                            fib=[lat.pair_names(p) for p in m.fib.nonidentity_pairs()])
        path = tmp_path / f"{name}.json"
        path.write_text(print_instance(inst), encoding="utf-8")
        paths.append(str(path))
    for first, second in (paths, paths[::-1]):
        for extra in ([], ["--contract"]):
            code, out = run(["zigzag", *extra, first, second])
            assert code == 0 and parse_report(out).decision == "equivalent"


def test_mismatched_base_diagnostic(tmp_path, capsys, two_structures):
    from posetmodels import enumerate_model_structures, load

    left = write_structure(tmp_path, "two-structures", left_printed(two_structures), "l.json")
    other = write_structure(tmp_path, "forced", enumerate_model_structures(load("forced"))[0], "f.json")
    capsys.readouterr()
    code, _ = run(["zigzag", left, other])
    assert code == 2
    assert capsys.readouterr().err == "error: MismatchedBase: structures live on different lattices\n"


def test_undecodable_and_deeply_nested_files_are_input_errors(tmp_path, capsys):
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for path, diagnostic in ((undecodable, f"cannot read {undecodable}: not UTF-8 text: "),
                             (deep, "JSON nesting too deep")):
        code, out = run(["recognize", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: InvalidInput: {diagnostic}")
    with pytest.raises(InvalidInput, match="nesting too deep"):
        parse_report("[" * 100_000 + "]" * 100_000)


def test_version_must_be_the_integer_one(tmp_path, capsys):
    for version in (True, 1.0):
        with pytest.raises(InvalidInput, match=f"field 'version' must be 1, got {version!r}"):
            instance_from_dict({"version": version, "elements": ["a"]})
        with pytest.raises(InvalidInput, match=f"field 'version' must be 1, got {version!r}"):
            report_from_dict({"version": version, "decision": "yes"})
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1.0, "elements": ["a"]}', encoding="utf-8")
    code, out = run(["validate", str(bad)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: InvalidInput: field 'version' must be 1, got 1.0\n"


def test_negative_enumeration_limit_is_an_input_error(tmp_path, capsys, two_structures):
    with pytest.raises(InvalidInput, match="limit must be at least 0, got -1"):
        enumerate_centers(two_structures, limit=-1)
    path = write_fixture(tmp_path, "two-structures")
    capsys.readouterr()
    code, out = run(["centers", "enumerate", "--limit", "-1", path])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: InvalidInput: limit must be at least 0, got -1\n"


@pytest.mark.parametrize("flag, name, cap", [("--max-elements", "max_elements", -3),
                                             ("--max-generators", "max_generators", -1)])
def test_negative_oracle_caps_are_input_errors(tmp_path, capsys, two_structures, flag, name, cap):
    message = f"{name} must be at least 0, got {cap}"
    with pytest.raises(InvalidInput, match=message):
        enumerate_model_structures(two_structures, **{name: cap})
    path = write_fixture(tmp_path, "two-structures")
    capsys.readouterr()
    code, out = run(["enumerate", flag, str(cap), path])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: InvalidInput: {message}\n"


def test_default_oracle_caps(tmp_path, capsys):
    """Without cap flags, enumerate applies the oracle's default caps: at
    most 10 lattice elements and 14 non-identity weak equivalences."""
    eleven = write_fixture(tmp_path, "chain-9")  # bot, m1..m9, top
    names = [f"x{i}" for i in range(6)]
    full = InstanceFile(elements=names, leq=list(zip(names, names[1:])),
                        weq=[(a, b) for i, a in enumerate(names) for b in names[i + 1:]], add_identities=True)
    six = tmp_path / "six.json"
    six.write_text(print_instance(full), encoding="utf-8")
    capsys.readouterr()
    for path, message in ((eleven, "lattice elements: 11 exceeds cap 10"),
                          (str(six), "non-identity weak equivalences: 15 exceeds cap 14")):
        code, out = run(["enumerate", path])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: CapExceeded: {message}\n"
