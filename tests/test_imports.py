"""What importing the package and running the command line load, and the
public names of the package, which it imports on first access."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import posetmodels
from posetmodels import fixture
from posetmodels.formats import print_instance

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "CenterEnumeration", "CenterMap", "Check", "Decision", "FiniteLattice", "InstanceGen", "ModelStruct",
    "MorphClass", "Pair", "PosetModelError", "ReductionMaps", "RelStruct", "Report", "Zigzag",
    "build_lattice", "build_zigzag", "centers", "check_cw_factorization", "check_s2of3", "classes",
    "cofibrant_objects", "compute_Jchi", "compute_Qchi", "compute_Wc", "compute_Wc_chi", "compute_Wf",
    "compute_Wf_chi", "construct_from_centers", "construct_from_centers_dual", "construct_genMC",
    "construct_genMC_dual", "construct_newcofib", "construct_newfib_dual", "construct_terminal",
    "decide_by_enumeration", "dot", "enumerate_centers", "enumerate_model_structures", "equivalence",
    "errors", "export_dot", "extract_centers", "factor_via_centers", "factorize", "fibrant_objects",
    "find_centers", "fixture", "fixtures", "formats", "generating_sets", "homotopy_reduce",
    "is_binary_coproduct_closed", "is_binary_product_closed", "is_composition_closed",
    "is_identity_left_quillen", "is_mls", "is_pullback_closed", "is_pushout_closed", "is_wfs", "join_all",
    "lattice", "left_complement", "lifts", "load", "meet_all", "models", "oracle", "product_centers",
    "proper_factorizations", "pullback_of", "pushout_of", "random_instances", "recognize_finite",
    "relative", "replacement", "report", "right_complement", "subcategory_check", "validate_centers",
    "validate_relative", "verify_model",
]


def run_fresh(code: str, timeout: float = 60) -> str:
    """Run `code` in a fresh interpreter on this checkout's sources; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_by(code: str) -> set[str]:
    """The modules that running `code` adds to those a bare interpreter
    already holds, site packages among them."""
    script = ("import sys\nbefore = set(sys.modules)\n" + code +
              "\nsys.stdout.write('\\n' + ' '.join(sorted(set(sys.modules) - before)))")
    return set(run_fresh(script).rsplit("\n", 1)[1].split())


def ours(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("posetmodels.")}


def test_importing_the_package_loads_no_submodule():
    added = loaded_by("import posetmodels")
    assert "posetmodels" in added and ours(added) == set()


def test_the_command_line_module_loads_only_the_file_formats():
    added = loaded_by("import posetmodels.cli")
    assert ours(added) == {"errors", "report", "formats", "cli"}
    assert "dataclasses" not in added and "inspect" not in added


def test_the_fixture_command_loads_no_lattice_layer():
    added = ours(loaded_by(
        "from posetmodels.cli import run_cli\n"
        f"assert run_cli(['fixture', 'two-structures', '--out', {os.devnull!r}]) == 0"
    ))
    assert "fixtures" in added and not {"lattice", "classes", "relative"} & added


@pytest.mark.parametrize("argv, loads, skips", [
    (["validate"], set(), {"models", "centers", "oracle", "equivalence"}),
    (["enumerate"], {"oracle"}, {"equivalence"}),
])
def test_a_subcommand_loads_only_what_it_runs(tmp_path, argv, loads, skips):
    path = tmp_path / "two-structures.json"
    path.write_text(print_instance(fixture("two-structures")), encoding="utf-8")
    added = ours(loaded_by(
        "from posetmodels.cli import run_cli\n"
        f"assert run_cli({[*argv, str(path), '--out', os.devnull]!r}) == 0"
    ))
    assert loads <= added and not skips & added


@pytest.mark.parametrize("command", ["validate", "recognize"])
def test_validate_and_recognize_load_no_copy_module(tmp_path, command):
    # the opposite relative structure is built directly, not copied
    path = tmp_path / "two-structures.json"
    path.write_text(print_instance(fixture("two-structures")), encoding="utf-8")
    added = loaded_by(
        "import sys\n"
        "from posetmodels.cli import run_cli\n"
        f"assert run_cli({[command, str(path), '--out', os.devnull]!r}) == 0\n"
        "assert 'copy' not in sys.modules"
    )
    assert {"relative", "lattice"} <= ours(added) and "copy" not in added


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "posetmodels").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), f"{path.name}:{node.lineno}"


def test_public_names_are_the_objects_their_modules_define():
    assert posetmodels.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(posetmodels, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"posetmodels.{name}"]
        else:
            assert value.__module__.startswith("posetmodels.")
            assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from posetmodels import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(posetmodels, name) for name in PUBLIC)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        posetmodels.no_such_name
    with pytest.raises(ImportError):
        exec("from posetmodels import no_such_name", {})


def test_dir_lists_the_public_names_and_the_module_attributes():
    dunders = {"__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
               "__package__", "__path__", "__spec__"}
    assert set(dir(posetmodels)) - {"cli"} == set(PUBLIC) | dunders


def test_threads_resolving_every_name_at_once_get_the_same_objects():
    out = run_fresh("""
import sys, threading
import posetmodels

names = posetmodels.__all__
barrier = threading.Barrier(8)
results = [None] * 8

def resolve(k):
    barrier.wait()
    order = names[k * 10:] + names[:k * 10]
    got = {name: getattr(posetmodels, name) for name in order}
    results[k] = [got[name] for name in names]

old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=resolve, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
finally:
    sys.setswitchinterval(old)
assert all(r is not None for r in results)
assert all(a is b for r in results for a, b in zip(r, results[0]))
assert all(a is getattr(posetmodels, n) for a, n in zip(results[0], names))
print(len(results[0]))
""", timeout=120)
    assert out.split() == [str(len(PUBLIC))]
