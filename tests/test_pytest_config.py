"""The test configuration itself: a failing property test reports its
falsifying example, a mistyped marker fails collection, and a plain test
passes with no configuration warning."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_probe(x):
    assert x < 5
"""

MISTYPED = """
import pytest


@pytest.mark.slwo
def test_marked():
    pass
"""


PLAIN = """
def test_plain():
    pass
"""


def _pytest(tmp_path, name, text, *options):
    """Exit code and output of pytest run with the project's configuration
    and `options` on one test file, `text` written as `name` in tmp_path."""
    (tmp_path / name).write_text(text, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), *options, name],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout + done.stderr


def test_a_failing_property_test_shows_its_falsifying_example(tmp_path):
    # the configuration turns warnings into errors, and hypothesis's failure
    # report imports third-party modules that warn on import: the session
    # must still end as a plain failure that shows the example
    code, out = _pytest(tmp_path, "test_probe.py", PROBE)
    assert code == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_a_mistyped_marker_fails_collection(tmp_path):
    # a marker that is not registered is an error, so a typo cannot put a
    # slow sweep into the default run: strict markers fail its collection,
    # and so does the warning filter's "error"
    code, out = _pytest(tmp_path, "test_marked.py", MISTYPED)
    assert code == 2, out
    assert "1 error during collection" in out and "slwo" in out


def test_a_mistyped_marker_fails_collection_with_warnings_relaxed(tmp_path):
    # with the unknown-marker warning ignored, only strict markers stop the
    # typo: the ini key strict_markers, which pytest 9 applies (pytest 9.0.3
    # does not apply --strict-markers from addopts)
    code, out = _pytest(tmp_path, "test_marked.py", MISTYPED, "-W", "ignore::pytest.PytestUnknownMarkWarning")
    assert code == 2, out
    assert "'slwo' not found in `markers` configuration option" in out


def test_a_plain_test_passes_with_no_configuration_warning(tmp_path):
    code, out = _pytest(tmp_path, "test_plain.py", PLAIN)
    assert code == 0, out
    assert "1 passed" in out and "warning" not in out.lower()
