"""The test configuration itself: a failing property test reports its
falsifying example, and a mistyped marker fails collection."""

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


def _pytest(tmp_path, name, text):
    """Exit code and output of pytest run with the project's configuration
    on one test file, `text` written as `name` in tmp_path."""
    (tmp_path / name).write_text(text, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), name],
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
    # slow sweep into the default run: --strict-markers in addopts fails it
    # where pytest applies that flag from addopts, and the warning filter's
    # "error" where it does not (pytest 9.0.3)
    code, out = _pytest(tmp_path, "test_marked.py", MISTYPED)
    assert code == 2, out
    assert "1 error during collection" in out and "slwo" in out
