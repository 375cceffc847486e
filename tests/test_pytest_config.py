"""The suite's pytest settings report a failing property test and go on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=1)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report raises a DeprecationWarning, which
    # warnings-as-errors alone turns into an INTERNALERROR that stops the run
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "PASSED test_property.py::test_runs_after" in out
