"""The repository's pytest warnings policy lets a failing property test report."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != 0


@settings(database=None, derandomize=True)
@given(st.integers())
def test_passes(x):
    assert x == x
'''


def test_a_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    """hypothesis reports a failing example through its patch writer, which
    imports libcst where that is installed; under the repository's filters
    the import must not end the run in INTERNALERROR."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "assert 0 != 0" in run.stdout
