"""The repository's pytest settings keep a failing test's report readable."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
"""


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # filterwarnings = ["error"] once turned a DeprecationWarning raised in
    # Hypothesis's report hook into an INTERNALERROR that hid the example
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
