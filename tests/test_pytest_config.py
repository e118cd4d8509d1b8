"""The suite's own pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PLAIN = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # reporting a falsifying example imports libcst, which warns with a
    # DeprecationWarning; the suite turns those into errors, and one raised
    # there used to end the run with INTERNALERROR before later tests ran
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PLAIN)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "--assert=plain", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
