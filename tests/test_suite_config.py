"""The suite's own pytest settings, run on a planted file in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True, max_examples=10)
@given(st.integers())
def test_a_falsified_property(x):
    assert x != 0


def test_after_it():
    pass
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    """Every warning is an error under the suite's settings; a falsified
    Hypothesis example is still reported as one failure, not as an
    INTERNALERROR that stops the run before the tests after it."""
    planted = tmp_path / "test_planted.py"
    planted.write_text(PLANTED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(planted)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
