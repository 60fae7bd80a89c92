import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_runs_after():
    pass
'''


def test_failing_hypothesis_example_does_not_abort_the_run(tmp_path):
    """Under the suite's warning filters a failing Hypothesis example is
    reported as one failure and the tests after it still run."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
