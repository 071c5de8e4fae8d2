"""The test configuration itself: a failing property test is reported, not lost."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # pyproject's "error" filter must not turn a warning raised inside
    # hypothesis's failure reporter into an INTERNALERROR that hides the example
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    args = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "test_failing.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
