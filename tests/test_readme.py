"""The README's library example runs and prints what its comments claim."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_block() -> str:
    """The python block of the README's ## Library section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_claims(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", library_block()],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stderr == ""
    stable, stabilizable, (converged, hitting_time) = [line.split() for line in out.stdout.splitlines()]
    assert (stable, stabilizable, converged) == (["True"], ["True"], "True")
    assert 0 < float(hitting_time) < math.inf
