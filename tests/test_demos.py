"""The README's demo scripts and code blocks run to completion against the
source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == [
        "ghz_equations.py", "hardy_false_positive.py", "mermin_square.py",
        "obstruction_crosscheck.py"]
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "block", README_BLOCKS,
    ids=[f"readme{k}" for k in range(len(README_BLOCKS))])
def test_readme_block_runs(block):
    proc = _run(["-c", block])
    assert proc.returncode == 0, proc.stderr
