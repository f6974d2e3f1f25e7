"""Every demo script, and every Python block of README.md, runs to
completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import selfnorm

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)
SRC = str(Path(selfnorm.__file__).resolve().parent.parent)


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    # the repository's warning policy: a RuntimeWarning is an error
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = run_python([str(demo)])
    assert out.returncode == 0, out.stderr


def test_readme_blocks_found():
    assert len(README_BLOCKS) >= 1


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"readme-{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block):
    out = run_python(["-c", block])
    assert out.returncode == 0, out.stderr
