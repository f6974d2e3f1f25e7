"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfnorm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(selfnorm.__file__).resolve().parent.parent)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the repository's warning policy: a RuntimeWarning is an error
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          str(demo)], capture_output=True,
                         text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
