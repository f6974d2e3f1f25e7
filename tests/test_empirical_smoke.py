"""Every command runs warning-free on a table of 8 or more atoms.

A table of 8 or more atoms takes the array route of ``DiscreteLaw``'s
sums, which no other end-to-end test reaches.  Each command runs in a
subprocess that turns a RuntimeWarning into an error, on 20 gaussian
draws at unit scale and at sigma ~ 5e153, where the summand's products
overflow.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfnorm

SRC = str(Path(selfnorm.__file__).resolve().parent.parent)
COMMANDS = {
    "bound-exp": ["bound-exp"],
    "bound-power": ["bound-power", "--n-sup", "1:64"],
    "bound-lower": ["bound-lower"],
    "mc": ["mc", "--n", "1,2"],
    "verify": ["verify", "--n", "1,2", "--n-sup", "1:64"],
}


@pytest.fixture(scope="module", params=[1.0, 5e153], ids=["unit", "sigma 5e153"])
def sample_file(request, tmp_path_factory):
    draws = np.random.default_rng(7).standard_normal(20)
    path = tmp_path_factory.mktemp("empirical") / "draws.txt"
    path.write_text("".join(f"{x!r}\n" for x in
                            (draws * (request.param / draws.std())).tolist()))
    return path


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_runs_without_warnings(command, sample_file):
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "selfnorm.cli",
         *COMMANDS[command], "--dist", f"empirical:{sample_file}"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC})
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout
