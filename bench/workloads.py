"""The benchmark's workloads: the `selfnorm` CLI commands each one runs.

Every workload is a list of argument vectors for ``selfnorm.cli.main``,
run one after another.  Only ``verify-mc`` depends on the workload seed
(it becomes the simulation's ``--seed``); the other three are
deterministic.  README.md in this directory says why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

UNIFORM = "uniform:a=1.7320508075688772"  # unit variance: a = sqrt(3)


def _exp_grid(seed: int) -> list[list[str]]:
    return [["bound-exp", "--dist", law, "--n", "16"]
            for law in ("rademacher", "gaussian", UNIFORM)]


def _power_grid(seed: int) -> list[list[str]]:
    return [["bound-power", "--dist", law, "--n", "16", "--B", "1,3,20"]
            for law in ("gaussian", UNIFORM)]


def _verify_mc(seed: int) -> list[list[str]]:
    return [["verify", "--dist", "rademacher", "--n", "1,4,16,64,256",
             "--trials", "1000000", "--seed", str(seed)]]


def _sup_scan(seed: int) -> list[list[str]]:
    return [["bound-exp", "--dist", "gaussian", "--n", "1",
             "--n-sup", "1:4096", "--B", "5"]]


WORKLOADS = {
    "exp-grid": _exp_grid,
    "power-grid": _power_grid,
    "verify-mc": _verify_mc,
    "sup-scan": _sup_scan,
}


def commands(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](seed)


def laws(workload: str) -> list[str]:
    """The distribution specs a workload's commands build."""
    out = []
    for argv in commands(workload, 0):
        spec = argv[argv.index("--dist") + 1]
        if spec not in out:
            out.append(spec)
    return out
