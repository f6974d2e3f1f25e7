"""The names bench/tracer.py patches: every one must stay a global that
the library looks up at call time, or the benchmark's per-layer counts
silently read 0; bench/worker.py's parallel speedup, which no workload
reaches until one simulates at n = 256; and bench/check.py's verdict on
every workload's outputs, which the benchmark refuses when it fails."""

import contextlib
import io
import math
import os
import sys

import pytest

from selfnorm import cli
from selfnorm.distributions import DistributionModel, UniformSymmetric
from selfnorm.mc import THREADS_ENV, MCConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)
import check
import workloads
from tracer import (EXP_CELL, LOG_MGF2, POWER_CELL, PRIMITIVES, SUP_CELL,
                    Tracer, _law_classes)
from worker import parallel_speedup

ARGVS = [
    ["bound-exp", "--dist", "gaussian", "--n", "1,4", "--n-sup", "1:8",
     "--B", "0.5,5"],
    ["bound-power", "--dist", "uniform:a=1.7320508075688772", "--n", "4",
     "--B", "1,5"],
    ["verify", "--dist", "rademacher", "--n", "1,4", "--B", "0.5,3",
     "--trials", "2000"],
    # a density law: the exact referee leaves it to the simulation
    ["verify", "--dist", "uniform:a=1.7320508075688772", "--n", "1,4",
     "--B", "0.5,3", "--trials", "2000"],
]


def run_all(argvs=ARGVS) -> list[tuple[str, int]]:
    """Stdout and exit status of each command, run through cli.main."""
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out.append((buf.getvalue(), exc.value.code))
    return out


def test_tracer_counts_every_layer_and_changes_no_output():
    plain = run_all()
    tracer = Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        traced = run_all()
    finally:
        tracer.uninstall()

    assert traced == plain
    assert [code for _, code in plain] == [0, 0, 0, 0]
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
    for kind in (EXP_CELL, POWER_CELL, SUP_CELL):
        assert len(tracer.cells[kind]) > 0, kind
    for name in (*PRIMITIVES, "convex.maximize_concave", "gls.tail_opt",
                 "mc.empirical_tail", "mc.verify_bounds", "cli.main"):
        assert tracer.calls[name] > 0, name
    # the tracer patches DistributionModel.log_mgf2: a law that overrode
    # it, not its _log_mgf2 hook, would go uncounted
    assert tracer.per_law[(LOG_MGF2, "gaussian")][0] > 0


def test_laws_override_hooks_not_primitives():
    # the tracer patches DistributionModel, and each primitive checks its
    # domain there: a law overrides the primitive's hook, never the
    # primitive, and the base class holds no backend code
    laws = [law for law in _law_classes() if law is not DistributionModel]
    assert len(laws) >= 6
    hooks = {"q1": "_q1", "lp_norm": "_lp_norm", "log_mgf2": "_log_mgf2",
             "quadratic_moments": "_quadratic_moments",
             "summand_lp_norm": "_log_summand_moment"}
    for law in laws:
        for name, hook in hooks.items():
            assert name not in vars(law), (law.__name__, name)
            assert hasattr(law, hook), (law.__name__, hook)
    for name in (*hooks.values(), "expect", "_log_expect_exponent"):
        assert not hasattr(DistributionModel, name), name


@pytest.mark.parametrize("saved", [None, "3"])
def test_parallel_speedup_restores_the_thread_cap(monkeypatch, saved):
    if saved is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, saved)
    ratio = parallel_speedup((UniformSymmetric(1.0), MCConfig(4, 2000, 1), [0.5]))
    assert math.isfinite(ratio) and ratio > 0.0
    assert os.environ.get(THREADS_ENV) == saved


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_outputs_pass_the_benchmark_check(workload):
    outputs, exits = zip(*run_all(workloads.commands(workload, 1)))
    with open(os.path.join(BENCH, "reference", f"{workload}.csv")) as fh:
        result = check.compare(fh.read(), list(outputs), list(exits))
    assert result["correct"] and result["failed"] == 0, result["problems"]
