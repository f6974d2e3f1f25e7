"""Run one workload in this process and print its measurements as JSON.

run.py starts this script in a fresh interpreter with the checkout's
``src`` on PYTHONPATH:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload once to warm up, then repeats it
untraced while the next pass fits in ``--seconds`` (at least once), with
the calibration kernel of calibrate.py before the first timed pass and
after each.  It reports each pass's wall time raw and scaled to the
reference speed, the outputs of the warm-up pass and the process's peak
resident memory.  With
``--trace 1`` it runs the workload once untraced, then untraced and
traced twice each, and reports the per-layer metrics of the first traced
pass, whether every pass printed exactly the first pass's output, and
whether the two traced passes agree on every exact count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time

import calibrate
from selfnorm import cli, mc
from tracer import Tracer, exact_counts
from workloads import commands


def run_pass(argvs: list[list[str]]) -> dict:
    """Run each command once through cli.main, capturing stdout."""
    outputs, exits = [], []
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                cli.main(argv)
            except SystemExit as exc:
                code = exc.code or 0
        outputs.append(buf.getvalue())
        exits.append(code)
    return {"outputs": outputs, "exits": exits,
            "wall_s": time.perf_counter() - t0}


def plain(argvs: list[list[str]], budget_s: float) -> dict:
    # an untimed first pass keeps first-call costs (heap growth, lazy
    # imports) out of the timings and gives the outputs to check.  The
    # calibration kernel then runs before the first timed pass and after
    # every pass; a pass is scaled by the mean of the two kernel times
    # around it.  No pass starts that would end past the budget (the
    # first always runs).
    first = run_pass(argvs)
    kernels = [calibrate.kernel_s()]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(argvs))
        kernels.append(calibrate.kernel_s())
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] + kernels[-1] > budget_s:
            break
    walls = [p["wall_s"] for p in passes]
    return {
        "outputs": first["outputs"],
        "exits": first["exits"],
        "repeatable": all(p["outputs"] == first["outputs"]
                          and p["exits"] == first["exits"] for p in passes),
        "walls": walls,
        "scaled_walls": [calibrate.scale(w, (a + b) / 2.0)
                         for w, a, b in zip(walls, kernels, kernels[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parallel_speedup(call: tuple) -> float:
    """empirical_tail time with one worker thread over the time with two."""
    seconds = {}
    saved = os.environ.get(mc.THREADS_ENV)
    try:
        for threads in (1, 2):
            os.environ[mc.THREADS_ENV] = str(threads)
            t0 = time.perf_counter()
            mc.empirical_tail(*call)
            seconds[threads] = time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ[mc.THREADS_ENV]
        else:
            os.environ[mc.THREADS_ENV] = saved
    return seconds[1] / seconds[2]


def traced(argvs: list[list[str]]) -> dict:
    # a first untraced pass keeps first-call costs out of the timings;
    # then untraced and traced passes alternate, so that drift in the
    # machine's speed cancels out of the overhead estimate
    reference = run_pass(argvs)
    untraced, traced_passes, tracers = [], [], []
    for _ in range(2):
        untraced.append(run_pass(argvs))
        tracer = Tracer()
        tracer.install()
        try:
            traced_passes.append(run_pass(argvs))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    metrics = [t.metrics(p["wall_s"]) for t, p in zip(tracers, traced_passes)]
    counts, counts2 = (exact_counts(m) for m in metrics)
    metrics = metrics[0]
    call = tracers[0].mc_call_n256
    speedup = parallel_speedup(call) if call is not None else 0.0
    metrics["mc.parallel_speedup.n256"] = {"value": speedup, "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": traced_passes[0]["wall_s"], "unit": "s"}
    metrics["trace_overhead_frac"] = {
        "value": (sum(p["wall_s"] for p in traced_passes)
                  / sum(p["wall_s"] for p in untraced) - 1.0),
        "unit": "frac"}
    return {
        "outputs": reference["outputs"],
        "exits": reference["exits"],
        "traced_identical": all(p["outputs"] == reference["outputs"]
                                and p["exits"] == reference["exits"]
                                for p in untraced + traced_passes),
        "count_mismatches": sorted(k for k in counts if counts[k] != counts2[k]),
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    argvs = commands(args.workload, args.seed)
    result = traced(argvs) if args.trace else plain(argvs, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
