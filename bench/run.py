"""Benchmark of the selfnorm command line: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload exp-grid --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --trace 1

``--workload`` is one of exp-grid, power-grid, verify-mc, sup-scan, or
``all`` for the four one after another.  Each workload runs in a fresh
worker interpreter (worker.py) through ``selfnorm.cli.main``, and its
output is checked against ``reference/<workload>.csv`` (check.py).

``--trace 0`` prints the end-to-end metrics, measured untraced:

    wall_s       median wall time of one pass over the workload's commands,
                 scaled to the reference core speed (calibrate.py); passes
                 repeat while the next one fits in --seconds (at least one)
    setup_s      median, over SETUP_SAMPLES fresh interpreters, of the time
                 to import selfnorm.cli and build the workload's laws,
                 scaled to the reference core speed
    peak_rss_mb  peak resident memory of the worker process

``--trace 1`` prints the per-layer metrics of a traced pass (tracer.py)
plus fail_frac and tightness_log_max of the output check.  It also fails
the check when a traced pass prints other bytes than the untraced one,
or when two traced passes disagree on an exact count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each metric is
``{"value": ..., "unit": ...}``.  With ``--workload all`` the metric
names are prefixed with the workload's name.  README.md says why each
workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import check
from workloads import WORKLOADS, laws

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import selfnorm.cli
from selfnorm.distributions import parse_distribution
for spec in sys.argv[2:]:
    parse_distribution(spec)
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import calibrate
kernel_seconds = (calibrate.kernel_s() + calibrate.kernel_s()) / 2.0
print(seconds, calibrate.scale(seconds, kernel_seconds))
"""


class BenchError(RuntimeError):
    pass


def _child(argv: list[str]) -> str:
    """Run a Python child on the checkout's sources; return its stdout."""
    env = dict(os.environ)
    # one malloc arena for all threads: with one per thread, what glibc
    # keeps of the 16 MB simulation chunks depends on thread timing, and
    # from run to run verify-mc's peak RSS reads 183 or 198 MB and its
    # page faults differ 2x; with one arena it reads 166 MB every time
    env["MALLOC_ARENA_MAX"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def _setup_s(workload: str) -> tuple[float, float]:
    """Median scaled and median raw set-up seconds over SETUP_SAMPLES."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = _child(["-c", SETUP_CODE, str(HERE), *laws(workload)])
        seconds, scaled_seconds = map(float, out.split()[-2:])
        raw.append(seconds)
        scaled.append(scaled_seconds)
    return statistics.median(scaled), statistics.median(raw)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = _child([str(HERE / "worker.py"), "--workload", workload,
                  "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(int(trace))])
    worker = json.loads(out.splitlines()[-1])
    reference = (HERE / "reference" / f"{workload}.csv").read_text()
    result = check.compare(reference, worker["outputs"], worker["exits"])
    if trace:
        metrics = worker["metrics"]
        metrics["fail_frac"] = {"value": result["fail_frac"], "unit": "frac"}
        metrics["tightness_log_max"] = {"value": result["tightness_log_max"],
                                        "unit": "ln"}
        own = []  # the traced run's own checks that failed
        if not worker["traced_identical"]:
            own.append("traced output differs from the untraced output")
        if worker["count_mismatches"]:
            own.append("exact counts differ between two traced passes: "
                       + ", ".join(worker["count_mismatches"]))
    else:
        scaled = worker["scaled_walls"]
        setup_s, raw_setup_s = _setup_s(workload)
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
        print(f"# {workload}: wall_s is the median of {len(scaled)} scaled passes: "
              + ", ".join(f"{w:.3f}" for w in scaled))
        print(f"# {workload}: unscaled: wall time median "
              f"{statistics.median(worker['walls']):.3f} s, "
              f"set-up median {raw_setup_s:.3f} s")
        own = ([] if worker["repeatable"]
               else ["passes of the same inputs printed different output"])
    for line in result["problems"] + own:
        print(f"# {workload}: check: {line}", file=sys.stderr)
    return {"correct": result["correct"] and not own,
            "attempted": result["attempted"] + (2 if trace else 1),
            "failed": result["failed"] + len(own),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; only verify-mc uses it")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "selfnorm" / "cli.py").is_file():
        print(f"bench: no selfnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                print(f"{name:<11} {metric:<48} {entry['value']:>16.6g} "
                      f"{entry['unit']}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                summary["metrics"][key] = entry
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
