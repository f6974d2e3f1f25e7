"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload exp-grid --seeds 1-10

The runs are untraced.  For every metric it prints the median of the
runs and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from BENCHMARK.json.  ``--json PATH`` also writes
every run's result there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="lo-hi, inclusive")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds), file=sys.stderr, flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    print(f"{'metric':<48} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:<48} {med:>12.6g} {spread:>11.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
