"""Check a workload's CSV output against its committed reference.

A reference file is the CSV of each of the workload's commands, one
after another, as the seed version of selfnorm printed them.  Rows are
matched by ``(dist, n, B, family)``.  Every row and every command's exit
status is one checked cell.  A cell fails when:

* its row is missing or extra;
* its status differs from the reference's, except that a verified cell
  may read PASS or FAIL; a FAIL counts as failed;
* an upper bound (ExpLevel, PowerLevel) falls below its reference value
  by more than REL_TOL, or a lower bound (LowerQ1, LowerCLT) rises above
  it by more than REL_TOL;
* the exit status is not 1 for a ``verify`` that printed a FAIL and 0
  otherwise.

All of these except a FAIL status also make the output incorrect: a FAIL
is the referee's verdict, which has a false-alarm rate of alpha/2 per
cell, and it is reported, not hidden.  The verify command's simulation
columns depend on the seed and are not compared.
"""

from __future__ import annotations

import csv
import io
import math

UPPER = ("ExpLevel", "PowerLevel")
LOWER = ("LowerQ1", "LowerCLT")
VERIFIED = ("PASS", "FAIL")
REL_TOL = 1e-9


def _rows(texts: list[str]) -> tuple[dict, int]:
    """Rows keyed by (dist, n, B, family), and the number of duplicates."""
    rows, duplicates = {}, 0
    for text in texts:
        for row in csv.DictReader(io.StringIO(text)):
            key = (row["dist"], row["n"], row["B"], row["family"])
            duplicates += key in rows
            rows[key] = row
    return rows, duplicates


def _split_reference(text: str) -> list[str]:
    lines = text.splitlines(keepends=True)
    header = lines[0]
    parts = []
    for line in lines:
        if line == header:
            parts.append("")
        parts[-1] += line
    return parts


def compare(reference: str, outputs: list[str], exits: list[int]) -> dict:
    """Checked-cell counts, fail_frac and tightness_log_max of one run.

    ``tightness_log_max`` is the largest ln(value / reference value) over
    upper-bound cells whose reference and output values are positive: 0
    when the bounds are unchanged, positive when some bound got looser.
    A bound that fell to 0 counts in ``failed`` instead.
    """
    ref, _ = _rows(_split_reference(reference))
    out, duplicates = _rows(outputs)
    problems = [f"{duplicates} duplicate rows"] if duplicates else []
    failed = duplicates
    incorrect = duplicates
    tightness = 0.0
    keys = ref.keys() | out.keys()
    for key in sorted(keys):
        if key not in out or key not in ref:
            problems.append(f"{'missing' if key not in out else 'extra'} row {key}")
            failed += 1
            incorrect += 1
            continue
        want, got = ref[key], out[key]
        status_ok = (got["status"] in VERIFIED if want["status"] in VERIFIED
                     else got["status"] == want["status"])
        ok = status_ok and _value_ok(key[3], want["value"], got["value"])
        if not ok or got["status"] == "FAIL":
            problems.append(f"{key}: value {got['value']} status {got['status']}, "
                            f"reference {want['value']} {want['status']}")
        failed += not ok or got["status"] == "FAIL"
        incorrect += not ok
        if key[3] in UPPER and want["value"] and float(want["value"]) > 0.0 \
                and got["value"] and float(got["value"]) > 0.0:
            tightness = max(tightness,
                            math.log(float(got["value"]) / float(want["value"])))
    for argv_index, (text, code) in enumerate(zip(outputs, exits)):
        expected = 1 if any(r["status"] == "FAIL"
                            for r in csv.DictReader(io.StringIO(text))) else 0
        if code != expected:
            problems.append(f"command {argv_index}: exit {code}, expected {expected}")
            failed += 1
            incorrect += 1
    attempted = len(keys) + len(exits)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": incorrect == 0,
        "fail_frac": failed / attempted,
        "tightness_log_max": tightness,
        "problems": problems,
    }


def _value_ok(family: str, want: str, got: str) -> bool:
    if not want or not got:
        return want == got
    w, g = float(want), float(got)
    if family in UPPER:
        return g >= w - REL_TOL * abs(w)
    if family in LOWER:
        return g <= w + REL_TOL * abs(w)
    return True
