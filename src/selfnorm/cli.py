"""Command-line front end: compute bound tables, run simulations, verify.

Commands
--------
bound-exp     exponential-level upper bounds over the (n, B) grid
bound-power   moment-level upper bounds (rows with B < e are SKIP markers)
bound-lower   single-observation and limiting-tail lower bounds
mc            the referee's tail estimates only: exact for an enumerable
              atomic law, simulated otherwise
verify        all bound families + referee + PASS/FAIL per cell (exit 1
              on any FAIL, with one stderr line per FAIL cell);
              ``--n-sup lo:hi`` adds the sup-over-n rows, refereed at
              n = lo and at every ``--n`` in the range
gls           norm and tail of a chosen generator family against the law

Output is CSV: columns fixed, floats at 15 significant digits, ``inf``
for infinities, absent fields empty, a field holding a comma quoted.  A
row's bound columns are the fields of its
:class:`~selfnorm.bounds.BoundPoint`, blank on a row without one.
One parser reads the command and every option, so each command takes
the same flags; ``--family`` is for ``gls`` only, and on any other
command it is a configuration error (exit 2).  Options come from flags
only; an absent flag takes its default.  The ``SELFNORM_THREADS``
environment variable caps simulation worker threads.  Only ``mc`` and
``verify`` import the referee, :mod:`selfnorm.mc`, so the other commands
start without it.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import bounds as bd
from . import gls as gl
from .distributions import DistributionModel, DivergentError, parse_distribution

if TYPE_CHECKING:  # the referee is imported by the commands that use it
    from . import mc as mcmod

__all__ = ["ConfigError", "RunConfig", "build_config", "main", "run"]

CSV_COLUMNS = ("dist", "n", "B", "family", "value", "optimizer",
               "theta_or_p_star", "n_star", "mc_point", "mc_ci_lo",
               "mc_ci_hi", "status")

COMMANDS = ("bound-exp", "bound-power", "bound-lower", "mc", "verify", "gls")


class ConfigError(ValueError):
    """Bad configuration; reported with the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class RunConfig:
    """One command's settings, parsed: ``distribution`` is the law,
    ``family`` the gls family as (spec, generator of a law), and
    ``n_grid`` and ``B_grid`` are sorted and free of repeats, as
    :func:`build_config` returns them."""

    command: str
    distribution: DistributionModel
    n_grid: list[int]
    B_grid: list[float]
    n_sup_range: tuple[int, int] | None
    trials: int
    seed: int
    kr_constant: float
    confidence: float
    output_path: str | None
    family: tuple[str, Callable] | None = None


# -- parsing -------------------------------------------------------------------


def _checked(kind: type, ok: Callable = lambda v: True, need: str = ""):
    """Parser of one ``kind`` value that must satisfy ``ok``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"cannot parse {text.strip()!r} as {kind.__name__}") \
                from None
        if not ok(value):
            raise ValueError(f"must be {need}, got {text.strip()!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_real = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_finite_real = _checked(float, math.isfinite, "finite")


def _grid(item: Callable):
    """Parser of a comma-separated list into a sorted list without repeats."""

    def parse(text: str) -> list:
        items = [t for t in text.split(",") if t.strip()]
        if not items:
            raise ValueError("grid is empty")
        return sorted(set(map(item, items)))

    return parse


def _threshold(text: str) -> float:
    return math.e if text.strip() == "e" else _positive_real(text)


def _n_range(text: str) -> tuple[int, int] | None:
    if not text:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    lo, hi = map(_positive_int, parts)
    if lo > hi:
        raise ValueError(f"lo > hi in {text!r}")
    return lo, hi


def _output_path(text: str) -> str | None:
    if not text:
        return None
    if os.path.isdir(text):
        raise ValueError(f"cannot write {text!r}: it is a directory")
    folder = os.path.dirname(text) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"cannot write {text!r}: directory {folder!r} is "
                         "missing or not writable")
    return text


# family prefix -> (constructor, parameter name); phi:natural takes none
_GLS_FAMILIES = {"psi:degenerate": (gl.degenerate_psi, "r"),
                 "psi:power": (gl.power_psi, "m"),
                 "phi:power": (gl.power_phi, "m")}


def _gls_family(text: str) -> tuple[str, Callable] | None:
    """A ``--family`` spec as (spec, generator of a law); None when empty."""
    if not text:
        return None
    if text == "phi:natural":
        return text, gl.natural_phi
    prefix, _, param = text.rpartition(":")
    if prefix not in _GLS_FAMILIES:
        raise ValueError(f"unknown family {text!r}")
    make, tag = _GLS_FAMILIES[prefix]
    name, _, raw = param.partition("=")
    if name != tag:
        raise ValueError(f"expected '{tag}=<real>' in {text!r}")
    gen = make(_finite_real(raw))
    return text, lambda dist: gen


# key -> (default text, parser, help), in RunConfig field order; every
# value goes through its parser, whether it is a flag or the default.
# The family flag is for gls only.
_OPTIONS = {
    "dist": ("", parse_distribution,
             "rademacher | gaussian | uniform:a=<real> | discrete:v1:p1,... | "
             "empirical:<path>"),
    "n": ("1,4,16,64", _grid(_positive_int), "comma-separated sample sizes"),
    "B": (",".join(map(str, bd.DEFAULT_B_GRID)), _grid(_threshold),
          "comma-separated thresholds ('e' allowed)"),
    "n-sup": ("", _n_range, "lo:hi range for sup-over-n rows"),
    "trials": ("100000", _positive_int, "simulation trials per sample size"),
    "seed": ("1", _checked(int, lambda v: v >= 0, ">= 0"),
             "simulation seed, an integer >= 0"),
    "kr": (str(bd.DEFAULT_KR), _positive_real, "Rosenthal constant"),
    "confidence": ("0.999", _checked(float, lambda v: 0.0 < v < 1.0,
                                     "strictly between 0 and 1"),
                   "Clopper-Pearson confidence level"),
    "output": ("", _output_path, "output path (default: stdout)"),
    "family": ("", _gls_family, "psi:degenerate:r=<r> | psi:power:m=<m> | "
                                "phi:power:m=<m> | phi:natural"),
}


def build_config(command: str, flags: dict) -> RunConfig:
    """Read flags over built-in defaults."""
    if command != "gls" and flags.get("family") is not None:
        raise ConfigError("family", f"--family is for the gls command only, "
                                    f"not {command}")
    values = []
    for key, (default, parse, _) in _OPTIONS.items():
        raw = flags.get(key.replace("-", "_"))
        try:
            values.append(parse(default if raw is None else str(raw)))
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
    config = RunConfig(command, *values)
    if command in ("mc", "verify"):
        from . import mc as mcmod
        try:  # checks SELFNORM_THREADS before any bound or simulation
            mcmod.worker_count(1)
        except ValueError as exc:
            raise ConfigError("env", str(exc)) from None
    return config


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfnorm",
        description="Tail bounds for self-normalized sums, verified by simulation.")
    parser.add_argument("command", choices=COMMANDS)
    for key, (_, _, help_text) in _OPTIONS.items():
        parser.add_argument(f"--{key}", help=help_text)
    return parser


# -- formatting ----------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.15g}"
    return str(v)


def _row(dist_name: str, n_label: str, family: str,
         pt: bd.BoundPoint | None = None, est=None, status: str = "",
         B: float | None = None) -> dict:
    """One row of a curve or of the referee: B and the bound columns are
    the point's fields, the mc columns the estimate's, each blank when
    absent; a row without a point (SKIP or MC) is given its B."""
    row = {"dist": dist_name, "n": n_label, "family": family,
           "B": B if pt is None else pt.B, "status": status}
    if pt is not None:
        row.update(value=pt.value, optimizer=pt.objective,
                   theta_or_p_star=pt.arg_star, n_star=pt.n_star)
    if est is not None:
        row.update(mc_point=est.point, mc_ci_lo=est.ci_lo, mc_ci_hi=est.ci_hi)
    return row


def _write_csv(rows: list[dict]) -> str:
    """The rows under the header, quoting only a field with a comma or quote."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_fmt(row.get(col)) for col in CSV_COLUMNS] for row in rows)
    return buf.getvalue()


# -- command bodies ------------------------------------------------------------


def _curves(config: RunConfig, dist) -> list[bd.BoundCurve]:
    """The curves of the command, in row order: ExpLevel (bound-exp,
    verify), then PowerLevel (bound-power, verify), each at every grid n
    and then over the sup range; then LowerQ1 and LowerCLT (bound-lower,
    and verify when n = 1 is on the grid)."""
    command, B_grid = config.command, config.B_grid
    ns: list[int | tuple[int, int]] = list(config.n_grid)
    if config.n_sup_range is not None:
        ns.append(config.n_sup_range)
    curves = []
    if command in ("bound-exp", "verify"):
        curves += [bd.exp_curve(dist, n, B_grid) for n in ns]
    if command in ("bound-power", "verify"):
        curves += [bd.power_curve(dist, n, B_grid, config.kr_constant) for n in ns]
    if command == "bound-lower" or (command == "verify" and 1 in config.n_grid):
        curves += [bd.lower_q1_curve(dist, B_grid), bd.lower_clt_curve(dist, B_grid)]
    return curves


def _curve_rows(config: RunConfig, dist, curves: list[bd.BoundCurve],
                verified: list[mcmod.VerificationRow] | None = None) -> list[dict]:
    """One row per grid B of every curve: its point, with the verdict when
    the curves' verified rows are given, or a SKIP row where the curve
    has no point."""
    checked = iter(verified) if verified else None
    rows = []
    for curve in curves:
        head = (dist.name, curve.label, curve.family)
        points = {pt.B: pt for pt in curve.points}
        for B in config.B_grid:
            pt = points.get(B)
            if pt is None:
                rows.append(_row(*head, B=B, status="SKIP"))
            elif checked is None:
                rows.append(_row(*head, pt))
            else:
                r = next(checked)
                rows.append(_row(*head, pt, r.estimate, r.status))
    return rows


def _mc_rows(config: RunConfig, dist) -> list[dict]:
    from . import mc as mcmod
    ests = mcmod._estimates(dist, config.n_grid, config.B_grid, config.trials,
                            config.seed, config.confidence)
    return [_row(dist.name, str(n), "MC", est=est, B=B)
            for (n, B), est in ests.items()]


def _fail_line(row: mcmod.VerificationRow) -> str:
    """The stderr line naming a FAIL cell, its bound and the estimate it
    failed against."""
    est = row.estimate
    source = "exact" if est.trials == 0 else f"simulated ({est.trials} trials)"
    return (f"selfnorm: FAIL {row.curve.family} n={row.curve.label} "
            f"B={_fmt(row.point.B)}: bound {_fmt(row.point.value)}, {source} "
            f"tail at n={est.n} in [{_fmt(est.ci_lo)}, {_fmt(est.ci_hi)}], "
            f"margin {_fmt(row.margin)}")


def _verify_rows(config: RunConfig, dist) -> tuple[list[dict], bool]:
    from . import mc as mcmod
    curves = _curves(config, dist)
    verified = mcmod.verify_bounds(dist, curves, config.trials, config.seed,
                                   config.confidence)
    failures = [r for r in verified if r.status == "FAIL"]
    for r in failures:
        print(_fail_line(r), file=sys.stderr)
    return _curve_rows(config, dist, curves, verified), not failures


def _gls_rows(config: RunConfig, dist) -> list[dict]:
    if config.family is None:
        raise ConfigError("family", "the gls command needs --family")
    family, generator_of = config.family
    gen = generator_of(dist)
    try:
        if family.startswith("psi:"):
            names, tail_fn = ("GlsNorm", "GlsTail"), gl.gls_tail_bound
            norm = gl.gls_norm(dist.lp_norm, gen)
        else:
            names, tail_fn = ("BphiNorm", "BphiTail"), gl.bphi_tail_bound
            # natural_phi's norm is 1, rounded up as every norm; any other is
            # sigma times the norm of xi/sigma, whose scale the lambda grid fits
            sigma = math.sqrt(dist.sigma2)
            norm = gl._NORM_ROUND_UP if family == "phi:natural" else sigma * \
                gl.bphi_norm(lambda lam: dist.log_mgf2(lam / sigma, 0.0), gen)
    except DivergentError as exc:
        raise ConfigError("family", f"no finite norm of {dist.name} against "
                                    f"{family!r}: {exc}") from None
    rows = [{"dist": dist.name, "family": names[0], "value": norm}]
    for B in config.B_grid:
        rows.append({"dist": dist.name, "B": B, "family": names[1],
                     "value": tail_fn(gen, norm, B)})
    return rows


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    dist = config.distribution
    all_pass = True
    if config.command in ("bound-exp", "bound-power", "bound-lower"):
        rows = _curve_rows(config, dist, _curves(config, dist))
    elif config.command == "mc":
        rows = _mc_rows(config, dist)
    elif config.command == "verify":
        rows, all_pass = _verify_rows(config, dist)
    elif config.command == "gls":
        rows = _gls_rows(config, dist)
    else:
        raise ConfigError("command", f"unknown command {config.command!r}")

    text = _write_csv(rows)
    if config.output_path:
        try:
            with open(config.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("output", f"cannot write {config.output_path!r}: "
                                        f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)

    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> None:
    parser = _make_parser()
    ns = parser.parse_args(argv)
    flags = vars(ns)
    command = flags.pop("command")
    try:
        config = build_config(command, flags)
        status = run(config)
    except ConfigError as exc:
        print(f"selfnorm: configuration error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(status)


if __name__ == "__main__":
    main()
