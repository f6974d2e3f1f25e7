"""Command-line front end: compute bound tables, run simulations, verify.

Commands
--------
bound-exp     exponential-level upper bounds over the (n, B) grid
bound-power   moment-level upper bounds (rows with B < e are SKIP markers)
bound-lower   single-observation and limiting-tail lower bounds
mc            Monte Carlo tail estimates only
verify        all bound families + simulation + PASS/FAIL per cell (exit 1
              on any FAIL); ``--n-sup lo:hi`` adds the sup-over-n rows
gls           norm and tail of a chosen generator family against the law

Output is CSV (columns fixed, floats at 15 significant digits, ``inf``
for infinities, absent fields empty) or an aligned-column pretty table.
Configuration may come from flags or a flat key=value file via
``--config``; flags win on conflict.  The ``SELFNORM_THREADS``
environment variable caps simulation worker threads.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

from . import bounds as bd
from . import gls as gl
from . import mc as mcmod
from .distributions import DivergentError, parse_distribution

__all__ = ["ConfigError", "RunConfig", "build_config", "main", "run"]

CSV_COLUMNS = ("dist", "n", "B", "family", "value", "optimizer",
               "theta_or_p_star", "n_star", "mc_point", "mc_ci_lo",
               "mc_ci_hi", "status")

COMMANDS = ("bound-exp", "bound-power", "bound-lower", "mc", "verify", "gls")

_BOUND_FAMILIES = {"bound-exp": (bd.EXP_LEVEL,),
                   "bound-power": (bd.POWER_LEVEL,),
                   "bound-lower": (bd.LOWER_Q1, bd.LOWER_CLT)}

_DEFAULTS = {
    "n": "1,4,16,64",
    "B": "0.25,0.5,1,1.5,2,e,3,5,10,20,50",
    "n-sup": None,
    "trials": "100000",
    "seed": "1",
    "kr": str(bd.DEFAULT_KR),
    "chunk-size": "8192",
    "confidence": "0.999",
    "output": None,
    "format": "csv",
    "family": None,
    "dist": None,
}


class ConfigError(ValueError):
    """Bad configuration; reported with the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class RunConfig:
    command: str
    distribution: str
    n_grid: list[int]
    B_grid: list[float]
    n_sup_range: tuple[int, int] | None
    trials: int
    seed: int
    kr_constant: float
    chunk_size: int
    confidence: float
    output_path: str | None
    format: str
    family: str | None = None


# -- parsing -------------------------------------------------------------------


def _parse_float(key: str, token: str) -> float:
    token = token.strip()
    if token == "e":
        return math.e
    try:
        return float(token)
    except ValueError:
        raise ConfigError(key, f"cannot parse {token!r} as a real") from None


def _parse_grid(key: str, text: str, integer: bool = False) -> list:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise ConfigError(key, "grid is empty")
    if integer:
        try:
            vals = [int(t) for t in items]
        except ValueError:
            raise ConfigError(key, f"cannot parse {text!r} as integers") from None
        if any(v < 1 for v in vals):
            raise ConfigError(key, "entries must be positive")
        return vals
    return [_parse_float(key, t) for t in items]


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError("config", f"line {lineno}: expected key=value, "
                                                f"got {line!r}")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    unknown = set(out) - set(_DEFAULTS)
    if unknown:
        raise ConfigError("config", f"unknown keys {sorted(unknown)}")
    return out


def build_config(command: str, flags: dict) -> RunConfig:
    """Merge flags over config-file values over built-in defaults."""
    file_vals = _read_config_file(flags["config"]) if flags.get("config") else {}

    def get(key: str):
        if flags.get(key.replace("-", "_")) is not None:
            return flags[key.replace("-", "_")]
        if key in file_vals:
            return file_vals[key]
        return _DEFAULTS[key]

    dist = get("dist")
    if not dist:
        raise ConfigError("dist", "a distribution spec is required")
    n_sup = None
    raw_sup = get("n-sup")
    if raw_sup:
        parts = str(raw_sup).split(":")
        if len(parts) != 2:
            raise ConfigError("n-sup", f"expected lo:hi, got {raw_sup!r}")
        lo, hi = (_parse_grid("n-sup", p, integer=True)[0] for p in parts)
        if lo > hi:
            raise ConfigError("n-sup", f"lo > hi in {raw_sup!r}")
        n_sup = (lo, hi)
    try:
        trials = int(get("trials"))
        seed = int(get("seed"))
        chunk = int(get("chunk-size"))
        kr = float(get("kr"))
        conf = float(get("confidence"))
    except ValueError as exc:
        raise ConfigError("trials/seed/chunk-size/kr/confidence", str(exc)) from None
    if command in ("mc", "verify"):
        if trials < 1:
            raise ConfigError("trials", "must be >= 1 for simulation commands")
        try:  # checks SELFNORM_THREADS before any bound or simulation
            mcmod.worker_count(1)
        except ValueError as exc:
            raise ConfigError("env", str(exc)) from None
    if chunk < 1:
        raise ConfigError("chunk-size", f"must be >= 1, got {chunk}")
    if not (kr > 0.0 and math.isfinite(kr)):
        raise ConfigError("kr", f"must be positive and finite, got {kr}")
    if not 0.0 < conf < 1.0:
        raise ConfigError("confidence", f"must lie strictly between 0 and 1, "
                                        f"got {conf}")
    B_grid = _parse_grid("B", str(get("B")))
    bad = [b for b in B_grid if not (b > 0.0 and math.isfinite(b))]
    if bad:
        raise ConfigError("B", f"thresholds must be positive and finite, "
                               f"got {bad[0]}")
    fmt = get("format")
    if fmt not in ("csv", "pretty"):
        raise ConfigError("format", f"unknown format {fmt!r}")
    return RunConfig(
        command=command,
        distribution=str(dist),
        n_grid=_parse_grid("n", str(get("n")), integer=True),
        B_grid=B_grid,
        n_sup_range=n_sup,
        trials=trials,
        seed=seed,
        kr_constant=kr,
        chunk_size=chunk,
        confidence=conf,
        output_path=get("output"),
        format=fmt,
        family=get("family"),
    )


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfnorm",
        description="Tail bounds for self-normalized sums, verified by simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--dist", help="rademacher | gaussian | uniform:a=<real> | "
                                      "discrete:v1:p1,... | empirical:<path>")
        p.add_argument("--n", help="comma-separated sample sizes")
        p.add_argument("--B", help="comma-separated thresholds ('e' allowed)")
        p.add_argument("--n-sup", dest="n_sup",
                       help="lo:hi range for sup-over-n rows")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--kr", type=float, help="Rosenthal constant")
        p.add_argument("--chunk-size", dest="chunk_size", type=int)
        p.add_argument("--confidence", type=float)
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "pretty"))
        p.add_argument("--config", help="flat key=value config file")
        if cmd == "gls":
            p.add_argument("--family",
                           help="psi:degenerate:r=<r> | psi:power:m=<m> | "
                                "phi:power:m=<m> | phi:natural")
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


def _point_row(dist_name: str, n_label: str, family: str, pt: bd.BoundPoint,
               est=None, status: str = "", margin=None, tightness=None) -> dict:
    opt = pt.optimizer
    return {
        "dist": dist_name,
        "n": n_label,
        "B": pt.B,
        "family": family,
        "value": pt.value,
        "optimizer": opt.get("objective"),
        "theta_or_p_star": opt.get("theta_star", opt.get("p_star")),
        "n_star": opt.get("n_star"),
        "mc_point": est.point if est else None,
        "mc_ci_lo": est.ci_lo if est else None,
        "mc_ci_hi": est.ci_hi if est else None,
        "status": status,
        "margin": margin,
        "tightness": tightness,
    }


def _skip_row(dist_name: str, n_label: str, family: str, B: float) -> dict:
    row = _point_row(dist_name, n_label, family, bd.BoundPoint(B, math.nan))
    row["value"] = None
    row["status"] = "SKIP"
    return row


def _write_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _write_pretty(rows: list[dict]) -> str:
    cols = CSV_COLUMNS + ("margin", "tightness")
    table = [[_fmt(row.get(c)) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in table)) if table else len(c)
              for i, c in enumerate(cols)]
    out = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for r in table:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


# -- command bodies ------------------------------------------------------------


def _sorted_B(config: RunConfig) -> list[float]:
    return sorted(set(config.B_grid))


def _curves(config: RunConfig, dist,
            families: tuple[str, ...]) -> list[bd.BoundCurve]:
    """Every curve of the families, upper bounds at each grid n and then
    over the sup range."""
    B_grid = _sorted_B(config)
    ns: list[int | tuple[int, int]] = sorted(set(config.n_grid))
    if config.n_sup_range is not None:
        ns.append(config.n_sup_range)
    curves = []
    for family in families:
        if family == bd.EXP_LEVEL:
            curves += [bd.exp_curve(dist, n, B_grid) for n in ns]
        elif family == bd.POWER_LEVEL:
            curves += [bd.power_curve(dist, n, B_grid, config.kr_constant)
                       for n in ns]
        elif family == bd.LOWER_Q1:
            curves.append(bd.lower_q1_curve(dist, B_grid))
        else:
            curves.append(bd.lower_clt_curve(dist, B_grid))
    return curves


def _curve_rows(config: RunConfig, dist, curves: list[bd.BoundCurve],
                report: mcmod.VerificationReport | None = None) -> list[dict]:
    """One row per curve point, with its verdict when a report is given,
    and a SKIP row for each B < e of every PowerLevel curve."""
    checked = iter(report.rows) if report else None
    rows = []
    for curve in curves:
        label = mcmod._n_label(curve.n)
        if curve.family == bd.POWER_LEVEL:
            rows += [_skip_row(dist.name, label, curve.family, B)
                     for B in _sorted_B(config) if B < math.e]
        for pt in curve.points:
            if checked is None:
                rows.append(_point_row(dist.name, label, curve.family, pt))
                continue
            r = next(checked)
            rows.append(_point_row(dist.name, label, curve.family, pt,
                                   est=r.estimate, status=r.status,
                                   margin=r.margin, tightness=r.tightness))
    return rows


def _mc_rows(config: RunConfig, dist) -> list[dict]:
    rows = []
    for n in sorted(set(config.n_grid)):
        cfg = mcmod.MCConfig(n, config.trials, config.seed, config.chunk_size,
                             config.confidence)
        for est in mcmod.empirical_tail(dist, cfg, _sorted_B(config)):
            row = _point_row(dist.name, str(n), "MC", bd.BoundPoint(est.B, math.nan),
                             est=est)
            row["value"] = None
            rows.append(row)
    return rows


def _verify_rows(config: RunConfig, dist) -> tuple[list[dict], bool]:
    families = (bd.EXP_LEVEL, bd.POWER_LEVEL)
    if 1 in config.n_grid:
        families += (bd.LOWER_Q1, bd.LOWER_CLT)
    curves = _curves(config, dist, families)
    cfg = mcmod.MCConfig(max(config.n_grid), config.trials, config.seed,
                         config.chunk_size, config.confidence)
    try:
        report = mcmod.verify_bounds(dist, config.n_grid, _sorted_B(config), cfg,
                                     curves)
    except mcmod.GridMismatchError as exc:
        raise ConfigError("n/n-sup", str(exc)) from None
    return _curve_rows(config, dist, curves, report), report.all_pass


def _parse_family_param(family: str, tag: str) -> float:
    prefix, _, raw = family.rpartition("=")
    if not prefix.endswith(tag):
        raise ConfigError("family", f"expected '{tag}=<real>' in {family!r}")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError("family", f"bad value {raw!r} in {family!r}")
    return value


def _gls_generator(family: str, dist) -> gl.PsiFunction | gl.PhiFunction:
    """The moment generator or MGF majorant that a ``--family`` spec names."""
    if family.startswith("psi:degenerate:"):
        make, tag = gl.degenerate_psi, "r"
    elif family.startswith("psi:power:"):
        make, tag = gl.power_psi, "m"
    elif family.startswith("phi:power:"):
        make, tag = gl.power_phi, "m"
    elif family == "phi:natural":
        return gl.natural_phi(dist)
    elif family.startswith("psi:"):
        raise ConfigError("family", f"unknown generator {family!r}")
    elif family.startswith("phi:"):
        raise ConfigError("family", f"unknown majorant {family!r}")
    else:
        raise ConfigError("family", f"unknown family {family!r}")
    value = _parse_family_param(family, tag)
    try:
        return make(value)
    except ValueError as exc:
        raise ConfigError("family", str(exc)) from None


def _gls_rows(config: RunConfig, dist) -> list[dict]:
    family = config.family
    if not family:
        raise ConfigError("family", "the gls command needs --family")
    gen = _gls_generator(family, dist)
    try:
        if isinstance(gen, gl.PsiFunction):
            names, tail_fn = ("GlsNorm", "GlsTail"), gl.gls_tail_bound
            norm = gl.gls_norm(dist.lp_norm, gen)
        else:
            names, tail_fn = ("BphiNorm", "BphiTail"), gl.bphi_tail_bound
            norm = gl.bphi_norm(lambda lam: dist.log_mgf2(lam, 0.0), gen)
    except DivergentError as exc:
        raise ConfigError("family", f"no finite norm of {dist.name} against "
                                    f"{family!r}: {exc}") from None
    rows = [{"dist": dist.name, "family": names[0], "value": norm, "status": ""}]
    for B in _sorted_B(config):
        rows.append({"dist": dist.name, "B": B, "family": names[1],
                     "value": tail_fn(gen, norm, B), "status": ""})
    return rows


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        dist = parse_distribution(config.distribution)
    except ValueError as exc:
        raise ConfigError("dist", str(exc)) from None

    all_pass = True
    if config.command in _BOUND_FAMILIES:
        curves = _curves(config, dist, _BOUND_FAMILIES[config.command])
        rows = _curve_rows(config, dist, curves)
    elif config.command == "mc":
        rows = _mc_rows(config, dist)
    elif config.command == "verify":
        rows, all_pass = _verify_rows(config, dist)
    elif config.command == "gls":
        rows = _gls_rows(config, dist)
    else:
        raise ConfigError("command", f"unknown command {config.command!r}")

    text = _write_csv(rows) if config.format == "csv" else _write_pretty(rows)
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if config.command == "verify" and not all_pass:
        return 1
    return 0


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
