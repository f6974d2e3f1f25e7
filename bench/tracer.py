"""Per-layer tracing of selfnorm from outside the library.

``Tracer.install()`` replaces the entry points that each layer's callers
look up at call time with timing wrappers, and ``uninstall()`` puts the
originals back.  The library itself is not modified.  Wrapped names:

    cli            cli.main
    bounds         bounds._exp_tail_point, bounds._power_tail_point and
                   bounds._sup_scan (cli calls _power_tail_point directly)
    convex         bounds.maximize_concave (bounds imports it by name);
                   the objective passed in is wrapped to count evaluations
    gls            bounds._gls_tail_opt (imported by name into bounds)
    distributions  DistributionModel.log_mgf2 and .summand_lp_norm, and
                   every law's sample method
    mc             mc.empirical_tail (verify_bounds looks it up as a
                   module global) and mc.verify_bounds

Spans are kept in memory.  All of them open and close on the calling
thread except ``sample``, which runs on the simulation's worker threads
and only adds to lock-protected totals.  A span's self time is its
duration minus the time of the spans it directly encloses.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict

from selfnorm import bounds, cli, mc
from selfnorm.distributions import DistributionModel

LOG_MGF2 = "distributions.log_mgf2"
LP_NORM = "distributions.summand_lp_norm"
PRIMITIVES = (LOG_MGF2, LP_NORM)
EXP_CELL = "bounds.exp_cell"
POWER_CELL = "bounds.power_cell"
SUP_CELL = "bounds.sup_cell"
SUP_MEMBER = "bounds.sup_member"

# metrics that count work; two traced runs of the same inputs must agree
# on them exactly
EXACT_SUFFIXES = (".calls", ".cells", ".primitive_calls", ".evals_per_call",
                  ".n_evaluated", ".unbounded", ".draws")


class _Frame:
    __slots__ = ("name", "child_s", "prim_s", "prim_calls", "members")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.prim_s = 0.0
        self.prim_calls = 0
        self.members = 0


def _law(dist) -> str:
    return dist.name.split(":")[0]


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # (primitive, law) -> [calls, seconds]
        self.per_law: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        # cell kind -> [(seconds, primitive calls, primitive seconds, members)]
        self.cells: dict[str, list[tuple]] = defaultdict(list)
        self.evals = 0
        self.unbounded = 0
        self.draws = 0
        self.sample_s = 0.0
        # one (n, trials, seconds, workers) per empirical_tail call
        self.mc_passes: list[tuple[int, int, float, int]] = []
        # arguments of the last empirical_tail call at n = 256
        self.mc_call_n256: tuple | None = None

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, seconds: float) -> None:
        self._stack.pop()
        name = frame.name
        self.calls[name] += 1
        self.busy[name] += seconds
        self.self_s[name] += seconds - frame.child_s
        if self._stack:
            self._stack[-1].child_s += seconds
        if name in PRIMITIVES:
            for outer in self._stack:
                outer.prim_s += seconds
                outer.prim_calls += 1
        elif name in (EXP_CELL, POWER_CELL, SUP_CELL):
            self.cells[name].append((seconds, frame.prim_calls, frame.prim_s,
                                     frame.members))
        elif name == SUP_MEMBER:
            self._stack[-1].members += 1

    def _timed(self, name_of, fn, on_close=None):
        def wrapper(*args, **kwargs):
            frame = self._open(name_of(args))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self._close(frame, seconds)
                if on_close is not None:
                    on_close(args, seconds)

        return wrapper

    def _span(self, name: str, fn, on_close=None):
        return self._timed(lambda args: name, fn, on_close)

    def _cell(self, name: str, fn):
        def name_of(args):
            inside_sup = bool(self._stack) and self._stack[-1].name == SUP_CELL
            return SUP_MEMBER if inside_sup else name
        return self._timed(name_of, fn)

    def _primitive(self, name: str, fn):
        def on_close(args, seconds):
            entry = self.per_law[(name, _law(args[0]))]
            entry[0] += 1
            entry[1] += seconds
        return self._span(name, fn, on_close)

    def _maximize_concave(self, fn):
        def counted(obj, *args, **kwargs):
            def obj_counted(x):
                self.evals += 1
                return obj(x)
            result = fn(obj_counted, *args, **kwargs)
            if result == (math.inf, math.inf):
                self.unbounded += 1
            return result
        return self._span("convex.maximize_concave", counted)

    def _empirical_tail(self, fn):
        def on_close(args, seconds):
            dist, cfg, B_grid = args
            workers = mc.worker_count(-(-cfg.trials // cfg.chunk_size))
            self.mc_passes.append((cfg.n, cfg.trials, seconds, workers))
            if cfg.n == 256:
                self.mc_call_n256 = (dist, cfg, list(B_grid))
        return self._span("mc.empirical_tail", fn, on_close)

    def _sample(self, fn):
        def sample(dist, rng, size):
            t0 = time.perf_counter()
            out = fn(dist, rng, size)
            seconds = time.perf_counter() - t0
            with self._lock:
                self.draws += out.size
                self.sample_s += seconds
            return out

        return sample

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        self._patch(cli, "main", lambda fn: self._span("cli.main", fn))
        self._patch(bounds, "_exp_tail_point", lambda fn: self._cell(EXP_CELL, fn))
        self._patch(bounds, "_power_tail_point",
                    lambda fn: self._cell(POWER_CELL, fn))
        self._patch(bounds, "_sup_scan", lambda fn: self._span(SUP_CELL, fn))
        self._patch(bounds, "maximize_concave", self._maximize_concave)
        self._patch(bounds, "_gls_tail_opt",
                    lambda fn: self._span("gls.tail_opt", fn))
        self._patch(DistributionModel, "log_mgf2",
                    lambda fn: self._primitive(LOG_MGF2, fn))
        self._patch(DistributionModel, "summand_lp_norm",
                    lambda fn: self._primitive(LP_NORM, fn))
        for law in _law_classes():
            if "sample" in vars(law):
                self._patch(law, "sample", self._sample)
        self._patch(mc, "empirical_tail", self._empirical_tail)
        self._patch(mc, "verify_bounds",
                    lambda fn: self._span("mc.verify_bounds", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics --------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, dict]:
        """Every per-layer metric of one traced run, by name with its unit.

        ``wall_s`` is the traced run's wall time.  Metrics of a layer the
        workload does not reach read 0.
        """
        out: dict[str, dict] = {}

        def put(name: str, value, unit: str) -> None:
            out[name] = {"value": value, "unit": unit}

        for prim, laws in ((LOG_MGF2, ("rademacher", "gaussian", "uniform")),
                           (LP_NORM, ("gaussian", "uniform"))):
            put(f"{prim}.calls", self.calls[prim], "count")
            put(f"{prim}.busy_s", self.busy[prim], "s")
            for law in laws:
                calls, seconds = self.per_law[(prim, law)]
                put(f"{prim}.us_per_call.{law}", _ratio(seconds, calls) * 1e6, "us")
            put(f"{prim}.wall_share", _ratio(self.busy[prim], wall_s), "frac")
        put("distributions.sample.draws", self.draws, "count")
        put("distributions.sample.draws_per_s", _ratio(self.draws, self.sample_s),
            "1/s")
        put("distributions.sample.busy_s", self.sample_s, "s")

        name = "convex.maximize_concave"
        put(f"{name}.calls", self.calls[name], "count")
        put(f"{name}.evals_per_call", _ratio(self.evals, self.calls[name]), "count")
        put(f"{name}.unbounded", self.unbounded, "count")

        for kind, tail_q in ((EXP_CELL, 0.9), (POWER_CELL, 0.7)):
            cells = self.cells[kind]
            ms = [c[0] * 1e3 for c in cells]
            put(f"{kind}.cells", len(cells), "count")
            put(f"{kind}.primitive_calls", _mean(c[1] for c in cells), "count")
            put(f"{kind}.ms_p50", _pct(ms, 0.5), "ms")
            put(f"{kind}.ms_p{round(tail_q * 100)}", _pct(ms, tail_q), "ms")
            put(f"{kind}.self_ms", _mean((c[0] - c[2]) * 1e3 for c in cells), "ms")
        sups = self.cells[SUP_CELL]
        put(f"{SUP_CELL}.cells", len(sups), "count")
        put(f"{SUP_CELL}.n_evaluated", _mean(c[3] for c in sups), "count")
        put(f"{SUP_CELL}.s", _pct([c[0] for c in sups], 0.5), "s")
        put(f"{SUP_CELL}.primitive_calls", _mean(c[1] for c in sups), "count")

        put("gls.tail_opt.calls", self.calls["gls.tail_opt"], "count")
        put("gls.tail_opt.self_s", self.self_s["gls.tail_opt"], "s")

        busy = self.busy["mc.empirical_tail"]
        put("mc.empirical_tail.busy_s", busy, "s")
        put("mc.empirical_tail.wall_share", _ratio(busy, wall_s), "frac")
        for n in (16, 256):
            passes = [p for p in self.mc_passes if p[0] == n]
            put(f"mc.draws_per_s.n{n}", _ratio(sum(p[0] * p[1] for p in passes),
                                               sum(p[2] for p in passes)), "1/s")
        put("mc.sample_share",
            _ratio(self.sample_s, sum(p[2] * p[3] for p in self.mc_passes)), "frac")
        put("mc.verify_bounds.self_s", self.self_s["mc.verify_bounds"], "s")
        put("cli.self_s", self.self_s["cli.main"], "s")
        return out


def _law_classes() -> list[type]:
    out, todo = [], [DistributionModel]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def exact_counts(metrics: dict[str, dict]) -> dict[str, float]:
    return {k: v["value"] for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}
