"""The referee for every bound: the exact tail of a finite atomic law
when its count vectors can be enumerated, and otherwise Monte Carlo
estimation of the self-normalized tail with exact binomial confidence
intervals.  :func:`_estimates` picks one at every (n, B) for ``verify``
and ``mc`` alike, and :func:`verify_bounds` checks each bound point
against it, one :class:`VerificationRow` per point.

A finite atomic law with k atoms reaches T(n) through the counts of
each atom among the n draws, so Q_n(B) is a finite sum of multinomial
probabilities over the C(n+k-1, k-1) count vectors.  Up to
``_EXACT_CAP`` vectors that sum replaces the simulation.

Simulation is chunked: a chunk of ``max(1, _CHUNK_DRAWS // n)`` trials
is drawn at once from its own counter-based substream seeded by
(seed, chunk index), and chunk hit-counts are reduced in chunk order,
so results are bit-identical for a given (seed, n, trials) however many
worker threads run the chunks.  Tail cells routinely see
single-digit hit counts, so intervals are exact Clopper-Pearson rather
than normal-approximate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import BoundCurve, BoundPoint
from .distributions import DiscreteLaw, DistributionModel

__all__ = [
    "MCConfig",
    "empirical_tail",
    "verify_bounds",
    "worker_count",
]

THREADS_ENV = "SELFNORM_THREADS"
# draws per simulation chunk: a chunk's draws and their squares stay in
# cache, and a pass at large n still spreads over several chunks
_CHUNK_DRAWS = 1 << 18
# most count vectors an exact tail enumerates: 4 atoms at n = 64 take
# 48k vectors and ~11 ms, and 4 atoms at n = 256 would take 2.9M
_EXACT_CAP = 200_000
# an exact tail reads P(T > B(1 + _TIE_REL)) and P(T > B(1 - _TIE_REL)):
# T = B up to rounding is a tie whose side the float sums cannot decide
_TIE_REL = 1e-12
# relative widening of an exact bracket for the rounding of its sums
_SUM_REL = 1e-9


@dataclass(frozen=True)
class MCConfig:
    """Simulation plan: sample size n, trial count, seed (integers,
    n and trials >= 1 and seed >= 0), CI level."""

    n: int
    trials: int
    seed: int
    confidence: float = 0.999

    def __post_init__(self):
        ints = (self.n, self.trials, self.seed)
        if not all(isinstance(v, (int, np.integer)) for v in ints):
            raise ValueError(f"n, trials and seed must be integers, got {ints}")
        if self.n < 1 or self.trials < 1:
            raise ValueError("n and trials must both be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0,1), got {self.confidence}")

    @property
    def chunk_size(self) -> int:
        """Trials per simulation chunk: about ``_CHUNK_DRAWS`` draws."""
        return max(1, _CHUNK_DRAWS // self.n)


@dataclass(frozen=True)
class TailEstimate:
    """Point estimate of P(T(n) > B) with an exact two-sided interval.

    A simulated estimate counts ``hits`` of ``trials`` and carries a
    Clopper-Pearson interval at ``confidence``.  An exact tail (see
    :func:`_exact_tail`) has ``hits = trials = 0`` and ``confidence =
    1.0``; its interval is the tie bracket ``[P(T > B(1+1e-12)),
    P(T > B(1-1e-12))]`` widened by 1e-9 relative, and ``point`` is its
    unwidened lower end.
    """

    B: float
    n: int
    hits: int
    trials: int
    point: float
    ci_lo: float
    ci_hi: float
    confidence: float


def self_normalized_stat(x: np.ndarray) -> np.ndarray:
    """sqrt(n) * sum(x) / sum(x^2) along the last axis; 0 when sum(x^2) = 0.

    A zero denominator forces a zero numerator (all draws are 0), and
    defining the statistic as 0 there leaves every event {T > B}, B > 0,
    untouched.  The sums are formed on each row times 2^-k, k the binary
    exponent of the row's largest |x|, so that no square overflows or
    flushes to 0, and T is scaled back by 2^-k; both scalings are exact.
    """
    x = np.asarray(x, dtype=float)
    k = np.frexp(np.abs(x).max(axis=-1, keepdims=True, initial=0.0))[1]
    x = np.ldexp(x, -k)
    t = _stat_from_sums(math.sqrt(x.shape[-1]), x.sum(axis=-1),
                        (x * x).sum(axis=-1))
    return np.ldexp(t, -k[..., 0])


def _stat_from_sums(root_n: float, num, den) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t = root_n * num / den
    return np.where(den == 0, 0.0, t)


def clopper_pearson(hits: int, trials: int, confidence: float) -> tuple[float, float]:
    """Exact binomial interval from the Beta-quantile characterization."""
    # imported here: scipy.special costs more start-up time than the whole
    # rest of the package, and only simulations need it
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits,
                                                     1.0 - alpha / 2.0))
    return lo, hi


def worker_count(num_chunks: int) -> int:
    """Worker threads for a run, capped by the SELFNORM_THREADS env var.

    Raises ValueError when the variable is set to anything but an
    integer >= 1.
    """
    workers = min(8, os.cpu_count() or 1, num_chunks)
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")
        workers = min(workers, cap)
    return max(1, workers)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # low seed word, chunk, high seed words: SeedSequence pads with zero
    # words, so a seed below 2^32 keeps the stream of [seed, chunk_index]
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, chunk_index, seed >> 32])
    return np.random.Generator(np.random.Philox(ss))


def empirical_tail(dist: DistributionModel, cfg: MCConfig,
                   B_grid: Sequence[float]) -> list[TailEstimate]:
    """One simulation pass counting exceedances of every B simultaneously;
    a chunk is one ``dist.sample(rng, (m, n))`` draw, squared in place.

    The sums are formed on the draws times 2^-e, e the nearest integer
    to log2(sigma), so that no square overflows or flushes to 0 off unit
    scale, and T is scaled back by 2^-e; both scalings are exact, so the
    hits are bit-identical wherever no number overflowed or left the
    normal range.  A law of unit scale (e = 0) skips both.
    """
    B_arr = np.asarray(list(B_grid), dtype=float)
    order = np.argsort(B_arr, kind="stable")
    B_sorted = B_arr[order]
    chunk = cfg.chunk_size
    num_chunks = -(-cfg.trials // chunk)
    root_n = math.sqrt(cfg.n)
    e = round(0.5 * math.log2(dist.sigma2))

    def run_chunk(k: int) -> np.ndarray:
        # bins[i]: trials whose statistic exceeds exactly the i smallest B
        m = min(chunk, cfg.trials - k * chunk)
        x = dist.sample(_chunk_rng(cfg.seed, k), (m, cfg.n))
        if e:
            np.ldexp(x, -e, out=x)
        s = x.sum(axis=-1)
        t = _stat_from_sums(root_n, s, np.multiply(x, x, out=x).sum(axis=-1))
        if e:
            t = np.ldexp(t, -e)
        return np.bincount(np.searchsorted(B_sorted, t), minlength=B_arr.size + 1)

    # imported on the first simulation: concurrent.futures brings in
    # logging and queue, which a command that does not simulate never uses
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=worker_count(num_chunks)) as pool:
        bins = sum(pool.map(run_chunk, range(num_chunks)))
    counts = np.empty_like(B_arr, dtype=np.int64)
    counts[order] = bins[::-1].cumsum()[::-1][1:]

    out = []
    for B, hits in zip(B_arr, counts):
        hits = int(hits)
        lo, hi = clopper_pearson(hits, cfg.trials, cfg.confidence)
        out.append(TailEstimate(float(B), cfg.n, hits, cfg.trials,
                                hits / cfg.trials, lo, hi, cfg.confidence))
    return out


def _exact_tail(dist: DistributionModel, n: int,
                B_grid: Sequence[float]) -> list[TailEstimate] | None:
    """Exact P(T(n) > B) for each B of a finite atomic law, or None.

    None for any law that is not a :class:`DiscreteLaw`, and for one
    whose count vectors at n number more than ``_EXACT_CAP``.  Each
    count vector is weighted by its multinomial probability, computed
    in log space from a log-factorial table (at n = 1 the vectors are
    the atoms of the law's table, with their own probabilities), and
    its statistic comes from the same ``_stat_from_sums`` as the
    simulation's.  The sums are formed on the atoms times 2^-k, and T is
    scaled back by 2^-k, both exactly.  k is the centre of the nonzero
    |atoms|' binary exponents, so that every square stays normal, raised
    as far as n squares of the largest atom need to stay finite: a table
    wider than about 2^1022 still flushes its smallest squares to 0.
    Tails below the smallest positive double read 0.
    """
    if not isinstance(dist, DiscreteLaw):
        return None
    values, probs = dist._values, dist._probs
    if math.comb(n + values.size - 1, values.size - 1) > _EXACT_CAP:
        return None
    mags = np.abs(values[values != 0.0])
    top, bottom = math.frexp(mags.max())[1], math.frexp(mags.min())[1]
    k = max((top + bottom) // 2, top - (1022 - n.bit_length()) // 2)
    values = np.ldexp(values, -k)
    if n == 1:
        # each count vector is one draw, and T(1) = 1/xi: the tail is
        # P(0 < xi < 1/B), with P(0 < xi <= 1/B) at the top of the bracket
        s1, s2, weight = values, values * values, probs
    else:
        s1, s2, weight = _count_vectors(values, probs, n)
    t = np.ldexp(_stat_from_sums(math.sqrt(n), s1, s2), -k)
    return _tail_estimates(n, t, weight, B_grid)


def _count_vectors(values: np.ndarray, probs: np.ndarray, n: int):
    """Sum, sum of squares and multinomial probability of every count
    vector of n draws from the atoms ``values`` with ``probs``."""
    # lgamma, not a cumulative sum of logs, whose rounding grows with n
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    # open count vectors: the draws still to place, the sums of the
    # placed draws and of their squares, and the log-probability so far;
    # a vector is closed once every draw is placed, so a law with many
    # atoms keeps only its few open vectors, never a k-column table
    rest = np.array([n])
    s1, s2, log_w = np.zeros(1), np.zeros(1), log_fact[[n]]
    closed = []
    for j, (x, log_p) in enumerate(zip(values.tolist(), np.log(probs).tolist())):
        if j == values.size - 1:
            row, c = np.arange(rest.size), rest  # the last atom takes the rest
        else:
            # each open vector splits into one per count 0..rest of atom j
            row = np.repeat(np.arange(rest.size), rest + 1)
            c = np.arange(row.size) - np.repeat(np.cumsum(rest + 1) - rest - 1,
                                                rest + 1)
        rest, s1, s2 = rest[row] - c, s1[row] + c * x, s2[row] + c * (x * x)
        log_w = log_w[row] + c * log_p - log_fact[c]
        done = rest == 0
        closed.append((s1[done], s2[done], log_w[done]))
        rest, s1, s2, log_w = rest[~done], s1[~done], s2[~done], log_w[~done]
        if not rest.size:
            break
    s1, s2, log_w = (np.concatenate(parts) for parts in zip(*closed))
    return s1, s2, np.exp(log_w)


def _tail_estimates(n: int, t: np.ndarray, weight: np.ndarray,
                    B_grid: Sequence[float]) -> list[TailEstimate]:
    """The exact tail bracket at each B of the outcomes of n draws with
    statistics t and probabilities ``weight``."""
    order = np.argsort(t)
    t = t[order]
    # tail[i]: probability of the vectors from i on, summed from the top
    tail = np.append(np.cumsum(weight[order][::-1])[::-1], 0.0)
    B_arr = np.asarray(list(B_grid), dtype=float)
    above = tail[np.searchsorted(t, B_arr * (1.0 + _TIE_REL), "right")]
    at_or_above = tail[np.searchsorted(t, B_arr * (1.0 - _TIE_REL), "right")]
    return [TailEstimate(B, n, 0, 0, min(lo, 1.0), lo * (1.0 - _SUM_REL),
                         min(hi * (1.0 + _SUM_REL), 1.0), 1.0)
            for B, lo, hi in zip(B_arr.tolist(), above.tolist(),
                                 at_or_above.tolist())]


def _estimates(dist: DistributionModel, ns: Sequence[int], B_grid: Sequence[float],
               trials: int, seed: int,
               confidence: float) -> dict[tuple[int, float], TailEstimate]:
    """The estimate at every n and then every B: the exact tail when
    :func:`_exact_tail` can enumerate it, otherwise the simulation of
    :func:`empirical_tail`.  Each n's MCConfig is built either way, so
    bad settings raise ValueError even where nothing is simulated."""
    out = {}
    for n in ns:
        cfg = MCConfig(n, trials, seed, confidence)
        ests = _exact_tail(dist, n, B_grid)
        for est in empirical_tail(dist, cfg, B_grid) if ests is None else ests:
            out[(n, est.B)] = est
    return out


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRow:
    """One bound cell matched against its exact tail or Monte Carlo estimate."""

    curve: BoundCurve
    point: BoundPoint
    estimate: TailEstimate
    status: str
    margin: float | None = None


def verify_bounds(dist: DistributionModel, curves: Sequence[BoundCurve],
                  trials: int, seed: int,
                  confidence: float = 0.999) -> list[VerificationRow]:
    """Check every bound cell against the exact tail or a simulation.

    Returns one row per point, in the order of the curves and then of
    their points.  The referee's grid comes from the curves: it runs at
    the first n of every curve's range (the n of a fixed-n curve, n = 1
    for the lower-bound curves, lo for a sup over lo..hi) and at the B
    of every point.  Each cell is checked against the refereed n in its
    range, as the curve's :attr:`~selfnorm.bounds.BoundCurve.side` says
    (ValueError for a family without one): an upper bound must sit at
    or above the lower confidence limit of the estimate, taking the n
    with the largest such limit in a sup-over-n range; the
    single-observation lower bound must sit at or below the upper limit
    at n = 1.  The limiting normal tail gets REPORT rows and asserts
    nothing.  A simulation runs ``trials``
    trials from ``seed``, with intervals at ``confidence``.
    """
    ns = sorted({curve.n_range[0] for curve in curves})
    B_grid = sorted({pt.B for c in curves for pt in c.points})
    ests = _estimates(dist, ns, B_grid, trials, seed, confidence)
    rows = []
    for curve in curves:
        lo, hi = curve.n_range
        side = curve.side
        for pt in curve.points:
            est = max((ests[(n, pt.B)] for n in ns if lo <= n <= hi),
                      key=lambda e: e.ci_lo)
            if side == "report":
                rows.append(VerificationRow(curve, pt, est, "REPORT"))
                continue
            margin = pt.value - est.ci_lo if side == "upper" else est.ci_hi - pt.value
            rows.append(VerificationRow(
                curve, pt, est, "PASS" if margin >= 0.0 else "FAIL", margin=margin))
    return rows
