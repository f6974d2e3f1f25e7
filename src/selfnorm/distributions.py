"""Centered probability laws and the moment machinery behind every bound.

A :class:`DistributionModel` represents the common law of i.i.d. centered
variables with finite positive variance, and the bounds read it only
through the moment primitives of its hook table.  :class:`DiscreteLaw`,
empirical samples included, supplies every hook as an exact sum, and
density laws as integrals by one vectorized adaptive Gauss-Legendre rule
(:func:`_integrate`) that works on the integrand's exponent, so that
huge-but-finite integrands never overflow pointwise.  The standard
gaussian and the symmetric uniform override the hooks they have closed
forms for.  A density law's summand moments at one ``c = B/sqrt(n)``
are integrated over one plan, a memo of the probes and pieces of one
:func:`_integrate` call, so the p search of a PowerLevel cell refines
its pieces once.  A density law reads its density only through
``_log_density``, and every law draws only through ``sample``.  A
moment whose tail past the probe ladder does not decay
geometrically, and a quadratic moment or density integral above
``exp(700)``, raise :class:`DivergentError`; callers that need an
extended-real answer (the log-MGF) map that onto ``+inf``.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DensityLaw",
    "DiscreteLaw",
    "DistributionModel",
    "DivergentError",
    "Rademacher",
    "StandardGaussian",
    "UniformSymmetric",
    "parse_distribution",
]

OVERFLOW_LIMIT = math.exp(700.0)

_MEAN_TOL = 1e-8
_PROB_SUM_TOL = 1e-12
# probe ladder of density laws, in units of sigma: 0 and +-2^k, k = -10..100
_LADDER = np.array([-math.ldexp(1.0, k) for k in range(100, -11, -1)] + [0.0]
                   + [math.ldexp(1.0, k) for k in range(-10, 101)])
_GL_NODES = 32
# a piece is done when its 1- and 2-panel values agree to this share of
# the running total, widened by the rounding of exponents near |shift|
_PIECE_TOL = 1e-13
_EXPONENT_NOISE = 64.0 * sys.float_info.epsilon
# open pieces after a round, and rounds: a kink costs one piece per round
_MAX_OPEN = 1024
_MAX_ROUNDS = 60
# the largest share of the total that an extrapolated tail, or the error
# left after the last round, may carry
_UNRESOLVED_TOL = 1e-10
# breakpoints around a log-MGF integrand's peak, in its standard deviations
_PEAK_STEPS = (-32.0, -8.0, -2.0, -1.0, 1.0, 2.0, 8.0, 32.0)
# a largest exponent below this keeps the shifted exponents finite: their
# exact values stay above -max_float - 2^969, which rounds to -max_float
_SHIFT_SAFE = math.ldexp(1.0, 969)
# the p at which the summand plan of a density law is refined
_P_REF = 1.5


class DivergentError(ArithmeticError):
    """An expectation failed to converge or exceeded the overflow guard."""


def _guard_finite(value: float, what: str) -> float:
    if not math.isfinite(value) or abs(value) > OVERFLOW_LIMIT:
        raise DivergentError(f"{what} exceeded the overflow guard or diverged")
    return value


def _apply(fn, x: np.ndarray) -> np.ndarray:
    """fn over the array x; a constant broadcasts, and a function of
    scalars only is applied elementwise."""
    try:
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape == x.shape:
            return vals
        if vals.ndim == 0:
            return np.full(x.shape, float(vals))
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(v)) for v in x.ravel()]).reshape(x.shape)


def _log_sum_exp(exps: np.ndarray, b: np.ndarray) -> float:
    """ln sum(b * exp(exps)) for positive weights b.

    The algorithm of scipy.special.logsumexp (SciPy 1.17), bit for bit,
    without the cost of importing scipy.special: the largest terms are
    summed apart, as m, and the rest enter through log1p(s/m).  Both sums
    are ``np.add.reduce`` over the products SciPy sums, so their pairwise
    grouping is the same.  Below ``_SHIFT_SAFE`` the shifted exponents
    cannot overflow, and the scalar steps run in Python floats, which
    never warn, so that path needs no ``errstate``.  For a larger or
    non-finite largest exponent, or a result that is not finite, the same
    algorithm runs under ``errstate`` and ends, as SciPy does, in the
    direct ``ln sum(b * exp(exps))`` where it is not finite.
    """
    a_max = exps.max()
    if -math.inf < a_max < _SHIFT_SAFE:
        top = exps == a_max
        m = float(np.add.reduce(b * top))
        e = np.exp(exps - a_max)
        e[top] = 0.0
        s = float(np.add.reduce(b * e))
        if s != 0.0:
            s = s / m
        out = float(np.log1p(s)) + float(np.log(m)) + float(a_max)
        if math.isfinite(out):
            return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = exps == a_max
        m = np.sum(b * top.astype(float))
        s = np.sum(b * np.exp(np.where(top, -math.inf, exps) - a_max))
        if s != 0.0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(b * np.exp(exps)))
    return float(out)


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    """The 32-node Gauss-Legendre rule on [0, 1] as node fractions and
    weights.

    The nodes start as the eigenvalues of the Jacobi matrix (Golub &
    Welsch 1969, Math. Comp. 23).  Two Newton steps on P_32 in 40-digit
    decimal arithmetic then give nodes and weights ``2/((1 - x^2)
    P_32'(x)^2)`` rounded once to float: in float arithmetic the
    weights near the ends lose up to 6e-14 to the cancellation in
    ``1 - x^2``, which shows in the last digit of a moment.
    """
    from decimal import Decimal, localcontext

    n = _GL_NODES
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    start = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for x0 in start[n // 2:]:
            x = Decimal(float(x0))
            for _ in range(2):
                # P_n(x) and P_n'(x) by the three-term recurrence
                p_prev, p = Decimal(1), x
                for j in range(2, n + 1):
                    p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
                dp = n * (x * p - p_prev) / (x * x - 1)
                x -= p / dp
            nodes.append(float((1 + x) / 2))
            weights.append(float(1 / ((1 - x * x) * dp * dp)))
    # the rule is symmetric: node 1 - u pairs with node u
    u, w = np.array(nodes), np.array(weights)
    u, w = np.concatenate((1.0 - u[::-1], u)), np.concatenate((w[::-1], w))
    # shared by every caller through the cache
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _integrate(fn, lo: float, hi: float, scale: float,
               breakpoints: Sequence[float] = (), table: tuple | None = None,
               plan: bool = False):
    """The integral of ``s * exp(e)`` over [lo, hi], where ``(e, s) =
    fn(x)`` for an array x.  Returns ``(shift, total)``; the integral is
    ``exp(shift) * total``.

    The probes are the ladder ``0, +-scale*2^k`` (k = -10..100), the
    breakpoints and the finite ends, within [lo, hi].  Only the window of
    probes where e is within 800 of its largest probe value, and one more
    on each side, is integrated, piece by piece between consecutive
    probes (see :func:`_adapt`).  When [lo, hi] goes on past an end of
    the ladder, a peak of e at that end means divergence; a window
    reaching it adds the geometric tail ``r/(1 - r)`` times the last
    octave, r the ratio of the last two octaves, and that tail must stay
    below ``_UNRESOLVED_TOL`` of the total, else the integral counts as
    divergent.

    ``plan=True`` returns, in place of the integral, its plan ``(probes,
    window, pieces)``: the window as indices of the probes, and the ends
    ``(a, b)`` of the pieces that :func:`_adapt` accepted over it; None
    where e is -inf at every probe.  ``table = (probes, window, pieces, e,
    first)`` integrates fn over such a plan, made for another exponent:
    e is fn's exponent at the probes, and ``first`` what fn returns at
    the 96 first-round nodes of each piece.  Its window is found on the
    plan's probes and must lie within the plan's window, else the plan
    cannot integrate fn and :class:`DivergentError` is raised; the
    plan's pieces are then integrated in place of the window's.
    """
    if table is None:
        pts = np.unique(np.concatenate((scale * _LADDER, breakpoints, (lo, hi))))
        probes = pts[(pts >= lo) & (pts <= hi) & (np.abs(pts) <= scale * _LADDER[-1])]
        with np.errstate(invalid="ignore", over="ignore"):
            e = np.asarray(fn(probes)[0], dtype=float)
    else:
        probes, window, pieces, e, first = table
    e = np.where(np.isnan(e), -math.inf, e)
    i0, last = int(np.argmax(e)), len(probes) - 1
    top = e[i0]
    if top == -math.inf:
        return None if plan else (-math.inf, 0.0)
    open_lo, open_hi = probes[0] > lo, probes[-1] < hi
    if top == math.inf or (i0 == 0 and open_lo) or (i0 == last and open_hi):
        raise DivergentError("integrand diverges at its peak")
    # past the window the integrand is below exp(-800) of the peak at
    # every probe
    rel = np.nonzero(e >= top - 800.0)[0]
    i_lo, i_hi = max(rel[0] - 1, 0), min(rel[-1] + 1, last)
    if table is None:
        pieces, first = (probes[i_lo:i_hi], probes[i_lo + 1:i_hi + 1]), None
    elif i_lo < window[0] or i_hi > window[1]:
        raise DivergentError("integrand's window leaves the plan")
    shift, acc, accepted = _adapt(fn, *pieces, first)
    if plan:
        return probes, (i_lo, i_hi), accepted
    total = float(acc.sum())
    span = scale * _LADDER[-1]  # where an open side's window ends
    a, b = pieces
    for is_open, dist in ((open_lo and i_lo == 0, -b), (open_hi and i_hi == last, a)):
        if not is_open:
            continue
        # the last two octaves: [span/2, span] and [span/4, span/2] out
        outer = float(acc[dist >= 0.5 * span].sum())
        inner = float(acc[(dist >= 0.25 * span) & (dist < 0.5 * span)].sum())
        if outer == 0.0:
            continue
        r = outer / inner if inner != 0.0 else math.inf
        tail = outer * r / (1.0 - r) if 0.0 <= r < 1.0 else math.inf
        if not abs(tail) <= _UNRESOLVED_TOL * np.abs(acc).sum():
            raise DivergentError("integrand tail does not decay")
        total += tail
    return shift, total


def _adapt(fn, a: np.ndarray, b: np.ndarray,
           first: tuple | None = None) -> tuple[float, np.ndarray, tuple]:
    """Adaptive Gauss-Legendre integrals of ``s * exp(e - shift)`` over
    the pieces [a_i, b_i]; returns ``shift``, the value of each piece, and
    the ends ``(a, b)`` of the pieces it accepted.

    Each piece is integrated by the 32-node rule on one panel and on two
    halves.  A piece whose two values differ by more than ``_PIECE_TOL``
    of the running total (plus the rounding of exponents near
    ``|shift|``) is bisected, its halves keeping their one-panel values;
    all pieces of a round go through one call of ``fn``, except that
    ``first``, when given, is what ``fn`` returns at the first round's
    nodes.  Round ``_MAX_ROUNDS`` accepts every piece if their summed
    error is within ``_UNRESOLVED_TOL`` of the total.  A round leaving
    over ``_MAX_OPEN`` pieces open always raises: each error is above
    ``_PIECE_TOL`` of the total, so their sum passes 1.024e-10 >
    ``_UNRESOLVED_TOL``.
    ``shift`` follows the largest exponent seen, so no node overflows.
    """
    u, w = _gauss_legendre()
    u2 = np.concatenate((0.5 * u, 0.5 + 0.5 * u))
    origin = np.arange(len(a))
    acc = np.zeros(len(a))  # accepted value per piece
    done_a, done_b = [], []  # the accepted pieces of each round
    one = None  # one-panel values, known for halves of a bisected piece
    shift = -math.inf
    for rnd in range(_MAX_ROUNDS):
        width = b - a
        if first is None:
            nodes = u2 if one is not None else np.concatenate((u, u2))
            first = fn(a[:, None] + width[:, None] * nodes)
        (e, s), first = first, None
        if np.isnan(e).any():
            raise DivergentError("integrand is not a number")
        peak = e.max(initial=-math.inf)
        if peak == math.inf:
            raise DivergentError("integrand diverges")
        if peak > shift:
            rescale = math.exp(shift - peak)
            acc *= rescale
            if one is not None:
                one = one * rescale
            shift = float(peak)
        vals = s * np.exp(e - shift) if shift > -math.inf else np.zeros(e.shape)
        if one is None:
            one = width * (vals[:, :_GL_NODES] @ w)
            vals = vals[:, _GL_NODES:]
        left = 0.5 * width * (vals[:, :_GL_NODES] @ w)
        right = 0.5 * width * (vals[:, _GL_NODES:] @ w)
        both = left + right
        err = np.abs(both - one)
        scale = np.abs(acc).sum() + np.abs(both).sum()
        open_ = err > (_PIECE_TOL + _EXPONENT_NOISE * abs(shift)) * scale
        if rnd == _MAX_ROUNDS - 1 or np.count_nonzero(open_) > _MAX_OPEN:
            if err.sum() > _UNRESOLVED_TOL * scale:
                raise DivergentError("quadrature did not converge")
            open_[:] = False
        keep = ~open_
        np.add.at(acc, origin[keep], both[keep])
        done_a.append(a[keep])
        done_b.append(b[keep])
        if not open_.any():
            break
        a, b, origin = a[open_], b[open_], origin[open_]
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        origin = np.concatenate((origin, origin))
        one = np.concatenate((left[open_], right[open_]))
    return shift, acc, (np.concatenate(done_a), np.concatenate(done_b))


class DistributionModel:
    """Base class for centered laws.  Immutable after construction.

    Each moment primitive checks its domain here, then calls its hook::

        q1(B)                     _q1(1/B)
        lp_norm(p)                _lp_norm(p)
        log_mgf2(l1, l2)          _log_mgf2(l1, l2), away from the origin
        quadratic_moments()       _quadratic_moments(), once per law
        summand_lp_norm(n, B, p)  _log_summand_moment(B/sqrt(n), p), B > 0;
                                  a density law keeps the quadrature plan
                                  of the last c, and integrates each p
                                  over it
    """

    sigma2: float
    name: str
    # the smallest positive atom (inf if there is none); 0, which settles
    # nothing, for laws with a density
    min_positive_atom: float = 0.0
    # xi and -xi have the same law; the sup-over-n tail certificate of
    # the bounds module needs it
    symmetric: bool = False

    def __init__(self, sigma2: float, name: str):
        if not (sigma2 > 0.0 and math.isfinite(sigma2)):
            raise ValueError(f"variance must be finite and positive, got {sigma2}")
        self.sigma2 = float(sigma2)
        self.name = name
        self._qm: tuple[float, float, float] | None = None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draws of the law from ``rng``, in an array of shape ``size``."""
        raise NotImplementedError

    def q1(self, B: float) -> float:
        """The single-observation tail Q_1(B) = P(0 < xi < 1/B), B > 0.

        For n = 1 the statistic is 1/xi (and 0 when xi = 0), so this is
        P(T(1) > B) exactly.  The interval is open at 1/B: an atom
        exactly there gives T = B, which does not exceed B.
        """
        if not B > 0.0:
            raise ValueError(f"B must be positive, got {B}")
        return self._q1(1.0 / B)

    def lp_norm(self, p: float) -> float:
        """Classical Lp norm (E|xi|^p)^(1/p), p >= 1."""
        if p < 1.0:
            raise ValueError(f"p must be >= 1, got {p}")
        return self._lp_norm(p)

    def log_mgf2(self, l1: float, l2: float) -> float:
        """Bivariate log-MGF ln E exp(l1*xi + l2*(sigma^2 - xi^2)), l2 >= 0.

        Raises ``ValueError`` for l2 < 0 or NaN.  Returns ``+inf`` when the
        expectation diverges, and also where :meth:`_log_mgf2` reads NaN;
        always 0 at the origin.
        """
        if not l2 >= 0.0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        if l1 == 0.0 and l2 == 0.0:
            return 0.0
        v = self._log_mgf2(l1, l2)
        return math.inf if math.isnan(v) else v

    def quadratic_moments(self) -> tuple[float, float, float]:
        """(sigma^2, w, z) with w = E(sigma^2 - xi^2)^2 and z = E(sigma^2*xi
        - xi^3), which is -E xi^3 for a centered law and makes n*sigma^2 +
        2*B*sqrt(n)*z + B^2*w the exact variance of the linearized summand
        sqrt(n)*xi + B*(sigma^2 - xi^2); z vanishes for laws symmetric
        about 0.  Raises :class:`DivergentError` where w or z diverges."""
        if self._qm is None:
            self._qm = self._quadratic_moments()
        return self._qm

    def summand_lp_norm(self, n: int, B: float, p: float) -> float:
        """Lp norm of the linearized summand xi + B*(sigma^2 - xi^2)/sqrt(n)."""
        # lp_norm also rejects p < 1
        if B == 0.0 or p < 1.0:
            return self.lp_norm(p)
        return math.exp(self._log_summand_moment(B / math.sqrt(n), p) / p)


# -- discrete laws ---------------------------------------------------------


class DiscreteLaw(DistributionModel):
    """Finite atomic law; every hook is an exact finite sum.

    The atoms are kept as one canonical table, ``_values`` and
    ``_probs``: the distinct values in ascending order, each carrying
    the summed weight of its copies, and no atom of weight 0.  Every
    reader takes the table as built.  The exponents of the log-MGF and Lp
    norms are built from the squares ``_squares`` with the float operations
    of :class:`_QuadratureLaw`'s, and summed by :func:`_log_sum_exp`.
    """

    def __init__(self, atoms: Iterable[tuple[float, float]] | np.ndarray,
                 name: str | None = None):
        pairs = np.asarray(atoms if isinstance(atoms, np.ndarray) else list(atoms),
                           dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or not len(pairs):
            raise ValueError("discrete law needs at least one (value, prob) atom")
        values, probs = pairs.T
        if not np.all(probs >= 0.0):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"atom probabilities sum to {probs.sum()}, not 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("atom values must be finite")
        values, copy_of = np.unique(values, return_inverse=True)
        probs = np.bincount(copy_of, weights=probs)
        self._values, self._probs = values[probs > 0.0], probs[probs > 0.0]
        mean = float(np.dot(self._probs, self._values))
        with np.errstate(over="ignore"):  # an inf variance is rejected below
            squares = self._values * self._values
            sigma2 = float(np.dot(self._probs, squares))
        if sigma2 <= 0.0:
            raise ValueError("discrete law is degenerate at 0")
        if abs(mean) > _MEAN_TOL * math.sqrt(sigma2):
            raise ValueError(f"law is not centered: mean = {mean}")
        if name is None:
            name = "discrete:" + ",".join(
                f"{v:g}:{q:g}" for v, q in zip(self._values, self._probs))
        super().__init__(sigma2, name)
        # finite, now that the variance is
        self._squares = squares
        self._max_abs = max(-float(self._values[0]), float(self._values[-1]))
        self._max_square = self._max_abs * self._max_abs
        positive = self._values[self._values > 0.0]
        self.min_positive_atom = float(positive.min()) if positive.size else math.inf
        # sorted by value, so mirrored atoms read the same backwards
        self.symmetric = bool(np.array_equal(self._values, -self._values[::-1])
                              and np.array_equal(self._probs, self._probs[::-1]))

    @classmethod
    def from_sample(cls, samples: Iterable[float],
                    name: str = "empirical") -> DiscreteLaw:
        """Law of a recentered sample: its distinct values, each weighted
        by its share of the sample.

        The sample is shifted to mean zero.  The implied MGF is the
        empirical one (always finite up to the overflow guard), so
        exponential bounds built on this law are optimistic in the
        extreme tail: no resampled value can exceed the observed maximum.
        """
        arr = np.asarray(list(samples), dtype=float)
        if arr.size < 2:
            raise ValueError("empirical law needs at least two samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if np.all(arr == arr[0]):
            raise ValueError("sample is constant; variance is zero")
        values, counts = np.unique(arr - arr.mean(), return_counts=True)
        return cls(np.column_stack((values, counts / arr.size)), name=name)

    def _lp_norm(self, p):
        with np.errstate(divide="ignore"):
            exps = p * np.log(np.abs(self._values))
        return math.exp(_log_sum_exp(exps, self._probs) / p)

    def _log_mgf2(self, l1, l2):
        # the exponent l1*x - l2*(x*x) of the quadrature route, so the
        # bits are the same; errstate only where a product can overflow
        if abs(l1) * self._max_abs + abs(l2) * self._max_square < math.inf:
            exps = l1 * self._values - l2 * self._squares
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                exps = l1 * self._values - l2 * self._squares
        v = _log_sum_exp(exps, self._probs) + l2 * self.sigma2
        if math.isfinite(v):
            return v
        # l2*(sigma^2 - x^2) per atom stays finite where l2*x^2 or
        # l2*sigma^2 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            exps = l1 * self._values + l2 * (self.sigma2 - self._squares)
        return _log_sum_exp(exps, self._probs)

    def _quadratic_moments(self):
        x, s2 = self._values, self.sigma2
        # atoms far past sigma overflow the products: the guard raises
        with np.errstate(over="ignore", invalid="ignore"):
            w = float(np.dot(self._probs, (s2 - self._squares) ** 2))
            z = float(np.dot(self._probs, s2 * x - x ** 3))
        return s2, _guard_finite(w, "moment w"), _guard_finite(z, "moment z")

    def _log_summand_moment(self, c, p):
        with np.errstate(divide="ignore", invalid="ignore"):
            exps = p * np.log(np.abs(self._values + c * (self.sigma2 - self._squares)))
        return _log_sum_exp(exps, self._probs)

    def sample(self, rng, size):
        return rng.choice(self._values, size=size, p=self._probs)

    def _q1(self, hi):
        mask = (self._values > 0.0) & (self._values < hi)
        return float(self._probs[mask].sum())


class Rademacher(DiscreteLaw):
    """Fair signs: +1 or -1 with probability 1/2 each."""

    def __init__(self):
        super().__init__([(-1.0, 0.5), (1.0, 0.5)], name="rademacher")


# -- density laws ----------------------------------------------------------


class _QuadratureLaw(DistributionModel):
    """Laws given by a density: every hook integrates by
    :func:`_integrate`, with the probe ladder in units of sigma, the
    summand moments over one :meth:`_summand_plan` per c."""

    support: tuple[float, float]
    # the summand plan of the last c asked for, as (c, plan or None)
    _summand_memo: tuple = (None, None)

    def _log_density(self, x):
        """The log-density at every point of the array x."""
        raise NotImplementedError

    def _integrate_density(self, g, lo, hi, scale):
        """The integral of density * g over [lo, hi], g taking arrays."""

        def fn(x):
            with np.errstate(divide="ignore", over="ignore"):
                f = np.exp(self._log_density(x)) * g(x)
                return np.log(np.abs(f)), np.sign(f)

        shift, total = _integrate(fn, lo, hi, scale)
        with np.errstate(over="ignore"):
            return _guard_finite(float(np.exp(shift) * total), "expectation")

    def _exponent_fn(self, t):
        """The integrand of E exp(t(xi)), for :func:`_integrate`."""

        def fn(x):
            with np.errstate(invalid="ignore", over="ignore"):
                return self._log_density(x) + t(x), 1.0

        return fn

    def _log_expect_exponent(self, t, breakpoints, table=None):
        """ln E exp(t(xi)), computed entirely at exponent level; ``table``
        as for :func:`_integrate`.

        The integrand exponent is shifted by its maximum before
        quadrature, so values like ``E |xi|^900`` or an MGF of size
        ``exp(5000)`` come out as ordinary floats on the log scale.
        Genuine divergence still raises :class:`DivergentError`.
        """
        shift, total = _integrate(self._exponent_fn(t), *self.support,
                                  math.sqrt(self.sigma2), breakpoints, table)
        if total <= 0.0:
            # the expectation of a positive integrand is positive: a zero
            # total means the quadrature missed the mass (at a jump of the
            # density, say), and log_mgf2 then reads +inf, a barrier
            raise DivergentError("quadrature lost the integrand's mass")
        return shift + math.log(total)

    def _q1(self, hi):
        # a centered law's support straddles 0, and hi = 1/B > 0
        a, b = max(0.0, self.support[0]), min(hi, self.support[1])
        return self._integrate_density(lambda x: 1.0, a, b, math.sqrt(self.sigma2))

    def _lp_norm(self, p: float) -> float:
        """The Lp norm, by :meth:`_log_expect_exponent`."""
        scale = math.sqrt(self.sigma2 * p)

        def t(x):
            with np.errstate(divide="ignore"):
                return p * np.log(np.abs(x))

        log_moment = self._log_expect_exponent(t, (0.0, -scale, scale))
        return math.exp(log_moment / p)

    def _log_mgf2(self, l1: float, l2: float) -> float:
        """The log-MGF away from the origin, by :meth:`_log_expect_exponent`.

        At l2 = 0 the one breakpoint is 0.  For l2 > 0 the integrand
        peaks near l1/(2*l2) with standard deviation ``width =
        1/sqrt(2*l2)``.  The peak and ``center + k*width``, k = +-1, +-2,
        +-8, +-32, go to the quadrature splitter.
        With only ``center +- width``, the piece from there to the next
        ladder probe can be far wider than the peak: its tail falls
        between the nodes of both the 1- and the 2-panel rule, the two
        agree, and the piece is accepted short of up to a third of the
        mass.
        """
        # the constant l2*sigma^2 is added last, so that the exponent stays
        # of the size of its variation even when l2*sigma^2 is huge
        def t(x):
            return l1 * x - l2 * (x * x)

        if l2 > 0.0:
            center = l1 / (2.0 * l2)
            width = 1.0 / math.sqrt(2.0 * l2)
            pts = (0.0, center, *(center + k * width for k in _PEAK_STEPS))
        else:
            pts = (0.0,)
        try:
            return self._log_expect_exponent(t, pts) + l2 * self.sigma2
        except DivergentError:
            return math.inf

    def _quadratic_moments(self):
        s2 = self.sigma2
        w, z = (self._integrate_density(g, *self.support, math.sqrt(s2))
                for g in (lambda x: (s2 - x * x) ** 2, lambda x: s2 * x - x ** 3))
        return s2, w, z

    def _log_abs_summand(self, c, x):
        """ln|x + c*(sigma^2 - x^2)| at the array x."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.log(np.abs(x + c * (self.sigma2 - x * x)))

    def _summand_plan(self, c):
        """The quadrature of the summand moments at c, shared by every p:
        the plan of :func:`_integrate` for the exponent at ``_P_REF``, so
        that the pieces next to the roots of the summand come out refined,
        and the parts ``(A, L)`` of the exponent ``A + p*L``, the
        log-density and ln|summand|, at its probes and at the 96
        first-round nodes of each piece.  None where the moment at
        ``_P_REF`` diverges or reads no mass."""
        fn = self._exponent_fn(lambda x: _P_REF * self._log_abs_summand(c, x))
        try:
            plan = _integrate(fn, *self.support, math.sqrt(self.sigma2),
                              _summand_breakpoints(self.sigma2, c, _P_REF),
                              plan=True)
        except DivergentError:
            return None
        if plan is None:
            return None
        probes, _, (a, b) = plan
        u, _ = _gauss_legendre()
        nodes = a[:, None] + (b - a)[:, None] * np.concatenate(
            (u, 0.5 * u, 0.5 + 0.5 * u))
        with np.errstate(invalid="ignore", over="ignore"):
            parts = [(self._log_density(x), self._log_abs_summand(c, x))
                     for x in (probes, nodes)]
        return plan, parts

    def _log_summand_moment(self, c: float, p: float) -> float:
        """ln E|xi + c*(sigma^2 - xi^2)|^p for c > 0.

        Over the :meth:`_summand_plan` of c, kept in a one-slot memo; a p
        the plan cannot integrate, or whose integral over it diverges,
        goes over fresh probes.
        """
        if self._summand_memo[0] != c:
            self._summand_memo = (c, self._summand_plan(c))
        memo = self._summand_memo[1]

        def t(x):
            return p * self._log_abs_summand(c, x)

        if memo is not None:
            plan, parts = memo
            with np.errstate(invalid="ignore", over="ignore"):
                e, first = (A + p * L for A, L in parts)
            try:
                return self._log_expect_exponent(t, (), (*plan, e, (first, 1.0)))
            except DivergentError:
                pass
        return self._log_expect_exponent(t, _summand_breakpoints(self.sigma2, c, p))


def _summand_breakpoints(s2: float, c: float, p: float) -> tuple[float, ...]:
    """Breakpoints for E|xi + c*(s2 - xi^2)|^p: 0, the roots of the
    summand, where |summand|^p has its kinks, and +-sqrt(max(2p, 1)*s2)."""
    disc = math.sqrt(1.0 + 4.0 * c * c * s2)
    roots = ((1.0 - disc) / (2.0 * c), (1.0 + disc) / (2.0 * c))
    scale = math.sqrt(max(2.0 * p * s2, s2))
    return (0.0, *roots, -scale, scale)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


class StandardGaussian(_QuadratureLaw):
    """Standard normal law, sigma^2 = 1.

    The log-MGF, the Lp norms, the quadratic moments and Q_1 are closed
    forms; the summand's Lp norms go through quadrature.
    """

    support = (-math.inf, math.inf)
    symmetric = True

    def __init__(self):
        super().__init__(1.0, "gaussian")

    def _log_density(self, x):
        return -0.5 * x * x - _LOG_SQRT_2PI

    def _log_mgf2(self, l1, l2):
        # E exp(l1*xi - l2*xi^2) = exp(l1^2/(2d))/sqrt(d), d = 1 + 2*l2 >= 1
        return l1 * l1 / (2.0 + 4.0 * l2) - 0.5 * math.log1p(2.0 * l2) + l2

    def _lp_norm(self, p):
        # E|xi|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi)
        return math.exp((0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0))
                         - 0.5 * math.log(math.pi)) / p)

    def _quadratic_moments(self):
        # E xi^4 = 3, so w = 3 - 2 + 1; odd moments vanish
        return 1.0, 2.0, 0.0

    def _q1(self, hi):
        return 0.5 * math.erf(hi * _SQRT_HALF)

    def sample(self, rng, size):
        return rng.standard_normal(size)


_LOG_HALF_SQRT_PI = math.log(0.5 * math.sqrt(math.pi))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# Veltkamp's splitting constant 2^27 + 1 for doubles
_SPLIT = 134217729.0


def _erfcx(x: float) -> float:
    """The scaled complementary error function exp(x^2)*erfc(x), x >= 0.

    Below 26 it is ``erfc(x)*exp(x^2)``, with x^2 split exactly into hi
    and lo parts (Veltkamp): the exponential of the rounded square alone
    would be off by up to 6e-14 relative near 26.  From 26 on, where
    erfc nears the subnormals, it is the asymptotic series (Abramowitz &
    Stegun 7.1.23) to its eighth term; the first term left out is below
    2e-19 of the sum.
    """
    if x < 26.0:
        t = _SPLIT * x
        xh = t - (t - x)
        xl = x - xh
        hi = x * x
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        return math.erfc(x) * math.exp(hi) * math.exp(lo)
    return _INV_SQRT_PI / x * _erfcx_series(x)


def _erfcx_series(x: float) -> float:
    """``x*sqrt(pi)*erfcx(x)`` for x >= 26 by the asymptotic series; 1 at
    x = inf."""
    v = 0.5 / (x * x)
    return 1.0 - v * (1.0 - 3.0 * v * (1.0 - 5.0 * v * (1.0 - 7.0 * v * (
        1.0 - 9.0 * v * (1.0 - 11.0 * v * (1.0 - 13.0 * v))))))


def _log_k(g: float, h: float, L: float) -> float:
    """ln K, with K the integral of exp(-g*y - h*y^2) over [0, L];
    g, h, L >= 0.

    Where the exponent stays within 1 of 0 the 32-node Gauss-Legendre
    rule is exact to rounding; for h = 0 K is ``-expm1(-g*L)/g``;
    otherwise K is the gaussian integral (Abramowitz & Stegun 7.1.1)
    ``sqrt(pi)/(2*sqrt(h)) * (erfcx(t0) - erfcx(t1)*exp(-(g*L + h*L^2)))``,
    t0 = g/(2*sqrt(h)) and t1 = t0 + sqrt(h)*L, whose second term is at
    most 1/e of the first.  From t0 = 26 on, both erfcx values are
    series over ``t*sqrt(pi)``, and ``t0*sqrt(h) = g/2`` takes h out of
    the prefactor, so that a t0 past the largest float still reads
    ``K = 1/g``.
    """
    top = g * L + h * L * L
    if top <= 1.0:
        if not L > 0.0:
            return -math.inf
        u, w = _gauss_legendre()
        s = float(w @ np.exp(-(g * L) * u - (h * L * L) * (u * u)))
        return math.log(L) + math.log(s)
    if h == 0.0:
        return math.log(-math.expm1(-g * L)) - math.log(g)
    rh = math.sqrt(h)
    t0 = g / (2.0 * rh)
    if t0 < 26.0:
        return (_LOG_HALF_SQRT_PI - 0.5 * math.log(h)
                + math.log(_erfcx(t0) - _erfcx(t0 + rh * L) * math.exp(-top)))
    tail = g / (g + 2.0 * h * L) * _erfcx_series(t0 + rh * L) * math.exp(-top)
    return math.log(_erfcx_series(t0) - tail) - math.log(g)


class UniformSymmetric(_QuadratureLaw):
    """Uniform law on [-a, a]; sigma^2 = a^2/3.

    The log-MGF, the Lp norms, the quadratic moments and Q_1 are closed
    forms; the summand's Lp norms go through quadrature.
    """

    symmetric = True

    def __init__(self, half_width: float):
        if not (half_width > 0.0 and math.isfinite(half_width)):
            raise ValueError(
                f"half width must be positive and finite, got {half_width}")
        self.half_width = float(half_width)
        self.support = (-self.half_width, self.half_width)
        self._log_height = -math.log(2.0 * self.half_width)
        super().__init__(half_width * half_width / 3.0, f"uniform:a={half_width:g}")

    def _log_density(self, x):
        return np.where(np.abs(x) <= self.half_width, self._log_height, -math.inf)

    def _log_mgf2(self, l1, l2):
        # E exp(l1*xi - l2*xi^2) is a truncated gaussian integral; the law
        # is symmetric, so l1 enters through |l1|
        if not (math.isfinite(l1) and math.isfinite(l2)):
            return math.inf
        a, b = self.half_width, abs(l1)
        if b < 2.0 * a * l2:
            # the exponent b*x - l2*x^2 peaks at m inside the support
            m = b / (2.0 * l2)
            near, far = _log_k(0.0, l2, a - m), _log_k(0.0, l2, a + m)
            log_e = l2 * m * m + far + math.log1p(math.exp(near - far))
        else:
            # it peaks at x = a or beyond: integrate y = a - x over [0, 2a]
            log_e = a * b - a * a * l2 + _log_k(b - 2.0 * a * l2, l2, 2.0 * a)
        # by Jensen the log-MGF is at least 0, which rounding near the
        # origin can miss by 1e-16; a NaN of overflowing terms passes on,
        # and log_mgf2 reads it as +inf
        value = log_e + self._log_height + l2 * self.sigma2
        return 0.0 if value < 0.0 else value

    def _lp_norm(self, p):
        # E|xi|^p = a^p/(p + 1)
        return self.half_width / (p + 1.0) ** (1.0 / p)

    def _quadratic_moments(self):
        # w = E xi^4 - sigma^4 = a^4/5 - a^4/9, written without the
        # cancellation; odd moments vanish
        a2 = self.half_width * self.half_width
        return self.sigma2, 4.0 * a2 * a2 / 45.0, 0.0

    def _q1(self, hi):
        return min(hi, self.half_width) / (2.0 * self.half_width)

    def sample(self, rng, size):
        return rng.uniform(-self.half_width, self.half_width, size)


class DensityLaw(_QuadratureLaw):
    """Law given by an arbitrary density on a (possibly infinite) interval.

    The density must integrate to 1 and have mean 0 within tolerance;
    both are checked at construction.  Sampling inverts the CDF through
    scipy's polynomial-interpolation inverse (PINV), built lazily.
    """

    def __init__(self, density: Callable[[float], float],
                 support: tuple[float, float] = (-math.inf, math.inf),
                 name: str = "density"):
        self._density_fn = density
        self.support = (float(support[0]), float(support[1]))
        mass, mean, sigma2 = (self._integrate_density(g, *self.support, 1.0)
                              for g in (lambda x: 1.0, lambda x: x, lambda x: x * x))
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {mass}, not 1")
        if abs(mean) > _MEAN_TOL * math.sqrt(sigma2):
            raise ValueError(f"law is not centered: mean = {mean}")
        super().__init__(sigma2, name)
        self._sampler = None

    def _log_density(self, x):
        with np.errstate(divide="ignore"):
            return np.log(_apply(self._density_fn, x))

    def sample(self, rng, size):
        if self._sampler is None:
            from scipy.stats.sampling import NumericalInversePolynomial

            class _Pdf:
                def __init__(self, fn):
                    self.pdf = fn

            self._sampler = NumericalInversePolynomial(
                _Pdf(self._density_fn), domain=self.support)
        return self._sampler.ppf(rng.random(size))


# -- CLI grammar -----------------------------------------------------------


def parse_distribution(spec: str) -> DistributionModel:
    """Build a law from its command-line spec string.

    Grammar: ``rademacher`` | ``gaussian`` | ``uniform:a=<real>`` |
    ``discrete:v1:p1,v2:p2,...`` | ``empirical:<path>`` (one decimal
    sample per line).
    """
    spec = spec.strip()
    if spec == "rademacher":
        return Rademacher()
    if spec == "gaussian":
        return StandardGaussian()
    if spec.startswith("uniform:"):
        body = spec[len("uniform:"):]
        if not body.startswith("a="):
            raise ValueError(f"uniform law expects 'uniform:a=<real>', got {spec!r}")
        try:
            a = float(body[2:])
        except ValueError:
            raise ValueError(f"bad half width in {spec!r}") from None
        return UniformSymmetric(a)
    if spec.startswith("discrete:"):
        body = spec[len("discrete:"):]
        atoms = []
        for item in body.split(","):
            parts = item.split(":")
            if len(parts) != 2:
                raise ValueError(f"bad atom {item!r} in {spec!r}")
            try:
                atoms.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"bad atom {item!r} in {spec!r}") from None
        return DiscreteLaw(atoms, name=spec)
    if spec.startswith("empirical:"):
        path = spec[len("empirical:"):]
        samples = []
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    text = line.strip()
                    if not text:
                        continue
                    try:
                        value = float(text)
                    except ValueError:
                        value = None
                    if value is None or not math.isfinite(value):
                        kind = "a number" if value is None else "a finite number"
                        raise ValueError(f"sample file {path!r}, line {lineno}: "
                                         f"expected {kind}, got {text!r}")
                    samples.append(value)
        except OSError as exc:
            raise ValueError(f"cannot read sample file {path!r}: {exc}") from None
        return DiscreteLaw.from_sample(samples, name=spec)
    raise ValueError(f"unknown distribution spec {spec!r}")
