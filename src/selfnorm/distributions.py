"""Centered probability laws and the moment machinery behind every bound.

A :class:`DistributionModel` represents the common law of i.i.d. centered
variables with finite positive variance.  Everything downstream consumes a
law only through expectations: plain moments, the bivariate log-MGF
``ln E exp(l1*xi + l2*(sigma^2 - xi^2))``, and the Lp norms of the
shifted summand ``xi + B*(sigma^2 - xi^2)/sqrt(n)`` that appears once the
self-normalized tail event is linearized.

Expectations are computed by adaptive quadrature for density laws (with
exponent-level evaluation so that huge-but-finite integrands never
overflow pointwise) and exact summation for discrete laws, empirical
samples included.  Any evaluation or partial result with magnitude
above ``exp(700)`` marks the expectation as divergent; callers that
need an extended-real answer (the log-MGF) map that onto ``+inf``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .convex import _brent_max

__all__ = [
    "DensityLaw",
    "DiscreteLaw",
    "DistributionModel",
    "DivergentError",
    "OVERFLOW_LIMIT",
    "Rademacher",
    "StandardGaussian",
    "UniformSymmetric",
    "parse_distribution",
]

OVERFLOW_LIMIT = math.exp(700.0)

_DEFAULT_TOL = 1e-10
_QUAD_ABS_FLOOR = 1e-13
_MEAN_TOL = 1e-8
_PROB_SUM_TOL = 1e-12


class DivergentError(ArithmeticError):
    """An expectation failed to converge or exceeded the overflow guard."""


def _guard_finite(value: float, what: str) -> float:
    if not math.isfinite(value) or abs(value) > OVERFLOW_LIMIT:
        raise DivergentError(f"{what} exceeded the overflow guard or diverged")
    return value


class DistributionModel:
    """Base class for centered laws.  Immutable after construction."""

    sigma2: float
    name: str
    # a lower bound on |xi| over xi != 0; positive only for atomic laws
    min_abs_atom: float = 0.0
    # xi and -xi have the same law; the sup-over-n tail certificate of
    # the bounds module needs it
    symmetric: bool = False

    def __init__(self, sigma2: float, name: str):
        if not (sigma2 > 0.0 and math.isfinite(sigma2)):
            raise ValueError(f"variance must be finite and positive, got {sigma2}")
        self.sigma2 = float(sigma2)
        self.name = name
        self._moment_cache: dict = {}

    # -- primitive operations supplied by subclasses ---------------------

    def expect(self, g: Callable[[float], float]) -> float:
        """E g(xi), to relative accuracy 1e-10 for smooth integrands.

        Raises :class:`DivergentError` when the expectation does not
        converge or exceeds the overflow guard.
        """
        raise NotImplementedError

    def _log_expect_exponent(self, t: Callable[[float], float],
                             breakpoints: Sequence[float]) -> float:
        """ln E exp(t(xi)), computed entirely at exponent level.

        Exact log-sum-exp for atomic laws; for density laws the
        integrand exponent is shifted by its maximum before quadrature,
        so values like ``E |xi|^900`` or an MGF of size
        ``exp(5000)`` come out as ordinary floats on the log scale.
        Genuine divergence still raises :class:`DivergentError`.
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draws of the law; must read ``rng`` in order, so that one
        ``(m, n)`` draw equals consecutive ``(m_i, n)`` draws."""
        raise NotImplementedError

    def _sample_sums(self, rng: np.random.Generator, rows: int, n: int):
        """Row sums and row sums of squares of ``sample(rng, (rows, n))``."""
        x = np.asarray(self.sample(rng, (rows, n)), dtype=float)
        s = x.sum(axis=-1)
        np.multiply(x, x, out=x)
        return s, x.sum(axis=-1)

    def prob_between(self, lo: float, hi: float) -> float:
        """P(lo < xi < hi), open at both ends (only atoms can tell)."""
        raise NotImplementedError

    # -- derived operations ----------------------------------------------

    def lp_norm(self, p: float) -> float:
        """Classical Lp norm (E|xi|^p)^(1/p), p >= 1."""
        if p < 1.0:
            raise ValueError(f"p must be >= 1, got {p}")
        scale = math.sqrt(self.sigma2 * p)

        def t(x):
            with np.errstate(divide="ignore"):
                return p * np.log(np.abs(x))

        log_moment = self._log_expect_exponent(t, (0.0, -scale, scale))
        return math.exp(log_moment / p)

    def log_mgf2(self, l1: float, l2: float) -> float:
        """Bivariate log-MGF ln E exp(l1*xi + l2*(sigma^2 - xi^2)).

        Returns ``+inf`` when the expectation diverges; always 0 at the
        origin.  For l2 > 0 the integrand peaks near l1/(2*l2), which is
        passed to the quadrature splitter so that sharply concentrated
        integrands are resolved.
        """
        if l1 == 0.0 and l2 == 0.0:
            return 0.0
        s2 = self.sigma2

        def t(x):
            return l1 * x + l2 * (s2 - x * x)

        if l2 > 0.0:
            center = l1 / (2.0 * l2)
            width = 1.0 / math.sqrt(2.0 * l2)
            pts = (0.0, center - width, center, center + width)
        else:
            pts = (0.0,)
        try:
            v = self._log_expect_exponent(t, pts)
        except DivergentError:
            return math.inf
        if math.isnan(v):
            return math.inf
        return v

    def quadratic_moments(self) -> tuple[float, float, float]:
        """(sigma^2, w, z) with w = E(sigma^2 - xi^2)^2 and
        z = E(sigma^2*xi - xi^3), which is -E xi^3 for a centered law and
        makes :meth:`summand_variance` an exact variance; z vanishes for
        laws symmetric about 0."""
        if "qm" not in self._moment_cache:
            s2 = self.sigma2
            w = self.expect(lambda x: (s2 - x * x) ** 2)
            z = self.expect(lambda x: s2 * x - x ** 3)
            self._moment_cache["qm"] = (s2, max(w, 0.0), z)
        return self._moment_cache["qm"]

    def summand_variance(self, n: int, B: float) -> float:
        """n*sigma^2 + 2*B*sqrt(n)*z + B^2*w, the variance of the
        linearized summand sqrt(n)*xi + B*(sigma^2 - xi^2)."""
        s2, w, z = self.quadratic_moments()
        return n * s2 + 2.0 * B * math.sqrt(n) * z + B * B * w

    def summand_lp_norm(self, n: int, B: float, p: float) -> float:
        """Lp norm of the linearized summand xi + B*(sigma^2 - xi^2)/sqrt(n)."""
        if p < 1.0:
            raise ValueError(f"p must be >= 1, got {p}")
        if B == 0.0:
            return self.lp_norm(p)
        c = B / math.sqrt(n)
        s2 = self.sigma2

        def t(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return p * np.log(np.abs(x + c * (s2 - x * x)))

        # kinks of |summand|^p sit at the roots of the quadratic
        disc = math.sqrt(1.0 + 4.0 * c * c * s2)
        roots = ((1.0 - disc) / (2.0 * c), (1.0 + disc) / (2.0 * c))
        scale = math.sqrt(max(2.0 * p * s2, s2))
        log_moment = self._log_expect_exponent(t, (0.0, *roots, -scale, scale))
        return math.exp(log_moment / p)


# -- discrete laws ---------------------------------------------------------


class DiscreteLaw(DistributionModel):
    """Finite atomic law; expectations are exact finite sums."""

    def __init__(self, atoms: Iterable[tuple[float, float]] | np.ndarray,
                 name: str | None = None):
        pairs = np.asarray(atoms if isinstance(atoms, np.ndarray) else list(atoms),
                           dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or not len(pairs):
            raise ValueError("discrete law needs at least one (value, prob) atom")
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        self._values, self._probs = pairs.T.copy()
        if np.any(self._probs < 0.0):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(self._probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"atom probabilities sum to {self._probs.sum()}, not 1")
        mean = float(np.dot(self._probs, self._values))
        with np.errstate(over="ignore"):  # an inf variance is rejected below
            sigma2 = float(np.dot(self._probs, self._values ** 2))
        if sigma2 <= 0.0:
            raise ValueError("discrete law is degenerate at 0")
        if abs(mean) > _MEAN_TOL * math.sqrt(sigma2):
            raise ValueError(f"law is not centered: mean = {mean}")
        if name is None:
            name = "discrete:" + ",".join(f"{v:g}:{q:g}" for v, q in pairs)
        super().__init__(sigma2, name)
        self.min_abs_atom = float(np.abs(
            self._values[(self._values != 0.0) & (self._probs > 0.0)]).min())
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

    def _apply(self, g):
        try:
            vals = np.asarray(g(self._values), dtype=float)
            if vals.shape != self._values.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([float(g(v)) for v in self._values])
        return vals

    def expect(self, g):
        vals = self._apply(g)
        total = float(np.dot(self._probs, vals))
        return _guard_finite(total, "discrete expectation")

    def _log_expect_exponent(self, t, breakpoints):
        # the algorithm of scipy.special.logsumexp (SciPy 1.17), bit for bit,
        # without the cost of importing scipy.special: the largest terms are
        # summed apart, as m, and the rest enter through log1p(s/m)
        exps = self._apply(t)
        b = self._probs
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.where(b == 0.0, -math.inf, exps)
            a_max = a.max()
            top = a == a_max
            m = np.sum(b * top.astype(float))
            s = np.sum(b * np.exp(np.where(top, -math.inf, a) - a_max))
            if s != 0.0:
                s = s / m
            out = np.log1p(s) + np.log(m) + a_max
            if not np.isfinite(out):
                out = np.log(np.sum(b * np.exp(exps)))
        return float(out)

    def sample(self, rng, size):
        return rng.choice(self._values, size=size, p=self._probs)

    def prob_between(self, lo, hi):
        mask = (self._values > lo) & (self._values < hi)
        return float(self._probs[mask].sum())


class Rademacher(DiscreteLaw):
    """Fair signs: +1 or -1 with probability 1/2 each."""

    def __init__(self):
        super().__init__([(-1.0, 0.5), (1.0, 0.5)], name="rademacher")

    def sample(self, rng, size):
        return 2.0 * rng.integers(0, 2, size=size).astype(float) - 1.0

    def _sample_sums(self, rng, rows, n):
        # the int32 draw reads the same stream as sample's int64 one, and
        # sums of signs are exact in float64: the statistic is unchanged
        bits = rng.integers(0, 2, size=(rows, n), dtype=np.int32)
        return 2 * bits.sum(axis=-1, dtype=np.int64) - n, n


# -- density laws ----------------------------------------------------------


class _QuadratureLaw(DistributionModel):
    """Shared adaptive-quadrature engine for laws given by a density."""

    support: tuple[float, float]

    def _log_density(self, x):
        raise NotImplementedError

    def _density(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self._log_density(x))

    def _edges(self, breakpoints):
        lo, hi = self.support
        pts = sorted({float(b) for b in breakpoints
                      if math.isfinite(b) and lo < b < hi})
        return [lo, *pts, hi]

    @staticmethod
    def _quad_piece(fn, a, b):
        # imported here: scipy.integrate pulls in scipy.optimize, which
        # laws without a density never need
        from scipy import integrate

        out = integrate.quad(fn, a, b, epsabs=_QUAD_ABS_FLOOR,
                             epsrel=_DEFAULT_TOL, limit=300, full_output=1)
        val, abserr = out[0], out[1]
        if not math.isfinite(val) or abs(val) > OVERFLOW_LIMIT:
            raise DivergentError("quadrature diverged")
        if len(out) > 3:
            # a "divergent" verdict is fatal even when the error estimate
            # looks small: the transformed integrand is then garbage
            if "divergent" in out[3]:
                raise DivergentError(f"quadrature failed: {out[3]}")
            if abserr > 1e-7 * max(1.0, abs(val)):
                raise DivergentError(f"quadrature failed to converge: {out[3]}")
        return val

    def expect(self, g):
        total = self._quad_piece(lambda x: self._density(x) * g(x), *self.support)
        return _guard_finite(total, "expectation")

    def _probe_points(self, breakpoints):
        lo, hi = self.support
        scale = math.sqrt(self.sigma2)
        ladder = scale * 2.0 ** np.arange(-10, 41)
        pts = {0.0, *(-ladder), *ladder, *breakpoints, lo, hi}
        return np.array(sorted(p for p in pts
                               if math.isfinite(p) and lo <= p <= hi))

    def _log_expect_exponent(self, t, breakpoints):
        def h(x):
            return self._log_density(x) + t(x)

        # locate the integrand's peak: vectorized probe ladder, then a
        # Brent refinement between the best probe's neighbors
        probes = self._probe_points(breakpoints)
        with np.errstate(invalid="ignore", over="ignore"):
            h_vals = np.asarray(h(probes), dtype=float)
        h_vals = np.where(np.isnan(h_vals), -math.inf, h_vals)
        i0 = int(np.argmax(h_vals))
        triple = [max(i0 - 1, 0), i0, min(i0 + 1, len(probes) - 1)]
        a, b, c = probes[triple].tolist()
        with np.errstate(invalid="ignore", over="ignore"):
            x_peak, shift = _brent_max(lambda x: float(h(x)), a, b, c,
                                       *h_vals[triple].tolist(), 1e-10, 0.0)
        if not math.isfinite(shift):
            if shift == -math.inf:
                return -math.inf
            raise DivergentError("integrand exponent diverges at its peak")

        def integrand(x):
            e = h(x) - shift
            return math.exp(e) if e < 709.0 else math.inf

        # split only inside the window where the shifted integrand can be
        # nonzero; split points far outside it would create huge finite
        # pieces whose interior spike quadrature cannot find.  The outer
        # pieces stay unbounded so a tail that re-grows is still caught.
        rel = np.nonzero(h_vals >= shift - 800.0)[0]
        lo_i, hi_i = (min(rel[0], i0), max(rel[-1], i0)) if rel.size else (i0, i0)
        w_lo = probes[max(lo_i - 1, 0)]
        w_hi = probes[min(hi_i + 1, len(probes) - 1)]
        inner = {w_lo, w_hi, *(p for p in (*breakpoints, a, x_peak, c)
                               if w_lo <= p <= w_hi)}
        edges = self._edges(inner)
        total = 0.0
        for lo_e, hi_e in zip(edges, edges[1:]):
            total += self._quad_piece(integrand, lo_e, hi_e)
        if total <= 0.0:
            return -math.inf
        return shift + math.log(total)

    def prob_between(self, lo, hi):
        slo, shi = self.support
        a, b = max(lo, slo), min(hi, shi)
        if a >= b:
            return 0.0
        return self._quad_piece(self._density, a, b)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class StandardGaussian(_QuadratureLaw):
    """Standard normal law, sigma^2 = 1."""

    support = (-math.inf, math.inf)
    symmetric = True

    def __init__(self):
        super().__init__(1.0, "gaussian")

    def _log_density(self, x):
        return -0.5 * x * x - _LOG_SQRT_2PI

    def sample(self, rng, size):
        return rng.standard_normal(size)


class UniformSymmetric(_QuadratureLaw):
    """Uniform law on [-a, a]; sigma^2 = a^2/3."""

    symmetric = True

    def __init__(self, half_width: float):
        if not (half_width > 0.0 and math.isfinite(half_width)):
            raise ValueError(f"half width must be positive, got {half_width}")
        self.half_width = float(half_width)
        self.support = (-self.half_width, self.half_width)
        self._log_height = -math.log(2.0 * self.half_width)
        super().__init__(half_width * half_width / 3.0, f"uniform:a={half_width:g}")

    def _log_density(self, x):
        # quadrature calls this once per node with a float: skip NumPy there
        if isinstance(x, float):
            return self._log_height if abs(x) <= self.half_width else -math.inf
        return np.where(np.abs(x) <= self.half_width, self._log_height, -math.inf)

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
        mass = self._quad_piece(density, *self.support)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {mass}, not 1")
        mean = self._quad_piece(lambda x: x * density(x), *self.support)
        sigma2 = self._quad_piece(lambda x: x * x * density(x), *self.support)
        if abs(mean) > _MEAN_TOL * math.sqrt(sigma2):
            raise ValueError(f"law is not centered: mean = {mean}")
        super().__init__(sigma2, name)
        self._sampler = None

    def _log_density(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self._density_fn(x))

    def _density(self, x):
        return self._density_fn(x)

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
        try:
            with open(path) as fh:
                samples = [float(line) for line in fh if line.strip()]
        except OSError as exc:
            raise ValueError(f"cannot read sample file {path!r}: {exc}") from None
        return DiscreteLaw.from_sample(samples, name=spec)
    raise ValueError(f"unknown distribution spec {spec!r}")
