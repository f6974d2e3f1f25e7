"""Moment-generator norm calculus.

Two norms drive the tail machinery:

* the moment-growth norm ``sup_p |zeta|_p / psi(p)`` over a generator
  ``psi`` defined on a p-interval, which turns a moment curve into an
  optimized-over-p Markov tail bound;
* the MGF-domination norm: the least ``tau`` with
  ``E exp(lam*zeta) <= exp(phi(lam*tau))``, which turns a convex MGF
  majorant ``phi`` into a Chernoff tail via the convex conjugate.  A
  majorant is a plain callable, even, convex and zero at the origin; it
  returns ``+inf`` outside its domain, and every search treats that as
  a barrier.

Also provided: the degenerate generator that recovers a plain Lp norm.
A norm that is infinite, or still growing at the edge of its search
grid, raises :class:`~selfnorm.distributions.DivergentError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .convex import (NotBracketedError, _brent_max, fenchel, invert_monotone,
                     maximize_concave)
from .distributions import DivergentError

__all__ = [
    "PsiFunction",
    "bphi_norm",
    "bphi_tail_bound",
    "degenerate_psi",
    "gls_norm",
    "gls_tail_bound",
    "natural_phi",
    "power_phi",
    "power_psi",
]


_P_START = 2.0
_P_RTOL = 1e-6
# the moment-growth norm and tail both search p up to this
_P_CAP = 1000.0
_TOL = 1e-9


@dataclass(frozen=True)
class PsiFunction:
    """Moment-growth generator p -> psi(p) > 0 on an interval of p.

    ``fn`` must be positive and finite on (1, b); ``lo_open`` marks a
    generator that blows up at p = 1 itself (the Rosenthal transform
    does).
    """

    fn: Callable[[float], float]
    b: float = math.inf
    lo_open: bool = False

    def __call__(self, p: float) -> float:
        return self.fn(p)


# -- generator families ------------------------------------------------------


def degenerate_psi(r: float) -> PsiFunction:
    """Generator identically 1 on [1, r]: its norm is the plain Lr norm."""
    if r < 1.0:
        raise ValueError(f"degenerate generator needs r >= 1, got {r}")
    return PsiFunction(lambda p: 1.0, b=r)


def power_psi(m: float) -> PsiFunction:
    """Power-growth generator psi(p) = p^(1/m)."""
    if m <= 0.0:
        raise ValueError(f"power generator needs m > 0, got {m}")
    return PsiFunction(lambda p: p ** (1.0 / m))


def power_phi(m: float) -> Callable[[float], float]:
    """MGF majorant phi(lam) = |lam|^m / m (m = 2 is the subgaussian case)."""
    if m <= 0.0:
        raise ValueError(f"power majorant needs m > 0, got {m}")
    return lambda lam: abs(lam) ** m / m


def natural_phi(dist) -> Callable[[float], float]:
    """Symmetrized log-MGF of a law, max over both signs of the argument.

    Evaluations are memoized: norm and conjugate searches revisit the
    same arguments, and each evaluation of a density law costs a
    quadrature.
    """

    @lru_cache(maxsize=65536)
    def fn(lam: float) -> float:
        return max(dist.log_mgf2(lam, 0.0), dist.log_mgf2(-lam, 0.0))

    return fn


# -- grid helpers ------------------------------------------------------------


def _try_positive(fn: Callable[[float], float], x: float) -> float | None:
    try:
        v = fn(x)
    except (ArithmeticError, NotBracketedError):
        return None
    if not math.isfinite(v) or v <= 0.0:
        return None
    return v


def _support(psi: PsiFunction, cap: float) -> tuple[float, float]:
    lo = 1.0 + 1e-6 if psi.lo_open else 1.0
    hi = min(psi.b, cap)
    if hi < lo:
        raise ValueError(f"empty generator support [{lo}, {hi}]")
    return lo, hi


def _support_grid(psi: PsiFunction, cap: float, points: int) -> list[float]:
    """Geometric grid over the support, as Python floats: a generator that
    overflows there raises OverflowError, a barrier, where a NumPy scalar
    would print a warning and return inf."""
    lo, hi = _support(psi, cap)
    if hi == lo:
        return [lo]
    grid = np.geomspace(lo, hi, points)
    grid[0], grid[-1] = lo, hi
    return grid.tolist()


def _rising_through_last_decade(grid: Sequence[float], vals: list) -> bool:
    hi = grid[-1]
    seq = [v for p, v in zip(grid, vals) if v > -math.inf and p >= hi / 10.0]
    return len(seq) >= 2 and all(a < b for a, b in zip(seq, seq[1:]))


def _refine(fn: Callable[[float], float], xs, vals: list, i: int) -> float:
    """Brent's search for the max of ``fn`` between the neighbours of the
    scanned argmax ``xs[i]``; never below the scanned ``vals[i]``."""
    lo, hi = max(i - 1, 0), min(i + 1, len(xs) - 1)
    return _brent_max(fn, xs[lo], xs[i], xs[hi], vals[lo], vals[i], vals[hi],
                      _TOL, 0.0)[1]


# -- moment-growth norm and tail ---------------------------------------------


def gls_norm(moment_curve: Callable[[float], float], psi: PsiFunction) -> float:
    """sup over the generator support of moment_curve(p) / psi(p).

    Scans a 128-point geometric p-grid (capped at p = 1000, the tail
    search's cap, when the support is longer) and refines by Brent's
    search around the grid argmax.
    Raises :class:`DivergentError` when the moment diverges on the whole
    support, or when the ratio is still strictly rising through the last
    decade of an unbounded support; p-points where the moment diverges
    are skipped.
    """
    grid = _support_grid(psi, _P_CAP, 128)

    def ratio(p: float) -> float:
        num = _try_positive(moment_curve, p)
        den = _try_positive(psi.fn, p)
        if num is None or den is None:
            return -math.inf
        return num / den

    vals = [ratio(p) for p in grid]
    i_best = int(np.argmax(vals))
    if vals[i_best] == -math.inf:
        raise DivergentError("moment curve diverges on the whole generator support")
    if psi.b == math.inf and i_best == len(grid) - 1 \
            and _rising_through_last_decade(grid, vals):
        raise DivergentError("ratio still rising at the top of the p-grid")
    return _refine(ratio, grid, vals, i_best)


def _gls_tail_opt(psi: PsiFunction, norm: float, y: float,
                  p_cap: float = _P_CAP) -> tuple[float, float | None, float]:
    """Optimized Markov bound min_p (psi(p)*norm/y)^p.

    Returns (value, attaining p or None, -ln(value)).  Clamps to 1
    whenever y <= e*norm: below that the moment method carries no
    information.

    The exponent p*ln(psi(p)*norm/y) must be convex in p on the support
    (capped at ``p_cap``).  It is for the Rosenthal generator (ln E|X|^p
    is convex by Lyapunov, and so is p*ln(p/ln p)), for p^(1/m) and for
    the degenerate generator, whose exponent is linear.  The search
    starts at p = 2 and stops on a p bracket of ``1e-9 + 1e-6*p``; a p
    where psi diverges or overflows, and any p above the support, is a
    ``-inf`` barrier, and a generator finite nowhere gives 1.  The top of
    the support is evaluated exactly as well, since a linear exponent has
    its minimum there, unless a finite probe above the search's best p
    already rules it out.
    """
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    if y <= 0.0:
        raise ValueError(f"threshold must be positive, got {y}")
    if y <= math.e * norm:
        return 1.0, None, 0.0

    lo, hi = _support(psi, p_cap)
    log_scale = math.log(norm) - math.log(y)
    finite_ps = []

    def neg_exponent(p: float) -> float:
        den = _try_positive(psi.fn, p) if p <= hi else None
        if den is None:
            return -math.inf
        finite_ps.append(p)
        return -p * (math.log(den) + log_scale)

    p_best, neg = maximize_concave(neg_exponent, lo, _TOL,
                                   x0=min(max(_P_START, lo), hi), rtol=_P_RTOL)
    # every probe's exponent is at least p_best's, so by convexity a finite
    # probe in (p_best, hi] shows that the exponent at hi is no lower
    if not any(p > p_best for p in finite_ps):
        neg_hi = neg_exponent(hi)
        if neg_hi > neg:
            p_best, neg = hi, neg_hi
    if neg == -math.inf:
        return 1.0, None, 0.0
    if neg <= 0.0:
        return 1.0, p_best, 0.0
    return math.exp(-neg), p_best, neg


def gls_tail_bound(psi: PsiFunction, norm: float, y: float,
                   p_cap: float = _P_CAP) -> float:
    """Tail bound P(|zeta| > y) <= min_p (psi(p)*norm/y)^p, clamped to [0, 1]."""
    value, _, _ = _gls_tail_opt(psi, norm, y, p_cap)
    return value


# -- MGF-domination norm and tail --------------------------------------------


def bphi_norm(law_mgf: Callable[[float], float], phi: Callable[[float], float],
              points_per_decade: int = 64, decades: int = 6) -> float:
    """Least tau with ln E exp(±lam*zeta) <= phi(lam*tau) for lam > 0.

    ``law_mgf`` is the log-MGF of the variable.  Scans a geometric
    lambda grid (6 decades centered on 1 by default) of
    phi^{-1}(law_mgf(±lam))/lam and refines around the argmax.  Each
    inverse comes from :func:`invert_monotone`, which never answers
    below the root, so no ratio reads low; the grid supremum, which
    can, is rounded up by 1e-9.  Raises :class:`DivergentError` when the
    MGF escapes the majorant's range or the ratio is still rising at the
    grid edge.
    """
    half = 10.0 ** (decades / 2.0)
    grid = np.geomspace(1.0 / half, half, points_per_decade * decades + 1)

    def ratio(lam: float, sign: float) -> float:
        y = law_mgf(sign * lam)
        if y == math.inf:
            raise DivergentError(f"log-MGF diverges at lambda = {sign * lam}")
        y = max(y, 0.0)
        try:
            x = invert_monotone(phi, y, 0.0, lam)
        except NotBracketedError:
            raise DivergentError(
                f"majorant range exceeded at lambda = {sign * lam}") from None
        return x / lam

    best = 0.0
    for sign in (1.0, -1.0):
        vals = [ratio(lam, sign) for lam in grid]
        i_best = int(np.argmax(vals))
        if i_best == len(grid) - 1 and _rising_through_last_decade(grid, vals):
            raise DivergentError("norm ratio still rising at the lambda-grid edge")
        best = max(best, _refine(lambda t: ratio(math.exp(t), sign),
                                 np.log(grid), vals, i_best))
    # grid suprema err low; round up so tails built on this norm stay
    # valid even when the Chernoff exponent is exactly tight
    return best * (1.0 + 1e-9)


def bphi_tail_bound(phi: Callable[[float], float], norm: float, u: float) -> float:
    """Chernoff tail max[P(zeta >= u), P(zeta <= -u)] <= exp(-phi*(u/norm))."""
    if u < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {u}")
    if u == 0.0:
        return 1.0
    if norm == 0.0:
        return 0.0
    return math.exp(-fenchel(phi, u / norm))
