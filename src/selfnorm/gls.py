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
import sys
from dataclasses import dataclass
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
# relative rise through the lowest decade of lambda beyond which an
# MGF-domination ratio counts as unbounded as lambda -> 0: signs against
# lam^2/2 rise 8e-6 towards their limit 1, while lam^-a rises 10^a - 1
_BOTTOM_RISE = 1e-2
# points a decade of the MGF-domination norm's lambda grid, and the
# fewest of them over which lambda at least doubles (10^(20/64) = 2.05)
_PER_DECADE = 64
_DOUBLING = 20
# factor every MGF-domination norm is rounded up by, so that a Chernoff
# tail that meets the exact tail does not read below it
_NORM_ROUND_UP = 1.0 + 1e-9


@dataclass(frozen=True)
class PsiFunction:
    """Moment-growth generator p -> psi(p) > 0 on [1, b].

    A p where ``fn`` raises ArithmeticError or is not positive and
    finite is a barrier of every search, as at p = 1 for the Rosenthal
    generator, whose p/ln p divides by 0 there.  ``steer``, where given,
    is a cheap stand-in for ``fn`` with its signature: a tail search
    (:func:`gls_tail_bound`) runs on it to find its p, and reads ``fn``
    once, at that p, for the bound.
    """

    fn: Callable[[float], float]
    b: float = math.inf
    steer: Callable[[float], float] | None = None

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

    The law's own MGF-domination norm against it is 1: tau = 1 dominates
    both signs, and for tau < 1 convexity with phi(0) = 0 gives
    phi(tau*lam) <= tau*phi(lam) < phi(lam) wherever phi(lam) > 0.
    """
    return lambda lam: max(dist.log_mgf2(lam, 0.0), dist.log_mgf2(-lam, 0.0))


# -- grid helpers ------------------------------------------------------------


def _try_positive(fn: Callable[[float], float], x: float) -> float | None:
    try:
        v = fn(x)
    except ArithmeticError:
        return None
    if not math.isfinite(v) or v <= 0.0:
        return None
    return v


def _support(psi: PsiFunction) -> tuple[float, float]:
    hi = min(psi.b, _P_CAP)
    if hi < 1.0:
        raise ValueError(f"empty generator support [1, {hi}]")
    return 1.0, hi


def _support_grid(psi: PsiFunction) -> list[float]:
    """Geometric grid over the support, as Python floats: a generator that
    overflows there raises OverflowError, a barrier, where a NumPy scalar
    would print a warning and return inf."""
    lo, hi = _support(psi)
    if hi == lo:
        return [lo]
    grid = np.geomspace(lo, hi, 128)
    grid[0], grid[-1] = lo, hi
    return grid.tolist()


def _rising_through_last_decade(grid: Sequence[float], vals: list,
                                rise: float = 0.0) -> bool:
    """Whether ``vals`` rise strictly, and by more than ``rise`` relative,
    through the top decade of the ascending ``grid``."""
    hi = grid[-1]
    seq = [v for p, v in zip(grid, vals) if v > -math.inf and p >= hi / 10.0]
    return len(seq) >= 2 and all(a < b for a, b in zip(seq, seq[1:])) \
        and seq[-1] > seq[0] * (1.0 + rise)


def _refine(fn: Callable[[float], float], xs, vals: list, i: int) -> float:
    """Brent's search for the max of ``fn`` between the neighbours of the
    scanned argmax ``xs[i]``; never below the scanned ``vals[i]``."""
    lo, hi = max(i - 1, 0), min(i + 1, len(xs) - 1)
    return _brent_max(fn, xs[lo], xs[i], xs[hi], vals[lo], vals[i], vals[hi],
                      0.0)[1]


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
    grid = _support_grid(psi)

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


def _tail_value(exponent: float) -> float:
    """The bound exp(-exponent) of a tail exponent >= 0.  A finite exponent
    whose value falls below the smallest normal double reads the next
    double above it, so it never rounds low to 0; only an infinite one,
    an impossible event, reads 0."""
    value = math.exp(-exponent)
    if value < sys.float_info.min and exponent < math.inf:
        value = math.nextafter(value, math.inf)
    return value


def _gls_tail_opt(psi: PsiFunction, norm: float,
                  y: float) -> tuple[float, float | None, float]:
    """Optimized Markov bound min_p (psi(p)*norm/y)^p.

    Returns (value, attaining p or None, -ln(value)).

    The exponent p*ln(psi(p)*norm/y) must be convex in p on the support
    (capped at p = 1000).  It is for the Rosenthal generator (ln E|X|^p
    is convex by Lyapunov, and so is p*ln(p/ln p)), for p^(1/m) and for
    the degenerate generator, whose exponent is linear.  The search
    starts at p = 2, or at the top of the support if lower, and stops on
    a p bracket of ``1e-9 + 1e-6*p``; a p where psi is undefined,
    diverges or overflows, and any p above the support, is a ``-inf``
    barrier, and a generator finite nowhere gives 1.  The top of
    the support is evaluated exactly as well, since a linear exponent has
    its minimum there, unless a finite probe above the search's best p
    already rules it out.

    Every p gives a valid Markov bound, so the search only has to find
    p.  Where ``psi.steer`` is given, the search runs on it, and
    ``psi.fn`` is read once, at the p found (and at the top of the
    support, under the rule above applied to the steer's probes); the
    value is that read.  Where the read at the p found is not finite,
    the search runs again on ``psi.fn``.
    """
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    if y <= 0.0:
        raise ValueError(f"threshold must be positive, got {y}")

    lo, hi = _support(psi)
    log_scale = math.log(norm) - math.log(y)
    finite_ps = []

    def neg_exponent(p: float, fn: Callable[[float], float] = psi.fn) -> float:
        den = _try_positive(fn, p) if p <= hi else None
        if den is None:
            return -math.inf
        finite_ps.append(p)
        return -p * (math.log(den) + log_scale)

    if psi.steer is not None:
        p_best, _ = maximize_concave(lambda p: neg_exponent(p, psi.steer), lo,
                                     x0=min(_P_START, hi), rtol=_P_RTOL)
        neg = neg_exponent(p_best)
    if psi.steer is None or neg == -math.inf:
        finite_ps.clear()
        p_best, neg = maximize_concave(neg_exponent, lo, x0=min(_P_START, hi),
                                       rtol=_P_RTOL)
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
    return _tail_value(neg), p_best, neg


def gls_tail_bound(psi: PsiFunction, norm: float, y: float) -> float:
    """Tail bound P(|zeta| > y) <= min_p (psi(p)*norm/y)^p over p <= 1000,
    clamped to [0, 1]."""
    value, _, _ = _gls_tail_opt(psi, norm, y)
    return value


# -- MGF-domination norm and tail --------------------------------------------


def bphi_norm(law_mgf: Callable[[float], float],
              phi: Callable[[float], float]) -> float:
    """Least tau with ln E exp(±lam*zeta) <= phi(lam*tau) for lam > 0.

    ``law_mgf`` is the log-MGF of the variable.  Scans the ratio
    phi^{-1}(law_mgf(±lam))/lam on a fixed geometric lambda grid, 385
    points over 1e-3..1e3, and refines around the argmax.  The grid is
    made for a variable of unit scale: the norm is scale-equivariant
    (zeta/s has norm tau/s), so a caller with a wide or narrow variable
    passes the log-MGF of zeta/s and multiplies the norm by s.  Each
    inverse comes from :func:`invert_monotone`, which never answers
    below the root, so no ratio reads low; the grid supremum, which
    can, is rounded up by 1e-9.  When the argmax is the grid's bottom
    point, the supremum is the ratio's limit r0 as lambda -> 0, below
    the grid.  Near 0 the ratio is r0 - c*lam^k with k >= 1 (signs
    against lam^2/2 have k = 2, a skewed law k = 1), so it falls by at
    least c*lam^k, its remaining rise to r0, while lambda grows by a
    factor rho >= 2: r0 <= 2*r(lam) - r(rho*lam).  That is read 20 grid
    points up, at lam = 2.05e-3 with rho = 2.05, where the log-MGF
    (about 2e-6) carries a quarter of the bottom point's relative
    rounding.
    Raises :class:`DivergentError` when the MGF escapes the majorant's
    range, or when the ratio is still rising at the top edge of the
    grid, or by more than 1% through the lowest decade at its bottom
    edge.
    """
    # _PER_DECADE points a decade over six decades about the unit scale
    grid = np.geomspace(1e-3, 1e3, 6 * _PER_DECADE + 1)

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
        # the bottom edge of the lambda grid is the top edge in 1/lambda
        if i_best == len(grid) - 1 and _rising_through_last_decade(grid, vals) \
                or i_best == 0 and _rising_through_last_decade(
                    1.0 / grid[::-1], vals[::-1], _BOTTOM_RISE):
            raise DivergentError("norm ratio still rising at the lambda-grid edge")
        sup = _refine(lambda t: ratio(math.exp(t), sign), np.log(grid),
                      vals, i_best)
        if i_best == 0:
            sup = max(sup, 2.0 * vals[_DOUBLING] - vals[2 * _DOUBLING])
        best = max(best, sup)
    # grid suprema err low
    return best * _NORM_ROUND_UP


def bphi_tail_bound(phi: Callable[[float], float], norm: float, u: float) -> float:
    """Chernoff tail max[P(zeta >= u), P(zeta <= -u)] <= exp(-phi*(u/norm))."""
    if u < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {u}")
    if u == 0.0:
        return 1.0
    if norm == 0.0:
        return 0.0
    return _tail_value(fenchel(phi, u / norm))
