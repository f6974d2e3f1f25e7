"""Upper and lower bounds for the tail of the self-normalized statistic.

For i.i.d. centered xi with variance sigma^2, the statistic is
``T(n) = sqrt(n) * sum(xi) / sum(xi^2)`` and the target is
``Q_n(B) = P(T(n) > B)`` together with its supremum over n.  The event
linearizes exactly:

    T(n) > B  <=>  sum of (sqrt(n)*xi_i - B*xi_i^2) > 0
              <=>  mean of (sqrt(n)*xi_i + B*(sigma^2 - xi_i^2)) > B*sigma^2.

Two upper-bound families are provided: an optimized-exponent Chernoff
bound on the first form, which holds no sigma^2, and a Rosenthal-moment
bound, valid for B >= e, on the second, the mean of n i.i.d. centered
summands.  Two lower bounds go with them (the exact single-observation
tail and the limiting normal tail, the latter report-only).  Each
builder returns a curve of :class:`BoundPoint` cells, whose fields are
the bound columns of the CLI's rows, and rejects a B that is not
positive and finite.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .convex import maximize_concave
from .distributions import DistributionModel
from .gls import PsiFunction, _gls_tail_opt, _tail_value

__all__ = [
    "BoundCurve",
    "BoundPoint",
    "DEFAULT_B_GRID",
    "DEFAULT_KR",
    "exp_curve",
    "lower_clt_curve",
    "lower_q1_curve",
    "power_curve",
]

EXP_LEVEL = "ExpLevel"
POWER_LEVEL = "PowerLevel"
LOWER_CLT = "LowerCLT"
LOWER_Q1 = "LowerQ1"
# each family's side of Q_n(B): an upper or a lower bound, or a report,
# a reference value that asserts nothing
_SIDES = {EXP_LEVEL: "upper", POWER_LEVEL: "upper", LOWER_Q1: "lower",
          LOWER_CLT: "report"}

DEFAULT_KR = 0.6379
DEFAULT_B_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, math.e, 3.0, 5.0, 10.0, 20.0, 50.0)

_THETA_RTOL = 1e-6
# share of the Chernoff exponent charged for its rounding (4 ulps)
_EXPONENT_ROUNDING = 4.0 * sys.float_info.epsilon
# cells a sup over n evaluates before it settles for its tail certificate;
# a power of two, so that the last checkpoint falls right after them
_SUP_CELLS = 64


@dataclass(frozen=True)
class BoundPoint:
    """One (B, bound value) cell and the other bound columns of its row:
    ``objective`` is the exponent -ln(value) (LowerCLT: the heuristic
    value exp(-B^2*sigma^2/2)), ``arg_star`` the theta* or p* that
    attains it and ``n_star`` the attaining n of a sup over n; None is a
    blank column."""

    B: float
    value: float
    objective: float | None = None
    arg_star: float | None = None
    n_star: int | None = None


@dataclass(frozen=True)
class BoundCurve:
    """A bound family evaluated over a B grid, at fixed n or sup over a range."""

    family: str
    n: int | tuple[int, int]
    points: tuple[BoundPoint, ...]

    @property
    def n_range(self) -> tuple[int, int]:
        """The (lo, hi) range of a sup curve; (n, n) at fixed n."""
        return self.n if isinstance(self.n, tuple) else (self.n, self.n)

    @property
    def label(self) -> str:
        """The n column of the curve's rows: n, or sup(lo..hi)."""
        if isinstance(self.n, tuple):
            return f"sup({self.n[0]}..{self.n[1]})"
        return str(self.n)

    @property
    def side(self) -> str:
        """The family's side: "upper", "lower" or "report"; ValueError
        for a family that is none of the four."""
        try:
            return _SIDES[self.family]
        except KeyError:
            raise ValueError(f"unknown bound family {self.family!r}") from None


# -- exponential level -------------------------------------------------------


def _exp_tail_point(dist: DistributionModel, n: int, B: float) -> BoundPoint:
    """Optimized-exponent upper bound on Q_n(B).

    The event is exactly ``sum(sqrt(n)*xi_i - B*xi_i^2) > 0``, so its
    Chernoff bound is ``exp(-sup_{theta>=0} -n*K(theta/sqrt(n),
    B*theta/n))`` with K the law's :meth:`log_mgf2`; no sigma^2 enters.
    Every theta gives a valid bound, and the exponent is at least its
    value 0 at theta = 0.  The search starts at theta = B.  The value is
    0 without a search when the event is impossible for an atomic law
    whose smallest positive atom is m, once B > sqrt(n)/m.  When the
    objective still grows at the search cap, the bound is read there, as
    at any other theta.

    No cell of a possible event reads 0: K reads -inf at finite
    arguments only where l2*sigma^2 overflows and the law's own value
    underflows too.  Of the laws only an atomic one can, where every
    atom's l1*x - l2*x^2 is -inf, and a possible event keeps that of its
    smallest positive atom finite.
    """
    # T(n) > 0 needs sum xi > 0, and sum xi <= sum over the positive terms
    # of xi <= sum xi^2/m, so T(n) <= sqrt(n)/m, attained by n draws of m:
    # beyond that the event is impossible (the factor keeps float rounding
    # of T on the safe side)
    if B * dist.min_positive_atom > math.sqrt(n) * (1.0 + 1e-12):
        return BoundPoint(B, 0.0, math.inf, math.inf)

    def obj(theta: float) -> float:
        # -ln E exp(theta * sum of the n summands, over n); -inf where it
        # diverges, and 0.0, not -0.0, at theta = 0
        cgf = n * dist.log_mgf2(theta / math.sqrt(n), B * theta / n)
        return 0.0 - cgf - _EXPONENT_ROUNDING * abs(cgf)

    # a theta bracket of relative width 1e-6 leaves an exponent error of
    # order 1e-12 relative: the objective is flat at its maximum
    theta, exponent = maximize_concave(obj, 0.0, x0=B, rtol=_THETA_RTOL)
    return BoundPoint(B, _tail_value(exponent), exponent, theta)


def _sup_scan(dist: DistributionModel, point_fn: Callable[[int], BoundPoint],
              B: float, n_lo: int, n_hi: int, kr: float = DEFAULT_KR) -> BoundPoint:
    """A bound on the sup of Q_n(B) over n_lo <= n <= n_hi from the
    cells point_fn(n), each a bound on one Q_n(B); ``kr`` is the
    Rosenthal constant of the tail certificate.

    Cells are evaluated from n_lo upward.  After 1, 2, 4, ..., 64 cells,
    at n = N, the tail certificate bounds Q_n(B) for every n >= N.  The
    walk stops on the first of:

    * the certificate's exponent is at least the best cell's objective:
      that cell, with its n as ``n_star``, bounds the sup over all
      n >= n_lo;
    * n passes n_hi: every cell of the range was evaluated, and the max
      is exact, with ``n_star`` as above;
    * the 64 cells are spent: the certificate itself, which exceeds
      every cell, is reported, with no ``n_star``.
    """
    best, best_n = None, n_lo
    n, check = n_lo, n_lo + 1
    while n <= n_hi:
        if n == check:
            exponent = _tail_certificate(dist, n, B, best.objective, kr)
            if exponent >= best.objective:
                break
            if n - n_lo == _SUP_CELLS:
                return BoundPoint(B, _tail_value(exponent), exponent)
            check = 2 * check - n_lo
        pt = point_fn(n)
        if best is None or pt.value > best.value:
            best, best_n = pt, n
        n += 1
    return replace(best, n_star=best_n)


def _tail_certificate(dist: DistributionModel, N: int, B: float,
                      enough: float = math.inf, kr: float = DEFAULT_KR) -> float:
    """An exponent e with Q_n(B) <= exp(-e) for every n >= N.

    The largest of the certificates' exponents that apply, tried
    cheapest first; the search stops early at one that is at least
    ``enough``.

    * Efron (1969; de la Pena, Lai and Shao, Self-Normalized Processes,
      2009, ch. 2), for symmetric laws: given the |xi_i|, the signs are
      fair coins, so Hoeffding's inequality gives
      ``Q_n(B) <= (E exp(-u*xi^2))^n = exp(c*K(0, u)/u)`` with
      c = B^2/2, u = c/n and K the law's :meth:`log_mgf2`.  As K(0, .)
      is convex with K(0, 0) = 0, K(0, u)/u grows with u, so the bound is
      non-increasing in n; it tends to exp(-B^2*sigma^2/2).
    * Rosenthal, for any law: for p >= 1 the norm
      ``|xi + c*(sigma^2 - xi^2)|_p`` is convex in c, as the norm of a
      function affine in c.  Every n >= N has c = B/sqrt(n) in
      (0, B/sqrt(N)], so the PowerLevel generator at n is at most the
      larger of those at N and at c = 0, and one moment-level search on
      that pointwise max dominates every PowerLevel cell past N at the
      Rosenthal constant ``kr``.  It is the cells' own generator, so it
      is valid exactly where they are, and a change to that generator's
      p range applies to both.  It is skipped where B*sigma^2 <= e, where
      the moment method carries no information.
    """
    exponent = 0.0
    if dist.symmetric:
        c = 0.5 * B * B
        u = c / N
        # in this form the sign law gets exactly c: K(0, u)/u is -1
        exponent = max(exponent, -c * dist.log_mgf2(0.0, u) / u)
        if exponent >= enough:
            return exponent
    if B * dist.sigma2 <= math.e:
        return exponent
    psi_N = rosenthal_psi(dist, N, B, kr)
    psi_inf = rosenthal_psi(dist, N, 0.0, kr)
    psi = PsiFunction(lambda p: max(psi_N(p), psi_inf(p)))
    return max(exponent, _gls_tail_opt(psi, 1.0, B * dist.sigma2)[2])


# -- power level --------------------------------------------------------------


def rosenthal_psi(dist: DistributionModel, n: int, B: float,
                  kr: float = DEFAULT_KR) -> PsiFunction:
    """Moment generator kr * (p/ln p) * |summand|_p for the normalized sum.

    By Rosenthal's inequality the sqrt(n)-normalized sum of the
    linearized summands has moment-growth norm at most 1 against this
    generator.  p = 1, where p/ln p divides by 0, and a p where the
    summand moment diverges raise; the tail search treats both as barriers.
    """

    def fn(p: float) -> float:
        return kr * (p / math.log(p)) * dist.summand_lp_norm(n, B, p)

    return PsiFunction(fn)


def _power_tail_point(dist: DistributionModel, n: int, B: float,
                      kr: float = DEFAULT_KR) -> BoundPoint:
    """Rosenthal-moment upper bound on Q_n(B), valid for B >= e.

    ``min_p (kr * p/ln(p) * |summand|_p / (B*sigma^2))^p`` with the
    normalized-sum norm pinned at 1 by Rosenthal's inequality; B*sigma^2
    is the exact threshold of the linearized event.  It reads 1 where
    B*sigma^2 <= e, where the moment method carries no information.
    """
    if B * dist.sigma2 <= math.e:
        return BoundPoint(B, 1.0, 0.0)
    psi = rosenthal_psi(dist, n, B, kr)
    value, p, exponent = _gls_tail_opt(psi, 1.0, B * dist.sigma2)
    return BoundPoint(B, value, exponent, p)


# -- curves --------------------------------------------------------------------


def _sorted_B(B_grid: Sequence[float]) -> list[float]:
    """The B grid in ascending order, every B checked positive and finite."""
    for B in B_grid:
        if not 0.0 < B < math.inf:
            raise ValueError(f"B must be positive and finite, got {B}")
    return sorted(B_grid)


def _curve(family: str, dist: DistributionModel, n: int | tuple[int, int],
           B_grid: Sequence[float], point_fn: Callable[[int, float], BoundPoint],
           kr: float = DEFAULT_KR) -> BoundCurve:
    """point_fn at n, or its sup over the range n, at every B of the
    ascending grid.  Q_n(B) never rises with B, so a point above its
    predecessor takes the predecessor's value and objective instead.  An
    n that is not an integer >= 1 or a (lo, hi) pair of them with lo <= hi
    raises ``ValueError``."""
    try:
        lo, hi = map(operator.index, n if isinstance(n, tuple) else (n, n))
    except (TypeError, ValueError):
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise ValueError(f"n must be an integer >= 1 or a (lo, hi) range of "
                         f"them with lo <= hi, got {n!r}")
    pts = []
    for B in B_grid:
        pt = (_sup_scan(dist, lambda m: point_fn(m, B), B, *n, kr)
              if isinstance(n, tuple) else point_fn(n, B))
        if pts and pt.value > pts[-1].value:
            pt = BoundPoint(B, pts[-1].value, pts[-1].objective)
        pts.append(pt)
    return BoundCurve(family, n, tuple(pts))


def exp_curve(dist: DistributionModel, n: int | tuple[int, int],
              B_grid: Sequence[float]) -> BoundCurve:
    """ExpLevel bound at every B of the grid, sorted.

    ``n`` is a sample size or an ``(lo, hi)`` range.  A range gives, for
    each B, a bound on the sup of Q_n(B) over it: the max of the cells
    from lo up, with the attaining n as ``n_star``, once a
    tail certificate rules out every later n or the range ends; or,
    after 64 cells, the certificate itself, with no ``n_star``.  A value
    certified by the tail covers every n >= lo, past hi too.  A point
    above its predecessor carries the predecessor's value and objective.
    """
    return _curve(EXP_LEVEL, dist, n, _sorted_B(B_grid),
                  lambda m, B: _exp_tail_point(dist, m, B))


def power_curve(dist: DistributionModel, n: int | tuple[int, int],
                B_grid: Sequence[float], kr: float = DEFAULT_KR) -> BoundCurve:
    """PowerLevel bound at every B >= e of the grid, sorted; ``n`` as in
    :func:`exp_curve`, with the tail certificate of a range at ``kr``
    too."""
    return _curve(POWER_LEVEL, dist, n,
                  [B for B in _sorted_B(B_grid) if B >= math.e],
                  lambda m, B: _power_tail_point(dist, m, B, kr), kr)


def lower_q1_curve(dist: DistributionModel, B_grid: Sequence[float]) -> BoundCurve:
    """Exact single-observation tail Q_1(B) (see
    :meth:`DistributionModel.q1`) at every B of the grid, sorted: a lower
    bound on sup_n Q_n(B)."""
    pts = tuple(BoundPoint(B, dist.q1(B)) for B in _sorted_B(B_grid))
    return BoundCurve(LOWER_Q1, 1, pts)


def lower_clt_curve(dist: DistributionModel,
                    B_grid: Sequence[float]) -> BoundCurve:
    """Limiting-tail reference values of the law.

    The value is the normal tail 1 - Phi(B*sigma), which is what Q_n(B)
    actually converges to; ``objective`` holds the
    heuristic exp(-B^2*sigma^2/2).  The two disagree substantially at
    moderate B (0.159 vs 0.607 at B*sigma = 1), so reports carry both
    and only the normal tail participates in comparisons, and even that
    merely as a reference: it is a limit, not a finite-n bound.
    """
    sigma = math.sqrt(dist.sigma2)
    pts = tuple(BoundPoint(B, 0.5 * math.erfc(B * sigma / math.sqrt(2.0)),
                           math.exp(-B * B * dist.sigma2 / 2.0))
                for B in _sorted_B(B_grid))
    return BoundCurve(LOWER_CLT, 1, pts)
