"""Upper and lower bounds for the tail of the self-normalized statistic.

For i.i.d. centered xi with variance sigma^2, the statistic is
``T(n) = sqrt(n) * sum(xi) / sum(xi^2)`` and the target is
``Q_n(B) = P(T(n) > B)`` together with its supremum over n.  The event
linearizes exactly:

    T(n) > B  <=>  mean of (sqrt(n)*xi_i + B*(sigma^2 - xi_i^2)) > B*sigma^2,

so every bound here is a bound on the mean of n i.i.d. centered summands.
Two upper-bound families are provided (an optimized-exponent Chernoff
bound and a Rosenthal-moment bound valid for B >= e), plus two lower
bounds (the exact single-observation tail and the limiting normal tail,
the latter report-only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .convex import maximize_concave
from .distributions import DistributionModel
from .gls import PsiFunction, _gls_tail_opt

__all__ = [
    "BoundCurve",
    "BoundPoint",
    "DEFAULT_B_GRID",
    "DEFAULT_KR",
    "EXP_LEVEL",
    "LOWER_CLT",
    "LOWER_Q1",
    "POWER_LEVEL",
    "exp_curve",
    "lower_clt_curve",
    "lower_q1_curve",
    "power_curve",
    "rosenthal_psi",
    "sum_cgf",
]

EXP_LEVEL = "ExpLevel"
POWER_LEVEL = "PowerLevel"
LOWER_CLT = "LowerCLT"
LOWER_Q1 = "LowerQ1"

DEFAULT_KR = 0.6379
DEFAULT_B_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, math.e, 3.0, 5.0, 10.0, 20.0, 50.0)

_THETA_RTOL = 1e-6
_THETA_TOL = 1e-9
# cells a sup over n evaluates before it settles for its tail certificate;
# a power of two, so that the last checkpoint falls right after them
_SUP_CELLS = 64


@dataclass(frozen=True)
class BoundPoint:
    """One (B, bound value) cell with optimizer diagnostics."""

    B: float
    value: float
    optimizer: dict = field(default_factory=dict)


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


# -- exponential level -------------------------------------------------------


def sum_cgf(dist: DistributionModel, n: int, B: float, theta: float) -> float:
    """ln E exp(theta * mean of the n linearized summands).

    Equals n * log_mgf2(theta/sqrt(n), B*theta/n); ``+inf`` propagates
    from the log-MGF when the expectation diverges.
    """
    return n * dist.log_mgf2(theta / math.sqrt(n), B * theta / n)


def _theta_guess(dist: DistributionModel, n: int, B: float) -> float:
    """The maximizer n*B*sigma^2/V of the Gaussian-regime objective.

    V is the variance of the linearized summand; when its quadratic
    moments diverge or it is not positive, the finite start B is used.
    """
    try:
        var = dist.summand_variance(n, B)
    except ArithmeticError:
        var = 0.0
    return n * B * dist.sigma2 / var if var > 0.0 else B


def _exp_tail_point(dist: DistributionModel, n: int, B: float) -> BoundPoint:
    """Optimized-exponent upper bound on Q_n(B).

    ``exp(-sup_{theta>=0} [theta*B*sigma^2 - cgf(theta)])``; the
    conjugate is evaluated at B*sigma^2, the exact threshold of the
    linearized event.  Every theta gives a valid bound, and the exponent
    is at least its value 0 at theta = 0.  The value is 0 without a
    search when the event is impossible for an atomic law whose nonzero
    atoms all have |xi| >= m, once B > sqrt(n)/m.  When the objective
    still grows at the search cap, the bound is read there, as at any
    other theta.
    """
    if B <= 0.0:
        raise ValueError(f"B must be positive, got {B}")
    # by Cauchy-Schwarz over the k nonzero terms, |sum xi| <= sqrt(k*sum xi^2)
    # and sum xi^2 >= k*m^2, so T(n) <= sqrt(n)/m: beyond that the event is
    # impossible (the factor keeps float rounding of T on the safe side)
    if B * dist.min_abs_atom > math.sqrt(n) * (1.0 + 1e-12):
        return BoundPoint(B, 0.0, {"theta_star": math.inf, "objective": math.inf,
                                   "reason": "support"})
    target = B * dist.sigma2

    def obj(theta: float) -> float:
        return theta * target - sum_cgf(dist, n, B, theta)

    # a theta bracket of relative width 1e-6 leaves an exponent error of
    # order 1e-12 relative: the objective is flat at its maximum
    theta_star, exponent = maximize_concave(obj, 0.0, _THETA_TOL,
                                            x0=_theta_guess(dist, n, B),
                                            rtol=_THETA_RTOL)
    return BoundPoint(B, math.exp(-exponent),
                      {"theta_star": theta_star, "objective": exponent})


def _sup_scan(dist: DistributionModel, point_fn: Callable[[int], BoundPoint],
              B: float, n_lo: int, n_hi: int) -> BoundPoint:
    """A bound on the sup of Q_n(B) over n_lo <= n <= n_hi from the
    cells point_fn(n), each a bound on one Q_n(B).

    Cells are evaluated from n_lo upward.  After 1, 2, 4, ..., 64 cells,
    at n = N, the tail certificate bounds Q_n(B) for every n >= N.  The
    walk stops on the first of:

    * the certificate is at most the best cell: that cell, with its n as
      ``optimizer["n_star"]``, bounds the sup over all n >= n_lo;
    * n passes n_hi: every cell of the range was evaluated, and the max
      is exact, with ``n_star`` as above;
    * the 64 cells are spent: the certificate itself, which exceeds
      every cell, is reported, with no ``n_star``.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"bad range [{n_lo}, {n_hi}]")
    best, best_n = None, n_lo
    n, check = n_lo, n_lo + 1
    while n <= n_hi:
        if n == check:
            tail = _tail_certificate(dist, n, B, best.value)
            if tail <= best.value:
                break
            if n - n_lo == _SUP_CELLS:
                # abs: a certificate of 1 has exponent 0, not -0
                return BoundPoint(B, tail, {"objective": abs(math.log(tail))})
            check = 2 * check - n_lo
        pt = point_fn(n)
        if best is None or pt.value > best.value:
            best, best_n = pt, n
        n += 1
    opt = dict(best.optimizer)
    opt["n_star"] = float(best_n)
    return BoundPoint(B, best.value, opt)


def _tail_certificate(dist: DistributionModel, N: int, B: float,
                      enough: float = 0.0) -> float:
    """An upper bound on Q_n(B) that holds for every n >= N.

    The smallest of the certificates that apply, tried cheapest first;
    the search stops early at one that is at most ``enough``.

    * Efron (1969; de la Pena, Lai and Shao, Self-Normalized Processes,
      2009, ch. 2), for symmetric laws: given the |xi_i|, the signs are
      fair coins, so Hoeffding's inequality gives
      ``Q_n(B) <= (E exp(-u*xi^2))^n = exp(c*g(u)/u)`` with c = B^2/2,
      u = c/n and g(u) = log_mgf2(0, u) - u*sigma^2.  As g is convex
      with g(0) = 0, g(u)/u grows with u, so the bound is non-increasing
      in n; it tends to exp(-B^2*sigma^2/2).
    * Rosenthal, for B >= e: for p >= 1 the norm
      ``|xi + c*(sigma^2 - xi^2)|_p`` is convex in c, as the norm of a
      function affine in c.  Every n >= N has c = B/sqrt(n) in
      (0, B/sqrt(N)], so the PowerLevel generator at n is at most the
      larger of those at N and at c = 0, and one moment-level search on
      that pointwise max dominates every PowerLevel cell past N at the
      constant DEFAULT_KR.  It is the cells' own generator, so it is
      valid exactly where they are, and a change to that generator's p
      range applies to both.
    * Otherwise 1.
    """
    bound = 1.0
    if dist.symmetric:
        c = 0.5 * B * B
        u = c / N
        g = dist.log_mgf2(0.0, u) - u * dist.sigma2
        # in this form the sign law gets exactly exp(-c): g(u)/u is -1
        bound = min(bound, math.exp(c * g / u))
        if bound <= enough:
            return bound
    if B >= math.e:
        psi_N, psi_inf = rosenthal_psi(dist, N, B), rosenthal_psi(dist, N, 0.0)
        psi = PsiFunction(lambda p: max(psi_N(p), psi_inf(p)), lo_open=True)
        bound = min(bound, _gls_tail_opt(psi, 1.0, B * dist.sigma2)[0])
    return bound


# -- power level --------------------------------------------------------------


def rosenthal_psi(dist: DistributionModel, n: int, B: float,
                  kr: float = DEFAULT_KR) -> PsiFunction:
    """Moment generator kr * (p/ln p) * |summand|_p for the normalized sum.

    By Rosenthal's inequality the sqrt(n)-normalized sum of the
    linearized summands has moment-growth norm at most 1 against this
    generator.  Support is (1, inf); a p where the summand moment
    diverges raises, and the tail search treats it as a barrier.
    """

    def fn(p: float) -> float:
        return kr * (p / math.log(p)) * dist.summand_lp_norm(n, B, p)

    return PsiFunction(fn, lo_open=True)


def _power_tail_point(dist: DistributionModel, n: int, B: float,
                      kr: float = DEFAULT_KR) -> BoundPoint:
    """Rosenthal-moment upper bound on Q_n(B), valid for B >= e.

    ``min_p (kr * p/ln(p) * |summand|_p / (B*sigma^2))^p`` with the
    normalized-sum norm pinned at 1 by Rosenthal's inequality; B*sigma^2
    is the exact threshold of the linearized event.
    """
    psi = rosenthal_psi(dist, n, B, kr)
    value, p_star, exponent = _gls_tail_opt(psi, 1.0, B * dist.sigma2)
    opt = {"objective": exponent}
    if p_star is not None:
        opt["p_star"] = p_star
    return BoundPoint(B, value, opt)


# -- curves --------------------------------------------------------------------


def _curve(family: str, dist: DistributionModel, n: int | tuple[int, int],
           B_grid: Sequence[float],
           point_fn: Callable[[int, float], BoundPoint]) -> BoundCurve:
    if isinstance(n, tuple):
        n_lo, n_hi = n
        pts = tuple(_sup_scan(dist, lambda m, B=B: point_fn(m, B), B, n_lo, n_hi)
                    for B in B_grid)
    else:
        pts = tuple(point_fn(n, B) for B in B_grid)
    return BoundCurve(family, n, pts)


def exp_curve(dist: DistributionModel, n: int | tuple[int, int],
              B_grid: Sequence[float]) -> BoundCurve:
    """ExpLevel bound at every B of the grid, sorted.

    ``n`` is a sample size or an ``(lo, hi)`` range.  A range gives, for
    each B, a bound on the sup of Q_n(B) over it: the max of the cells
    from lo up, with the attaining n as ``optimizer["n_star"]``, once a
    tail certificate rules out every later n or the range ends; or,
    after 64 cells, the certificate itself, with no ``n_star``.  A value
    certified by the tail covers every n >= lo, past hi too.
    """
    return _curve(EXP_LEVEL, dist, n, sorted(B_grid),
                  lambda m, B: _exp_tail_point(dist, m, B))


def power_curve(dist: DistributionModel, n: int | tuple[int, int],
                B_grid: Sequence[float], kr: float = DEFAULT_KR) -> BoundCurve:
    """PowerLevel bound at every B >= e of the grid, sorted; ``n`` as in
    :func:`exp_curve`."""
    return _curve(POWER_LEVEL, dist, n, [B for B in sorted(B_grid) if B >= math.e],
                  lambda m, B: _power_tail_point(dist, m, B, kr))


def lower_q1_curve(dist: DistributionModel, B_grid: Sequence[float]) -> BoundCurve:
    """Exact single-observation tail Q_1(B) = P(0 < xi < 1/B).

    For n = 1 the statistic is 1/xi (and 0 when xi = 0), so this is the
    exact tail probability, hence a lower bound on sup_n Q_n(B).  The
    interval is open at 1/B: an atom exactly there gives T = B, which
    does not exceed B.
    """
    pts = []
    for B in sorted(B_grid):
        if B <= 0.0:
            raise ValueError(f"B must be positive, got {B}")
        pts.append(BoundPoint(B, dist.prob_between(0.0, 1.0 / B)))
    return BoundCurve(LOWER_Q1, 1, tuple(pts))


def lower_clt_curve(dist: DistributionModel,
                    B_grid: Sequence[float]) -> BoundCurve:
    """Limiting-tail reference values of the law.

    The value is the normal tail 1 - Phi(B*sigma), which is what Q_n(B)
    actually converges to; ``optimizer["objective"]`` holds the
    heuristic exp(-B^2*sigma^2/2).  The two disagree substantially at
    moderate B (0.159 vs 0.607 at B*sigma = 1), so reports carry both
    and only the normal tail participates in comparisons, and even that
    merely as a reference: it is a limit, not a finite-n bound.
    """
    sigma = math.sqrt(dist.sigma2)
    pts = tuple(BoundPoint(B, 0.5 * math.erfc(B * sigma / math.sqrt(2.0)),
                           {"objective": math.exp(-B * B * dist.sigma2 / 2.0)})
                for B in sorted(B_grid))
    return BoundCurve(LOWER_CLT, 1, pts)
