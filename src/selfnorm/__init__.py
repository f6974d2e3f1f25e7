"""Rigorous tail bounds for self-normalized sums, verified by simulation.

For i.i.d. centered xi_1, ..., xi_n the object of study is the
statistic ``T(n) = sqrt(n) * sum(xi_i) / sum(xi_i^2)`` and its tail
``Q_n(B) = P(T(n) > B)``.  The package computes non-asymptotic upper
bounds (an optimized-exponent Chernoff family and a Rosenthal-moment
family), exact lower bounds, and checks every bound cell against the
exact tail of a finite atomic law, or else against Monte Carlo
simulation with exact confidence intervals.
"""

from .bounds import (
    BoundCurve,
    BoundPoint,
    DEFAULT_B_GRID,
    DEFAULT_KR,
    EXP_LEVEL,
    LOWER_CLT,
    LOWER_Q1,
    POWER_LEVEL,
    exp_curve,
    lower_clt_curve,
    lower_q1_curve,
    power_curve,
    rosenthal_psi,
    sum_cgf,
)
from .convex import NotBracketedError, fenchel, invert_monotone, maximize_concave
from .distributions import (
    DensityLaw,
    DiscreteLaw,
    DistributionModel,
    DivergentError,
    Rademacher,
    StandardGaussian,
    UniformSymmetric,
    parse_distribution,
)
from .gls import (
    PsiFunction,
    bphi_norm,
    bphi_tail_bound,
    degenerate_psi,
    gls_norm,
    gls_tail_bound,
    natural_phi,
    power_phi,
    power_psi,
)
from .mc import (
    GridMismatchError,
    MCConfig,
    VerificationReport,
    clopper_pearson,
    empirical_tail,
    self_normalized_stat,
    verify_bounds,
)

__version__ = "0.1.0"
