"""Headline tail bounds against enumeration, closed forms, and grid oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln
from scipy.stats import norm as scipy_norm

from selfnorm.bounds import (DEFAULT_B_GRID, DEFAULT_KR, BoundPoint, exp_curve,
                             lower_clt_curve, lower_q1_curve, power_curve,
                             rosenthal_psi)
from selfnorm.bounds import _exp_tail_point, _power_tail_point, _tail_certificate
from selfnorm.distributions import (DensityLaw, DiscreteLaw, Rademacher,
                                    StandardGaussian, UniformSymmetric)
from selfnorm.gls import _gls_tail_opt, _tail_value

E = math.e
SQRT3 = math.sqrt(3.0)


def sum_cgf(law, n, B, theta):
    """n*K(theta/sqrt(n), B*theta/n) = ln E exp(theta/n * sum(sqrt(n)*xi_i -
    B*xi_i^2)), whose negative the ExpLevel objective maximizes."""
    return n * law.log_mgf2(theta / math.sqrt(n), B * theta / n)


def lncosh(x):
    a = abs(x)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def lncosh_conjugate(s):
    return (1 + s) / 2 * math.log(1 + s) + (1 - s) / 2 * math.log(1 - s)


def atomic_brute_tail(law, n, B):
    """Enumeration of P(T(n) > B) over the k^n atom sequences of a law."""
    seqs = np.array(list(itertools.product(range(law._values.size), repeat=n)))
    x = law._values[seqs]
    t = math.sqrt(n) * x.sum(axis=1) / (x ** 2).sum(axis=1)
    return float(np.prod(law._probs[seqs], axis=1)[t > B].sum())


def rademacher_exact_tail(n, B):
    """Full 2^n enumeration of P(T(n) > B) for the sign law."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    t = math.sqrt(n) * signs.sum(axis=1) / (signs ** 2).sum(axis=1)
    return float((t > B).mean())


def integer_scan(n_lo, n_hi):
    """The n values a sup over n_lo..n_hi once sampled: every one up to 64,
    then a geometric ladder of ratio 1.25 (rounded, deduplicated) always
    including n_hi.  Kept as the oracle the certified sup must dominate."""
    out = set(range(n_lo, min(64, n_hi) + 1))
    v = max(64, n_lo)
    out.add(min(v, n_hi))
    while v < n_hi:
        v = max(v + 1, round(v * 1.25))
        out.add(min(v, n_hi))
    return sorted(out)


def rademacher_max_log_tail(Bs, n_max):
    """max over n <= n_max of ln P(T(n) > B) for signs, for each B.

    T(n) = (2k - n)/sqrt(n) for k plus signs, so each tail is a binomial
    upper sum, accumulated in log space.  The threshold is lowered by
    1e-12 relative, so that ties count as exceedances and the oracle errs
    high.
    """
    worst = dict.fromkeys(Bs, -math.inf)
    for n in range(1, n_max + 1):
        k = np.arange(n + 1)
        log_pmf = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                   - n * math.log(2.0))
        log_upper = np.logaddexp.accumulate(log_pmf[::-1])[::-1]
        for B in Bs:
            hit = 2 * k - n > B * math.sqrt(n) * (1.0 - 1e-12)
            if hit.any():
                worst[B] = max(worst[B], float(log_upper[np.argmax(hit)]))
    return worst


def sup_point(curve_fn, law, B, n_lo, n_hi):
    """Value and attaining n of a one-B curve over the range n_lo..n_hi."""
    pt = curve_fn(law, (n_lo, n_hi), [B]).points[0]
    return pt.value, pt.n_star


def q1(law, B):
    return lower_q1_curve(law, [B]).points[0].value


def gauss_exp_exponent_oracle(n, B):
    """Dense-grid + bounded refine of the closed-form Chernoff exponent."""

    def neg(th):
        a = 1.0 + 2.0 * B * th / n
        if a <= 0:
            return math.inf
        return -(0.5 * n * math.log(a) - th * th / (2.0 * a))

    ths = np.geomspace(1e-8, 1e6, 20001)
    vals = np.array([neg(t) for t in ths])
    i = int(np.argmin(vals))
    r = minimize_scalar(neg, bounds=(ths[max(i - 1, 0)], ths[min(i + 1, len(ths) - 1)]),
                        method="bounded", options={"xatol": 1e-12})
    return -r.fun


def rosenthal_exponent_oracle(B, delta_fn, kr=0.6379, hi=1000.0, points=100001):
    """Dense-grid minimization of p*ln(kr*p*delta(p)/(ln(p)*B))."""
    grid = np.geomspace(1.0 + 1e-8, hi, points)
    best = math.inf
    for p in grid:
        v = p * (math.log(kr * p * delta_fn(p) / math.log(p)) - math.log(B))
        best = min(best, v)
    return best


@pytest.fixture(scope="module")
def rad():
    return Rademacher()


@pytest.fixture(scope="module")
def gauss():
    return StandardGaussian()


@pytest.fixture(scope="module")
def uni():
    return UniformSymmetric(SQRT3)


class TestSumCgf:
    def test_zero_theta(self, rad, gauss):
        for law in (rad, gauss):
            assert sum_cgf(law, 5, 1.0, 0.0) == 0.0

    def test_rademacher_closed_form(self, rad):
        for n, B, th in [(4, 1.0, 0.8), (16, 2.0, 3.0), (1, 0.5, 1.2)]:
            assert sum_cgf(rad, n, B, th) == pytest.approx(
                n * lncosh(th / math.sqrt(n)) - B * th, rel=1e-12)

    def test_gaussian_value(self, gauss):
        expected = 1.0 / 6.0 - 0.5 * math.log(3.0)
        assert sum_cgf(gauss, 1, 1.0, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_divergence_propagates(self):
        # the t5 law has no MGF: its log-MGF at l1 != 0 reads +inf, and so
        # does the sum's cumulant built from it
        t5 = DensityLaw(t5_density)
        assert t5.log_mgf2(0.5, 0.0) == math.inf
        assert sum_cgf(t5, 4, 0.0, 1.0) == math.inf


class TestExpTailBound:
    def test_rademacher_closed_form(self, rad):
        expected = math.exp(-4.0 * lncosh_conjugate(0.5))
        assert _exp_tail_point(rad, 4, 1.0).value == pytest.approx(expected, rel=1e-9)

    def test_dominates_enumerated_tail(self, rad):
        for n in (1, 4, 16):
            for B in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
                assert _exp_tail_point(rad, n, B).value >= rademacher_exact_tail(n, B)

    def test_impossible_event_gives_zero(self, rad):
        assert _exp_tail_point(rad, 4, 3.0).value == 0.0
        assert rademacher_exact_tail(4, 3.0) == 0.0

    def test_limit_at_zero_threshold(self, rad, gauss, uni):
        for law in (rad, gauss, uni):
            assert _exp_tail_point(law, 4, 1e-6).value >= 0.999

    def test_gaussian_against_closed_form_oracle(self, gauss):
        for n, B in [(1, 1.0), (1, 5.0), (1, 50.0), (4, 2.0), (64, 5.0)]:
            expected = math.exp(-gauss_exp_exponent_oracle(n, B))
            assert _exp_tail_point(gauss, n, B).value == pytest.approx(
                expected, rel=1e-6)

    def test_conjugate_threshold_uses_variance_scale(self):
        # sigma^2 = 4/3 here: sup -n*K, the exponent, is the conjugate at
        # B*sigma^2 of the cgf of the summands sqrt(n)*xi + B*(sigma^2 -
        # xi^2), whose sigma^2 terms cancel
        law = UniformSymmetric(2.0)
        n, B = 3, 1.5
        pt = _exp_tail_point(law, n, B)

        def neg(th):
            return sum_cgf(law, n, B, th)

        r = minimize_scalar(neg, bounds=(1e-9, 50.0), method="bounded",
                            options={"xatol": 1e-12})
        assert pt.objective == pytest.approx(-r.fun, rel=1e-8)

    def test_value_in_unit_interval(self, gauss):
        for B in DEFAULT_B_GRID:
            assert 0.0 <= _exp_tail_point(gauss, 4, B).value <= 1.0

    def test_rejects_nonpositive_threshold(self, gauss):
        # one check in all four builders, also where power_curve would
        # drop the B as below e and the lower curves would return a row
        builders = (lambda g: exp_curve(gauss, 4, g),
                    lambda g: power_curve(gauss, 4, g),
                    lambda g: lower_q1_curve(gauss, g),
                    lambda g: lower_clt_curve(gauss, g))
        for build in builders:
            for B in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError,
                                   match="B must be positive and finite"):
                    build([3.0, B])

    @pytest.mark.parametrize("n", [0, -3, 2.5, "4", (0, 8), (5, 2), (1.0, 8),
                                   (1, 2, 3), [1, 8]])
    def test_rejects_bad_sample_size(self, rad, gauss, n):
        # one check of both forms of n, for both upper-bound families; at
        # n = 0 the sign law read 0 and the gaussian divided by zero
        for build in (exp_curve, power_curve):
            for law in (rad, gauss):
                with pytest.raises(ValueError, match="n must be an integer >= 1"):
                    build(law, n, [1.0, 5.0])


class TestExpTailOptimizer:
    """The ExpLevel optimizer: oracle agreement, cost, and its fallbacks."""

    @pytest.mark.parametrize("name", ["rad", "gauss", "uni"])
    def test_matches_oracle_within_call_budget(self, name, request,
                                               monkeypatch):
        law = request.getfixturevalue(name)
        calls = [0]
        log_mgf2 = law.log_mgf2

        def counted(*args, **kwargs):
            calls[0] += 1
            return log_mgf2(*args, **kwargs)

        monkeypatch.setattr(law, "log_mgf2", counted)
        for n in (1, 16, 64):
            finite_calls = []
            for B in DEFAULT_B_GRID:
                calls[0] = 0
                pt = _exp_tail_point(law, n, B)
                if pt.value == 0.0:
                    continue
                finite_calls.append(calls[0])

                def neg(th):
                    return sum_cgf(law, n, B, th)

                r = minimize_scalar(
                    neg, bounds=(0.0, 2.0 * pt.arg_star + 1.0),
                    method="bounded", options={"xatol": 1e-12})
                oracle = min(1.0, math.exp(min(r.fun, 0.0)))
                assert pt.value == pytest.approx(oracle, rel=1e-9), (n, B)
            assert sum(finite_calls) / len(finite_calls) <= 20.0, n

    def test_zero_variance_summand_stays_impossible(self):
        # sqrt(n)*xi + B*(sigma^2 - xi^2) vanishes on both atoms at n = B = 1
        law = DiscreteLaw([(-1.0, 0.6666666666666666), (2.0, 0.3333333333333334)])
        s2, w, z = law.quadratic_moments()
        assert s2 + 2.0 * z + w == pytest.approx(0.0, abs=1e-12)
        # and T(1) <= 1/2, the inverse of the positive atom, settles it
        assert _exp_tail_point(law, 1, 1.0).value == 0.0

    def test_density_gap_around_zero_stays_finite(self):
        # the density jumps at |x| = 1 and 2: at l1 = 1e6, l2 = 1.5e6 the
        # quadrature misses the spike at x = 1, which must read as
        # divergent (+inf, a barrier), never as a log-MGF of -inf
        law = DensityLaw(lambda x: np.where((np.abs(x) >= 1) & (np.abs(x) <= 2),
                                            0.5, 0.0), support=(-2.0, 2.0))
        assert law.log_mgf2(1e6, 1.5e6) != -math.inf
        for pt in exp_curve(law, 1, [1.5, 3.0]).points:
            assert 0.0 <= pt.value <= 1.0, pt

    def test_heavy_tail_reaches_interior_maximum(self):
        # fourth moment infinite: a spurious quadrature failure near
        # theta = 0 must not end the search from theta = B
        def density(x):
            return 2.0 / (math.pi * (1.0 + x * x) ** 2)

        law = DensityLaw(density)
        n, B = 16, 1.0
        pt = _exp_tail_point(law, n, B)
        assert pt.value < 0.7
        theta = pt.arg_star
        l1, l2 = theta / math.sqrt(n), B * theta / n

        def integrand(x):
            return density(x) * math.exp(l1 * x - l2 * x * x)

        peak = l1 / (2.0 * l2)
        mgf = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                  for a, b in ((-math.inf, 0.0), (0.0, peak), (peak, math.inf)))
        assert sum_cgf(law, n, B, theta) == pytest.approx(n * math.log(mgf),
                                                          rel=1e-8)
        assert pt.objective == pytest.approx(-n * math.log(mgf), rel=1e-8)


class TestExpTailScale:
    """T(a*xi) = T(xi)/a, and the exponent -n*K holds no sigma^2: an
    ExpLevel cell reads B*sigma alone, at any scale of the law."""

    @pytest.mark.parametrize("a", [0.01, SQRT3, 1e3, 1e6])
    def test_uniform_cells_depend_on_a_times_B(self, a):
        for n in (1, 16, 256):
            scaled = exp_curve(UniformSymmetric(a), n, DEFAULT_B_GRID).points
            unit = exp_curve(UniformSymmetric(1.0), n,
                             [a * B for B in DEFAULT_B_GRID]).points
            for p, q in zip(scaled, unit):
                assert p.value == pytest.approx(q.value, rel=1e-12), (n, p.B)
                # an exponent near 0 keeps n times the rounding of K near
                # 0, which is of order 1e-16 absolute
                assert p.objective == pytest.approx(q.objective, rel=1e-12,
                                                    abs=n * 1e-15), (n, p.B)

    # sup over theta of -n*K for the uniform on [-a, a], with K from its
    # erf form and the maximum from a root of the derivative, in 80-digit
    # mpmath, to 60 digits
    @pytest.mark.parametrize("a, B, n, exponent", [
        (SQRT3, 5e7, 4,
         70.2041934203269900724945550060909715747545592703724093637948),
        (SQRT3, 5e7, 64,
         1034.54425561355884155450716855080894448240893112784587729327),
        (1e6, 50.0, 4,
         68.0069688429907709214544076042771840837896577415696015817979),
        (1e6, 50.0, 64,
         999.388662376179335137864810121788344626970506667000952781319),
    ])
    def test_exponent_at_large_B_sigma(self, a, B, n, exponent):
        # B*sigma = 5e7 at a = sqrt(3), and 2.9e7 at a = 1e6; the charge
        # for rounding keeps the exponent at or below the true one
        pt = _exp_tail_point(UniformSymmetric(a), n, B)
        assert pt.objective == pytest.approx(exponent, rel=1e-12)
        assert pt.objective <= exponent

    def test_possible_event_at_huge_threshold_reads_positive(self):
        # l2 = B*theta/n and l2*sigma^2 overflow within the theta search:
        # they read +inf, a barrier, and never a K of -inf that would read 0
        eps = 1e-9
        # the smallest positive atom 1e-300 keeps T(1) > B possible
        tiny = DiscreteLaw([(-1.0, 0.5), (1.0, 0.5 - eps), (1e-300, eps)])
        cells = [(StandardGaussian(), 1e300), (StandardGaussian(), 1e308),
                 (UniformSymmetric(1e150), 1e200), (tiny, 5e299)]
        for law, B in cells:
            for n in (1, 16):
                pt = _exp_tail_point(law, n, B)
                assert 0.0 < pt.value < 1.0, (law.name, n)
                assert pt.objective < math.inf, (law.name, n)
        assert _exp_tail_point(tiny, 1, 5e299).value >= tiny.q1(5e299)


class TestExpTailSupport:
    """Cells settled by T(n) <= sqrt(n)/m for atomic laws whose smallest
    positive atom is m, with no search."""

    def test_beyond_support_costs_no_log_mgf(self, monkeypatch):
        # the sign law (m = 1) and a skewed law (m = 2, whose negative atom
        # -1 is smaller): the rule reads the positive atoms only
        for law, m in ((Rademacher(), 1.0),
                       (DiscreteLaw([(-1.0, 0.6666666666666666),
                                     (2.0, 0.3333333333333334)]), 2.0)):
            assert law.min_positive_atom == m
            calls = [0]
            log_mgf2 = law.log_mgf2

            def counted(*args, log_mgf2=log_mgf2, **kwargs):
                calls[0] += 1
                return log_mgf2(*args, **kwargs)

            monkeypatch.setattr(law, "log_mgf2", counted)
            for n in (1, 4, 16, 64):
                for B in DEFAULT_B_GRID:
                    if B * m <= math.sqrt(n):
                        continue
                    calls[0] = 0
                    pt = _exp_tail_point(law, n, B)
                    assert calls[0] == 0, (law.name, n, B)
                    assert pt.value == 0.0
                    assert (pt.objective, pt.arg_star, pt.n_star) == (
                        math.inf, math.inf, None)
                    if n <= 16:
                        assert atomic_brute_tail(law, n, B) == 0.0

    def test_law_without_positive_atom(self):
        # every T(n) is at most 0, so every cell is impossible
        law = DiscreteLaw([(-1.0, 1e-30), (0.0, 1.0 - 1e-30)])
        assert law.min_positive_atom == math.inf
        assert _exp_tail_point(law, 4, 0.25).value == 0.0

    def test_boundary_goes_through_the_search(self, rad):
        # B = sqrt(n) exactly: T(n) > B is still impossible, but only the
        # strict inequality is settled by support; Chernoff stays positive
        pt = _exp_tail_point(rad, 4, 2.0)
        assert pt.value > 0.0
        assert math.isfinite(pt.objective)

    def test_zero_atom_law(self):
        # a zero atom keeps the Chernoff objective bounded (by P(0)^n), so
        # only the support argument shows the event is impossible
        law = DiscreteLaw([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        n, B = 4, 3.0
        draws = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
        weights = np.prod(np.where(draws == 0.0, 0.5, 0.25), axis=1)
        ss = (draws ** 2).sum(axis=1)
        t = np.where(ss > 0, math.sqrt(n) * draws.sum(axis=1) / np.maximum(ss, 1),
                     0.0)
        assert float(weights[t > B].sum()) == 0.0
        assert _exp_tail_point(law, n, B).value == 0.0

    def test_cap_without_support_argument(self):
        # T(1) = 1/xi is -1 or 1/2 here, so T(1) > B is impossible for this
        # B, but it lies inside the support rule's rounding margin: the
        # objective still grows at the cap, 63 doublings past the start
        # theta = B, and the bound is read there
        law = DiscreteLaw([(-1.0, 0.6666666666666666), (2.0, 0.3333333333333334)])
        B = 0.5 * (1.0 + 5e-13)
        assert atomic_brute_tail(law, 1, B) == 0.0
        pt = _exp_tail_point(law, 1, B)
        assert pt.arg_star == B * 2.0 ** 63
        assert math.isfinite(pt.objective)
        assert 0.0 < pt.value < 1.0
        assert pt.value == pytest.approx(math.exp(-pt.objective), rel=1e-12)

    def test_density_laws_never_settled_by_support(self, gauss):
        assert gauss.min_positive_atom == 0.0
        assert _exp_tail_point(gauss, 1, 50.0).value > 0.0


class TestExpTailBoundSup:
    def test_degenerate_range_matches_point(self, gauss):
        v, n_star = sup_point(exp_curve, gauss, 5.0, 16, 16)
        assert n_star == 16
        assert v == _exp_tail_point(gauss, 16, 5.0).value

    def test_rademacher_khinchine_scaling(self, rad):
        # n*conj(B/sqrt(n)) decreases toward B^2/2, so the cells rise
        # towards exp(-B^2/2) and never reach it: after 64 cells the sup
        # is the tail certificate, exactly that limit, at no attaining n
        for B in (0.5, 1.0, 1.5):
            (pt,) = exp_curve(rad, (1, 10 ** 4), [B]).points
            assert pt.value == math.exp(-B * B / 2.0)
            assert pt.n_star is None

    def test_gaussian_large_B_single_term(self, gauss):
        # at large B the n = 1 term dominates and B*value -> e^0.5/2
        v, n_star = sup_point(exp_curve, gauss, 20.0, 1, 4096)
        assert n_star == 1
        assert 20.0 * v == pytest.approx(math.exp(0.5) / 2.0, rel=0.05)

    def test_sup_dominates_members(self, rad):
        v, _ = sup_point(exp_curve, rad, 1.0, 1, 64)
        for n in (1, 2, 7, 64):
            assert v >= _exp_tail_point(rad, n, 1.0).value - 1e-15

    def test_per_n_table_consistency(self, rad):
        # oracle: the table of single-n cells over the scanned range
        curve = exp_curve(rad, (1, 32), [1.0, 2.0])
        for pt in curve.points:
            table = {n: _exp_tail_point(rad, n, pt.B).value
                     for n in integer_scan(1, 32)}
            assert pt.value == max(table.values())
            assert table[pt.n_star] == pt.value


class TestCertifiedSup:
    """The sup over a range against the cells it stands for."""

    def test_signs_dominate_exact_tail_at_every_n(self, rad):
        Bs = (0.5, 1.0, 2.0, 5.0)
        worst = rademacher_max_log_tail(Bs, 4096)
        for pt in exp_curve(rad, (1, 4096), Bs).points:
            assert math.log(pt.value) >= worst[pt.B], pt.B

    @pytest.mark.parametrize("name", ["rad", "gauss", "uni"])
    def test_dominates_old_ladder_and_limit(self, name, request):
        law = request.getfixturevalue(name)
        curve = exp_curve(law, (1, 4096), DEFAULT_B_GRID)
        for pt in curve.points:
            ladder = max(_exp_tail_point(law, n, pt.B).value
                         for n in integer_scan(1, 4096))
            assert pt.value >= ladder, pt.B
            limit = math.exp(-pt.B ** 2 * law.sigma2 / 2.0)
            assert pt.value >= limit * (1.0 - 1e-12), pt.B

    @pytest.mark.parametrize("name", ["rad", "gauss", "uni"])
    def test_short_range_is_exact_max(self, name, request):
        law = request.getfixturevalue(name)
        for pt in exp_curve(law, (1, 64), [0.5, 2.0, 5.0]).points:
            cells = [_exp_tail_point(law, n, pt.B).value for n in range(1, 65)]
            assert pt.value == max(cells)
            assert cells[pt.n_star - 1] == pt.value

    @pytest.mark.parametrize("law", [
        Rademacher(), StandardGaussian(), UniformSymmetric(SQRT3),
        DiscreteLaw([(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)])])
    def test_efron_non_increasing_in_N(self, law):
        # Efron, and Rosenthal too where B*sigma^2 > e (the three-atom
        # law, sigma^2 = 2, at B = 2.5)
        assert law.symmetric
        for B in (0.5, 1.0, 2.5):
            tails = [_tail_value(_tail_certificate(law, N, B))
                     for N in (1, 2, 3, 5, 16, 100, 1000, 10 ** 5)]
            assert all(b <= a for a, b in zip(tails, tails[1:])), B
            assert tails[-1] >= math.exp(-B * B * law.sigma2 / 2.0) * (1 - 1e-12)

    def test_efron_gaussian_closed_form(self, gauss):
        # E exp(-u*xi^2) = (1 + 2u)^(-1/2), so the bound is (1 + B^2/N)^(-N/2)
        for B, N in ((0.5, 1), (1.0, 7), (2.5, 64), (2.5, 4096)):
            assert _tail_value(_tail_certificate(gauss, N, B)) == pytest.approx(
                (1.0 + B * B / N) ** (-N / 2.0), rel=1e-9)

    def test_symmetry_flag(self):
        assert not DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)]).symmetric
        assert not DensityLaw(lambda x: 0.5 * np.exp(-np.abs(x))).symmetric

    @pytest.mark.parametrize("law, B, N", [
        (DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)]), 5.0, 4),
        (DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)]), 20.0, 16),
        (DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)]), 50.0, 64),
        (DensityLaw(lambda x: np.exp(-np.maximum(x, -1.0) - 1.0) * (x > -1.0),
                    support=(-1.0, math.inf), name="exponential-1"), 50.0, 64)])
    def test_minkowski_dominates_power_cells(self, law, B, N):
        # asymmetric laws: the certificate is the Rosenthal tail on the
        # larger of the generators at N and at n = infinity
        assert not law.symmetric
        tail = _tail_value(_tail_certificate(law, N, B))
        assert tail < 1.0
        for n in (N, 2 * N, 8 * N):
            assert tail >= _power_tail_point(law, n, B).value, n

    def test_asymmetric_small_B_without_certificate(self):
        # unit variance: B*sigma^2 = 2 < e, where Rosenthal reads 1
        law = DiscreteLaw([(-math.sqrt(0.5), 2 / 3), (math.sqrt(2.0), 1 / 3)])
        assert law.sigma2 == pytest.approx(1.0, rel=1e-15)
        assert _tail_certificate(law, 64, 2.0) == 0.0
        (pt,) = exp_curve(law, (1, 4096), [2.0]).points
        assert pt.value == 1.0 and pt.n_star is None

    def test_asymmetric_law_certified_below_e_when_wide(self):
        # sigma^2 = 2: B*sigma^2 = 4 > e, so Rosenthal applies at B = 2
        law = DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)])
        exponent = _tail_certificate(law, 64, 2.0)
        assert exponent == pytest.approx(1.339939275042, rel=1e-12)
        (pt,) = exp_curve(law, (1, 4096), [2.0]).points
        assert pt.value == pytest.approx(0.261861569630, rel=1e-11)
        assert pt.value == _tail_value(exponent) and pt.n_star is None


class TestRosenthalPsi:
    def test_rademacher_form(self, rad):
        psi = rosenthal_psi(rad, 4, 2.0)
        for p in (1.5, E, 7.0):
            assert psi(p) == pytest.approx(0.6379 * p / math.log(p), rel=1e-9)

    def test_at_p_equal_e(self, gauss):
        psi = rosenthal_psi(gauss, 2, 1.0)
        delta = gauss.summand_lp_norm(2, 1.0, E)
        assert psi(E) == pytest.approx(0.6379 * E * delta, rel=1e-9)

    def test_gaussian_value(self, gauss):
        psi = rosenthal_psi(gauss, 1, 1.0)
        assert psi(2.0) == pytest.approx(0.6379 * (2.0 / math.log(2.0)) * SQRT3,
                                         rel=1e-8)

    def test_custom_constant(self, rad):
        psi = rosenthal_psi(rad, 4, 2.0, kr=1.0)
        assert psi(E) == pytest.approx(E, rel=1e-12)


class TestPowerTailBound:
    def test_clamps_at_e(self, rad):
        # at B = e the threshold equals e times the unit norm: no
        # information from the moment route, so the bound saturates at 1
        assert _power_tail_point(rad, 4, E).value == 1.0

    def test_rademacher_golden_values(self, rad):
        # oracle: dense-grid minimization with the constant moment curve
        for B in (3.0, 10.0):
            oracle = math.exp(rosenthal_exponent_oracle(B, lambda p: 1.0))
            assert _power_tail_point(rad, 4, B).value == pytest.approx(oracle, rel=1e-6)
        assert _power_tail_point(rad, 4, 10.0).value == pytest.approx(
            2.3634107375e-08, rel=1e-6)

    def test_attaining_p_recorded(self, rad, gauss):
        for law, n, B in [(rad, 4, 10.0), (gauss, 16, 5.0)]:
            pt = _power_tail_point(law, n, B)
            assert math.isfinite(pt.arg_star)
            assert pt.arg_star > 1.0

    def test_gaussian_against_oracle(self, gauss):
        # coarse oracle grid: each moment evaluation costs a quadrature
        oracle = math.exp(rosenthal_exponent_oracle(
            5.0, lambda p: gauss.summand_lp_norm(16, 5.0, p), hi=150.0,
            points=401))
        assert _power_tail_point(gauss, 16, 5.0).value == pytest.approx(
            oracle, rel=5e-3)

    def test_value_in_unit_interval(self, gauss, rad):
        for law in (gauss, rad):
            for B in (E, 3.0, 10.0, 50.0):
                assert 0.0 <= _power_tail_point(law, 4, B).value <= 1.0

    def test_threshold_scales_with_variance(self, rad):
        # signs of size 1/2 have T(n) = 2*T_rad(n), so Q_n(B) is the sign
        # law's tail at B/2: exactly P(S_n > sqrt(n)*B/2) for the sign sum
        half = DiscreteLaw([(-0.5, 0.5), (0.5, 0.5)])
        for n in (1, 4, 16):
            for B in (3.0, 5.0):
                exact = sum(math.comb(n, k) for k in range(n + 1)
                            if 2 * k - n > math.sqrt(n) * B / 2.0) / 2.0 ** n
                assert _power_tail_point(half, n, B).value >= exact, (n, B)
            assert _power_tail_point(half, n, 20.0).value == pytest.approx(
                _power_tail_point(rad, n, 10.0).value, rel=1e-12)


class TestPowerTailBoundSup:
    def test_rademacher_constant_in_n(self, rad):
        # the summand reduces to the sign variable itself for every (n, B)
        v, n_star = sup_point(power_curve, rad, 10.0, 2, 64)
        assert n_star == 2
        assert v == pytest.approx(_power_tail_point(rad, 2, 10.0).value, rel=1e-9)

    def test_degenerate_range(self, gauss):
        v, n_star = sup_point(power_curve, gauss, 5.0, 8, 8)
        assert n_star == 8
        assert v == _power_tail_point(gauss, 8, 5.0).value


def t5_density(x):
    # Student t with 5 degrees of freedom: summand moments finite for p < 2.5
    return 8.0 / (3.0 * math.sqrt(5.0) * math.pi) * (1.0 + x * x / 5.0) ** -3


class TestPowerTailOptimizer:
    """The convex p search: convexity, oracle agreement, cost, barriers."""

    @pytest.mark.parametrize("name", ["rad", "gauss", "uni"])
    @pytest.mark.parametrize("n, B", [(1, 3.0), (16, 20.0), (256, 50.0)])
    def test_exponent_midpoint_convex(self, name, n, B, request):
        psi = rosenthal_psi(request.getfixturevalue(name), n, B)
        rng = np.random.default_rng(1)

        def f(p):
            return p * math.log(psi(p))

        for a, c in rng.uniform(1.0 + 1e-3, 50.0, size=(12, 2)):
            fa, fm, fc = f(a), f(0.5 * (a + c)), f(c)
            slack = 1e-9 * max(abs(fa), abs(fm), abs(fc))
            assert fm <= 0.5 * (fa + fc) + slack, (a, c)

    @pytest.mark.parametrize("name", ["rad", "gauss", "uni"])
    def test_matches_oracle_within_call_budget(self, name, request,
                                               monkeypatch):
        law = request.getfixturevalue(name)
        calls = [0]
        lp_norm = law.summand_lp_norm

        def counted(*args, **kwargs):
            calls[0] += 1
            return lp_norm(*args, **kwargs)

        monkeypatch.setattr(law, "summand_lp_norm", counted)
        cell_calls = []
        for n in (1, 4, 16, 64, 256):
            for B in DEFAULT_B_GRID:
                if B <= E:
                    continue
                calls[0] = 0
                pt = _power_tail_point(law, n, B)
                cell_calls.append(calls[0])
                if n not in (1, 16, 256):
                    continue
                psi = rosenthal_psi(law, n, B)

                def exponent(p):
                    return p * (math.log(psi(p)) - math.log(B))

                r = minimize_scalar(
                    exponent, bounds=(1.0 + 1e-6, 2.0 * pt.arg_star + 1.0),
                    method="bounded", options={"xatol": 1e-12})
                assert pt.objective == pytest.approx(
                    max(-r.fun, 0.0), rel=1e-9), (n, B)
        assert sum(cell_calls) / len(cell_calls) <= 25.0

    @pytest.mark.parametrize("name", ["rad", "gauss"])
    def test_no_repeated_or_ruled_out_moment_calls(self, name, request,
                                                   monkeypatch):
        # the search starts at p = 2, and the top of the support
        # (p_cap = 1000) is ruled out by a finite probe above p* (p* is
        # far below it on this cell).  The atomic law's search reads the
        # summand moments; the gaussian's runs on its summand steer and
        # reads the moment once, at p*
        law = request.getfixturevalue(name)
        ps, steered = [], []
        lp_norm, summand_steer = law.summand_lp_norm, law._summand_steer

        def recorded(n, B, p, *args, **kwargs):
            ps.append(p)
            return lp_norm(n, B, p, *args, **kwargs)

        def recorded_steer(c):
            steer = summand_steer(c)
            if steer is None:
                return None

            def log_moment(p):
                steered.append(p)
                return steer(p)

            return log_moment

        monkeypatch.setattr(law, "summand_lp_norm", recorded)
        monkeypatch.setattr(law, "_summand_steer", recorded_steer)
        pt = _power_tail_point(law, 16, 20.0)
        assert pt.arg_star < 500.0
        search = ps if name == "rad" else steered
        assert len(search) == len(set(search))
        assert 2.0 in search and 1000.0 not in search
        if name == "gauss":
            assert ps == [pt.arg_star]

    @pytest.mark.parametrize("name", ["gauss", "uni", "shifted exponential", "t5"])
    def test_steered_search_agrees_with_the_exact_search(self, name, request,
                                                         monkeypatch):
        # a density law's search runs on its summand steer and reads the
        # summand moment once, at p* (or at p = 1000 as well, were that
        # not ruled out); the exponent is that read, and it agrees with
        # the search on the moments themselves.  The t5 exponents run from
        # 0 to 2.4, the smallest positive one 0.016, so they are compared
        # absolutely: a relative 1e-12 is tighter than the p bracket
        if name == "shifted exponential":
            law = DensityLaw(lambda x: np.exp(-(x + 1.0)), support=(-1.0, math.inf))
        elif name == "t5":
            law = DensityLaw(t5_density)
        else:
            law = request.getfixturevalue(name)
        tol = {"rel": 0.0, "abs": 1e-12} if name == "t5" else {"rel": 1e-12}
        ps = []
        lp_norm = law.summand_lp_norm

        def recorded(n, B, p):
            ps.append(p)
            return lp_norm(n, B, p)

        monkeypatch.setattr(law, "summand_lp_norm", recorded)
        for n in (1, 4, 16, 64, 256):
            for B in DEFAULT_B_GRID:
                if B < E:
                    continue
                del ps[:]
                pt = _power_tail_point(law, n, B)
                if B * law.sigma2 <= E:
                    assert (pt.value, ps) == (1.0, [])
                    continue
                assert pt.arg_star in ps and set(ps) <= {pt.arg_star, 1000.0}
                assert len(ps) == len(set(ps))
                psi = replace(rosenthal_psi(law, n, B), steer=None)
                _, p_exact, exponent = _gls_tail_opt(psi, 1.0, B * law.sigma2)
                assert pt.objective == pytest.approx(exponent, **tol), (n, B)
                assert pt.arg_star == pytest.approx(p_exact, rel=1e-6), (n, B)

    @pytest.mark.parametrize("N", [2, 3, 5, 9, 17, 33, 65])
    def test_steered_certificate_agrees_with_the_exact_search(self, N,
                                                              monkeypatch):
        # the certificate steers by max(steer at c = B/sqrt(N), generator
        # at c = 0), and reads the summand moment at c once, at p*
        law = DensityLaw(lambda x: np.exp(-(x + 1.0)), support=(-1.0, math.inf))
        ps = []
        lp_norm = law.summand_lp_norm

        def recorded(n, B, p):
            if B > 0.0:
                ps.append(p)
            return lp_norm(n, B, p)

        for B in (3.0, 5.0, 20.0):
            del ps[:]
            with monkeypatch.context() as m:
                m.setattr(law, "summand_lp_norm", recorded)
                steered = _tail_certificate(law, N, B)
            assert len(ps) == 1, B
            with monkeypatch.context() as m:
                m.setattr(law, "_summand_steer", lambda c: None)
                exact = _tail_certificate(law, N, B)
            assert steered == pytest.approx(exact, rel=1e-12, abs=0.0), B

    def test_law_without_a_plan_keeps_the_exact_search(self):
        # E|summand|^1.5 diverges for the density 2/(pi*(1 + x^2)^2), so
        # it has no summand plan and no steer: its cells read the moments
        # at every probe, as before, bit for bit
        law = DensityLaw(lambda x: 2.0 / (math.pi * (1.0 + x * x) ** 2))
        for n, B in ((4, 3.0), (16, 20.0)):
            assert law._summand_steer(B / math.sqrt(n)) is None
            value, p, exponent = _gls_tail_opt(rosenthal_psi(law, n, B), 1.0,
                                               B * law.sigma2)
            assert _power_tail_point(law, n, B) == BoundPoint(B, value,
                                                              exponent, p)

    def test_no_moment_call_near_p_equal_one(self, monkeypatch):
        # p = 1 is a barrier of p/ln p itself: neither a cell nor the
        # certificate spends a moment evaluation next to it
        ps = []
        for law in (Rademacher(), StandardGaussian(), UniformSymmetric(SQRT3)):
            lp_norm = law.summand_lp_norm

            def recorded(n, B, p, *args, lp_norm=lp_norm, **kwargs):
                ps.append(p)
                return lp_norm(n, B, p, *args, **kwargs)

            monkeypatch.setattr(law, "summand_lp_norm", recorded)
            for n in (1, 16, 256):
                for B in (3.0, 20.0):
                    _power_tail_point(law, n, B)
                    _tail_certificate(law, n, B)
        assert ps and min(ps) >= 1.01

    def test_heavy_tail_works_around_divergence(self):
        # the summand moments end at p = 2.5, a barrier of the search; the
        # oracle minimizes the same exponent over moments from QUADPACK on
        # infinite pieces split at the summand's roots.  The threshold is
        # B*sigma^2 with sigma^2 = 5/3, and 4e5 simulated draws put
        # Q_16(5) near 1e-5, far below the bound
        law = DensityLaw(t5_density)
        n, B = 16, 5.0
        pt = _power_tail_point(law, n, B)
        c, s2 = B / math.sqrt(n), 5.0 / 3.0
        disc = math.sqrt(1.0 + 4.0 * c * c * s2)
        cuts = (-math.inf, (1.0 - disc) / (2.0 * c), 0.0, (1.0 + disc) / (2.0 * c),
                math.inf)

        def exponent(p):
            moment = sum(quad(lambda x: abs(x + c * (s2 - x * x)) ** p * t5_density(x),
                              a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for a, b in zip(cuts, cuts[1:]))
            return p * math.log(DEFAULT_KR * p / math.log(p) / (B * s2)) + math.log(moment)

        r = minimize_scalar(exponent, bounds=(1.0 + 1e-6, 2.49), method="bounded",
                            options={"xatol": 1e-12})
        assert pt.value == pytest.approx(math.exp(r.fun), rel=1e-9)
        assert pt.value == pytest.approx(0.98438245834080, rel=1e-9)
        assert 1.0 < pt.arg_star < 2.5

    def test_heavy_tail_l2_norm_is_finite(self):
        # t5 has E xi^2 = 5/3 and E xi^4 = 25, so the summand's L2 norm at
        # n = 16, B = 5 is sqrt(sigma^2 + B^2 * (E xi^4 - sigma^4) / n)
        law = DensityLaw(t5_density)
        exact = math.sqrt(5.0 / 3.0 + 25.0 * (25.0 - 25.0 / 9.0) / 16.0)
        assert law.summand_lp_norm(16, 5.0, 2.0) == pytest.approx(exact, rel=1e-9)


class TestUpperAboveExactQ1:
    """At n = 1 both upper bounds must dominate the exact tail LowerQ1, at
    every scale of the law: a tiny scale must not read as an impossible
    event."""

    SCALES = (1e-30, 1e-20, 1e-16, 1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6)
    B_GRID = (0.25, 0.5, 1.0, E, 5.0, 50.0)
    LAWS = {
        "uniform": UniformSymmetric,
        "skewed": lambda a: DiscreteLaw([(-a, 2.0 / 3.0), (2.0 * a, 1.0 / 3.0)]),
        "zero-atom": lambda a: DiscreteLaw([(-a, 0.25), (0.0, 0.5), (a, 0.25)]),
    }

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_scales(self, name):
        violations = []
        for a in self.SCALES:
            law = self.LAWS[name](a)
            exact = {pt.B: pt.value for pt in lower_q1_curve(law, self.B_GRID).points}
            for curve in (exp_curve(law, 1, self.B_GRID),
                          power_curve(law, 1, self.B_GRID)):
                violations += [(a, curve.family, pt.B, pt.value, exact[pt.B])
                               for pt in curve.points
                               if pt.value < exact[pt.B] * (1.0 - 1e-9)]
        assert violations == []


class TestLowerBounds:
    def test_gaussian_erf_oracle(self, gauss):
        for B in (1.0, 2.0, 100.0):
            expected = scipy_norm.cdf(1.0 / B) - 0.5
            assert q1(gauss, B) == pytest.approx(expected, rel=1e-8)

    def test_gaussian_inverse_scaling(self, gauss):
        assert 100.0 * q1(gauss, 100.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=0.01)

    def test_uniform_closed_form(self, uni):
        for B in (1.0, 2.0, 7.0, 50.0):
            assert q1(uni, B) == pytest.approx(
                1.0 / (2.0 * SQRT3 * B), rel=1e-10)

    def test_rademacher_atoms(self, rad):
        assert q1(rad, 2.0) == 0.0
        # at B = 1 the atom sits exactly at 1/B and T = B is not > B
        assert q1(rad, 1.0) == 0.0
        assert q1(rad, 0.5) == 0.5

    def test_exactness_at_n1(self, rad, gauss):
        # Q_1(B) = P(0 < xi < 1/B) exactly, cross-checked by enumeration
        assert q1(rad, 0.5) == rademacher_exact_tail(1, 0.5)
        assert q1(rad, 1.0) == rademacher_exact_tail(1, 1.0)

    def test_clt_reference_values(self, rad):
        ref, ref3 = lower_clt_curve(rad, [1.0, 3.0]).points
        assert ref.objective == pytest.approx(0.6065306597, rel=1e-8)
        assert ref.value == pytest.approx(0.15865525393, rel=1e-8)
        assert ref3.value == pytest.approx(0.0013498980, rel=1e-6)

    def test_clt_vanishes_at_infinity(self, rad):
        (ref,) = lower_clt_curve(rad, [40.0]).points
        assert ref.objective < 1e-300
        assert ref.value < 1e-300

    def test_clt_limit_uses_the_law_scale(self, rad):
        # T(n) of a*xi is T(n)/a, so the limit 1 - Phi(B*sigma) of the
        # law with sigma = 1/2 at B = 2 is the sign law's at B = 1
        half = DiscreteLaw([(-0.5, 0.5), (0.5, 0.5)])
        (ref,) = lower_clt_curve(half, [2.0]).points
        (ref1,) = lower_clt_curve(rad, [1.0]).points
        assert ref.value == ref1.value
        assert ref.objective == ref1.objective
        assert ref.value == pytest.approx(scipy_norm.sf(1.0), rel=1e-12)


class TestScanAndCurves:
    def test_integer_scan_dense_then_geometric(self):
        scan = integer_scan(1, 4096)
        assert scan[:64] == list(range(1, 65))
        assert scan[-1] == 4096
        assert all(b > a for a, b in zip(scan, scan[1:]))
        tail = [v for v in scan if v >= 64]
        assert all(b <= max(a + 1, round(a * 1.25)) for a, b in zip(tail, tail[1:]))

    def test_integer_scan_narrow(self):
        assert integer_scan(5, 5) == [5]
        assert integer_scan(100, 130) == [100, 125, 130]

    def test_exp_curve_sorted_points(self, rad):
        curve = exp_curve(rad, 4, [2.0, 0.5, 1.0])
        assert [pt.B for pt in curve.points] == [0.5, 1.0, 2.0]
        assert curve.family == "ExpLevel"

    def test_power_curve_only_valid_region(self, rad):
        curve = power_curve(rad, 4, [1.0, 2.0, E, 3.0])
        assert [pt.B for pt in curve.points] == [E, 3.0]


class TestNonIncreasingInB:
    """Q_n(B) never rises with B, and neither does any curve: a point
    above its predecessor carries the predecessor's value."""

    LAWS = {
        "two-atom": DiscreteLaw([(-1.0, 0.6666666666666666),
                                 (2.0, 0.3333333333333334)]),
        "empirical": DiscreteLaw.from_sample(
            np.random.default_rng(0).exponential(size=300)),
    }

    @pytest.mark.parametrize("n", [1, 4, 16, (1, 4096)])
    @pytest.mark.parametrize("curve_fn", [exp_curve, power_curve])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_every_curve_non_increasing(self, law, curve_fn, n):
        curve = curve_fn(self.LAWS[law], n, DEFAULT_B_GRID)
        for prev, pt in zip(curve.points, curve.points[1:]):
            assert pt.value <= prev.value, (pt.B, pt.value, prev.value)

    def test_carried_point_keeps_only_the_objective(self):
        # the sup cell at B = 50 reads 2.10e-8 against 7.23e-13 at B = 20
        low, high = exp_curve(self.LAWS["two-atom"], (1, 4096), [20.0, 50.0]).points
        assert low.value == pytest.approx(7.23e-13, rel=1e-3)
        assert high.value == low.value
        assert (high.objective, high.arg_star, high.n_star) == (
            low.objective, None, None)

    def test_power_cells_carried_at_n16(self):
        pts = power_curve(self.LAWS["empirical"], 16, [E, 5.0, 20.0]).points
        assert pts[0].arg_star > 1.0
        assert [pt.value for pt in pts] == [pts[0].value] * 3
        assert all(pt.arg_star is None for pt in pts[1:])
