"""Headline tail bounds against enumeration, closed forms, and grid oracles."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln
from scipy.stats import norm as scipy_norm

from selfnorm.bounds import (DEFAULT_B_GRID, exp_curve, lower_clt_curve,
                             lower_q1_curve, power_curve, rosenthal_psi,
                             sum_cgf)
from selfnorm.bounds import _exp_tail_point, _power_tail_point, _tail_certificate
from selfnorm.distributions import (DensityLaw, DiscreteLaw, DivergentError,
                                    Rademacher, StandardGaussian,
                                    UniformSymmetric)

E = math.e
SQRT3 = math.sqrt(3.0)


def lncosh(x):
    a = abs(x)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def lncosh_conjugate(s):
    return (1 + s) / 2 * math.log(1 + s) + (1 - s) / 2 * math.log(1 - s)


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
    return pt.value, int(pt.optimizer["n_star"])


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
                n * lncosh(th / math.sqrt(n)), rel=1e-12)

    def test_gaussian_value(self, gauss):
        expected = 1.0 - 0.5 * math.log(3.0) + 1.0 / 6.0
        assert sum_cgf(gauss, 1, 1.0, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_divergence_propagates(self, gauss):
        # theta large enough that B*theta/n crosses the MGF domain: never
        # happens for positive B, so force it with a negative quadratic slot
        assert gauss.log_mgf2(0.0, -1.0) == math.inf


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
        # sigma^2 = 4/3 here: the exponent must be the conjugate at B*sigma^2
        law = UniformSymmetric(2.0)
        n, B = 3, 1.5
        pt = _exp_tail_point(law, n, B)
        target = B * law.sigma2

        def neg(th):
            return -(th * target - sum_cgf(law, n, B, th))

        r = minimize_scalar(neg, bounds=(1e-9, 50.0), method="bounded",
                            options={"xatol": 1e-12})
        assert pt.optimizer["objective"] == pytest.approx(-r.fun, rel=1e-8)

    def test_value_in_unit_interval(self, gauss):
        for B in DEFAULT_B_GRID:
            assert 0.0 <= _exp_tail_point(gauss, 4, B).value <= 1.0

    def test_rejects_nonpositive_threshold(self, gauss):
        with pytest.raises(ValueError):
            _exp_tail_point(gauss, 4, 0.0)


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
                target = B * law.sigma2

                def neg(th):
                    c = sum_cgf(law, n, B, th)
                    return math.inf if c == math.inf else c - th * target

                r = minimize_scalar(
                    neg, bounds=(0.0, 2.0 * pt.optimizer["theta_star"] + 1.0),
                    method="bounded", options={"xatol": 1e-12})
                oracle = min(1.0, math.exp(min(r.fun, 0.0)))
                assert pt.value == pytest.approx(oracle, rel=1e-9), (n, B)
            assert sum(finite_calls) / len(finite_calls) <= 20.0, n

    def test_zero_variance_summand_stays_impossible(self):
        # sqrt(n)*xi + B*(sigma^2 - xi^2) vanishes on both atoms at n = B = 1
        law = DiscreteLaw([(-1.0, 0.6666666666666666), (2.0, 0.3333333333333334)])
        assert law.summand_variance(1, 1.0) == pytest.approx(
            0.0, abs=1e-12)
        assert _exp_tail_point(law, 1, 1.0).value == 0.0

    def test_heavy_tail_reaches_interior_maximum(self):
        # fourth moment infinite: the start falls back to theta = B, and a
        # spurious quadrature failure near theta = 0 must not end the search
        def density(x):
            return 2.0 / (math.pi * (1.0 + x * x) ** 2)

        law = DensityLaw(density)
        n, B = 16, 1.0
        pt = _exp_tail_point(law, n, B)
        assert pt.value < 0.7
        theta = pt.optimizer["theta_star"]
        l1, l2 = theta / math.sqrt(n), B * theta / n

        def integrand(x):
            return density(x) * math.exp(l1 * x + l2 * (law.sigma2 - x * x))

        peak = l1 / (2.0 * l2)
        mgf = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                  for a, b in ((-math.inf, 0.0), (0.0, peak), (peak, math.inf)))
        assert sum_cgf(law, n, B, theta) == pytest.approx(n * math.log(mgf),
                                                          rel=1e-8)
        assert pt.optimizer["objective"] == pytest.approx(
            theta * B * law.sigma2 - n * math.log(mgf), rel=1e-8)


class TestExpTailSupport:
    """Cells settled by T(n) <= sqrt(n)/m for atomic laws, with no search."""

    def test_beyond_support_costs_no_log_mgf(self, monkeypatch):
        law = Rademacher()
        calls = [0]
        log_mgf2 = law.log_mgf2

        def counted(*args, **kwargs):
            calls[0] += 1
            return log_mgf2(*args, **kwargs)

        monkeypatch.setattr(law, "log_mgf2", counted)
        for n in (1, 4, 16, 64):
            for B in DEFAULT_B_GRID:
                if B <= math.sqrt(n):
                    continue
                calls[0] = 0
                pt = _exp_tail_point(law, n, B)
                assert calls[0] == 0, (n, B)
                assert pt.value == 0.0
                assert pt.optimizer == {"theta_star": math.inf,
                                        "objective": math.inf,
                                        "reason": "support"}
                if n <= 16:
                    assert rademacher_exact_tail(n, B) == 0.0

    def test_boundary_goes_through_the_search(self, rad):
        # B = sqrt(n) exactly: T(n) > B is still impossible, but only the
        # strict inequality is settled by support; Chernoff stays positive
        pt = _exp_tail_point(rad, 4, 2.0)
        assert pt.value > 0.0
        assert "reason" not in pt.optimizer

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

    def test_cap_reason_without_support_argument(self):
        # T(1) = 1/xi is -1 or 1/2 here, so T(1) > 1 is impossible but no
        # support argument sees it: the objective still grows at the cap,
        # and the bound read there underflows to 0
        law = DiscreteLaw([(-1.0, 0.6666666666666666), (2.0, 0.3333333333333334)])
        pt = _exp_tail_point(law, 1, 1.0)
        assert pt.value == 0.0
        assert pt.optimizer["theta_star"] == 1e-8 * 2.0 ** 63
        assert "reason" not in pt.optimizer

    def test_density_laws_never_settled_by_support(self, gauss):
        assert gauss.min_abs_atom == 0.0
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
            assert "n_star" not in pt.optimizer

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
            assert table[int(pt.optimizer["n_star"])] == pt.value


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
            assert cells[int(pt.optimizer["n_star"]) - 1] == pt.value

    @pytest.mark.parametrize("law", [
        Rademacher(), StandardGaussian(), UniformSymmetric(SQRT3),
        DiscreteLaw([(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)])])
    def test_efron_non_increasing_in_N(self, law):
        # below B = e the certificate is the Efron bound alone
        assert law.symmetric
        for B in (0.5, 1.0, 2.5):
            tails = [_tail_certificate(law, N, B)
                     for N in (1, 2, 3, 5, 16, 100, 1000, 10 ** 5)]
            assert all(b <= a for a, b in zip(tails, tails[1:])), B
            assert tails[-1] >= math.exp(-B * B * law.sigma2 / 2.0) * (1 - 1e-12)

    def test_efron_gaussian_closed_form(self, gauss):
        # E exp(-u*xi^2) = (1 + 2u)^(-1/2), so the bound is (1 + B^2/N)^(-N/2)
        for B, N in ((0.5, 1), (1.0, 7), (2.5, 64), (2.5, 4096)):
            assert _tail_certificate(gauss, N, B) == pytest.approx(
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
        tail = _tail_certificate(law, N, B)
        assert tail < 1.0
        for n in (N, 2 * N, 8 * N):
            assert tail >= _power_tail_point(law, n, B).value, n

    def test_asymmetric_small_B_without_certificate(self):
        law = DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)])
        assert _tail_certificate(law, 64, 2.0) == 1.0
        (pt,) = exp_curve(law, (1, 4096), [2.0]).points
        assert pt.value == 1.0 and "n_star" not in pt.optimizer


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
            assert "p_star" in pt.optimizer
            assert math.isfinite(pt.optimizer["p_star"])
            assert pt.optimizer["p_star"] > 1.0

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
                    exponent, bounds=(1.0 + 1e-6, 2.0 * pt.optimizer["p_star"] + 1.0),
                    method="bounded", options={"xatol": 1e-12})
                assert pt.optimizer["objective"] == pytest.approx(
                    max(-r.fun, 0.0), rel=1e-9), (n, B)
        assert sum(cell_calls) / len(cell_calls) <= 25.0

    @pytest.mark.parametrize("name", ["rad", "gauss"])
    def test_no_repeated_or_ruled_out_moment_calls(self, name, request,
                                                   monkeypatch):
        # the search starts at p = 2, and the top of the support
        # (p_cap = 1000) is ruled out by a finite probe above p* (p* is
        # far below it on this cell)
        law = request.getfixturevalue(name)
        ps = []
        lp_norm = law.summand_lp_norm

        def recorded(n, B, p, *args, **kwargs):
            ps.append(p)
            return lp_norm(n, B, p, *args, **kwargs)

        monkeypatch.setattr(law, "summand_lp_norm", recorded)
        pt = _power_tail_point(law, 16, 20.0)
        assert pt.optimizer["p_star"] < 500.0
        assert len(ps) == len(set(ps))
        assert 2.0 in ps and 1000.0 not in ps

    def test_heavy_tail_works_around_divergence(self):
        # the threshold is B*sigma^2 with sigma^2 = 5/3; a 1e6-trial
        # simulation puts Q_16(5) far below this value
        law = DensityLaw(t5_density)
        pt = _power_tail_point(law, 16, 5.0)
        reference = 0.27429682231511837
        assert reference * (1.0 - 1e-9) <= pt.value <= reference * (1.0 + 1e-6)
        assert 1.0 < pt.optimizer["p_star"] < 2.5

    @pytest.mark.xfail(strict=True, raises=DivergentError,
                       reason="QUADPACK's 'probably divergent' verdict is fatal "
                              "although t5 moments are finite below p = 2.5")
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
        assert ref.optimizer["objective"] == pytest.approx(0.6065306597, rel=1e-8)
        assert ref.value == pytest.approx(0.15865525393, rel=1e-8)
        assert ref3.value == pytest.approx(0.0013498980, rel=1e-6)

    def test_clt_vanishes_at_infinity(self, rad):
        (ref,) = lower_clt_curve(rad, [40.0]).points
        assert ref.optimizer["objective"] < 1e-300
        assert ref.value < 1e-300

    def test_clt_limit_uses_the_law_scale(self, rad):
        # T(n) of a*xi is T(n)/a, so the limit 1 - Phi(B*sigma) of the
        # law with sigma = 1/2 at B = 2 is the sign law's at B = 1
        half = DiscreteLaw([(-0.5, 0.5), (0.5, 0.5)])
        (ref,) = lower_clt_curve(half, [2.0]).points
        (ref1,) = lower_clt_curve(rad, [1.0]).points
        assert ref.value == ref1.value
        assert ref.optimizer["objective"] == ref1.optimizer["objective"]
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
