"""Norm calculus against closed forms and dense-grid oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm as scipy_norm

from selfnorm.distributions import (DiscreteLaw, DivergentError, Rademacher,
                                    StandardGaussian, UniformSymmetric)
from selfnorm.gls import (PsiFunction, _NORM_ROUND_UP, _gls_tail_opt,
                          _tail_value, bphi_norm, bphi_tail_bound, degenerate_psi,
                          gls_norm, gls_tail_bound, natural_phi, power_phi,
                          power_psi)

E = math.e


def lncosh(x):
    a = abs(x)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def gauss_abs_moment_norm(p):
    # |xi|_p for the standard normal: (2^{p/2} Gamma((p+1)/2)/sqrt(pi))^{1/p}
    return math.exp((0.5 * p * math.log(2.0) + math.lgamma((p + 1.0) / 2.0)
                     - 0.5 * math.log(math.pi)) / p)


def dense_min_exponent(psi_fn, y, lo, hi, n=200001):
    # independent oracle: dense grid minimization of p*ln(psi(p)/y)
    grid = np.geomspace(lo, hi, n)
    vals = np.array([p * (math.log(psi_fn(p)) - math.log(y)) for p in grid])
    return float(vals.min())


class TestTailValue:
    """exp(-exponent) as an upper bound: a finite exponent never reads 0."""

    def test_normal_range_is_plain_exp(self):
        for exponent in (0.0, 1.5, 700.0, 708.0):
            assert _tail_value(exponent) == math.exp(-exponent)

    def test_subnormal_and_underflow_round_up(self):
        for exponent in (710.0, 720.0, 745.0, 754.3, 1e11):
            value = _tail_value(exponent)
            assert value == math.nextafter(math.exp(-exponent), math.inf)
            assert value > 0.0

    def test_impossible_event_reads_zero(self):
        assert _tail_value(math.inf) == 0.0

    def test_both_tail_routes_floor_an_underflow(self):
        # (sqrt(p)/1000)^p at the search's cap p = 1000: exponent 3454;
        # exp(-50^2/2): exponent 1250
        assert 0.0 < gls_tail_bound(power_psi(2.0), 1.0, 1000.0) <= 1e-320
        assert 0.0 < bphi_tail_bound(power_phi(2.0), 1.0, 50.0) <= 1e-320


class TestGlsTailBound:
    @pytest.mark.parametrize("r", [2.0, 4.0, 7.5])
    @pytest.mark.parametrize("ratio", [3.0, 10.0, 100.0])
    def test_markov_recovery_exact(self, r, ratio):
        K = 1.7
        y = ratio * K
        got = gls_tail_bound(degenerate_psi(r), K, y)
        assert got == pytest.approx((K / y) ** r, rel=1e-12)

    def test_clamps_below_scale(self):
        # below y = e*norm the bound is still the optimized Markov bound:
        # (norm/y)^r for the degenerate generator, and exp(-1/(0.32*e)) at
        # p* = 1/(0.16*e) for sqrt(p) with norm/y = 0.4; it clamps only
        # where every Markov bound exceeds 1
        assert gls_tail_bound(degenerate_psi(4.0), 1.0, E) == pytest.approx(
            0.01831563888873418, rel=1e-12)
        assert gls_tail_bound(power_psi(2.0), 2.0, 5.0) == pytest.approx(
            0.316756083597, rel=1e-9)
        assert gls_tail_bound(power_psi(2.0), 2.0, 5.0) == pytest.approx(
            math.exp(-1.0 / (0.32 * E)), rel=1e-9)
        assert gls_tail_bound(degenerate_psi(4.0), 1.0, 0.5) == 1.0

    def test_single_point_support_is_plain_markov(self):
        # r = 1 degenerates to the first-moment bound K/y
        assert gls_tail_bound(degenerate_psi(1.0), 2.0, 20.0) == pytest.approx(
            0.1, rel=1e-12)

    def test_sqrt_p_generator_golden(self):
        # oracle: dense grid over p, analytic minimum exp(-y^2/(2e)) at p=y^2/e
        # p* = 100/e = 36.8, well inside the search's p <= 1000
        got = gls_tail_bound(power_psi(2.0), 1.0, 10.0)
        oracle = math.exp(dense_min_exponent(lambda p: math.sqrt(p), 10.0,
                                             1.0, 1000.0))
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got == pytest.approx(math.exp(-100.0 / (2.0 * E)), rel=1e-6)

    def test_outputs_in_unit_interval(self):
        for y in (0.1, 1.0, 3.0, 30.0, 1e6):
            v = gls_tail_bound(power_psi(2.0), 1.0, y)
            assert 0.0 <= v <= 1.0

    def test_nonincreasing_in_y(self):
        ys = np.geomspace(3.0, 300.0, 40)
        vals = [gls_tail_bound(power_psi(2.0), 1.0, y) for y in ys]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_divergence_barrier_inside_support(self):
        # psi = sqrt(p) diverges from p = 3 on: the unconstrained minimum
        # p = y^2/e lies beyond, so the bound sits at the barrier's edge
        psi = PsiFunction(lambda p: math.sqrt(p) if p < 3.0 else math.inf)
        value, p, _ = _gls_tail_opt(psi, 1.0, 10.0)
        assert 2.99 < p < 3.0
        assert value == pytest.approx((math.sqrt(3.0) / 10.0) ** 3, rel=1e-4)
        assert value >= (math.sqrt(3.0) / 10.0) ** 3

    def test_steer_finds_p_and_the_generator_gives_the_value(self):
        # a steer equal to the generator finds the generator's own p,
        # where the generator is read once, and the value is that read
        ps = []

        def fn(p):
            ps.append(p)
            return math.sqrt(p)

        got = _gls_tail_opt(PsiFunction(fn, steer=math.sqrt), 1.0, 10.0)
        assert got == _gls_tail_opt(PsiFunction(math.sqrt), 1.0, 10.0)
        assert ps == [got[1]]

    def test_steer_keeps_the_top_of_the_support(self):
        # a linear exponent has its minimum at the top of the support,
        # which the generator is read at too
        psi = degenerate_psi(4.0)
        got = _gls_tail_opt(replace(psi, steer=lambda p: 1.0), 1.7, 17.0)
        assert got == _gls_tail_opt(psi, 1.7, 17.0)
        assert got[1] == 4.0

    def test_steer_past_a_barrier_of_the_generator_reruns_the_search(self):
        # the steer's best p, 100/e, is a barrier of the generator, which
        # is finite below p = 3 only: the search runs again on the
        # generator
        psi = PsiFunction(lambda p: math.sqrt(p) if p < 3.0 else math.inf)
        assert _gls_tail_opt(replace(psi, steer=math.sqrt), 1.0, 10.0) \
            == _gls_tail_opt(psi, 1.0, 10.0)

    def test_nowhere_finite_generator_gives_one(self):
        psi = PsiFunction(lambda p: math.inf)
        assert _gls_tail_opt(psi, 1.0, 10.0) == (1.0, None, 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gls_tail_bound(power_psi(2.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            gls_tail_bound(power_psi(2.0), 1.0, -1.0)
        with pytest.raises(ValueError, match="empty generator support"):
            gls_tail_bound(PsiFunction(lambda p: 1.0, b=0.5), 1.0, 3.0)


class TestGlsNorm:
    def test_ratio_identically_one(self):
        psi = power_psi(2.0)
        assert gls_norm(psi.fn, psi) == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_returns_endpoint_moment(self):
        law = StandardGaussian()
        got = gls_norm(law.lp_norm, degenerate_psi(4.0))
        assert got == pytest.approx(law.lp_norm(4.0), rel=1e-9)

    def test_gaussian_vs_sqrt_p(self):
        # oracle: dense grid of the closed-form moment curve over [1, 256];
        # the ratio is maximal at p = 1 where it equals sqrt(2/pi)
        law = StandardGaussian()
        got = gls_norm(law.lp_norm, power_psi(2.0))
        grid = np.geomspace(1.0, 256.0, 20001)
        oracle = max(gauss_abs_moment_norm(p) / math.sqrt(p) for p in grid)
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-6)

    @pytest.mark.parametrize("r", [300.0, 1000.0])
    def test_degenerate_norm_past_256(self, r):
        # the norm scans p as far as the tail searches it
        law = StandardGaussian()
        got = gls_norm(law.lp_norm, degenerate_psi(r))
        assert got == pytest.approx(law.lp_norm(r), rel=1e-9)

    def test_degenerate_tail_above_true_tail(self):
        law = StandardGaussian()
        psi = degenerate_psi(1000.0)
        tail = gls_tail_bound(psi, gls_norm(law.lp_norm, psi), 27.0)
        assert tail >= 2.0 * scipy_norm.sf(27.0)

    def test_unbounded_detection(self):
        with pytest.raises(DivergentError):
            gls_norm(lambda p: p, power_psi(2.0))
        # a moment curve that is infinite everywhere has no norm either
        with pytest.raises(DivergentError):
            gls_norm(lambda p: math.inf, power_psi(2.0))


class TestBphiNorm:
    def test_gaussian_self_norm(self):
        phi2 = lambda lam: lam * lam / 2.0
        assert bphi_norm(lambda lam: lam * lam / 2.0, phi2) == pytest.approx(
            1.0, abs=1e-6)

    def test_rademacher_against_subgaussian(self):
        # the ratio's sup 1 is its limit as lambda -> 0, below the grid:
        # the norm extrapolates to it from two grid ratios
        phi2 = lambda lam: lam * lam / 2.0
        got = bphi_norm(lncosh, phi2)
        assert 1.0 <= got <= 1.0 + 1e-5

    def test_rademacher_norm_not_below_its_grid_sup(self):
        # the ratio is 0.99999992 at lambda = 1e-3 (ln cosh = lambda^2/2
        # - lambda^4/12 there), so the norm may not read below that
        assert bphi_norm(lncosh, lambda lam: lam * lam / 2.0) >= 0.99999991

    def test_zero_variable(self):
        phi2 = lambda lam: lam * lam / 2.0
        assert bphi_norm(lambda lam: 0.0, phi2) == 0.0

    def test_unbounded_when_majorant_too_weak(self):
        # gaussian MGF grows like lam^2 but the majorant only linearly
        with pytest.raises(DivergentError):
            bphi_norm(lambda lam: lam * lam / 2.0, lncosh)

    def test_mgf_beyond_the_majorant_range(self):
        # log1p(|lam|) never reaches lam^2/2 once lam is large
        with pytest.raises(DivergentError, match="majorant range exceeded"):
            bphi_norm(lambda lam: lam * lam / 2.0,
                      lambda lam: math.log1p(abs(lam)))

    def test_divergent_log_mgf(self):
        with pytest.raises(DivergentError, match="log-MGF diverges"):
            bphi_norm(lambda lam: math.inf if abs(lam) > 1.0 else lam * lam / 2.0,
                      power_phi(2.0))

    def test_builtin_laws_dominated_tails(self):
        # norm then tail must dominate the true two-sided tail max
        phi2 = lambda lam: lam * lam / 2.0
        cases = []
        rad = Rademacher()
        cases.append((rad, lambda u: 0.5 if u <= 1.0 else 0.0))
        gau = StandardGaussian()
        cases.append((gau, lambda u: float(scipy_norm.sf(u))))
        uni = UniformSymmetric(math.sqrt(3.0))
        a = math.sqrt(3.0)
        cases.append((uni, lambda u: max(a - u, 0.0) / (2.0 * a)))
        for law, true_tail in cases:
            for phi in (phi2 if law is not uni else natural_phi(law),
                        natural_phi(law)):
                tau = bphi_norm(lambda lam: law.log_mgf2(lam, 0.0), phi)
                for u in (0.5, 1.0, 2.0, 3.0):
                    assert bphi_tail_bound(phi, tau, u) >= true_tail(u) - 1e-12


class TestBphiTailBound:
    def test_subgaussian_exact(self):
        phi2 = lambda lam: lam * lam / 2.0
        for u in (0.5, 1.0, 2.0, 5.0):
            assert bphi_tail_bound(phi2, 1.0, u) == pytest.approx(
                math.exp(-u * u / 2.0), rel=1e-9)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_power_family_conjugate(self, m):
        mp = m / (m - 1.0)
        K = 2.0
        for u in (6.0, 10.0, 25.0):
            expected = math.exp(-((u / K) ** mp) / mp)
            assert bphi_tail_bound(power_phi(m), K, u) == pytest.approx(
                expected, rel=1e-6)

    def test_zero_threshold(self):
        assert bphi_tail_bound(power_phi(2.0), 1.0, 0.0) == 1.0

    def test_zero_norm(self):
        # a variable of norm 0 is 0: it never reaches a positive threshold
        for u in (1e-300, 1.0, 50.0):
            assert bphi_tail_bound(power_phi(2.0), 0.0, u) == 0.0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bphi_tail_bound(power_phi(2.0), 1.0, -1.0)

    def test_nonincreasing_in_u(self):
        us = np.linspace(0.0, 10.0, 50)
        vals = [bphi_tail_bound(power_phi(2.0), 1.0, u) for u in us]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain_limited_majorant(self):
        # phi finite only on [0, 1): conjugate exists, tail still in [0,1]
        phi = (lambda lam: lam * lam / (1.0 - lam * lam)
               if abs(lam) < 1.0 else math.inf)
        v = bphi_tail_bound(phi, 1.0, 4.0)
        assert 0.0 < v < 1.0

    def test_consistency_of_the_two_tail_routes(self):
        # same variable seen through the subgaussian majorant and through
        # the sqrt(p) moment generator: exponents differ by at most a
        # bounded factor, compared as exponents; p* = y^2/e <= 920 stays
        # under the search's cap p = 1000
        from selfnorm.convex import fenchel
        from selfnorm.gls import _gls_tail_opt

        psi = power_psi(2.0)
        for y in np.geomspace(E * 1.001, 50.0, 25):
            lb = fenchel(lambda lam: lam * lam / 2.0, y)
            lg = _gls_tail_opt(psi, 1.0, y)[2]
            assert lg > 0.0
            assert 1.0 / 3.0 <= lb / lg <= 3.0


class TestNaturalMajorant:
    """A law's own symmetrized log-MGF has norm 1, read with the round-up
    every norm carries; its Chernoff tail meets the exact tail at the
    atoms, so the round-up alone keeps it above."""

    LAWS = {
        "signs": Rademacher(),
        "skewed2": DiscreteLaw([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)]),
        "skewed3": DiscreteLaw.from_sample([-1.3, -1.3, 0.7, 0.7, 0.7, 2.9]),
        "lazy3": DiscreteLaw([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
        "exp300": DiscreteLaw.from_sample(
            np.random.default_rng(7).exponential(size=300)),
    }

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_tail_not_below_the_exact_tail(self, name):
        law = self.LAWS[name]
        xs, ps = law._values, law._probs
        phi = natural_phi(law)
        for u in {*np.abs(xs).tolist(), 0.25, 0.5, 1.0, 1.5}:
            exact = max(ps[xs >= u].sum(), ps[xs <= -u].sum())
            assert bphi_tail_bound(phi, _NORM_ROUND_UP, u) >= exact, u
