"""Law construction and the moment primitives against closed-form oracles.

The standard gaussian's log-MGF, Lp norms, quadratic moments and
single-observation tail are closed forms themselves, so each gaussian
oracle check runs on two laws: ``StandardGaussian`` (a pin of its closed
form) and a ``DensityLaw`` of the normal pdf (the quadrature under test).
The uniform's checks likewise run on ``UniformSymmetric`` and a box
``DensityLaw`` of the same half width.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from selfnorm import distributions
from selfnorm.bounds import (DEFAULT_B_GRID, _power_tail_point, exp_curve,
                             lower_q1_curve, power_curve)
from selfnorm.distributions import (DensityLaw, DiscreteLaw, DistributionModel,
                                    DivergentError, Rademacher,
                                    StandardGaussian, UniformSymmetric,
                                    _QuadratureLaw, parse_distribution)

SQRT3 = math.sqrt(3.0)


def gauss_log_mgf2(l1, l2):
    # ln E exp(l1*xi - l2*xi^2) for the standard normal at l2 > -1/2
    return -0.5 * math.log(1.0 + 2.0 * l2) + l1 * l1 / (2.0 * (1.0 + 2.0 * l2))


def normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@pytest.fixture(scope="module")
def laws():
    return {
        "rademacher": Rademacher(),
        "gaussian": StandardGaussian(),
        "uniform": UniformSymmetric(SQRT3),
    }


@pytest.fixture(scope="module")
def gaussians(laws):
    """The closed-form gaussian, and the normal pdf through quadrature."""
    return laws["gaussian"], DensityLaw(normal_pdf, name="normal pdf")


@pytest.fixture(scope="module")
def uniforms():
    """By half width a: the closed-form uniform on [-a, a], and its box
    density through quadrature."""
    pairs = {}

    def pair(a):
        if a not in pairs:
            pairs[a] = (UniformSymmetric(a),
                        DensityLaw(lambda x: 0.5 / a, support=(-a, a),
                                   name=f"box a={a:g}"))
        return pairs[a]

    return pair


class TestLpNorm:
    def test_rademacher_any_p(self, laws):
        for p in (1.0, 2.5, 7.0, 64.0):
            assert laws["rademacher"].lp_norm(p) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_p2_and_p4(self, laws):
        assert laws["gaussian"].lp_norm(2.0) == pytest.approx(1.0, rel=1e-9)
        assert laws["gaussian"].lp_norm(4.0) == pytest.approx(3 ** 0.25, rel=1e-9)

    def test_gaussian_large_p_log_stable(self, laws):
        # closed form (2^{p/2} Gamma((p+1)/2)/sqrt(pi))^{1/p}
        p = 900.0
        expected = math.exp((0.5 * p * math.log(2.0)
                             + math.lgamma((p + 1) / 2)
                             - 0.5 * math.log(math.pi)) / p)
        assert laws["gaussian"].lp_norm(p) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform"])
    def test_nondecreasing_in_p(self, laws, name):
        grid = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0]
        vals = [laws[name].lp_norm(p) for p in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_p_below_one_rejected(self, laws):
        with pytest.raises(ValueError):
            laws["gaussian"].lp_norm(0.5)
        with pytest.raises(ValueError, match="p must be >= 1"):
            UniformSymmetric(1.0).lp_norm(0.5)
        with pytest.raises(ValueError, match="p must be >= 1"):
            UniformSymmetric(1.0).summand_lp_norm(4, 1.0, 0.5)


class TestLogMgf2:
    @pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform"])
    def test_zero_at_origin(self, laws, name):
        assert laws[name].log_mgf2(0.0, 0.0) == 0.0

    def test_rademacher_quadratic_slot_is_minus_l2(self, laws):
        # xi^2 = 1 on both atoms: K(l1, l2) = ln cosh(l1) - l2
        for l1, l2 in [(0.3, 5.0), (0.7, 0.0), (2.0, 13.0), (-1.1, 2.0)]:
            expected = (abs(l1) + math.log1p(math.exp(-2 * abs(l1))) - math.log(2)
                        - l2)
            assert laws["rademacher"].log_mgf2(l1, l2) == pytest.approx(
                expected, abs=1e-12)

    def test_gaussian_closed_form(self, gaussians):
        for law in gaussians:
            for l1, l2 in [(0.0, 0.5), (1.0, 1.0), (2.0, 0.1), (0.5, 0.3),
                           (100.0, 5000.0)]:
                assert law.log_mgf2(l1, l2) == pytest.approx(
                    gauss_log_mgf2(l1, l2), rel=1e-8, abs=1e-9)

    def test_gaussian_divergence(self, laws):
        # the gaussian MGF diverges only at l2 <= -1/2, outside the domain
        for l1, l2 in [(0.0, -0.5), (1.0, -2.0)]:
            with pytest.raises(ValueError, match="l2 must be >= 0"):
                laws["gaussian"].log_mgf2(l1, l2)

    def test_l2_outside_the_domain_raises(self, laws, gaussians, uniforms):
        every_law = [*laws.values(), DiscreteLaw([(-1.0, 0.75), (3.0, 0.25)]),
                     gaussians[1], uniforms(SQRT3)[1]]
        for law in every_law:
            for l2 in (-1e-300, -0.5, math.nan):
                with pytest.raises(ValueError, match="l2 must be >= 0"):
                    law.log_mgf2(1.0, l2)

    @pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform"])
    def test_small_argument_quadratic(self, laws, name):
        law = laws[name]
        for l1 in (1e-2, -1e-2, 3e-3):
            err = abs(law.log_mgf2(l1, 0.0) - law.sigma2 * l1 * l1 / 2.0)
            assert err <= 1e-3 * l1 * l1

    @settings(max_examples=30, deadline=None)
    @given(a1=st.floats(-3, 3), a2=st.floats(0, 3),
           b1=st.floats(-3, 3), b2=st.floats(0, 3))
    def test_gaussian_midpoint_convexity(self, gaussians, a1, a2, b1, b2):
        for law in gaussians:
            mid = law.log_mgf2((a1 + b1) / 2, (a2 + b2) / 2)
            assert mid <= (law.log_mgf2(a1, a2) + law.log_mgf2(b1, b2)) / 2 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(a1=st.floats(-20, 20), a2=st.floats(0, 20),
           b1=st.floats(-20, 20), b2=st.floats(0, 20))
    def test_rademacher_midpoint_convexity(self, a1, a2, b1, b2):
        law = Rademacher()
        mid = law.log_mgf2((a1 + b1) / 2, (a2 + b2) / 2)
        assert mid <= (law.log_mgf2(a1, a2) + law.log_mgf2(b1, b2)) / 2 + 1e-9


def t5_density(x):
    # Student t with 5 degrees of freedom: E|xi|^p finite for p < 5
    return 8.0 / (3.0 * math.sqrt(5.0) * math.pi) * (1.0 + x * x / 5.0) ** -3


class TestClosedFormOracles:
    """Density-law quadrature against closed forms, to the last digits."""

    @pytest.mark.parametrize("l1, l2", [
        (0.0, 0.5), (1.0, 1.0), (2.0, 0.1), (0.5, 0.3), (3.0, 0.2),
        (-1.5, 0.7), (100.0, 5000.0), (1e3, 1e3)])
    def test_gaussian_log_mgf2(self, gaussians, l1, l2):
        for law in gaussians:
            assert law.log_mgf2(l1, l2) == pytest.approx(
                gauss_log_mgf2(l1, l2), rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.5, 20.0, 64.0, 150.0, 300.0])
    def test_gaussian_lp_norm(self, gaussians, p):
        expected = math.exp((0.5 * p * math.log(2.0) + math.lgamma((p + 1) / 2)
                             - 0.5 * math.log(math.pi)) / p)
        for law in gaussians:
            assert law.lp_norm(p) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("a", [SQRT3, 2.5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.5, 20.0, 64.0, 300.0])
    def test_uniform_lp_norm(self, uniforms, a, p):
        for law in uniforms(a):
            assert law.lp_norm(p) == pytest.approx(
                a / (p + 1.0) ** (1.0 / p), rel=1e-13), law.name

    @pytest.mark.parametrize("s", [1e4, 1e8, 1e11])
    def test_sharp_peak_keeps_its_tails(self, gaussians, uniforms, s):
        # the integrand of log_mgf2(s, s) peaks at 1/2 with a standard
        # deviation of 1/sqrt(2s); the quadrature once lost up to a third
        # of its mass between the nodes of the piece past one deviation
        for closed, quadrature in (gaussians, uniforms(SQRT3)):
            assert quadrature.log_mgf2(s, s) == pytest.approx(
                closed.log_mgf2(s, s), rel=1e-13), (quadrature.name, s)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.5])
    def test_t5_lp_norm(self, p):
        # E|T_nu|^p = nu^(p/2) Gamma((p+1)/2) Gamma((nu-p)/2) / (sqrt(pi) Gamma(nu/2));
        # at p = 4.5 a share 2e-6 of the moment lies past 2^40 sigma
        nu = 5.0
        log_moment = (0.5 * p * math.log(nu) + math.lgamma((p + 1) / 2)
                      + math.lgamma((nu - p) / 2) - 0.5 * math.log(math.pi)
                      - math.lgamma(nu / 2))
        assert DensityLaw(t5_density).lp_norm(p) == pytest.approx(
            math.exp(log_moment / p), rel=1e-9)

    def test_divergence(self, laws):
        # past l2 = -1/2 the gaussian MGF diverges, and the entry rejects
        # every l2 < 0
        for l2 in (-0.6, -0.5000001):
            with pytest.raises(ValueError, match="l2 must be >= 0"):
                laws["gaussian"].log_mgf2(1.0, l2)
        t5 = DensityLaw(t5_density)
        # E|xi|^5 diverges logarithmically, the summand's 2.6th moment
        # like x^0.2
        for moment in (lambda: t5.lp_norm(5.0), lambda: t5.lp_norm(5.5),
                       lambda: t5.summand_lp_norm(16, 5.0, 2.6)):
            with pytest.raises(DivergentError):
                moment()


class TestGaussianClosedForms:
    """StandardGaussian's primitives on the bound paths need no quadrature."""

    def test_bound_paths_never_integrate(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the gaussian went through quadrature")

        monkeypatch.setattr(distributions, "_integrate", no_quadrature)
        law = StandardGaussian()
        cells = exp_curve(law, 16, DEFAULT_B_GRID).points
        assert all(0.0 < pt.value < 1.0 for pt in cells)
        # at B = 5 the sup row is settled by the Efron certificate, which
        # reads log_mgf2(0, u)
        (sup,) = exp_curve(law, (1, 4096), [5.0]).points
        assert sup.n_star == 1
        lower = lower_q1_curve(law, DEFAULT_B_GRID).points
        assert all(0.0 < pt.value < 0.5 for pt in lower)

    def test_log_mgf2_edges(self, laws):
        law = laws["gaussian"]
        with pytest.raises(ValueError, match="l2 must be >= 0"):
            law.log_mgf2(0.0, -0.5)
        # the peak of the integrand sits at x = 5e6: no quadrature needed
        assert law.log_mgf2(1e7, 0.5) == pytest.approx(
            2.5e13 - 0.5 * math.log(2.0), rel=1e-15)
        # -ln(1 + 2*l2)/2 = -l2 + l2^2 + O(l2^3): log1p keeps the l2^2
        # term, which ln(1 + 2*l2) would round away
        assert law.log_mgf2(0.0, 1e-8) == pytest.approx(-1e-8 + 1e-16,
                                                         rel=1e-15, abs=0.0)

    def test_log_mgf2_where_2_l2_overflows(self, laws):
        # d = 1 + 2*l2 is 2*l2 to the last bit: -ln(2*l2)/2, not -inf
        law = laws["gaussian"]
        for l2 in (1e308, sys.float_info.max):
            assert law.log_mgf2(3.0, l2) == pytest.approx(
                -0.5 * (math.log(2.0) + math.log(l2)), rel=1e-15)

    @pytest.mark.parametrize("l1", [0.0, math.inf])
    def test_log_mgf2_infinite_arguments_read_inf(self, gaussians, l1):
        # an infinite argument reads +inf in the public method, before
        # either hook is called
        for law in gaussians:
            assert law.log_mgf2(l1, math.inf) == math.inf, law.name

    def test_q1_against_scipy(self, gaussians):
        from scipy.stats import norm
        # 0.5 - sf(1/B) does not cancel for 1/B >= 1, and cdf(1/B) - 0.5
        # loses at most 1e-16 absolute below that
        for law in gaussians:
            for B in (0.01, 0.125, 0.5, 1.0):
                assert law.q1(B) == pytest.approx(
                    0.5 - norm.sf(1.0 / B), rel=1e-12, abs=0.0), (law.name, B)
            for B in (math.e, 10.0, 100.0):
                assert law.q1(B) == pytest.approx(
                    norm.cdf(1.0 / B) - 0.5, rel=1e-12, abs=0.0), (law.name, B)


def uniform_branch_points(a):
    """(l1, l2) points that reach each branch of the closed-form uniform
    log-MGF on [-a, a]; ``_log_k(g, h, L)`` integrates exp(-g*y - h*y^2)
    over [0, L]."""
    return {
        # peak inside at a/2: erfcx on both sides; Gauss-Legendre on both
        "inside": (10.0 / a, 10.0 / a ** 2),
        "inside, g*L + h*L^2 <= 1": (0.1 / a, 0.1 / a ** 2),
        # the far side's sqrt(h)*L = 150 takes erfcx's asymptotic series
        "inside, sharp": (1e4 / a, 1e4 / a ** 2),
        # peak at the edge: g = 2/a, then t0 = 30 in the asymptotic series
        "edge": (4.0 / a, 1.0 / a ** 2),
        "edge, asymptotic t0": (62.0 / a, 1.0 / a ** 2),
        "edge, g*L + h*L^2 <= 1": (0.22 / a, 0.1 / a ** 2),
        # h = 0: the expm1 form, and the Gauss-Legendre rule near 0
        "h = 0": (3.0 / a, 0.0),
        "h = 0, g*L <= 1": (0.1 / a, 0.0),
        # l1 = 0: the peak at the centre
        "l1 = 0": (0.0, 5.0 / a ** 2),
        "l1 = 0, h*L^2 <= 1": (0.0, 0.1 / a ** 2),
    }


class TestUniformClosedForms:
    """UniformSymmetric's log-MGF, Lp norms, quadratic moments and Q_1
    are closed forms; the box DensityLaw is their oracle."""

    @pytest.mark.parametrize("a", [0.01, SQRT3, 1e3])
    def test_log_mgf2_branches_match_quadrature(self, uniforms, a):
        closed, box = uniforms(a)
        for branch, (l1, l2) in uniform_branch_points(a).items():
            for sign in (1.0, -1.0):
                assert closed.log_mgf2(sign * l1, l2) == pytest.approx(
                    box.log_mgf2(sign * l1, l2), rel=1e-13), (a, branch, sign)

    def test_branch_points_reach_every_branch(self, monkeypatch):
        # each case of _log_k, and both sides of erfcx, is taken
        seen = set()
        log_k, erfcx = distributions._log_k, distributions._erfcx

        def spy_k(g, h, L):
            if g * L + h * L * L <= 1.0:
                seen.add("quadrature")
            else:
                seen.add("expm1" if h == 0.0 else "erfcx")
            return log_k(g, h, L)

        def spy_erfcx(x):
            seen.add("series" if x >= 26.0 else "erfc")
            return erfcx(x)

        monkeypatch.setattr(distributions, "_log_k", spy_k)
        monkeypatch.setattr(distributions, "_erfcx", spy_erfcx)
        law = UniformSymmetric(SQRT3)
        for l1, l2 in uniform_branch_points(SQRT3).values():
            law.log_mgf2(l1, l2)
        assert seen == {"quadrature", "expm1", "erfcx", "series", "erfc"}

    @pytest.mark.parametrize("l1, l2", [(0.3, 0.0), (2.0, 0.5), (40.0, 3.0),
                                        (1e-9, 1e-9), (1e6, 1e3)])
    def test_log_mgf2_symmetric_in_l1(self, laws, l1, l2):
        law = laws["uniform"]
        assert law.log_mgf2(-l1, l2) == law.log_mgf2(l1, l2)

    @pytest.mark.parametrize("l1, l2", [(0.0, -0.5), (1.0, -2.0), (-3.0, -0.01),
                                        (20.0, -40.0)])
    def test_negative_l2_matches_quadrature(self, uniforms, l1, l2):
        # l2 < 0 is outside the domain: the closed form and the box density
        # refuse it alike, and agree to the last digits at -l2
        closed, box = uniforms(SQRT3)
        for law in (closed, box):
            with pytest.raises(ValueError, match="l2 must be >= 0"):
                law.log_mgf2(l1, l2)
        assert closed.log_mgf2(l1, -l2) == pytest.approx(
            box.log_mgf2(l1, -l2), rel=1e-13)

    @pytest.mark.parametrize("a", [0.01, SQRT3, 1e3])
    def test_log_mgf2_is_nonnegative(self, a):
        # by Jensen, ln E exp(l1*xi) >= l1*E xi = 0; near l1 = 0 the
        # value is l1^2*sigma^2/2, below the rounding of its terms
        law = UniformSymmetric(a)
        for l1 in np.geomspace(1e-12, 1e6, 91) / a:
            assert law.log_mgf2(l1, 0.0) >= 0.0, l1
            assert law.log_mgf2(-l1, 0.0) >= 0.0, l1

    @pytest.mark.parametrize("l1, l2", [(math.inf, 0.0), (-math.inf, 1.0),
                                        (0.0, math.inf), (1.0, math.inf),
                                        (math.inf, math.inf)])
    def test_log_mgf2_infinite_arguments_read_inf(self, laws, l1, l2):
        assert laws["uniform"].log_mgf2(l1, l2) == math.inf

    @pytest.mark.parametrize("l1, l2", [(1e150, 5e-324), (1e300, 1e-20)])
    def test_log_mgf2_far_edge_peak(self, l1, l2):
        # erfcx's argument g/(2*sqrt(l2)) passes the largest float; the
        # quadratic slot is then negligible against l1
        law = UniformSymmetric(1.0)
        assert law.log_mgf2(l1, l2) == pytest.approx(law.log_mgf2(l1, 0.0),
                                                     rel=1e-15)

    def test_bound_paths_never_integrate(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the uniform went through quadrature")

        monkeypatch.setattr(distributions, "_integrate", no_quadrature)
        law = UniformSymmetric(SQRT3)
        cells = exp_curve(law, 16, DEFAULT_B_GRID).points
        assert all(0.0 < pt.value < 1.0 for pt in cells)
        # the Efron certificate, log_mgf2(0, u), settles the sup row at B = 5
        (sup,) = exp_curve(law, (1, 4096), [5.0]).points
        assert sup.n_star == 1
        lower = lower_q1_curve(law, DEFAULT_B_GRID).points
        assert all(0.0 < pt.value <= 0.5 for pt in lower)

    def test_log_mgf2_never_integrates(self, monkeypatch):
        # one closed-form route at every l2 >= 0, 0 and inf included; each
        # value is at least the Jensen floor -l2*sigma^2
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the uniform went through quadrature")

        monkeypatch.setattr(distributions, "_integrate", no_quadrature)
        for a in (0.01, SQRT3, 1e3):
            law = UniformSymmetric(a)
            for l1, l2 in [*uniform_branch_points(a).values(), (0.0, 0.0),
                           (5.0, 0.0), (1e300, 0.0), (math.inf, 0.0),
                           (0.0, math.inf), (1.0, math.inf)]:
                for sign in (1.0, -1.0):
                    assert law.log_mgf2(sign * l1, l2) >= -l2 * law.sigma2, \
                        (a, l1, l2)

    def test_q1(self, uniforms):
        # P(0 < xi < 1/B) = min(1/B, a)/(2a)
        for law in uniforms(2.0):
            for B in (0.01, 0.5, 1.0, 3.0, 100.0):
                assert law.q1(B) == pytest.approx(
                    min(1.0 / B, 2.0) / 4.0, rel=1e-13), (law.name, B)


class TestQuadraticMoments:
    def test_rademacher(self, laws):
        assert laws["rademacher"].quadratic_moments() == (1.0, 0.0, 0.0)

    def test_gaussian(self, gaussians):
        closed, quadrature = gaussians
        assert closed.quadratic_moments() == (1.0, 2.0, 0.0)
        sigma2, w, z = quadrature.quadratic_moments()
        assert sigma2 == pytest.approx(1.0, rel=1e-12)
        assert w == pytest.approx(2.0, rel=1e-9)
        assert z == pytest.approx(0.0, abs=1e-9)

    def test_uniform(self, uniforms):
        # w = a^4/5 - a^4/9 = 0.8 at a = sqrt(3)
        for law in uniforms(SQRT3):
            sigma2, w, z = law.quadratic_moments()
            assert sigma2 == pytest.approx(1.0, rel=1e-12)
            assert w == pytest.approx(0.8, rel=1e-9)
            assert z == pytest.approx(0.0, abs=1e-9)

    def test_z_is_minus_third_moment(self):
        # with E xi = 0 the odd cross term E(sigma^2*xi - xi^3) is -E xi^3
        law = DiscreteLaw([(-1.0, 0.8), (4.0, 0.2)])
        _, _, z = law.quadratic_moments()
        assert z == pytest.approx(-(0.8 * (-1.0) ** 3 + 0.2 * 4.0 ** 3))

    def test_divergent_fourth_moment(self):
        heavy = DensityLaw(lambda x: 2.0 / (math.pi * (1.0 + x * x) ** 2))
        with pytest.raises(DivergentError):
            heavy.quadratic_moments()

    def test_overflowing_atoms_raise(self):
        # (sigma^2 - x^2)^2 overflows at x = +-1e100: w is past the guard,
        # which raises, with no warning
        law = parse_distribution("discrete:-1e100:0.3,1e100:0.3,0:0.4")
        with pytest.raises(DivergentError, match="moment w exceeded"):
            law.quadratic_moments()


def summand_variance(law, n, B):
    """n*s2 + 2*B*sqrt(n)*z + B^2*w from the law's quadratic moments: the
    variance of the linearized summand sqrt(n)*xi + B*(sigma^2 - xi^2)."""
    s2, w, z = law.quadratic_moments()
    return n * s2 + 2.0 * B * math.sqrt(n) * z + B * B * w


class TestSummandMoments:
    # the quadratic moments give the variance V of the linearized summand
    # sqrt(n)*xi + B*(sigma^2 - xi^2)
    def test_variance_rademacher(self, laws):
        # V = n
        for n, B in [(1, 0.5), (4, 2.0), (64, 10.0)]:
            assert summand_variance(laws["rademacher"], n, B) == pytest.approx(n)

    def test_variance_gaussian(self, gaussians):
        # V = 3 at n = B = 1
        for law in gaussians:
            assert summand_variance(law, 1, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_variance_at_b_zero(self, laws):
        # V tends to n*sigma^2 as B -> 0
        B = 1e-9
        for name in laws:
            law = laws[name]
            assert summand_variance(law, 7, B) == pytest.approx(
                7 * law.sigma2, rel=1e-9)

    def test_variance_exact_convention_matches_direct_variance(self):
        # asymmetric law with sigma != 1: z = E(sigma^2*xi - xi^3)
        # reproduces Var(sqrt(n)*xi + B*(sigma^2 - xi^2))
        law = DiscreteLaw([(-1.0, 0.8), (4.0, 0.2)])
        n, B = 3, 0.7
        s2 = law.sigma2
        eta = [(math.sqrt(n) * x + B * (s2 - x * x), q)
               for x, q in [(-1.0, 0.8), (4.0, 0.2)]]
        ex_eta = sum(q * e for e, q in eta)
        var_direct = sum(q * e * e for e, q in eta) - ex_eta ** 2
        assert summand_variance(law, n, B) == pytest.approx(var_direct, rel=1e-9)

    def test_lp_rademacher_constant(self, laws):
        for n, B, p in [(1, 1.0, 2.0), (9, 4.0, 3.5), (64, 0.3, 1.0)]:
            assert laws["rademacher"].summand_lp_norm(n, B, p) == pytest.approx(
                1.0, rel=1e-12)

    def test_lp_reduces_at_b_zero(self, laws):
        for name in laws:
            law = laws[name]
            assert law.summand_lp_norm(5, 0.0, 3.0) == pytest.approx(
                law.lp_norm(3.0), rel=1e-10)

    def test_lp_gaussian_p2(self, laws):
        assert laws["gaussian"].summand_lp_norm(1, 1.0, 2.0) == pytest.approx(
            math.sqrt(3.0), rel=1e-9)

    @pytest.mark.parametrize("name", ["gaussian", "uniform"])
    def test_p2_identity_against_expect(self, laws, name):
        # |summand|_2^2 = sigma^2 + 2*B*z/sqrt(n) + B^2*w/n, z = E xi(s2-xi^2):
        # closed-form quadratic moments against the integrated summand norm
        law = laws[name]
        n, B = 5, 1.7
        s2, w, z = law.quadratic_moments()
        expected = s2 + 2 * B * z / math.sqrt(n) + B * B * w / n
        assert law.summand_lp_norm(n, B, 2.0) ** 2 == pytest.approx(
            expected, rel=1e-9)


SUMMAND_LAWS = {
    "gaussian": StandardGaussian,
    "uniform:a=1.7320508075688772": lambda: UniformSymmetric(1.7320508075688772),
    "uniform:a=0.01": lambda: UniformSymmetric(0.01),
    "shifted exponential": lambda: DensityLaw(
        lambda x: np.exp(-(x + 1.0)), support=(-1.0, math.inf)),
}


class TestSummandTable:
    """A density law's summand moments at one c are integrated over one
    plan, built at p = 1.5 and reused at every p: one build per c, and a
    fresh probe ladder only for a p whose window leaves the plan."""

    CS = (0.05, 0.25, 0.75, 5.0)
    PS = (1.01, 1.1, 1.5, 1.9, 2.0, 2.05, 3.0, 9.0, 30.0, 200.0, 1000.0)

    @staticmethod
    def integrations(monkeypatch):
        """Record each _integrate call as (kind, error): kind 'plan' for a
        build, the call made inside _summand_plan, 'table' for a query over
        a plan, 'fresh' for a probe ladder of its own; error the
        DivergentError's message, or None."""
        log, building = [], []
        integrate, summand_plan = distributions._integrate, _QuadratureLaw._summand_plan

        def recorded(fn, lo, hi, scale, breakpoints=(), table=None):
            kind = "plan" if building else "fresh" if table is None else "table"
            try:
                out = integrate(fn, lo, hi, scale, breakpoints, table)
            except DivergentError as exc:
                log.append((kind, str(exc)))
                raise
            log.append((kind, None))
            return out

        def plan(self, c):
            building.append(c)
            try:
                return summand_plan(self, c)
            finally:
                building.pop()

        monkeypatch.setattr(distributions, "_integrate", recorded)
        monkeypatch.setattr(_QuadratureLaw, "_summand_plan", plan)
        return log

    @staticmethod
    def untabled(monkeypatch):
        monkeypatch.setattr(_QuadratureLaw, "_summand_plan", lambda self, c: None)

    @pytest.mark.parametrize("name", sorted(SUMMAND_LAWS))
    def test_agrees_with_the_untabled_route(self, name, monkeypatch):
        log = self.integrations(monkeypatch)
        law = SUMMAND_LAWS[name]()
        tabled = {}
        for c in self.CS:
            del log[:]
            tabled.update({(c, p): law._log_summand_moment(c, p) for p in self.PS})
            kinds = [kind for kind, _ in log]
            # one build, and at most one p whose window leaves the plan
            assert kinds.count("plan") == 1, c
            assert kinds.count("fresh") <= 1, c
        self.untabled(monkeypatch)
        law = SUMMAND_LAWS[name]()
        # log-moments within 1e-11: the moments agree to 1e-11 relative
        for (c, p), value in tabled.items():
            assert value == pytest.approx(law._log_summand_moment(c, p),
                                          rel=0.0, abs=1e-11), (c, p)

    @pytest.mark.parametrize("name", sorted(SUMMAND_LAWS))
    def test_value_independent_of_call_order(self, name):
        n, B, p = 16, 3.0, 1.9
        fresh = SUMMAND_LAWS[name]().summand_lp_norm(n, B, p)
        law = SUMMAND_LAWS[name]()
        for other in (2.0, 30.0, 1.1):
            law.summand_lp_norm(n, B, other)
        assert law.summand_lp_norm(n, B, p) == fresh
        law.summand_lp_norm(4, B, p)
        assert law.summand_lp_norm(n, B, p) == fresh

    def test_extrapolated_tail_is_tabled(self, monkeypatch):
        # at p = 1.5 the t5 summand's window reaches the end of the ladder:
        # the plan's pieces get _integrate's tail extrapolation too
        t5 = DensityLaw(t5_density)
        log = self.integrations(monkeypatch)
        cs, ps = (0.05, 0.25, 0.75, 1.25, 5.0), (1.01, 1.1, 1.5, 1.9, 2.0, 2.05)
        tabled = {(c, p): t5._log_summand_moment(c, p) for c in cs for p in ps}
        assert log == ([("plan", None)] + [("table", None)] * len(ps)) * len(cs)
        # E|summand|^p is infinite from p = 2.5 on
        with pytest.raises(DivergentError):
            t5.summand_lp_norm(16, 5.0, 2.6)
        self.untabled(monkeypatch)
        t5 = DensityLaw(t5_density)
        for (c, p), value in tabled.items():
            assert value == pytest.approx(t5._log_summand_moment(c, p),
                                          rel=0.0, abs=1e-11), (c, p)

    @pytest.mark.parametrize("density, support", [
        (lambda x: np.exp(-(x + 1.0)), (-1.0, math.inf)),
        (lambda x: np.exp(-math.sqrt(2.0) * np.abs(x)) / math.sqrt(2.0),
         (-math.inf, math.inf)),
    ], ids=["shifted exponential", "laplace"])
    def test_divergent_query_raises_over_the_plan(self, density, support,
                                                 monkeypatch):
        # E|summand|^500 at c = 1/4 exhausts the bisection budget over the
        # plan, which raises with no fresh probes, as the untabled route does
        law = DensityLaw(density, support=support)
        log = self.integrations(monkeypatch)
        with pytest.raises(DivergentError, match="did not converge"):
            law.summand_lp_norm(16, 1.0, 500.0)
        assert log == [("plan", None), ("table", "quadrature did not converge")]
        self.untabled(monkeypatch)
        with pytest.raises(DivergentError, match="did not converge"):
            DensityLaw(density, support=support).summand_lp_norm(16, 1.0, 500.0)

    def test_mass_between_the_probes_gets_no_plan(self):
        # all the mass lies in bumps at |x| = 1 and 1.5, found by the probe
        # at 1 when the law is built, but missed by every probe of the
        # summand plan (sigma = 1.2754, the roots and +-sqrt(3)*sigma):
        # there is no plan, and the moment raises rather than reading 0
        def pdf(x):
            return (np.where(np.abs(np.abs(x) - 1.0) <= 1e-3, 125.0, 0.0)
                    + np.where(np.abs(np.abs(x) - 1.5) <= 0.1, 1.25, 0.0))

        law = DensityLaw(pdf)
        assert law.sigma2 == pytest.approx(0.5 + 0.5 * (2.25 + 0.01 / 3.0))
        assert law._summand_plan(1.0) is None
        with pytest.raises(DivergentError, match="lost the integrand's mass"):
            law._log_summand_moment(1.0, 1.5)

    def test_power_cell_probes_at_most_twice(self, monkeypatch):
        # a PowerLevel cell asks for 11 summand moments at one c: one
        # build, and at most one fresh ladder past it, where each p used to
        # probe and integrate afresh
        log = self.integrations(monkeypatch)
        summand, moments = counted(DistributionModel.summand_lp_norm)
        monkeypatch.setattr(DistributionModel, "summand_lp_norm", summand)
        _power_tail_point(StandardGaussian(), 16, 3.0)
        assert moments[0] == 11
        kinds = [kind for kind, _ in log]
        assert kinds.count("plan") == 1
        assert kinds.count("fresh") <= 1


class TestDiscreteLogSumExp:
    def test_bit_identical_to_scipy(self):
        # the port must reproduce scipy.special.logsumexp bit for bit: a
        # plain max-shifted sum differs from it in the last digits
        rng = np.random.default_rng(7)
        specials = (math.inf, -math.inf, math.nan)
        for _ in range(3000):
            k = int(rng.integers(2, 9))
            probs = rng.random(k) * (rng.random(k) > 0.15)
            probs[:2] += 0.1
            probs /= probs.sum()
            values = rng.normal(size=k)
            values -= np.dot(probs, values)
            law = DiscreteLaw(np.column_stack((values, probs)))
            # one exponent per atom of the table, which has no zero weight
            k = law._values.size
            exps = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), k)
            if rng.random() < 0.3:
                exps[rng.integers(k)] = exps.max()
            if rng.random() < 0.1:
                exps[rng.integers(k)] = specials[rng.integers(3)]
            got = distributions._log_sum_exp(exps, law._probs)
            want = float(logsumexp(exps, b=law._probs))
            assert got == want or (math.isnan(got) and math.isnan(want)), \
                (exps, law._probs)

    @staticmethod
    def random_table(rng, k):
        probs = rng.random(k) * (rng.random(k) > 0.15)
        probs[:2] += 0.1
        probs /= probs.sum()
        values = rng.normal(size=k)
        values -= np.dot(probs, values)
        return DiscreteLaw(np.column_stack((values, probs)))

    def test_bit_identical_to_scipy_past_eight_atoms(self):
        # NumPy's pairwise sum groups its terms differently from 8 terms on
        rng = np.random.default_rng(11)
        specials = (math.inf, -math.inf, math.nan)
        for _ in range(1000):
            law = self.random_table(rng, int(rng.integers(20, 301)))
            k = law._values.size
            assert k >= 9
            exps = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), k)
            for _ in range(int(rng.integers(0, 4))):
                exps[rng.integers(k)] = exps.max()
            if rng.random() < 0.1:
                exps[rng.integers(k)] = specials[rng.integers(3)]
            got = distributions._log_sum_exp(exps, law._probs)
            want = float(logsumexp(exps, b=law._probs))
            assert got == want or (math.isnan(got) and math.isnan(want)), \
                (exps, law._probs)

    def test_extreme_exponents_bit_identical_to_scipy(self):
        # exponents whose spread, or whose shifted sum, passes the largest
        # float, and weights whose ratio does (a top atom of weight 5e-324
        # overflows s/m): SciPy's values, NaN for NaN, no warning
        big = sys.float_info.max
        exps = (math.inf, -math.inf, math.nan, 0.0, -5.0, 710.0, big, -big,
                1e300, math.ldexp(1.0, 969), 1e292, 1e308, -1e308)
        for k in (1, 2, 3):
            for b in (np.full(k, 1.0 / k), np.array([1e-310] + [0.5] * (k - 1)),
                      np.array([5e-324] + [0.5] * (k - 1))):
                for row in itertools.product(exps, repeat=k):
                    e = np.array(row)
                    got = distributions._log_sum_exp(e, b)
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        want = float(logsumexp(e, b=b))
                    assert got == want or (math.isnan(got) and math.isnan(want)), \
                        (row, b)

    def test_hooks_equal_scipy_sums_of_quadrature_exponents(self):
        # the atomic hooks reproduce the quadrature hooks' exponents,
        # summed by SciPy; the log-MGF is raised to the Jensen floor
        # -l2*sigma^2 where rounding leaves it below
        rng = np.random.default_rng(5)
        for _ in range(300):
            law = self.random_table(rng, int(rng.integers(2, 301)))
            x, b, s2 = law._values, law._probs, law.sigma2
            l1, l2 = rng.normal(0.0, 3.0), abs(rng.normal(0.0, 3.0))
            want = float(logsumexp(l1 * x - l2 * (x * x), b=b))
            assert law.log_mgf2(l1, l2) == max(-l2 * s2, want)
            p = rng.uniform(1.0, 8.0)
            want = math.exp(float(logsumexp(p * np.log(np.abs(x)), b=b)) / p)
            assert law.lp_norm(p) == want
            n, B = int(rng.integers(1, 300)), rng.uniform(0.1, 20.0)
            c = B / math.sqrt(n)
            with np.errstate(divide="ignore"):
                exps = p * np.log(np.abs(x + c * (s2 - x * x)))
            want = math.exp(float(logsumexp(exps, b=b)) / p)
            assert law.summand_lp_norm(n, B, p) == want

    @pytest.mark.parametrize("spec", [
        "rademacher", "discrete:-1:0.6666666666666666,2:0.3333333333333334",
        "from_sample"])
    def test_curves_unchanged_by_scipy_quadrature_hooks(self, spec, monkeypatch):
        def law():
            if spec == "from_sample":
                draws = np.random.default_rng(7).exponential(size=300)
                return DiscreteLaw.from_sample(draws)
            return parse_distribution(spec)

        def curves(dist):
            return [make(dist, n, DEFAULT_B_GRID)
                    for make in (exp_curve, power_curve) for n in (16, (1, 64))]

        lean = curves(law())
        # the quadrature hooks' exponents on the atoms, summed by SciPy;
        # the summand moment's is p times the quadrature's ln|summand|
        # (a density law's table only caches its integration)
        for hook in ("_lp_norm", "_log_mgf2", "_log_abs_summand"):
            monkeypatch.setattr(DiscreteLaw, hook, getattr(_QuadratureLaw, hook),
                                raising=False)
        monkeypatch.setattr(DiscreteLaw, "_log_expect_exponent",
                            lambda self, t, breakpoints: float(
                                logsumexp(t(self._values), b=self._probs)),
                            raising=False)
        monkeypatch.setattr(DiscreteLaw, "_log_summand_moment",
                            lambda self, c, p: self._log_expect_exponent(
                                lambda x: p * self._log_abs_summand(c, x), ()))
        assert curves(law()) == lean

    def test_overflowing_exponents(self):
        # l1*x and l2*x^2 overflow at these arguments, with no warning:
        # K = -l2*1e20 + O(1e10) is below -max_float, and so is the Jensen
        # floor -l2*sigma^2
        law = DiscreteLaw([(-1e10, 0.5), (1e10, 0.5)])
        assert law.log_mgf2(1e300, 0.0) == math.inf
        assert law.log_mgf2(-1e300, 0.0) == math.inf
        assert law.log_mgf2(0.0, 1e300) == -math.inf
        assert law.log_mgf2(1e300, 1e300) == math.inf
        assert law.log_mgf2(1.0, 1e300) == -math.inf
        assert law.log_mgf2(-1.0, 1e300) == -math.inf


def same_bits(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def left_to_right(terms):
    # an explicit loop: sum() of floats is compensated from Python 3.12 on
    total = 0.0
    for t in terms:
        total += t
    return total


class TestNumpyFactsOfTheScalarRoute:
    """The two NumPy facts that let a table of fewer than 8 atoms sum in
    Python floats with the bits of the array route."""

    def test_add_reduce_sums_fewer_than_eight_terms_left_to_right(self):
        rng = np.random.default_rng(3)
        for k in range(1, distributions._SCALAR_ATOMS):
            for _ in range(2000):
                terms = rng.random(k) * 10.0 ** rng.uniform(-20.0, 20.0, k)
                assert float(np.add.reduce(terms)) == left_to_right(terms.tolist())

    def test_add_reduce_of_eight_terms_need_not_be_left_to_right(self):
        # from 8 terms on NumPy sums pairwise: 1e16 + 1 rounds back to
        # 1e16 term by term, while the pairs 1 + 1 survive
        terms = [1e16] + [1.0] * 7
        assert left_to_right(terms[:7]) == float(np.add.reduce(np.array(terms[:7])))
        assert distributions._SCALAR_ATOMS == 8
        assert float(np.add.reduce(np.array(terms))) != left_to_right(terms)

    @pytest.mark.parametrize("ufunc", [np.exp, np.log, np.log1p])
    def test_ufunc_of_a_python_float_equals_its_array_loop(self, ufunc):
        rng = np.random.default_rng(4)
        x = rng.random(7000) * 10.0 ** rng.uniform(-300.0, 300.0, 7000)
        if ufunc is np.exp:
            x = rng.uniform(-745.0, 709.0, 7000)
        for row in x.reshape(-1, 7):
            # 1- and 7-element arrays: the array route's exponentials are
            # of up to 7 atoms
            got = [float(ufunc(v)) for v in row.tolist()]
            assert got == ufunc(row).tolist()
            assert got == [float(ufunc(row[i:i + 1])[0]) for i in range(7)]


def root_of(law, x):
    """The c at which the atom x is a root of x + c*(sigma^2 - x^2)."""
    c = x / (x * x - law.sigma2)
    assert x + c * (law.sigma2 - x * x) == 0.0
    return c


@pytest.fixture
def array_route(monkeypatch):
    """The sizes of the exponent arrays that reach ``_log_sum_exp``; a
    recording spy, which no except clause on the way can swallow."""
    sizes = []
    log_sum_exp = distributions._log_sum_exp

    def spy(exps, b):
        sizes.append(exps.size)
        return log_sum_exp(exps, b)

    monkeypatch.setattr(distributions, "_log_sum_exp", spy)
    return sizes


class TestScalarRoute:
    """A table of fewer than 8 atoms sums in Python floats; the array
    route, :func:`_log_sum_exp`, is its reference, toggled on the same
    law by dropping the Python table."""

    @staticmethod
    def both_routes(law, fn):
        scalar = fn()
        atoms, law._atoms = law._atoms, None
        try:
            return scalar, fn()
        finally:
            law._atoms = atoms

    @staticmethod
    def random_table(rng):
        # 2 to 7 atoms (one atom cannot be centered and nondegenerate),
        # weights 1e-12..1 and values 1e-3..1e3 in size, centered by the
        # last atom
        while True:
            k = int(rng.integers(2, distributions._SCALAR_ATOMS))
            probs = 10.0 ** rng.uniform(-12.0, 0.0, k)
            probs /= probs.sum()
            values = rng.choice((-1.0, 1.0), k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
            values[-1] = -np.dot(probs[:-1], values[:-1]) / probs[-1]
            try:
                law = DiscreteLaw(np.column_stack((values, probs)))
            except ValueError:  # rounding left the mean off 0
                continue
            assert law._atoms is not None
            return law

    def test_bit_identical_to_array_route(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            law = self.random_table(rng)
            for _ in range(8):
                l1 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 6.0)
                l2 = 10.0 ** rng.uniform(-8.0, 6.0)
                scalar, array = self.both_routes(law, lambda: law._log_mgf2(l1, l2))
                assert same_bits(scalar, array), (law.name, l1, l2)
                c = 10.0 ** rng.uniform(-6.0, 4.0) if rng.random() < 0.9 else 0.0
                p = rng.uniform(1.0, 30.0)
                scalar, array = self.both_routes(
                    law, lambda: law._log_summand_moment(c, p))
                assert same_bits(scalar, array), (law.name, c, p)

    # one case per edge: the atoms, the call, and whether the scalar route
    # hands it to the array route
    EDGES = {
        # l1*x overflows: the guard sends the products to the array route
        "overflowing products": ([(-1e10, 0.5), (1e10, 0.5)],
                                 lambda law: law._log_mgf2(1e300, 0.0), True),
        # one exponent is -inf, and the largest is finite
        "an atom on a root": (
            [(-2.0, 0.4), (1.0, 0.5), (3.0, 0.1)],
            lambda law: law._log_summand_moment(root_of(law, 3.0), 2.0), False),
        # sigma^2 = 2, so at c = 1 both atoms -1 and 2 are roots
        "every atom on a root": ([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)],
                                 lambda law: law._log_summand_moment(1.0, 2.0), True),
        "a largest exponent past 2^969": ([(-1.0, 0.5), (1.0, 0.5)],
                                          lambda law: law._log_mgf2(1e300, 0.0), True),
        # s/m overflows: the result is not finite
        "a top atom of weight 5e-324": ([(-1.0, 0.5), (1.0, 0.5), (3.0, 5e-324)],
                                        lambda law: law._log_mgf2(1.0, 0.0), True),
    }

    @pytest.mark.parametrize("edge", EDGES)
    def test_edge_case(self, edge, array_route):
        atoms, call, to_array = self.EDGES[edge]
        law = DiscreteLaw(atoms)
        scalar = call(law)
        assert bool(array_route) == to_array
        _, array = self.both_routes(law, lambda: call(law))
        assert same_bits(scalar, array)

    @pytest.mark.parametrize("spec", [
        "rademacher", "discrete:-1:0.6666666666666666,2:0.3333333333333334",
        "discrete:-1:0.25,0:0.5,1:0.25"])
    def test_small_tables_never_reach_the_array_route(self, spec, array_route):
        # the curves at one n and over a range, whose sup runs the tail
        # certificate
        law = parse_distribution(spec)
        for make in (exp_curve, power_curve):
            for n in (16, (1, 4096)):
                make(law, n, DEFAULT_B_GRID)
        assert array_route == []

    @pytest.mark.parametrize("size", [8, 300])
    def test_large_tables_take_the_array_route(self, size, array_route):
        if size == 8:
            law = DiscreteLaw([(v, 0.125) for v in (-7, -5, -3, -1, 1, 3, 5, 7)])
        else:
            draws = np.random.default_rng(7).exponential(size=size)
            law = DiscreteLaw.from_sample(draws)
        assert law._atoms is None and law._values.size >= 8
        law.log_mgf2(0.5, 0.25)
        law.summand_lp_norm(16, 2.0, 3.0)
        law.lp_norm(2.5)
        assert array_route == [law._values.size] * 3


class TestConstruction:
    def test_uniform_sigma2(self):
        assert UniformSymmetric(SQRT3).sigma2 == pytest.approx(1.0)
        assert UniformSymmetric(2.0).sigma2 == pytest.approx(4.0 / 3.0)

    def test_discrete_rejects_off_center(self):
        with pytest.raises(ValueError, match="not centered"):
            DiscreteLaw([(0.0, 0.5), (1.0, 0.5)])

    def test_discrete_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            DiscreteLaw([])

    def test_discrete_rejects_bad_probs(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteLaw([(-1.0, 0.6), (1.0, 0.6)])
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteLaw([(-1.0, 1.5), (1.0, -0.5)])

    def test_density_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="integrates"):
            DensityLaw(lambda x: math.exp(-abs(x)), support=(-math.inf, math.inf))

    def test_density_rejects_off_center(self):
        with pytest.raises(ValueError, match="not centered"):
            DensityLaw(lambda x: math.exp(-x) if x > 0 else 0.0,
                       support=(0.0, math.inf))

    def test_empirical_recenters(self):
        law = DiscreteLaw.from_sample([1.0, 2.0, 3.0, 6.0])
        assert np.dot(law._probs, law._values) == pytest.approx(0.0, abs=1e-12)
        assert law.sigma2 == pytest.approx(np.var([1.0, 2.0, 3.0, 6.0]))

    def test_empirical_rejects_constant(self):
        with pytest.raises(ValueError):
            DiscreteLaw.from_sample([2.0, 2.0, 2.0])

    def test_empirical_merges_repeats_into_weighted_atoms(self):
        law = DiscreteLaw.from_sample([3.0, 0.0, 0.0, 0.0, -1.0, 1.0, 1.0, 2.0])
        # mean 0.75: atoms -1.75, -0.75 (x3), 0.25 (x2), 1.25, 2.25
        assert law.name == "empirical"
        assert law._values.tolist() == pytest.approx(
            [-1.75, -0.75, 0.25, 1.25, 2.25])
        assert law._probs.tolist() == pytest.approx([0.125, 0.375, 0.25, 0.125, 0.125])
        assert law.q1(1.0) == pytest.approx(2.0 / 8.0)
        assert law.min_positive_atom == pytest.approx(0.25)

    @pytest.mark.parametrize("atoms", [
        [(-1.0, 0.25), (-1.0, 0.25), (1.0, 0.5)],
        [(1.0, 0.5), (2.0, 0.0), (-1.0, 0.5)],
        [(-1.0, 0.5), (1.0, 0.5), (1e100, 0.0)],
        [(-1.0, 0.5), (1.0, 0.5), (1e200, 0.0)],
        [(1.0, 0.125), (-1.0, 0.5), (-3.0, 0.0), (1.0, 0.375), (-0.0, 0.0)],
    ])
    def test_discrete_table_is_canonical(self, atoms):
        # repeated values merge and zero weights go: every reader sees the
        # sign law's table, whatever the spelling
        law = DiscreteLaw(atoms)
        assert law._values.tolist() == [-1.0, 1.0]
        assert law._probs.tolist() == [0.5, 0.5]
        assert law.name == "discrete:-1:0.5,1:0.5"
        assert (law.sigma2, law.symmetric, law.min_positive_atom) == (1.0, True, 1.0)
        assert law.quadratic_moments() == (1.0, 0.0, 0.0)
        assert law.lp_norm(4.0) == 1.0
        assert law.log_mgf2(0.5, 0.25) == Rademacher().log_mgf2(0.5, 0.25)

    @pytest.mark.parametrize("atoms, match", [
        ([(-1.0, 0.5), (1.0, 0.5), (math.nan, 0.0)], "finite"),
        ([(-1.0, 0.5), (1.0, 0.5), (math.inf, 0.0)], "finite"),
        ([(-1.0, 0.5), (1.0, 0.5), (2.0, math.nan)], "nonnegative"),
    ])
    def test_discrete_rejects_non_numbers_of_weight_zero(self, atoms, match):
        with pytest.raises(ValueError, match=match):
            DiscreteLaw(atoms)

    @pytest.mark.parametrize("bad", [[1.0], [1.0, math.nan], [0.0, math.inf]])
    def test_empirical_rejects_bad_samples(self, bad):
        with pytest.raises(ValueError):
            DiscreteLaw.from_sample(bad)

    def test_immutable_semantics(self, laws):
        law = laws["gaussian"]
        assert isinstance(law, DistributionModel)
        assert law.sigma2 == 1.0


def counted(fn):
    """fn, and a one-element list that counts its calls."""
    calls = [0]

    def wrapper(*args):
        calls[0] += 1
        return fn(*args)

    return wrapper, calls


def histogram(bins):
    """Bin edges, heights and pdf of the histogram on [-4.5, 4.5] of
    2*10^5 standard normal draws and their negatives."""
    x = np.random.default_rng(3).standard_normal(200_000)
    edges = np.linspace(-4.5, 4.5, bins + 1)
    counts, _ = np.histogram(np.concatenate((x, -x)), edges)
    heights = counts / counts.sum() / np.diff(edges)

    def pdf(t):
        i = np.searchsorted(edges, t, side="right") - 1
        return np.where((i >= 0) & (i < bins), heights[np.clip(i, 0, bins - 1)], 0.0)

    return edges, heights, pdf


class TestIntegratorBudget:
    """Every open piece is bisected each round; a round that leaves more
    than ``_MAX_OPEN`` open is the last one."""

    def test_many_bins_build_to_the_exact_bin_sums(self):
        edges, heights, pdf = histogram(400)
        law = DensityLaw(pdf, support=(-4.5, 4.5))
        lo, hi = edges[:-1], edges[1:]
        sigma2 = float(np.sum(heights * (hi ** 3 - lo ** 3) / 3.0))
        # Q_1(5) = P(0 < xi < 0.2): each bin's overlap with (0, 0.2)
        overlap = np.clip(np.minimum(hi, 0.2) - np.maximum(lo, 0.0), 0.0, None)
        assert law.sigma2 == pytest.approx(sigma2, rel=0.0, abs=1e-10)
        assert law.q1(5.0) == pytest.approx(float(np.sum(heights * overlap)),
                                            rel=0.0, abs=1e-10)

    def test_too_many_open_pieces_fail_at_the_budget(self):
        # 3000 jumps keep more than _MAX_OPEN pieces open long before the
        # last of the _MAX_ROUNDS rounds
        pdf, calls = counted(histogram(3000)[2])
        with pytest.raises(DivergentError, match="did not converge"):
            DensityLaw(pdf, support=(-4.5, 4.5))
        assert calls[0] <= 21

    def test_noisy_integrand_stops_at_the_budget(self):
        # exp(x + 0.4999999*x^2) times the normal pdf, read in linear
        # space: the pdf turns subnormal near x = 38, where the integrand
        # is largest, so its log there is noisy and the pieces between
        # 38.1 and 38.6 never meet the piece test
        pdf, calls = counted(normal_pdf)

        def fn(x):
            with np.errstate(divide="ignore", over="ignore"):
                return np.log(pdf(x)) + x + 0.4999999 * (x * x), 1.0

        with pytest.raises(DivergentError, match="did not converge"):
            distributions._integrate(fn, -math.inf, math.inf, 1.0, (0.0,))
        # one probe call, then one call per round
        assert calls[0] <= 21

    @staticmethod
    def power_pdf(a):
        """(1 - a)/2 * |x|^-a on (-1, 1), 0 at x = 0: mass 1, and sigma^2 =
        (1 - a)/(3 - a).  Its singularity at 0 halves a piece each round."""

        def pdf(x):
            with np.errstate(divide="ignore"):
                return np.where(x == 0.0, 0.0, 0.5 * (1.0 - a) * np.abs(x) ** -a)

        return counted(pdf)

    def test_last_round_accepts_a_small_summed_error(self):
        pdf, calls = self.power_pdf(0.6)
        law = DensityLaw(pdf, support=(-1.0, 1.0))
        assert law.sigma2 == pytest.approx(1.0 / 6.0, rel=0.0, abs=3e-17)
        # the mass took one probe call and all _MAX_ROUNDS rounds
        assert calls[0] > 1 + distributions._MAX_ROUNDS

    def test_last_round_fails_a_large_summed_error(self):
        pdf, calls = self.power_pdf(0.7)
        with pytest.raises(DivergentError, match="did not converge"):
            DensityLaw(pdf, support=(-1.0, 1.0))
        assert calls[0] == 1 + distributions._MAX_ROUNDS


class TestIntegratorEdges:
    """What the integrator reads where the integrand has no mass, no
    number, or no finite value."""

    def test_no_mass_at_any_probe_reads_zero(self):
        # the gap law has no mass in (0, 1/3), and every probe there reads
        # -inf: Q_1(3) is 0
        gap = DensityLaw(lambda x: np.where((np.abs(x) >= 1) & (np.abs(x) <= 2),
                                            0.5, 0.0), support=(-2.0, 2.0))
        assert gap.q1(3.0) == 0.0
        assert distributions._integrate(
            lambda x: (np.full(x.shape, -math.inf), 1.0), 0.0, 1.0, 1.0) == (
            -math.inf, 0.0, None)

    def test_empty_last_octaves_add_no_tail(self):
        # finite at the probe 2^99, so the window reaches the ladder's open
        # end, but 0 on both of the last octaves: no tail, where the ratio
        # of the two octaves would read 0/0
        def fn(x):
            return np.where((x <= 1.0) | (x == 2.0 ** 99), 0.0, -math.inf), 1.0

        shift, total, _ = distributions._integrate(fn, 0.0, math.inf, 1.0)
        assert shift == 0.0
        assert total == pytest.approx(1.0, rel=1e-14)

    def test_density_that_reads_nan_raises(self):
        # the semicircle of radius 3/4 on a wider support: sqrt reads NaN
        # past 3/4, at the nodes of the pieces out to the probe at 1
        r = 0.75
        with pytest.raises(DivergentError, match="not a number"):
            DensityLaw(lambda x: 2.0 / (math.pi * r * r) * np.sqrt(r * r - x * x),
                       support=(-2.0, 2.0))

    def test_infinite_exponent_at_a_node_raises(self):
        # +inf at a node of the piece [1/2, 1], at none of the probes
        node = 0.5 + 0.5 * distributions._first_round()[3]

        def fn(x):
            return np.where(x == node, math.inf, 0.0), 1.0

        with pytest.raises(DivergentError, match="integrand diverges$"):
            distributions._integrate(fn, 0.0, 1.0, 1.0)


class TestSampling:
    def test_rademacher_support(self, laws):
        x = laws["rademacher"].sample(np.random.default_rng(0), 1000)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_uniform_support(self, laws):
        x = laws["uniform"].sample(np.random.default_rng(0), 1000)
        assert np.all(np.abs(x) <= SQRT3)

    def test_gaussian_moments(self, laws):
        x = laws["gaussian"].sample(np.random.default_rng(0), 200000)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_density_law_sampling(self):
        law = DensityLaw(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))
        x = law.sample(np.random.default_rng(5), 50000)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.05

    def test_discrete_sampling_frequencies(self):
        law = DiscreteLaw([(-2.0, 0.25), (0.0, 0.25), (1.0, 0.5)])
        x = law.sample(np.random.default_rng(9), 100000)
        assert abs(np.mean(x == 1.0) - 0.5) < 0.01


class TestProbBetween:
    """Q_1(B) = q1(B), the probability between 0 and 1/B."""

    def test_gaussian_interval(self, gaussians):
        from scipy.stats import norm
        for law in gaussians:
            assert law.q1(100.0) == pytest.approx(norm.cdf(0.01) - 0.5, rel=1e-9)

    def test_discrete_strict_endpoints(self):
        law = DiscreteLaw([(-1.0, 0.5), (1.0, 0.5)])
        assert law.q1(1.0) == 0.0
        assert law.q1(1.0 / (1.0 + 1e-12)) == 0.5

    def test_empirical_fraction(self):
        law = DiscreteLaw.from_sample([-3.0, -1.0, 1.0, 3.0])
        assert law.q1(0.5) == 0.25

    @pytest.mark.parametrize("B", [0.0, -0.0, -1.0, -math.inf, math.nan])
    def test_rejects_b_that_is_not_positive(self, laws, gaussians, B):
        # the gaussian's closed form reads a negative probability at B < 0
        for law in (*laws.values(), *gaussians, DiscreteLaw.from_sample([-1.0, 2.0])):
            with pytest.raises(ValueError, match="B must be positive"):
                law.q1(B)


class TestParseGrammar:
    def test_builtins(self):
        assert parse_distribution("rademacher").name == "rademacher"
        assert parse_distribution("gaussian").name == "gaussian"
        law = parse_distribution("uniform:a=1.5")
        assert isinstance(law, UniformSymmetric)
        assert law.half_width == 1.5

    def test_discrete(self):
        law = parse_distribution("discrete:-1:0.5,1:0.5")
        assert isinstance(law, DiscreteLaw)
        assert law.sigma2 == 1.0

    def test_empirical(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("1.0\n-1.0\n2.0\n-2.0\n")
        law = parse_distribution(f"empirical:{path}")
        assert isinstance(law, DiscreteLaw)
        assert law.name == f"empirical:{path}"
        assert law.sigma2 == pytest.approx(2.5)

    @pytest.mark.parametrize("bad", [
        "uniform:a=bogus", "uniform:x=1", "discrete:1:0.5", "discrete:a:b",
        "empirical:/nonexistent/file.txt", "cauchy", "",
    ])
    def test_errors(self, bad):
        with pytest.raises(ValueError):
            parse_distribution(bad)
