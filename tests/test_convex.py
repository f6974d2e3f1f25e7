"""Conjugation and search primitives against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selfnorm.convex import (NotBracketedError, _brent_max, fenchel,
                             invert_monotone, maximize_concave)


def lncosh(x):
    # overflow-safe: ln cosh x = |x| + ln(1 + e^{-2|x|}) - ln 2
    a = abs(x)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def lncosh_conjugate(s):
    # closed form of sup_x (x*s - ln cosh x), |s| < 1 (binary entropy form)
    return (1 + s) / 2 * math.log(1 + s) + (1 - s) / 2 * math.log(1 - s)


# the doubling search's last point: 1e-8 doubled 63 times
CAP = 1e-8 * 2.0 ** 63


class TestMaximizeConcave:
    def test_parabola(self):
        x, v = maximize_concave(lambda x: -((x - 1.0) ** 2), 0.0, 1e-9)
        assert abs(x - 1.0) <= 1e-8
        assert abs(v) <= 1e-8

    def test_lncosh_objective(self):
        _, v = maximize_concave(lambda x: 0.5 * x - lncosh(x), 0.0, 1e-9)
        assert v == pytest.approx(0.13081203594113697, abs=1e-9)

    def test_unbounded_linear(self):
        # still rising at the cap: the cap is the best point evaluated
        assert maximize_concave(lambda x: x, 0.0, 1e-9) == (CAP, CAP)

    def test_barrier_inside_ray(self):
        # domain ends at x = 1; maximum of x*3 - x^2/(1-x) sits inside
        def obj(x):
            if x >= 1.0:
                return -math.inf
            return 3.0 * x - x * x / (1.0 - x)

        x, v = maximize_concave(obj, 0.0, 1e-9)
        assert 0.0 < x < 1.0
        assert v > 0.0

    def test_maximum_at_origin(self):
        x, v = maximize_concave(lambda x: -x, 0.0, 1e-9)
        assert v == pytest.approx(0.0, abs=1e-8)


    def test_minus_inf_at_origin(self):
        # the ray origin lies outside the domain (x <= 1)
        def obj(x):
            return -math.inf if x <= 1.0 else -((x - 3.0) ** 2)

        x, v = maximize_concave(obj, 1.0, 1e-9, x0=2.0)
        assert abs(x - 3.0) <= 1e-6
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_nowhere_finite_returns_origin(self):
        assert maximize_concave(lambda x: -math.inf, 0.0, 1e-9, x0=1.0) == (
            0.0, -math.inf)


class TestMaximizeConcaveStart:
    """The start point x0: bracketing outward, inward, and past barriers."""

    @staticmethod
    def counted(fn):
        calls = []

        def obj(x):
            calls.append(x)
            return fn(x)

        return obj, calls

    def test_start_far_above_maximum(self):
        obj, calls = self.counted(lambda x: -((x - 1.0) ** 2))
        x, v = maximize_concave(obj, 0.0, 1e-9, x0=1e6)
        assert abs(x - 1.0) <= 1e-8
        assert abs(v) <= 1e-15
        assert len(calls) <= 40

    def test_start_far_below_maximum(self):
        obj, calls = self.counted(lambda x: -((x - 1.0) ** 2))
        x, v = maximize_concave(obj, 0.0, 1e-9, x0=1e-6)
        assert abs(x - 1.0) <= 1e-8
        assert len(calls) <= 40

    def test_start_past_barrier(self):
        # domain ends at x = 1; the maximum of 3x - x^2/(1-x) is 1 at x = 1/2
        def obj(x):
            if x >= 1.0:
                return -math.inf
            return 3.0 * x - x * x / (1.0 - x)

        x, v = maximize_concave(obj, 0.0, 1e-9, x0=50.0)
        assert x == pytest.approx(0.5, abs=1e-8)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_minus_inf_below_a_finite_value_does_not_end_the_search(self):
        # a spurious -inf near the origin must not truncate the domain
        def obj(x):
            if 0.0 < x < 1e-3:
                return -math.inf
            return -((x - 2.0) ** 2) + 4.0

        x, v = maximize_concave(obj, 0.0, 1e-9, x0=1.0)
        assert x == pytest.approx(2.0, abs=1e-8)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_linear_objective_from_start_is_unbounded(self):
        assert maximize_concave(lambda x: 0.5 * x, 0.0, 1e-9, x0=3.0) == (
            CAP, 0.5 * CAP)
        assert maximize_concave(lambda x: 0.5 * x, 0.0, 1e-9, x0=1e300) == (
            CAP, 0.5 * CAP)

    def test_relative_tolerance(self):
        # stops on a bracket of relative width rtol, long before tol = 0
        obj, calls = self.counted(lambda x: 1e4 * math.log(x) - x)
        x, v = maximize_concave(obj, 1e-300, 0.0, x0=3e3, rtol=1e-6)
        assert x == pytest.approx(1e4, rel=1e-6)
        assert v == pytest.approx(1e4 * math.log(1e4) - 1e4, rel=1e-14)
        assert len(calls) <= 20

    def test_start_at_origin_falls_back_to_default(self):
        x, v = maximize_concave(lambda x: -((x - 1.0) ** 2), 0.0, 1e-9, x0=0.0)
        assert abs(x - 1.0) <= 1e-8


class TestBrentBracketEdge:
    """A scanned argmax at the edge of its grid: b equals an end point."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_returns_the_end_point(self, sign):
        # increasing (sign 1) peaks at c, decreasing (sign -1) at a
        def obj(x):
            return sign * x ** 3

        a, c = 0.5, 2.0
        b = c if sign > 0 else a
        x, v = _brent_max(obj, a, b, c, obj(a), obj(b), obj(c), 1e-10, 0.0)
        assert x == b
        assert v == obj(b)

    def test_interior_peak_next_to_the_end_point(self):
        # the scanned best is c, but the maximum lies inside [a, c]
        def obj(x):
            return -((x - 1.9) ** 2)

        x, v = _brent_max(obj, 1.0, 2.0, 2.0, obj(1.0), obj(2.0), obj(2.0),
                          1e-10, 0.0)
        assert x == pytest.approx(1.9, abs=1e-8)
        assert v >= obj(2.0)


class TestFenchel:
    def test_half_quadratic_self_conjugate(self):
        for u in (0.0, 0.3, 1.0, 2.5, 7.0):
            assert fenchel(lambda x: x * x / 2, u) == pytest.approx(
                u * u / 2, abs=1e-7)

    def test_lncosh_binary_entropy(self):
        for u in (0.1, 0.25, 0.5, 0.8, 0.95):
            assert fenchel(lncosh, u) == pytest.approx(
                lncosh_conjugate(u), abs=1e-7)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_power_conjugate(self, m):
        mp = m / (m - 1.0)
        for u in (0.2, 1.0, 2.5, 6.0):
            assert fenchel(lambda x: x ** m / m, u) == pytest.approx(
                u ** mp / mp, abs=1e-6, rel=1e-6)

    def test_at_zero(self):
        assert fenchel(lambda x: x * x / 2, 0.0) == 0.0

    def test_negative_slope_gives_zero(self):
        assert fenchel(lambda x: x * x / 2, -3.0) == 0.0

    @given(a=st.floats(0.1, 5.0), b=st.floats(0.0, 5.0),
           u=st.floats(-5.0, 5.0), x=st.floats(0.0, 50.0))
    def test_fenchel_inequality(self, a, b, u, x):
        def f(t):
            return a * t * t / 2 + b * lncosh(t)

        assert fenchel(f, u) >= x * u - f(x) - 1e-8

    def test_convex_nondecreasing_in_u(self):
        us = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
        vals = [fenchel(lambda x: x * x / 2 + lncosh(x), u) for u in us]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
        assert all(d2 >= d1 - 1e-7 for d1, d2 in zip(diffs, diffs[1:]))


class TestInvertMonotone:
    def test_square(self):
        assert invert_monotone(lambda x: x * x, 4.0, 0.0, 1.0) == pytest.approx(
            2.0, abs=1e-9)

    def test_lncosh(self):
        # reference root from bracketed bisection at high precision
        assert invert_monotone(lncosh, 0.14384, 0.0, 1.0) == pytest.approx(
            0.5493040718790508, abs=1e-5)

    def test_below_range_raises(self):
        with pytest.raises(NotBracketedError):
            invert_monotone(lambda x: x, -1.0, 0.0, 1.0)

    def test_never_reached_raises(self):
        with pytest.raises(NotBracketedError):
            invert_monotone(lambda x: 1.0 - 1.0 / (1.0 + x), 2.0, 0.0, 1.0)

    def test_at_origin(self):
        assert invert_monotone(lambda x: x * x, 0.0, 0.0, 1.0) == 0.0

    def test_residual_tolerance(self):
        y = 0.37
        x = invert_monotone(lambda t: t ** 3, y, 0.0, 0.1)
        assert abs(x ** 3 - y) <= 1e-10 * max(1.0, y)

    @pytest.mark.parametrize("f", [lambda x: x * x, math.expm1],
                             ids=["square", "expm1"])
    def test_one_sided_and_relative_over_decades(self, f):
        # never below the root, and within 1e-10 relative of y also
        # where y is far below 1
        for y in np.geomspace(1e-12, 1e3, 200).tolist():
            x = invert_monotone(f, y, 0.0, 1.0)
            assert 0.0 <= f(x) - y <= 1e-10 * y, y

    def test_exact_hit_at_bracket_end(self):
        calls = []

        def f(x):
            calls.append(x)
            return 2.0 * x

        assert invert_monotone(f, 3.0, 0.0, 1.5) == 1.5
        assert calls == [0.0, 1.5]
