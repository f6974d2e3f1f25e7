"""The exact referee for finite atomic laws: enumeration against brute
force, the tie bracket, the cap, its use in ``verify``, a random-law
property test of every bound family against the exact tail, and the
sup-over-n rows and tail certificate against the exact tails of a range."""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import cli, mc
from selfnorm.bounds import (DEFAULT_B_GRID, EXP_LEVEL, BoundCurve, BoundPoint,
                             _tail_certificate, exp_curve, lower_q1_curve,
                             power_curve)
from selfnorm.distributions import DiscreteLaw, Rademacher, StandardGaussian
from selfnorm.mc import MCConfig, _exact_tail, self_normalized_stat, verify_bounds

TIE_B = (1.0, 0.5, math.sqrt(2.0), 2.0)
LAWS = {
    "signs": Rademacher(),
    "skewed2": DiscreteLaw([(-2.0, 1 / 3), (1.0, 2 / 3)]),
    "lazy3": DiscreteLaw([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
    "skewed3": DiscreteLaw.from_sample([-1.3, -1.3, 0.7, 0.7, 0.7, 2.9]),
}


def brute_force(law, n):
    """T(n) and the probability of every sequence of n atoms."""
    values, probs = law._values, law._probs
    seqs = np.array(list(itertools.product(range(values.size), repeat=n)))
    return self_normalized_stat(values[seqs]), np.prod(probs[seqs], axis=1)


class TestExactTail:
    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_matches_brute_force(self, name, n):
        t, weight = brute_force(LAWS[name], n)
        B_grid = sorted(set(DEFAULT_B_GRID) | set(TIE_B))
        for est in _exact_tail(LAWS[name], n, B_grid):
            lo = weight[t > est.B * (1 + 1e-12)].sum()
            hi = weight[t > est.B * (1 - 1e-12)].sum()
            assert est.point == pytest.approx(lo, rel=0, abs=1e-12)
            # the bracket is widened by 1e-9 relative for rounding
            assert est.ci_lo == pytest.approx(lo * (1 - 1e-9), rel=0, abs=1e-12)
            assert est.ci_hi == pytest.approx(min(hi * (1 + 1e-9), 1.0),
                                              rel=0, abs=1e-12)
            assert (est.hits, est.trials, est.confidence) == (0, 0, 1.0)

    @pytest.mark.parametrize("n, B, lo, hi", [
        # T(16) = S/4 for the sign sum S: T = 0.5 is the tie S = 2
        (16, 0.5, 0.2272491455078125, 0.4018096923828125),
        # T(1) = +-1: the atom +1 sits exactly on B = 1
        (1, 1.0, 0.0, 0.5),
    ])
    def test_sign_ties_give_the_bracket(self, n, B, lo, hi):
        (est,) = _exact_tail(Rademacher(), n, [B])
        assert est.ci_lo <= lo and hi <= est.ci_hi
        assert est.ci_lo == pytest.approx(lo * (1 - 1e-9), rel=1e-12, abs=0)
        assert est.ci_hi == pytest.approx(hi * (1 + 1e-9), rel=1e-12, abs=0)
        assert est.point == pytest.approx(lo, rel=1e-12, abs=0)

    def test_none_above_cap_and_for_density_laws(self):
        wide = DiscreteLaw.from_sample(np.arange(50.0) ** 1.5)
        assert math.comb(8 + 49, 49) > mc._EXACT_CAP
        assert _exact_tail(wide, 8, [1.0]) is None
        assert _exact_tail(wide, 2, [1.0]) is not None
        assert _exact_tail(StandardGaussian(), 4, [1.0]) is None

    def test_many_atoms_at_n1_give_the_single_draw_tail(self):
        law = DiscreteLaw.from_sample(np.random.default_rng(5).standard_normal(3000))
        for B in (0.25, 1.0, 5.0):
            (est,) = _exact_tail(law, 1, [B])
            assert est.point == pytest.approx(law.prob_between(0.0, 1.0 / B),
                                              rel=1e-12, abs=0)

    def test_order_of_grid_is_kept(self):
        ests = _exact_tail(Rademacher(), 4, [2.0, 0.25, 1.0])
        assert [e.B for e in ests] == [2.0, 0.25, 1.0]
        assert [e.point for e in ests] == pytest.approx([0.0, 5 / 16, 1 / 16],
                                                        rel=1e-12, abs=0)


class TestExactReferee:
    def curves(self, law, n_grid, B_grid):
        out = [exp_curve(law, n, B_grid) for n in n_grid]
        out.append(exp_curve(law, (1, 64), B_grid))
        out.append(lower_q1_curve(law, B_grid))
        return out

    @pytest.mark.parametrize("name", ["signs", "skewed3"])
    def test_enumerable_law_never_simulates(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulated an enumerable law")

        monkeypatch.setattr(mc, "empirical_tail", refuse)
        law, n_grid, B_grid = LAWS[name], [1, 4, 16], [0.5, 1.0, 2.0]
        report = verify_bounds(law, self.curves(law, n_grid, B_grid),
                               MCConfig(1, 10 ** 6, 1))
        assert report.all_pass
        assert all(e.trials == 0 for e in report.estimates.values())

    def test_over_cap_law_still_simulates(self, monkeypatch):
        calls = []
        simulate = mc.empirical_tail

        def counted(dist, cfg, B_grid):
            calls.append(cfg.n)
            return simulate(dist, cfg, B_grid)

        monkeypatch.setattr(mc, "empirical_tail", counted)
        law = DiscreteLaw.from_sample(np.arange(50.0) ** 1.5)
        report = verify_bounds(law, self.curves(law, [1, 8], [0.5, 3.0])[:2],
                               MCConfig(1, 2000, 1))
        assert calls == [8]
        assert report.estimates[(1, 0.5)].trials == 0
        assert report.estimates[(8, 0.5)].trials == 2000

    @pytest.mark.parametrize("flag, a, b", [
        ("--seed", "1", "2"),
        ("--trials", "1000", "1000000"),
        ("threads", "1", "2"),
    ])
    def test_cli_bytes_ignore_simulation_settings(self, flag, a, b, monkeypatch):
        def csv(value):
            argv = ["verify", "--dist", "discrete:-1:0.25,0:0.5,1:0.25",
                    "--n", "1,4,16", "--n-sup", "1:64", "--B", "0.5,1,2,3"]
            if flag == "threads":
                monkeypatch.setenv(mc.THREADS_ENV, value)
            else:
                argv += [flag, value]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            return buf.getvalue().encode()

        assert csv(a) == csv(b)

    @pytest.mark.parametrize("name", ["signs", "skewed3"])
    def test_bound_just_under_exact_fails_on_every_seed(self, name):
        law, n_grid, B_grid = LAWS[name], [1, 4, 16], list(DEFAULT_B_GRID)
        exact = {(n, e.B): e.point for n in n_grid
                 for e in _exact_tail(law, n, B_grid)}
        curves = [BoundCurve(EXP_LEVEL, n, tuple(
            BoundPoint(B, exact[(n, B)] * (1 - 1e-6)) for B in B_grid))
            for n in n_grid]
        positive = sum(v > 0.0 for v in exact.values())
        assert positive >= 10
        for seed in range(1, 6):
            report = verify_bounds(law, curves, MCConfig(1, 1000, seed))
            assert len(report.failures) == positive
            assert all(exact[(int(r.n_label), r.point.B)] > 0.0
                       for r in report.failures)


@st.composite
def atomic_laws(draw):
    """A centered law on 2 to 4 distinct atoms at scale 10^U(-6, 3)."""
    k = draw(st.integers(2, 4))
    values = np.array(draw(st.lists(st.integers(-100, 100), min_size=k,
                                    max_size=k, unique=True))) / 100.0
    weights = np.array(draw(st.lists(st.floats(0.02, 1.0), min_size=k,
                                     max_size=k)))
    probs = weights / weights.sum()
    values = values - probs @ values
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    return DiscreteLaw(np.column_stack((values * scale, probs)))


@settings(max_examples=60, deadline=None)
@given(law=atomic_laws(), n=st.integers(1, 64))
def test_every_bound_respects_the_exact_tail(law, n):
    B_grid = list(DEFAULT_B_GRID)
    exact = {e.B: e for e in _exact_tail(law, n, B_grid)}
    for curve in (exp_curve(law, n, B_grid), power_curve(law, n, B_grid)):
        for pt in curve.points:
            assert pt.value >= exact[pt.B].ci_lo * (1 - 1e-9), (curve.family, pt)
            if pt.optimizer.get("reason") == "support":
                assert pt.value == 0.0 and exact[pt.B].ci_hi == 0.0, pt
    at_one = {e.B: e for e in _exact_tail(law, 1, B_grid)}
    for pt in lower_q1_curve(law, B_grid).points:
        assert at_one[pt.B].ci_lo <= pt.value <= at_one[pt.B].ci_hi, pt


SKEWED = DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)])


class TestExactSup:
    """Sup rows and the tail certificate against the largest exact tail
    of a range: each must bound every n it stands for."""

    B_GRID = (math.e, 5.0, 20.0)

    @pytest.mark.parametrize("law, M", [
        (SKEWED, 2000),
        (DiscreteLaw([(-1.0, 0.9), (9.0, 0.1)]), 2000),
        (Rademacher(), 2000),
        (DiscreteLaw([(-1.0, 0.6), (0.0, 0.2), (3.0, 0.2)]), 300),
    ], ids=["skewed2", "rare9", "signs", "lazy3"])
    def test_sup_rows_and_certificate_dominate_exact_tails(self, law, M):
        # exact[n - 1, j]: the exact tail's lower end at n and B_GRID[j]
        exact = np.array([[e.ci_lo for e in _exact_tail(law, n, self.B_GRID)]
                          for n in range(1, M + 1)])
        # from_n[N - 1, j]: the largest exact tail over N <= n <= M
        from_n = np.maximum.accumulate(exact[::-1], axis=0)[::-1]
        for j, B in enumerate(self.B_GRID):
            for N in (1, 2, 9, 65):
                assert _tail_certificate(law, N, B) >= from_n[N - 1, j], (B, N)
        for curve in (exp_curve(law, (1, M), self.B_GRID),
                      power_curve(law, (1, M), self.B_GRID)):
            for pt in curve.points:
                j = self.B_GRID.index(pt.B)
                assert pt.value >= from_n[0, j], (curve.family, pt.B)

    def test_certificate_past_the_cells_is_tight_at_large_B(self):
        # the moment certificate settles this row after 64 cells
        (pt,) = exp_curve(SKEWED, (1, 4096), [20.0]).points
        assert pt.value < 1e-11
