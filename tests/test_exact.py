"""The exact referee for finite atomic laws: enumeration against brute
force, the tie bracket, the cap, its use in ``verify``, a random-law
property test of every bound family against the exact tail, and the
sup-over-n rows and tail certificate against the exact tails of a range."""

import contextlib
import csv
import io
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import cli, mc
from selfnorm.bounds import (DEFAULT_B_GRID, EXP_LEVEL, BoundCurve, BoundPoint,
                             _tail_certificate, exp_curve, lower_q1_curve,
                             power_curve)
from selfnorm.distributions import DiscreteLaw, Rademacher, StandardGaussian
from selfnorm.gls import _tail_value
from selfnorm.mc import _exact_tail, self_normalized_stat, verify_bounds

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
            assert est.point == pytest.approx(law.q1(B), rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ["signs", "skewed2", "lazy3", "skewed3"])
    def test_single_draw_path_matches_enumeration(self, name):
        # n = 1 skips the enumeration; the B grid puts ties on every atom
        law = LAWS[name]
        B_grid = sorted(set(DEFAULT_B_GRID)
                        | {1.0 / v for v in law._values.tolist() if v > 0.0})
        s1, s2, weight = mc._count_vectors(law._values, law._probs, 1)
        general = mc._tail_estimates(1, mc._stat_from_sums(1.0, s1, s2),
                                     weight, B_grid)
        for fast, slow in zip(_exact_tail(law, 1, B_grid), general, strict=True):
            assert fast.B == slow.B
            for field in ("point", "ci_lo", "ci_hi"):
                assert getattr(fast, field) == pytest.approx(
                    getattr(slow, field), rel=1e-15, abs=0), (fast.B, field)

    def test_single_draw_tail_of_a_large_sample_is_fast(self):
        # the bracket runs from P(0 < xi < 1/B) to P(0 < xi <= 1/B); one
        # enumeration pass per atom would take seconds on these 1e5 atoms
        sample = np.random.default_rng(11).standard_normal(100_000)
        law = DiscreteLaw.from_sample(sample)
        B_grid = [0.25, 1.0, 1.0 / law._values[-1], 5.0]
        start = time.perf_counter()
        ests = _exact_tail(law, 1, B_grid)
        assert time.perf_counter() - start < 1.0
        for est in ests:
            closed = law._probs[(law._values > 0.0)
                                & (law._values <= 1.0 / est.B)].sum()
            assert est.point == pytest.approx(law.q1(est.B), rel=1e-12, abs=0)
            assert est.ci_hi >= closed

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_huge_atoms_scale_exactly(self, n):
        # the squares of 1e154 overflow: T is formed on atoms scaled by a
        # power of two, and T(n) of the law is the sign law's T(n)/1e154
        law = DiscreteLaw([(-1e154, 0.5), (1e154, 0.5)])
        B_grid = [b * 1e-154 for b in sorted(set(DEFAULT_B_GRID) | set(TIE_B))]
        signs = _exact_tail(Rademacher(), n, [b * 1e154 for b in B_grid])
        for big, est in zip(_exact_tail(law, n, B_grid), signs, strict=True):
            for field in ("point", "ci_lo", "ci_hi"):
                assert getattr(big, field) == getattr(est, field), (est.B, field)
        (tiny,) = _exact_tail(law, n, [1e-300])
        assert tiny.point == pytest.approx(
            {1: 0.5, 4: 5 / 16, 16: 0.4018096923828125}[n], rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_atom_keeps_its_square(self, n):
        # scaled by the largest atom alone, the square of 1e-300 flushes
        # to 0 and T reads 0; only n draws of it reach T = sqrt(n)*1e300
        law = DiscreteLaw([(-1.0, 0.5), (1.0, 0.499999999), (1e-300, 1e-9)])
        t, weight = brute_force(law, n)
        for est in _exact_tail(law, n, [1e299, 5e299]):
            want = weight[t > est.B].sum()
            assert want == pytest.approx(1e-9 ** n, rel=1e-12, abs=0)
            assert est.point == pytest.approx(want, rel=1e-12, abs=0)

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
        rows = verify_bounds(law, self.curves(law, n_grid, B_grid), 10 ** 6, 1)
        assert all(r.status == "PASS" for r in rows)
        assert all(r.estimate.trials == 0 for r in rows)

    def test_over_cap_law_still_simulates(self, monkeypatch):
        calls = []
        simulate = mc.empirical_tail

        def counted(dist, cfg, B_grid):
            calls.append(cfg.n)
            return simulate(dist, cfg, B_grid)

        monkeypatch.setattr(mc, "empirical_tail", counted)
        law = DiscreteLaw.from_sample(np.arange(50.0) ** 1.5)
        rows = verify_bounds(law, self.curves(law, [1, 8], [0.5, 3.0])[:2], 2000, 1)
        assert calls == [8]
        assert [(r.estimate.n, r.estimate.B, r.estimate.trials) for r in rows] == [
            (1, 0.5, 0), (1, 3.0, 0), (8, 0.5, 2000), (8, 3.0, 2000)]

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

    @pytest.mark.parametrize("spec", ["discrete:-1:0.25,-1:0.25,1:0.5",
                                      "discrete:-1:0.5,1:0.5,2:0",
                                      "discrete:-1:0.5,1:0.5,1e200:0"])
    def test_spellings_of_the_sign_law_verify_as_signs(self, spec):
        def rows(dist):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--dist", dist, "--n", "1,4,16,1024",
                          "--n-sup", "1:4096", "--trials", "20000"])
            assert exc.value.code == 0
            return [row[1:] for row in csv.reader(io.StringIO(buf.getvalue()))]

        assert rows(spec) == rows("rademacher")
        law = cli.parse_distribution(spec)
        assert _exact_tail(law, 1024, [1.0]) is not None

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
            failures = [r for r in verify_bounds(law, curves, 1000, seed)
                        if r.status == "FAIL"]
            assert len(failures) == positive
            assert all(exact[(r.curve.n, r.point.B)] > 0.0 for r in failures)


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
            if pt.objective == math.inf:
                assert pt.value == 0.0 and exact[pt.B].ci_hi == 0.0, pt
    at_one = {e.B: e for e in _exact_tail(law, 1, B_grid)}
    for pt in lower_q1_curve(law, B_grid).points:
        assert at_one[pt.B].ci_lo <= pt.value <= at_one[pt.B].ci_hi, pt


SKEWED = DiscreteLaw([(-1.0, 2 / 3), (2.0, 1 / 3)])


class TestExactSup:
    """Sup rows and the tail certificate against the largest exact tail
    of a range: each must bound every n it stands for."""

    # below e the certificate is Rosenthal's only where B*sigma^2 > e:
    # skewed2 (sigma^2 = 2), rare9 (9) and lazy3 (2.4)
    B_GRID = (1.5, 2.0, math.e, 5.0, 20.0)

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
                tail = _tail_value(_tail_certificate(law, N, B))
                assert tail >= from_n[N - 1, j], (B, N)
        for curve in (exp_curve(law, (1, M), self.B_GRID),
                      power_curve(law, (1, M), self.B_GRID)):
            for pt in curve.points:
                j = self.B_GRID.index(pt.B)
                assert pt.value >= from_n[0, j], (curve.family, pt.B)

    @pytest.mark.parametrize("kr", [0.6379, 1.0, 2.0])
    def test_power_sup_row_dominates_its_cells_at_any_kr(self, kr):
        # the certificate bounds the cells at their own Rosenthal constant
        sup = power_curve(SKEWED, (64, 4096), self.B_GRID, kr)
        for n in (64, 128, 1000, 4096):
            cells = power_curve(SKEWED, n, self.B_GRID, kr)
            for cell, row in zip(cells.points, sup.points):
                assert row.value >= cell.value, (n, row.B)

    def test_certificate_past_the_cells_is_tight_at_large_B(self):
        # the moment certificate settles this row after 64 cells
        (pt,) = exp_curve(SKEWED, (1, 4096), [20.0]).points
        assert pt.value < 1e-11
