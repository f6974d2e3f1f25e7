"""Simulation, interval exactness, determinism, and the verification gate."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from selfnorm import mc
from selfnorm.bounds import BoundCurve, exp_curve, lower_clt_curve, lower_q1_curve
from selfnorm.distributions import (DensityLaw, DiscreteLaw, Rademacher,
                                    StandardGaussian, UniformSymmetric)
from selfnorm.mc import (MCConfig, clopper_pearson, empirical_tail,
                         self_normalized_stat, verify_bounds)


def rademacher_exact_tail(n, B):
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    t = math.sqrt(n) * signs.sum(axis=1) / (signs ** 2).sum(axis=1)
    return float((t > B).mean())


class TestStatistic:
    def test_all_plus_ones(self):
        assert self_normalized_stat(np.ones(4)) == 2.0

    def test_balanced_signs(self):
        assert self_normalized_stat(np.array([1.0, 1.0, -1.0, -1.0])) == 0.0

    def test_direct_arithmetic(self):
        got = self_normalized_stat(np.array([1.0, -0.5]))
        assert got == pytest.approx(math.sqrt(2.0) * 0.5 / 1.25)

    def test_zero_denominator_maps_to_zero(self):
        assert self_normalized_stat(np.zeros(3)) == 0.0

    def test_batch_shape(self):
        x = np.ones((5, 4))
        assert self_normalized_stat(x).shape == (5,)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_off_unit_scale(self, scale):
        # T(a*x) = T(x)/a, where x^2 flushes to 0 or overflows unscaled
        got = self_normalized_stat(np.array([scale, scale]))
        assert got == pytest.approx(math.sqrt(2.0) / scale, rel=1e-15, abs=0.0)
        rows = self_normalized_stat(np.array([[scale, scale], [1.0, -0.5]]))
        assert rows.tolist() == [got, self_normalized_stat(np.array([1.0, -0.5]))]


class TestClopperPearson:
    def test_degenerate_ends(self):
        lo, hi = clopper_pearson(0, 100, 0.999)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = clopper_pearson(100, 100, 0.999)
        assert hi == 1.0 and 0.9 < lo < 1.0

    def test_orders_around_point(self):
        lo, hi = clopper_pearson(7, 1000, 0.999)
        assert 0.0 <= lo <= 0.007 <= hi <= 1.0

    def test_exact_coverage_enumeration(self):
        # exact check: P(true p outside CI) <= alpha for binomial(20, 0.3)
        from scipy.stats import binom
        n, p, conf = 20, 0.3, 0.95
        miss = 0.0
        for k in range(n + 1):
            lo, hi = clopper_pearson(k, n, conf)
            if not lo <= p <= hi:
                miss += binom.pmf(k, n, p)
        assert miss <= 1.0 - conf + 1e-12


class TestEmpiricalTail:
    def test_rademacher_single_direct(self):
        law = Rademacher()
        cfg = MCConfig(n=1, trials=10 ** 6, seed=2)
        (est,) = empirical_tail(law, cfg, [0.5])
        assert 0.498 <= est.point <= 0.502
        assert est.ci_lo <= 0.5 <= est.ci_hi

    def test_unreachable_threshold_has_zero_hits(self):
        law = Rademacher()
        cfg = MCConfig(n=4, trials=20000, seed=5)
        (est,) = empirical_tail(law, cfg, [2.5])
        assert est.hits == 0
        assert est.ci_lo == 0.0

    def test_enumerated_value_inside_ci(self):
        law = Rademacher()
        cfg = MCConfig(n=4, trials=10 ** 6, seed=7)
        (est,) = empirical_tail(law, cfg, [1.0])
        assert est.ci_lo <= rademacher_exact_tail(4, 1.0) <= est.ci_hi

    def test_support_of_simulated_statistic(self):
        law = Rademacher()
        x = law.sample(np.random.default_rng(3), (5000, 4))
        t = self_normalized_stat(x)
        assert set(np.unique(np.abs(t))) <= {0.0, 1.0, 2.0}

    def test_estimate_fields_consistent(self):
        law = StandardGaussian()
        cfg = MCConfig(n=2, trials=5000, seed=1, confidence=0.99)
        for est in empirical_tail(law, cfg, [0.5, 1.0, 2.0]):
            assert est.trials == 5000
            assert est.point == est.hits / est.trials
            assert 0.0 <= est.ci_lo <= est.point <= est.ci_hi <= 1.0
            assert est.confidence == 0.99

    def test_deterministic_across_worker_counts(self, monkeypatch):
        # chunks of 4096 trials: 15 of them, the last one partial
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", 3 * 4096)
        law = StandardGaussian()
        cfg = MCConfig(n=3, trials=60000, seed=11)
        monkeypatch.setenv("SELFNORM_THREADS", "1")
        serial = [e.hits for e in empirical_tail(law, cfg, [0.5, 1.5])]
        monkeypatch.setenv("SELFNORM_THREADS", "6")
        threaded = [e.hits for e in empirical_tail(law, cfg, [0.5, 1.5])]
        assert serial == threaded

    @pytest.mark.parametrize("k, n", [(511, 16), (-530, 1)])
    def test_hits_do_not_depend_on_scale(self, k, n):
        # T of the law on [-2^k, 2^k] is 2^-k times T on [-1, 1], draw by
        # draw; unscaled, the squares overflow at 2^511 and flush to 0
        # at 2^-530
        cfg = MCConfig(n=n, trials=2000, seed=1)
        (unit,) = empirical_tail(UniformSymmetric(1.0), cfg, [0.5])
        (wide,) = empirical_tail(UniformSymmetric(math.ldexp(1.0, k)), cfg,
                                 [math.ldexp(0.5, -k)])
        assert wide.hits == unit.hits

    def test_seed_changes_stream(self):
        law = StandardGaussian()
        a = empirical_tail(law, MCConfig(2, 20000, 1), [0.5])[0].hits
        b = empirical_tail(law, MCConfig(2, 20000, 2), [0.5])[0].hits
        assert a != b

    def test_seeds_apart_by_2_64_draw_different_streams(self):
        # seeds below 2^64 keep their streams; 2^64 + 1 is not seed 1
        law = UniformSymmetric(math.sqrt(3.0))
        hits = [empirical_tail(law, MCConfig(4, 2000, seed), [0.5])[0].hits
                for seed in (1, 2 ** 64 + 1)]
        assert hits[0] == 647
        assert hits[1] != hits[0]

    def test_seeds_apart_by_2_32_draw_different_chunk_streams(self):
        # the chunk index never aliases a seed's higher 32-bit word
        a = mc._chunk_rng(2 ** 32 + 5, 0).random(8)
        b = mc._chunk_rng(5, 1).random(8)
        assert not np.array_equal(a, b)

    def test_ci_width_scales_with_trials(self):
        # quadrupling the trial count should halve the interval width,
        # up to 25% stochastic slack
        law = Rademacher()
        w = []
        for trials in (20000, 80000):
            (est,) = empirical_tail(law, MCConfig(4, trials, 13), [1.0])
            w.append(est.ci_hi - est.ci_lo)
        assert w[1] == pytest.approx(w[0] / 2.0, rel=0.25)

    def test_coverage_over_many_seeds(self):
        # the enumerable n=4 tail at B=1 is 1/16; with exact intervals the
        # miss rate over seeds must stay within the nominal 0.1% (slack)
        law = Rademacher()
        truth = rademacher_exact_tail(4, 1.0)
        inside = 0
        runs = 1000
        for seed in range(runs):
            (est,) = empirical_tail(law, MCConfig(4, 2000, seed), [1.0])
            inside += est.ci_lo <= truth <= est.ci_hi
        assert inside / runs >= 0.995

    def test_atom_at_zero_is_safe(self):
        law = DiscreteLaw([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        cfg = MCConfig(n=2, trials=20000, seed=3)
        (est,) = empirical_tail(law, cfg, [0.5])
        assert 0.0 <= est.point <= 1.0

    def test_custom_density_full_pipeline(self):
        # a user-supplied density run through bounds + simulation: the
        # triangular law on [-1, 1] (density 1 - |x|)
        import math

        import numpy as np
        from selfnorm.bounds import _exp_tail_point
        from selfnorm.distributions import DensityLaw

        law = DensityLaw(lambda x: np.maximum(1.0 - np.abs(x), 0.0),
                         support=(-1.0, 1.0), name="triangular")
        assert law.sigma2 == pytest.approx(1.0 / 6.0, rel=1e-9)
        cfg = MCConfig(n=4, trials=100000, seed=19)
        for est in empirical_tail(law, cfg, [0.5, 1.0, 2.0]):
            assert _exp_tail_point(law, 4, est.B).value >= est.ci_lo
        (est1,) = empirical_tail(law, MCConfig(1, 100000, 21), [2.0])
        # exact: integral of 1-x on (0, 1/2)
        q1 = lower_q1_curve(law, [2.0]).points[0].value
        assert q1 == pytest.approx(3.0 / 8.0, rel=1e-9)
        assert est1.ci_lo <= q1 <= est1.ci_hi


def one_shot_hits(dist, cfg, B_grid):
    """The plain chunk kernel: one ``sample`` draw of (m, n) per chunk,
    the statistic of every row, and a broadcast compare against every B."""
    B_arr = np.asarray(B_grid, dtype=float)
    hits = np.zeros(B_arr.size, dtype=np.int64)
    for k in range(-(-cfg.trials // cfg.chunk_size)):
        m = min(cfg.chunk_size, cfg.trials - k * cfg.chunk_size)
        t = self_normalized_stat(dist.sample(mc._chunk_rng(cfg.seed, k),
                                             (m, cfg.n)))
        hits += (t[:, None] > B_arr[None, :]).sum(axis=0)
    return hits.tolist()


STREAM_LAWS = {
    "rademacher": Rademacher(),
    "gaussian": StandardGaussian(),
    "uniform": UniformSymmetric(math.sqrt(3.0)),
    "three-atom": DiscreteLaw([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
    "empirical": DiscreteLaw.from_sample(
        np.random.default_rng(4).standard_normal(50)),
    "density": DensityLaw(lambda x: np.maximum(1.0 - np.abs(x), 0.0),
                          support=(-1.0, 1.0), name="triangular"),
}


class TestBlockedKernel:
    """The row sums, the squares taken in place and the binned counts
    leave every hit count of the plain kernel unchanged."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    # a small chunk makes many chunks and a partial last one at every n
    @pytest.mark.parametrize("chunk_draws", [mc._CHUNK_DRAWS, 50])
    @pytest.mark.parametrize("n", [1, 3, 16, 257])
    @pytest.mark.parametrize("law", sorted(STREAM_LAWS))
    def test_hits_match_one_shot_kernel(self, law, n, chunk_draws, threads,
                                        monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        monkeypatch.setenv("SELFNORM_THREADS", threads)
        dist = STREAM_LAWS[law]
        # unsorted, with repeats, and with values the statistic attains:
        # sqrt(n)*s/n is the rademacher T(n) of a sign sum s
        root_n = math.sqrt(n)
        B_grid = [1.0, root_n * 1.0 / n, 0.25, 2.0, 1.0, root_n * 3.0 / n, 0.5]
        cfg = MCConfig(n=n, trials=3001, seed=9)
        ests = empirical_tail(dist, cfg, B_grid)
        assert [e.B for e in ests] == B_grid
        assert [e.hits for e in ests] == one_shot_hits(dist, cfg, B_grid)


class TestVerifyBounds:
    def make_curves(self, law, n_grid, B_grid):
        curves = [exp_curve(law, n, B_grid) for n in n_grid]
        curves.append(lower_q1_curve(law, B_grid))
        curves.append(lower_clt_curve(law, B_grid))
        return curves

    def test_full_pass(self):
        law = Rademacher()
        n_grid, B_grid = [1, 4, 16], [0.5, 1.0, 2.0]
        rows = verify_bounds(law, self.make_curves(law, n_grid, B_grid), 10 ** 5, 17)
        assert all(r.status in ("PASS", "REPORT") for r in rows)
        families = {r.curve.family for r in rows}
        assert families == {"ExpLevel", "LowerQ1", "LowerCLT"}
        assert all(r.status == "REPORT" for r in rows
                   if r.curve.family == "LowerCLT")

    def test_rows_are_the_curves_points_in_order(self):
        law = Rademacher()
        curves = self.make_curves(law, [1, 4], [2.0, 0.5, 1.0])
        curves.append(exp_curve(law, (4, 64), [1.0, 0.5]))
        rows = verify_bounds(law, curves, 1000, 3)
        assert [(r.curve, r.point) for r in rows] == [
            (c, pt) for c in curves for pt in c.points]
        assert all(r.estimate.B == r.point.B for r in rows)

    @pytest.mark.parametrize("trials, confidence", [(0, 0.999), (1000, 1.5)])
    def test_bad_settings_raise_without_simulating(self, trials, confidence,
                                                   monkeypatch):
        def refuse(*args):
            raise AssertionError("simulated an enumerable law")

        monkeypatch.setattr(mc, "empirical_tail", refuse)
        law = Rademacher()
        with pytest.raises(ValueError):
            verify_bounds(law, [exp_curve(law, 4, [0.5])], trials, 1, confidence)

    def test_sup_curve_checked_against_worst_n(self):
        law = Rademacher()
        B_grid = [0.5, 1.0]
        curves = [exp_curve(law, n, B_grid) for n in (1, 4)]
        curves.append(exp_curve(law, (1, 64), B_grid))
        rows = verify_bounds(law, curves, 10 ** 4, 23)
        assert all(r.status == "PASS" for r in rows)
        fixed, sup_rows = rows[:4], rows[4:]
        for row in sup_rows:
            assert row.estimate is max(
                (r.estimate for r in fixed if r.point.B == row.point.B),
                key=lambda e: e.ci_lo)

    def test_sup_curve_uses_only_grid_n_in_its_range(self):
        # the n = 1 estimate (about 0.5 at B = 0.25) lies outside 16..64
        law = Rademacher()
        B_grid = [0.25, 0.5, 1.0]
        curves = [exp_curve(law, n, B_grid) for n in (1, 16)]
        curves.append(exp_curve(law, (16, 64), B_grid))
        rows = verify_bounds(law, curves, 20000, 5)
        at_16, sup_rows = rows[3:6], rows[6:]
        assert len(sup_rows) == 3
        for row, fixed in zip(sup_rows, at_16):
            assert row.curve.label == "sup(16..64)"
            assert row.estimate is fixed.estimate

    def test_unknown_family_raises(self):
        law = Rademacher()
        curve = BoundCurve("Bogus", 4, exp_curve(law, 4, [0.5]).points)
        with pytest.raises(ValueError, match="unknown bound family 'Bogus'"):
            verify_bounds(law, [curve], 10 ** 3, 1)

    def test_corrupted_bound_flags_fail(self):
        law = Rademacher()
        curve = exp_curve(law, 4, [0.5, 1.0])
        corrupted = BoundCurve(curve.family, curve.n, tuple(
            dataclasses.replace(pt, value=pt.value * 1e-6)
            for pt in curve.points))
        rows = verify_bounds(law, [corrupted], 10 ** 4, 29)
        assert [r.status for r in rows] == ["FAIL", "FAIL"]

    def test_margins_recorded(self):
        law = Rademacher()
        (row,) = verify_bounds(law, [exp_curve(law, 4, [0.5])], 10 ** 4, 31)
        assert row.margin == pytest.approx(row.point.value - row.estimate.ci_lo)
        assert not hasattr(row, "tightness")


class TestMCConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCConfig(n=0, trials=10, seed=1)
        with pytest.raises(ValueError):
            MCConfig(n=1, trials=0, seed=1)
        with pytest.raises(ValueError):
            MCConfig(n=1, trials=10, seed=1, confidence=1.5)

    @pytest.mark.parametrize("field", ["n", "trials", "seed"])
    def test_integer_fields(self, field):
        # a float n or trials passed and then failed inside the simulation
        args = {"n": 4, "trials": 100, "seed": 1, field: 2.5}
        with pytest.raises(ValueError, match="n, trials and seed must be integers"):
            MCConfig(**args)
        args[field] = np.int64(3)
        assert getattr(MCConfig(**args), field) == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            MCConfig(n=1, trials=10, seed=-1)
        assert MCConfig(n=1, trials=10, seed=0).seed == 0

    def test_chunk_size_from_n(self):
        assert [MCConfig(n, 10, 1).chunk_size for n in (1, 3, 2 ** 18, 10 ** 6)] \
            == [2 ** 18, 87381, 1, 1]
