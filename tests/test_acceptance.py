"""Acceptance gate: every headline guarantee at its stated tolerance.

One criterion per test, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The referees
(exact tails for the sign law, 10^6-trial simulations for the density
laws) are computed once per session and shared across criteria.
"""

import dataclasses
import math

import numpy as np
import pytest

from selfnorm import mc
from selfnorm.bounds import (DEFAULT_B_GRID, exp_curve, lower_q1_curve,
                             _exp_tail_point, _power_tail_point)
from selfnorm.cli import RunConfig, run
from selfnorm.convex import fenchel
from selfnorm.distributions import Rademacher, StandardGaussian, UniformSymmetric
from selfnorm.gls import bphi_tail_bound, degenerate_psi, gls_tail_bound
from selfnorm.mc import MCConfig, empirical_tail

E = math.e
SQRT3 = math.sqrt(3.0)
N_GRID = (1, 4, 16, 64, 256)
TRIALS = 10 ** 6
SEED = 20240817


def report(num, ok, desc):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def lncosh(x):
    a = abs(x)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def lncosh_conjugate(s):
    return (1 + s) / 2 * math.log(1 + s) + (1 - s) / 2 * math.log(1 - s)


@pytest.fixture(scope="module")
def laws():
    return {
        "rademacher": Rademacher(),
        "gaussian": StandardGaussian(),
        "uniform": UniformSymmetric(SQRT3),
    }


@pytest.fixture(scope="module")
def referee(laws):
    """Tail estimates: {(law name, n): {B: TailEstimate}}, exact for the
    sign law (n + 1 count vectors at n) and simulated for the others."""
    table = {}
    for name, law in laws.items():
        for n in N_GRID:
            if name == "rademacher":
                ests = mc._exact_tail(law, n, DEFAULT_B_GRID)
            else:
                cfg = MCConfig(n=n, trials=TRIALS, seed=SEED + n)
                ests = empirical_tail(law, cfg, DEFAULT_B_GRID)
            table[(name, n)] = {est.B: est for est in ests}
    return table


def test_criterion_01_exponential_domination(laws, referee):
    violations = []
    for name, law in laws.items():
        for n in N_GRID:
            for B in DEFAULT_B_GRID:
                bound = _exp_tail_point(law, n, B).value
                floor = referee[(name, n)][B].ci_lo
                if bound < floor:
                    violations.append((name, n, B, bound, floor))
    report(1, not violations,
           f"optimized-exponent bound >= exact/MC tail floor on "
           f"{len(laws) * len(N_GRID) * len(DEFAULT_B_GRID)} cells "
           f"(violations: {violations})")


def test_criterion_02_power_domination(laws, referee):
    violations = []
    clamped = 0
    missing_p = []
    for name, law in laws.items():
        for n in N_GRID:
            for B in DEFAULT_B_GRID:
                if B < E:
                    continue
                pt = _power_tail_point(law, n, B)
                floor = referee[(name, n)][B].ci_lo
                if pt.value < floor:
                    violations.append((name, n, B, pt.value, floor))
                if B > E:
                    if pt.arg_star is None or not math.isfinite(pt.arg_star):
                        missing_p.append((name, n, B))
                else:
                    clamped += 1  # B = e: bound saturates at 1, nothing attained
    report(2, not violations and not missing_p,
           f"moment-level bound >= tail floor on all B >= e cells; "
           f"attaining p finite on all B > e cells ({clamped} boundary cells "
           f"saturate at 1); violations: {violations}; missing p: {missing_p}")


def test_criterion_03_sign_law_quadratic_exponent(laws):
    ratios = {}
    ok = True
    for B in (0.5, 1.0, 1.5):
        value = exp_curve(laws["rademacher"], (1, 10 ** 4), [B]).points[0].value
        ratios[B] = round(-math.log(value) * 2.0 / (B * B), 6)
        # 1 <= -ln(value)/(B^2/2) <= 1.1, read on the value side: the
        # certified sup is exactly exp(-B^2/2), which the log round trip
        # can put a rounding error below 1
        ok = ok and math.exp(-1.1 * B * B / 2.0) <= value <= math.exp(-B * B / 2.0)
    report(3, ok,
           f"sign-law sup bound exponent vs B^2/2 ratio in [1.0, 1.1]: {ratios}")


def test_criterion_04_gaussian_inverse_threshold_scaling(laws):
    gauss = laws["gaussian"]
    products = {}
    ok = True
    for B in (5.0, 10.0, 20.0, 50.0):
        value = exp_curve(gauss, (1, 4096), [B]).points[0].value
        products[B] = round(B * value, 4)
        ok = ok and 0.3 <= B * value <= 3.0
    single = 50.0 * _exp_tail_point(gauss, 1, 50.0).value
    target = math.exp(0.5) / 2.0
    ok_single = abs(single - target) <= 0.05 * target
    report(4, ok and ok_single,
           f"B * sup-bound in [0.3, 3] for B in 5..50: {products}; "
           f"n=1 cell at B=50 gives {single:.4f} vs {target:.4f} (within 5%)")


def test_criterion_05_lower_bound_asymptotics(laws):
    got = 100.0 * lower_q1_curve(laws["gaussian"], [100.0]).points[0].value
    target = 1.0 / math.sqrt(2.0 * math.pi)
    ok_gauss = abs(got - target) <= 0.01 * target
    ok_uni = True
    uni = laws["uniform"]
    for B in (1.0, 2.0, E, 5.0, 20.0, 100.0):
        exact = 1.0 / (2.0 * SQRT3 * B)
        q1 = lower_q1_curve(uni, [B]).points[0].value
        ok_uni = ok_uni and abs(q1 - exact) <= 1e-10 * exact
    report(5, ok_gauss and ok_uni,
           f"B*Q1 for the normal law at B=100: {got:.6f} vs {target:.6f} "
           f"(1%); flat law exact 1/(2*sqrt(3)*B) to 1e-10 relative")


def test_criterion_06_sandwich_at_n1(laws, referee):
    failures = []
    for name, law in laws.items():
        if name == "rademacher":
            ests = {B: None for B in DEFAULT_B_GRID}
            cfg = MCConfig(n=1, trials=TRIALS, seed=SEED + 1)
            ests = {e.B: e for e in empirical_tail(law, cfg, DEFAULT_B_GRID)}
        else:
            ests = referee[(name, 1)]
        for B in DEFAULT_B_GRID:
            est = ests[B]
            if lower_q1_curve(law, [B]).points[0].value > est.ci_hi:
                failures.append(("lower", name, B))
            if _exp_tail_point(law, 1, B).value < est.ci_lo:
                failures.append(("upper", name, B))
    report(6, not failures,
           f"n=1 sandwich: exact lower <= MC upper CI and exponent bound >= "
           f"MC lower CI for all laws and thresholds; failures: {failures}")


def test_criterion_07_markov_recovery():
    worst = 0.0
    K = 1.3
    for r in (2.0, 4.0, 7.5):
        for ratio in (3.0, 10.0, 100.0):
            y = ratio * K
            got = gls_tail_bound(degenerate_psi(r), K, y)
            exact = (K / y) ** r
            worst = max(worst, abs(got - exact) / exact)
    report(7, worst <= 1e-12,
           f"flat-generator tail equals the plain moment bound (K/y)^r; "
           f"worst relative error {worst:.2e} <= 1e-12")


def test_criterion_08_conjugate_oracles():
    worst = 0.0
    for u in np.linspace(0.0, 5.0, 21):
        worst = max(worst, abs(fenchel(lambda x: x * x / 2, u) - u * u / 2))
    for u in np.linspace(0.05, 0.95, 19):
        worst = max(worst, abs(fenchel(lncosh, u) - lncosh_conjugate(u)))
    for m in (1.5, 2.0, 3.0):
        mp = m / (m - 1.0)
        for u in np.linspace(0.2, 4.0, 16):
            worst = max(worst,
                        abs(fenchel(lambda x: x ** m / m, u) - u ** mp / mp))
    ok_fenchel = worst <= 1e-7
    phi2 = lambda lam: lam * lam / 2.0
    worst_tail = max(abs(bphi_tail_bound(phi2, 1.0, u) - math.exp(-u * u / 2))
                     for u in np.linspace(0.0, 6.0, 25))
    report(8, ok_fenchel and worst_tail <= 1e-9,
           f"numeric conjugates match closed forms (worst {worst:.2e} <= 1e-7); "
           f"subgaussian tail exact to {worst_tail:.2e} <= 1e-9")


def test_criterion_09_deterministic_csv(tmp_path, monkeypatch):
    # a density law, so that every n is simulated: an atomic law's small n
    # are enumerated exactly and would test no thread at all
    law = UniformSymmetric(SQRT3)
    passes, simulate = [], mc.empirical_tail

    def spy(dist, cfg, B_grid):
        passes.append(cfg.n)
        return simulate(dist, cfg, B_grid)

    def cfg(path):
        return RunConfig(
            command="verify", distribution=law, n_grid=[1, 4, 16],
            B_grid=[0.5, 1.0, 2.0], n_sup_range=None, trials=200000, seed=7,
            kr_constant=0.6379, confidence=0.999, output_path=str(path))

    monkeypatch.setattr(mc, "empirical_tail", spy)
    monkeypatch.setenv("SELFNORM_THREADS", "1")
    assert run(cfg(tmp_path / "serial.csv")) == 0
    monkeypatch.setenv("SELFNORM_THREADS", "6")
    assert run(cfg(tmp_path / "threaded.csv")) == 0
    same = (tmp_path / "serial.csv").read_bytes() == \
        (tmp_path / "threaded.csv").read_bytes()
    report(9, same and passes == [1, 4, 16] * 2,
           "verify CSV byte-identical across 1 and 6 worker threads with the "
           f"same seed (simulated n: {passes})")


def test_criterion_10_negative_control(tmp_path, monkeypatch):
    import selfnorm.bounds as bd

    true_point = bd._exp_tail_point

    def corrupted(dist, n, B):
        pt = true_point(dist, n, B)
        return dataclasses.replace(pt, value=pt.value * 1e-6)

    monkeypatch.setattr(bd, "_exp_tail_point", corrupted)
    cfg = RunConfig(
        command="verify", distribution=Rademacher(), n_grid=[1, 4],
        B_grid=[0.5, 1.0], n_sup_range=None, trials=100000, seed=3,
        kr_constant=0.6379, confidence=0.999,
        output_path=str(tmp_path / "bad.csv"))
    status = run(cfg)
    text = (tmp_path / "bad.csv").read_text()
    report(10, status == 1 and "FAIL" in text,
           f"bounds scaled by 1e-6 produce FAIL rows and exit status 1 "
           f"(got status {status})")
