"""End-to-end verification: bounds vs the referee, with a negative control.

The referee of a cell is the exact tail wherever the law's count
vectors can be enumerated, and a simulation otherwise.  The simulation
draws T(n) in chunks of about 2^18 draws, each from its own
deterministic substream, and wraps exact binomial intervals around the
hit counts.  The sign law is refereed exactly: its tail at each n is a
finite sum over the counts of +1 draws, bracketed at ties T = B.  The
gate reads its grid from the curves it is given: the first n of every
curve's range and the B of every point.  Every upper bound must clear
the lower end of the referee's interval (and the n = 1 lower bound stay
under the upper end).  A deliberately corrupted bound demonstrates that
the gate actually bites.
"""

import dataclasses

from selfnorm import (BoundCurve, MCConfig, Rademacher, empirical_tail,
                      exp_curve, lower_clt_curve, lower_q1_curve,
                      verify_bounds)

law = Rademacher()
n_grid = [1, 4, 16]
B_grid = [0.5, 1.0, 2.0]
trials, seed = 300000, 7

print("=== determinism: same seed, same counts, any worker count ===")
a = empirical_tail(law, MCConfig(4, 100000, 123), [1.0])[0]
b = empirical_tail(law, MCConfig(4, 100000, 123), [1.0])[0]
print(f"  run twice: hits {a.hits} and {b.hits} (bit-identical)")
print(f"  exact P(T(4) > 1) = 1/16 = 0.0625; estimate {a.point:.5f} "
      f"in [{a.ci_lo:.5f}, {a.ci_hi:.5f}]")

curves = [exp_curve(law, n, B_grid) for n in n_grid]
# the sup over n = 1..64 is checked against the worst of n = 1, 4, 16
curves.append(exp_curve(law, (1, 64), B_grid))
curves.append(lower_q1_curve(law, B_grid))
curves.append(lower_clt_curve(law, B_grid))

print("\n=== full verification sweep (sign law) ===")
rows = verify_bounds(law, curves, trials, seed)
print(f"  {len(rows)} cells checked, all pass: "
      f"{all(row.status != 'FAIL' for row in rows)}")
print("   family           n  B      bound        exact tail   margin")
for row in rows:
    if row.curve.side == "report":
        continue
    print(f"  {row.curve.family:>9}  {row.curve.label:>10}  {row.point.B:<4g} "
          f"{row.point.value:<12.4e} {row.estimate.point:<12.4e} "
          f"{row.margin:+.3e}  {row.status}")

print("\n=== negative control: a corrupted bound must fail ===")
good = exp_curve(law, 4, B_grid)
bad = BoundCurve(good.family, good.n, tuple(
    dataclasses.replace(pt, value=pt.value * 1e-6) for pt in good.points))
failures = [row for row in verify_bounds(law, [bad], trials, seed)
            if row.status == "FAIL"]
print(f"  bounds scaled by 1e-6: {len(failures)} FAIL cells")
for row in failures:
    print(f"    FAIL at n={row.curve.label}, B={row.point.B}: bound "
          f"{row.point.value:.2e} < exact floor {row.estimate.ci_lo:.2e}")

print("\nthe same pipeline runs from the command line:")
print("  selfnorm verify --dist rademacher --n 1,4,16 --n-sup 1:64 \\")
print("      --B 0.5,1,2 --trials 1000000 --seed 7 --output report.csv")
print("(exit status 1 whenever a FAIL cell appears, with one line per")
print(" FAIL cell on stderr)")
