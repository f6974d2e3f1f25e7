"""Lower bounds for the sup-over-n tail, and the n = 1 sandwich.

Two reference points from below:

* Q_1(B) = P(0 < xi < 1/B) is the exact n = 1 tail (T(1) = 1/xi), hence
  a true lower bound for the supremum over n.  For laws with a positive
  density at 0 it decays like density(0)/B: the sup tail is NOT
  exponentially small in B, unlike the classical normalized-sum tail.
* The limiting normal tail 1 - Phi(B) (reported next to the heuristic
  exp(-B^2/2), which its curve carries as each point's objective;
  they disagree noticeably, so both are printed and neither is asserted
  as a finite-n bound).
"""

import math

from selfnorm import (MCConfig, StandardGaussian, UniformSymmetric,
                      empirical_tail, exp_curve, lower_clt_curve,
                      lower_q1_curve)

gauss = StandardGaussian()
uni = UniformSymmetric(math.sqrt(3.0))

print("=== the 1/B decay of the single-observation tail ===")
print("   B      gaussian Q1    B*Q1        uniform Q1     B*Q1")
q1_B = [2.0, 10.0, 100.0, 1000.0]
for g_pt, u_pt in zip(lower_q1_curve(gauss, q1_B).points,
                      lower_q1_curve(uni, q1_B).points):
    B, q_g, q_u = g_pt.B, g_pt.value, u_pt.value
    print(f"  {B:>6g}   {q_g:.4e}   {B * q_g:.5f}     {q_u:.4e}   {B * q_u:.5f}")
print(f"limits: gaussian density at 0 = 1/sqrt(2*pi) = "
      f"{1 / math.sqrt(2 * math.pi):.5f}; uniform = 1/(2*sqrt(3)) = "
      f"{1 / (2 * math.sqrt(3)):.5f}")

print("\n=== two limiting-tail reference values of the gaussian (report-only) ===")
print("   B     exp(-B^2/2)    1 - Phi(B)")
for ref in lower_clt_curve(gauss, [1.0, 2.0, 3.0]).points:
    print(f"  {ref.B:>4}   {ref.objective:.6f}     {ref.value:.6f}")
print("(the quadratic heuristic overshoots the actual normal tail)")

print("\n=== sandwiching the exact n = 1 tail by simulation ===")
cfg = MCConfig(n=1, trials=200000, seed=42)
B_grid = [0.5, 1.0, 2.0, 5.0]
ests = empirical_tail(gauss, cfg, B_grid)
print("gaussian, 200k trials, 99.9% intervals:")
print("   B     lower Q1      MC interval              upper exp-bound")
lower = lower_q1_curve(gauss, B_grid).points
upper = exp_curve(gauss, 1, B_grid).points
for est, lo_pt, up_pt in zip(ests, lower, upper):
    print(f"  {est.B:>4}   {lo_pt.value:.5f}   [{est.ci_lo:.5f}, {est.ci_hi:.5f}]"
          f"   {up_pt.value:.5f}")
print("every row: lower bound <= interval <= upper bound (the n = 1")
print("lower bound is exact, so it sits inside the interval itself)")
