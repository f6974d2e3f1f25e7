"""The two upper-bound families for P(T(n) > B), across laws, n, and B.

T(n) = sqrt(n) * sum(xi_i) / sum(xi_i^2).  The event T(n) > B equals
"the mean of the n linearized summands exceeds B*sigma^2", which admits:

* an exponential-level bound exp(-sup_theta [theta*B*sigma^2 - cgf]);
* a moment-level bound min_p (0.6379 * p/ln(p) * |summand|_p / B)^p,
  valid for B >= e.

The exponential bound needs the MGF; the moment bound only needs
polynomial moments, at the price of a worse constant.  Each family has
one builder, ``exp_curve`` or ``power_curve``, which evaluates it over a B
grid at a fixed n or, given an ``(lo, hi)`` range, as the sup over n.
"""

import math

from selfnorm import (Rademacher, StandardGaussian, UniformSymmetric,
                      exp_curve, power_curve)

E = math.e
laws = {
    "rademacher": Rademacher(),
    "gaussian": StandardGaussian(),
    "uniform(sqrt 3)": UniformSymmetric(math.sqrt(3.0)),
}

print("=== exponential-level bound over (n, B) ===")
B_grid = [0.5, 1.0, 2.0, 5.0]
for name, law in laws.items():
    print(f"\n{name}:")
    print("      " + "".join(f"   B={B:<8g}" for B in B_grid))
    for n in (1, 16, 256):
        row = "".join(f"   {pt.value:<10.3e}"
                      for pt in exp_curve(law, n, B_grid).points)
        print(f"  n={n:<4}{row}")
print("\n(the sign law at B=2, n=1 reads 0: |T(1)| = 1 < 2, impossible event)")

print("\n=== sup over n: the uniform-in-n tail ===")
print("cells from n = 1 up, until a tail certificate covers every later n:")
print("Efron's symmetrization bound for symmetric laws, and for B >= e the")
print("Rosenthal bound on the larger moment generator of the current n and")
print("of n = infinity; after 64 cells the certificate is the value")
for name in ("gaussian", "rademacher"):
    for pt in exp_curve(laws[name], (1, 4096), [1.0, 5.0]).points:
        where = (f"attained at n = {pt.n_star}"
                 if pt.n_star is not None else "the certificate itself")
        print(f"  {name:>10}, B = {pt.B:>4}: sup bound {pt.value:.4e}, {where}")
print("  the sign law's cells rise towards exp(-B^2/2), its certificate;")
print("  large B favors n = 1, where the gaussian bound scales like e^(1/2)/(2B):")
for pt in exp_curve(laws["gaussian"], (1, 4096), [10.0, 50.0]).points:
    print(f"    B = {pt.B:>4}: B * bound = {pt.B * pt.value:.4f}   e^0.5/2 = "
          f"{math.exp(0.5) / 2:.4f}")

print("\n=== moment-level bound (valid for B >= e) ===")
for name, law in laws.items():
    vals = [f"B={pt.B:g}: {pt.value:.3e}"
            for pt in power_curve(law, 16, [3.0, 10.0, 50.0]).points]
    print(f"  {name:>16}, n=16:  " + "   ".join(vals))

print("\nthe sign law's summand is the sign itself, so its moment bound")
print("is n-free; the sup over n collapses to any single n:")
(pt,) = power_curve(laws["rademacher"], (1, 256), [10.0]).points
print(f"  sup over n in [1, 256] at B = 10: {pt.value:.4e} "
      f"(n* = {pt.n_star})")

print("\n=== the two families side by side (gaussian, n = 16) ===")
print("   B      exponential     moment-level")
side_B = [E, 5.0, 10.0, 50.0]
for e_pt, p_pt in zip(exp_curve(laws["gaussian"], 16, side_B).points,
                      power_curve(laws["gaussian"], 16, side_B).points):
    print(f"  {e_pt.B:>5.2f}   {e_pt.value:.4e}      {p_pt.value:.4e}")
print("(the exponential route wins whenever the MGF exists; the moment")
print("route is the fallback when only polynomial moments are finite)")
