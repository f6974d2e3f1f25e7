"""The convex-conjugate engine behind every exponential bound.

A Chernoff bound is exp(-f*(u)) where f* is the one-sided
Young-Fenchel conjugate of a log-MGF: f*(u) = sup_{x>=0} (x*u - f(x)).
The package computes these suprema by bracketing + Brent's
parabolic-plus-golden search on the extended real line.  Here we compare against the classical closed
forms and show the barrier behavior at MGF domain edges.
"""

import math

from selfnorm import fenchel, invert_monotone, maximize_concave


def lncosh(x):
    a = abs(x)
    return a + math.log1p(math.exp(-2 * a)) - math.log(2)


print("=== conjugate of x^2/2 is u^2/2 (self-conjugate) ===")
for u in (0.0, 0.5, 1.0, 2.0, 4.0):
    print(f"  u = {u}: numeric {fenchel(lambda x: x * x / 2, u):.10f}"
          f"   exact {u * u / 2:.10f}")

print("\n=== conjugate of ln cosh is the binary entropy form ===")
for u in (0.25, 0.5, 0.9):
    exact = (1 + u) / 2 * math.log(1 + u) + (1 - u) / 2 * math.log(1 - u)
    print(f"  u = {u}: numeric {fenchel(lncosh, u):.10f}   exact {exact:.10f}")
print("slopes of ln cosh never exceed 1, so u >= 1 forces the sup to its")
print(f"asymptote: fenchel(ln cosh, 1.0) = {fenchel(lncosh, 1.0):.6f}"
      f"   (ln 2 = {math.log(2):.6f})")

print("\n=== power family: |x|^m/m conjugates to u^m'/m' ===")
for m in (1.5, 3.0):
    mp = m / (m - 1)
    u = 2.0
    print(f"  m = {m}: numeric {fenchel(lambda x: x ** m / m, u):.8f}"
          f"   exact {u ** mp / mp:.8f}")

print("\n=== an objective still rising at the search cap is read there ===")
x, v = maximize_concave(lambda x: 0.3 * x, 0.0)
print(f"  maximize 0.3*x on [0, inf): x = {x:.6g} (the cap 1e-8*2^63), "
      f"value = {v:.6g}")
print("  the best point evaluated is returned, so a Chernoff exponent read")
print(f"  there is still valid: exp(-value) = {math.exp(-v)}")

print("\n=== monotone inversion (used by the MGF-domination norm) ===")
y = 0.14384
x = invert_monotone(lncosh, y, 0.0, 1.0)
print(f"  solve ln cosh x = {y}: x = {x:.6f}, residual {lncosh(x) - y:+.2e}")
