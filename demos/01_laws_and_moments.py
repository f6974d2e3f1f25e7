"""Tour of the distribution layer: laws, moments, and the bivariate log-MGF.

Every tail bound in this package is assembled from expectations of a
centered law: plain Lp moments, the quadratic summaries (sigma^2, w, z),
and the two-argument log-MGF K(l1, l2) = ln E exp(l1*xi - l2*xi^2),
defined for l2 >= 0, the only quadratic slots the bounds use.
This script builds the three workhorse laws and prints those primitives
next to their closed forms.  The gaussian's and the uniform's log-MGFs
are closed forms themselves, so each is shown beside a DensityLaw of its
density (the normal pdf, the box on [-sqrt 3, sqrt 3]), which goes
through quadrature.
"""

import math

import numpy as np

from selfnorm import (DensityLaw, DiscreteLaw, Rademacher, StandardGaussian,
                      UniformSymmetric)

laws = {
    "rademacher": Rademacher(),
    "gaussian": StandardGaussian(),
    "uniform(sqrt 3)": UniformSymmetric(math.sqrt(3.0)),
}

print("=== variances and fourth-order summaries ===")
for name, law in laws.items():
    sigma2, w, z = law.quadratic_moments()
    print(f"{name:>16}: sigma^2 = {sigma2:.6f}   "
          f"w = E(s2 - xi^2)^2 = {w:.6f}   z = {z:+.2e}")
print("(w = 0 for the sign law: xi^2 is constant; z = E(s2*xi - xi^3) = -E xi^3,")
print(" which is 0 for every symmetric law)")

print("\n=== an empirical sample is a discrete law ===")
sample = [2.0, -1.0, 0.5, 2.0, -3.5, 0.5, 0.5]
emp = DiscreteLaw.from_sample(sample)
print(f"{sample}: recentered, repeats merged into weighted atoms")
print(f"  sigma^2 = {emp.sigma2:.6f}   z = {emp.quadratic_moments()[2]:+.6f}   "
      f"P(0 < xi < 1) = {emp.q1(1.0):.4f}")

print("\n=== Lp moment curves (nondecreasing in p) ===")
grid = [1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
header = "".join(f"  p={p:<6g}" for p in grid)
print(f"{'law':>16}{header}")
for name, law in laws.items():
    row = "".join(f"  {law.lp_norm(p):<8.4f}" for p in grid)
    print(f"{name:>16}{row}")

print("\n=== bivariate log-MGF along interesting rays ===")
gauss = laws["gaussian"]
normal_pdf = DensityLaw(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                        name="normal pdf")
print("gaussian: closed form l1^2/(2(1+2*l2)) - ln(1+2*l2)/2 (StandardGaussian)")
print("next to the quadrature of the normal pdf (DensityLaw):")
for l1, l2 in [(0.0, 0.5), (1.0, 1.0), (2.0, 0.0)]:
    print(f"  phi({l1}, {l2}) = {gauss.log_mgf2(l1, l2):.15f}   "
          f"quadrature {normal_pdf.log_mgf2(l1, l2):.15f}")
print(f"  phi(0, 1e-8) + 1e-8 = {gauss.log_mgf2(0.0, 1e-8) + 1e-8:.3e}  "
      "(l2^2 to leading order; log1p keeps it)")

unif = laws["uniform(sqrt 3)"]
a = unif.half_width
box = DensityLaw(lambda x: 0.5 / a, support=(-a, a), name="box")
print("uniform: closed form through erfc (UniformSymmetric)")
print("next to the quadrature of the box density (DensityLaw):")
for l1, l2 in [(0.0, 0.5), (1.0, 1.0), (2.0, 0.0), (30.0, 2.0)]:
    print(f"  phi({l1}, {l2}) = {unif.log_mgf2(l1, l2):.15f}   "
          f"quadrature {box.log_mgf2(l1, l2):.15f}")

rad = laws["rademacher"]
print("sign law: xi^2 = 1, so K = ln cosh(l1) - l2:")
for l2 in (0.0, 3.0, 7.0):
    print(f"  phi(0.8, {l2:.0f}) = {rad.log_mgf2(0.8, l2):.8f}   "
          f"ln cosh 0.8 - {l2:.0f} = {math.log(math.cosh(0.8)) - l2:.8f}")

print("\n=== the linearized summand xi + B*(sigma^2 - xi^2)/sqrt(n) ===")
print("its Lp norms drive the moment-level bound; at B=0 they reduce to |xi|_p")
for name, law in laws.items():
    d = law.summand_lp_norm(4, 2.0, 3.0)
    print(f"{name:>16}: |summand|_3 at (n=4, B=2) = {d:.6f}   "
          f"|xi|_3 = {law.lp_norm(3.0):.6f}")
print(f"gaussian exact check: |summand|_2^2 at (n=1, B=1) = "
      f"{gauss.summand_lp_norm(1, 1.0, 2.0) ** 2:.6f} (= 1 + w = 3)")
