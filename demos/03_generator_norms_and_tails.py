"""Generator norms: moment growth and MGF domination, and their tails.

Two ways to summarize a variable's integrability, each yielding a tail
bound:

* moment route: norm = sup_p |zeta|_p / psi(p) over a generator psi;
  tail = min over p of (psi(p)*norm/y)^p (an optimized Markov bound);
* MGF route: norm = least tau with E exp(lam*zeta) <= exp(phi(lam*tau));
  tail = exp(-phi*(u/norm)) (a Chernoff bound).

The degenerate generator (identically 1 up to r) recovers the plain Lr
norm and the plain moment bound.
"""

import math

from selfnorm import (Rademacher, StandardGaussian, bphi_norm, bphi_tail_bound,
                      degenerate_psi, gls_norm, gls_tail_bound, power_psi)

gauss = StandardGaussian()
rad = Rademacher()

print("=== degenerate generator = plain Lr machinery ===")
psi4 = degenerate_psi(4.0)
norm4 = gls_norm(gauss.lp_norm, psi4)
print(f"  norm of the gaussian against the flat generator on [1,4]: "
      f"{norm4:.6f} = |xi|_4 = {gauss.lp_norm(4.0):.6f}")
y = 12.0
print(f"  tail at y = {y}: {gls_tail_bound(psi4, norm4, y):.3e}"
      f"   plain moment bound (|xi|_4/y)^4 = {(norm4 / y) ** 4:.3e}")

print("\n=== gaussian moment curve against the sqrt(p) generator ===")
norm = gls_norm(gauss.lp_norm, power_psi(2.0))
print(f"  norm = {norm:.6f} (attained at p = 1, where it is sqrt(2/pi))")
for y in (5.0, 10.0):
    print(f"  optimized moment tail at y = {y}: "
          f"{gls_tail_bound(power_psi(2.0), norm, y):.3e}"
          f"   true normal tail {0.5 * math.erfc(y / math.sqrt(2)):.3e}")

print("\n=== MGF route: norms against the subgaussian majorant lam^2/2 ===")
# a majorant is a plain function; it would return +inf outside its domain
phi2 = lambda lam: lam * lam / 2.0
tau_g = bphi_norm(lambda lam: gauss.log_mgf2(lam, 0.0), phi2)
tau_r = bphi_norm(lambda lam: rad.log_mgf2(lam, 0.0), phi2)
print(f"  gaussian: tau = {tau_g:.8f} (its own majorant, so exactly 1)")
print(f"  sign law: tau = {tau_r:.8f} (ln cosh <= lam^2/2 with ratio -> 1)")
for u in (2.0, 4.0):
    print(f"  sign-law Chernoff tail at u = {u}: "
          f"{bphi_tail_bound(phi2, tau_r, u):.3e}"
          f"   (subgaussian exp(-u^2/2) = {math.exp(-u * u / 2):.3e})")
