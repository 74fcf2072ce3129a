"""Delta elements are entire Gaussians here; generators acquire two distinct
one-sided inverses whose difference is 2 pi i times the delta.  Heaviside and
sign elements follow from the density calculus."""

import numpy as np

from stardeform.distributions import (associativity_break, delta_difference_residual, delta_tau,
                                      heaviside_pair, sided_inverse, sided_inverse_defect,
                                      sided_power)

tau = 1.0
grid = np.linspace(-2, 2, 9)

d = delta_tau(0.0, tau)
print("delta expression at w=0:", d(0.0), "(= 1/sqrt(pi))")

print("sided-inverse defect (a=1):",
      max(sided_inverse_defect(1.0, s, tau, grid) for s in "+-"))
print("difference equals 2 pi i delta:", delta_difference_residual(0.0, tau, grid))
# the inverses come from their closed form (the Faddeeva function); a Gaussian
# window over the half-line is the second route
agreement = max(np.abs(sided_power(1.0, 1, s, tau, grid) / sided_inverse(1.0, s, tau, grid) - 1).max()
                for s in "+-")
print("window vs closed form (a=1), relative:", f"{agreement:.1e}")

# one x-side integral per half of each point's window gives Y(-w) and Y(w)
y_neg, y = heaviside_pair(tau, grid)
sgn = y - y_neg                                       # sgn(w) = Y(w) - Y(-w)
print("\nY values:", np.round(y.real, 4))
print("sgn values:", np.round(sgn.real, 4))
# sgn(x)^2 = 1 on both halves, so sgn * sgn = Y(-w) + Y(w) = 1 is one identity
print("Y(w) + Y(-w) = sgn * sgn = 1, residual:", f"{np.abs(y + y_neg - 1).max():.2e}")

# B = 1 - e_*^{2iw} has a plus inverse A and a minus inverse C, so
# (A*B)*C = C while A*(B*C) = A
res = associativity_break(tau, grid)
print("\nassociativity break: |B*A - 1| =", f"{np.abs(res['B*A'] - 1).max():.1e},",
      "|B*C - 1| =", f"{np.abs(res['B*C'] - 1).max():.1e},",
      "yet the groupings differ by max|C - A| =", f"{np.abs(res['C'] - res['A']).max():.4f}")
