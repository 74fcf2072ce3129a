"""Delta elements are entire Gaussians here; generators acquire two distinct
one-sided inverses whose difference is 2 pi i times the delta.  Heaviside and
sign elements follow from the density calculus."""

import numpy as np

from stardeform.distributions import (associativity_break_gap, delta_difference_residual,
                                      delta_tau, heaviside_pair, sided_inverse_defect)
from stardeform.theta import theta_eval

tau = 1.0
grid = np.linspace(-2, 2, 9)

d = delta_tau(0.0, tau)
print("delta expression at w=0:", d(0.0), "(= 1/sqrt(pi))")

print("sided-inverse defect (a=1):",
      max(sided_inverse_defect(1.0, s, tau, grid) for s in "+-"))
print("difference equals 2 pi i delta:", delta_difference_residual(0.0, tau, grid))

# one x-side integral per half of each point's window gives Y(-w) and Y(w)
y_neg, y = heaviside_pair(tau, grid)
sgn = y - y_neg                                       # sgn(w) = Y(w) - Y(-w)
print("\nY values:", np.round(y.real, 4))
print("sgn values:", np.round(sgn.real, 4))
# sgn(x)^2 = 1 on both halves, so sgn * sgn = Y(-w) + Y(w) = 1 is one identity
print("Y(w) + Y(-w) = sgn * sgn = 1, residual:", f"{np.abs(y + y_neg - 1).max():.2e}")

res = associativity_break_gap(tau, grid)
theta_vals = theta_eval(3, grid, tau)
print("\nassociativity break: both groupings are inverses "
      f"(residuals {res['plus_inverse_residual']:.1e}, {res['minus_inverse_residual']:.1e}) "
      "yet the groupings differ by the theta series:",
      float(np.abs(res["gap"] + theta_vals).max()))
