"""Laurent calculus at the branching point of the quadratic exponential, the
flow that annihilates every coefficient away from t=0, and the covariant
derivative along the surface tau = 1/z."""

import numpy as np

from stardeform.core import Poly
from stardeform.residue import (covariant_evolution_residual, diffeqevol_exact_defect,
                                laurent_coeff_closed, orphan_annihilation, phi_psi,
                                residue_contour, semigroup_on_delta)

nu, tau = 1.0, 1.0 + 1.0j

print("Laurent coefficient a_{-1}, two routes:")
print("  closed form:", laurent_coeff_closed(0, nu, tau, 0.3))
print("  contour    :", residue_contour(0, nu, tau, 0.3))

res = orphan_annihilation(0.1, 0, 1.0, 1.0, [0.0, 0.5])
print("\nflow at t=0.1 annihilates the residue:", res["annihilation"])
print("but the t=0 bracket is the ladder value:", np.abs(res['t_zero_values']).max())

print("\ndelta elements see no singularity at t = 1/tau:",
      semigroup_on_delta(1.0, 0.6, 1.0, np.linspace(-1, 1, 5)))
lo, hi = phi_psi(0.8, 1.0)
print("even boundary solution: Phi(0) =", lo(0.0) + hi(0.0),
      " Phi(0.3) - Phi(-0.3) =", lo(0.3) + hi(0.3) - (lo(-0.3) + hi(-0.3)))

print("\nevolution identity, symbolic defect empty:",
      all(diffeqevol_exact_defect(k).is_zero() for k in range(-2, 3)))
print("closed family solves the first-order equation:",
      covariant_evolution_residual(Poly([0.5, -1.0, 2.0]), nu, 1.2, np.linspace(-1, 1, 7)))
