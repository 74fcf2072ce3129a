"""Exponential elements: the linear family obeys a clean exponential law; the
quadratic family is double valued in its parameter, with a branch point at
t = 1/tau.  Sheets are tracked by continuation along explicit paths."""

import cmath

from stardeform.starexp import (PathParam, gauss_star, quad_exponential_law, star_exp_linear,
                                star_exp_quadratic, triple_transport_sign)

tau = 1.0

prod = gauss_star(star_exp_linear(0.6, tau), star_exp_linear(-0.2, tau), tau)
target = star_exp_linear(0.4, tau)
print("linear exponential law, amplitude ratio:", abs(prod.amp() / target.amp()))

print("quadratic law residual (s=0.2, t=0.1):", quad_exponential_law([(0.2, 0.1, tau)])[0])

direct = star_exp_quadratic(0.2, tau)
loop = PathParam([0, 0.2, 0.2 - 0.6j, 1.5 - 0.6j, 1.5 + 0.6j, 0.2 + 0.6j, 0.2])
around = star_exp_quadratic(0.2, tau, loop)
print("sheet before/after a loop around 1/tau:", direct.sheet, around.sheet)
print("values at w=0.5 (same magnitude, opposite sign):",
      direct(0.5), around(0.5))

print("\nround-trip sheet transport through three expression parameters")
print("(neither the identity nor a global flip; jumps with t):")
for t in (0.05, 0.3, 0.6, 1.3, 0.5j):
    print(f"  t = {t}: net sign {triple_transport_sign(t, (1.0, 2.0, 4.0))}")
