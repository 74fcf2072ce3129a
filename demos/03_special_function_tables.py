"""Hermite/Bessel/Legendre/Laguerre families attached to the deformed algebra.

Each family keeps its classical shape at the classical parameter value and
deforms coherently elsewhere; polynomial identities hold with exact rational
arithmetic."""

from fractions import Fraction

import numpy as np

from stardeform.exact import QC
from stardeform.specialfn import (bessel_table, bessel_unit_sum_residual, hermite_checks,
                                  hermite_table, laguerre_star, legendre_star_exact)

print("Hermite identity report (exact):", hermite_checks(8, QC(-1)))
print("H_2 at the classical parameter:", hermite_table(8, QC(-1))[2].coeffs, "(= 2w^2 - 1)")

grid = np.linspace(-1, 1, 9)
tab = bessel_table(1.0, 1.0, 12, grid)
print("\nBessel row sum - 1 (should vanish):", bessel_unit_sum_residual(tab))
print("J_0(w, tau=1) on the grid:", np.round(tab[0].real, 6))

print("\nLegendre table (exact rational, tau=-1):")
for n, p in enumerate(legendre_star_exact(3, Fraction(-1))):
    print(f"  P_{n}(v):", [str(c) for c in p.coeffs])

print("\nLaguerre table (exact, tau=2/3), top derivative pinned to 1:")
for n, p in enumerate(laguerre_star(3, Fraction(2, 3))):
    print(f"  L_{n}(x):", [str(c) for c in p.coeffs])
