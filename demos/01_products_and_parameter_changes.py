"""Deformed products on polynomials, and moving between expression parameters.

The product f *_tau g = sum_k (tau^k / 2^k k!) f^(k) g^(k) is commutative and
associative for every complex tau; what changes with tau is not the algebra
but how its elements look.  The heat-type map exp(((tau'-tau)/4) d^2) carries
the expression at tau to the expression at tau'.  ExactPoly computes these
exactly (Gaussian rationals at an exact tau); to_complex() gives the float Poly.
"""

from fractions import Fraction

from stardeform import QC, ExactPoly, intertwine, star_product, w_star_power

tau = QC(Fraction(2, 1))
w = ExactPoly.x()

print("w *_2 w =", star_product(w, w, tau).to_complex().coeffs)   # w^2 + 1

f = ExactPoly([0, 0, 1])    # w^2
g = ExactPoly([1, 3])       # 1 + 3w
t1, t2 = QC(Fraction(1, 2)), QC(Fraction(-3, 4))

lhs = intertwine(star_product(f, g, t1), t1, t2)
rhs = star_product(intertwine(f, t1, t2), intertwine(g, t1, t2), t2)
print("parameter change is an algebra map:", lhs == rhs)

print("\ndeformed powers of w (monic, exact):")
for n in range(5):
    print(f"  P_{n} =", w_star_power(n, QC(1)).to_complex().coeffs)

print("\nrecurrence P_(n+1) = w P_n + (tau/2) P_n':",
      all(w * w_star_power(n, tau) + w_star_power(n, tau).deriv().scale(tau / 2)
          == w_star_power(n + 1, tau) for n in range(10)))
