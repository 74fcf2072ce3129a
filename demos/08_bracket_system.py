"""Truncated formal bracket system: loop generators, the Witt action, the
normalized weight-m generators, and what the central brackets actually look
like under the defined rules."""

from stardeform.vertex import (CoeffRing, bracket_elems, central_constraint_check,
                               k_centrality_check, laurent_coefficient_ring,
                               witt_identity_check, y_eigen_defect, y_generator)

# [x_1, x_-1] = 2 a_-1
print("[x_1, x_-1] at nu=w=0, tau=1:",
      laurent_coefficient_ring(-1, 6).scale(2).evaluate(1.0, 0.0, 0.0),
      "(Heisenberg: 2 m / sqrt(-tau))")

print("Witt identity exact on a sweep (|l|, |m|, |n| <= 3):", witt_identity_check(3, K=6))

print("weight transformation [L_n, y_m] = m y_(n+m), exact:",
      all(y_eigen_defect(n, m).is_zero() for n in (-2, 0, 3) for m in range(-3, 4)))

rep = central_constraint_check(K=6)
print("\ncentral bracket structure:")
print("  antisymmetric:", rep["antisymmetry"])
print("  odd-index brackets vanish:", rep["odd_parity_vanishing"])
print("  diagonal law c_m = m c_1 (exact):", rep["diagonal_proportionality"])
print("  delta-supported off the diagonal:", rep["delta_support"],
      "-- nonzero pairs:", rep["offdiagonal_nonzero_pairs"][:6], "...")
# the central part holds the coefficients of a_j (x) u^g at (j, g): its u^1
# terms, each a_j expanded in the coefficient ring
C = bracket_elems(y_generator(-3, 6), y_generator(1, 6))
grade1 = sum((laurent_coefficient_ring(j, 8).scale(c) for (j, g), c in C.terms.items() if g == 1),
             CoeffRing())
val = grade1.evaluate(1.0, 0.0, 0.0)
print("  e.g. [y_-3, y_1] grade-1 value at nu=w=0:", val)

print("\nWitt remainder operator annihilates the span:", k_centrality_check(K=6))
