"""Truncated formal bracket system: loop generators, the Witt action, the
normalized weight-m generators, and what the central brackets actually look
like under the defined rules."""

from stardeform.vertex import (bracket_elems, bracket_xx, central_constraint_check,
                               k_centrality_check, witt_identity_check, y_eigen_defect,
                               y_generator)

print("[x_1, x_-1] at nu=w=0, tau=1:", bracket_xx(1, -1).evaluate(1.0, 0.0, 0.0),
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
val = bracket_elems(y_generator(-3, 6), y_generator(1, 6))[1].evaluate(1.0, 0.0, 0.0)
print("  e.g. [y_-3, y_1] grade-1 value at nu=w=0:", val)

print("\nWitt remainder operator annihilates the span:", k_centrality_check(K=6))
