"""Euler and Bernoulli numbers by exact series inversion in the exponential
basis, cross-checked against their binomial recurrences."""

from stardeform.halfseries import (bernoulli_numbers, bernoulli_numbers_recurrence,
                                   euler_numbers, euler_numbers_recurrence)

E = euler_numbers(6)
print("Euler numbers E_0..E_12:", E)
print("recurrence oracle agrees:", E == euler_numbers_recurrence(6))

B = bernoulli_numbers(6)
print("\nBernoulli numbers B_0, B_2, ..., B_12:", [str(b) for b in B])
print("recurrence oracle agrees:", B == bernoulli_numbers_recurrence(6))
