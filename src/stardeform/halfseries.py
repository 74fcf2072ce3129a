"""Exact half-series algebra: truncated series in the basis q = e_*^{iw}.

The exponential law collapses the basis (q^m q^n = q^{m+n}), so the algebra is
ordinary truncated power-series arithmetic with exact rational-complex
coefficients; the tau-expression of q^n carries the weight e^{-n^2 tau/4}.
Euler and Bernoulli numbers drop out of the symmetrized inversions below with
bit-exact rational values.

A HalfSeries is a core.ExactPoly in q of degree at most its truncation, so
its coefficients live in the one dense exact form, Gaussian-integer numerators
over one denominator in lowest terms; + and scale are the ExactPoly operators
cut at the truncation.  Every series here starts at q^0, as in the paper's
symmetrised one-sided inversions.  hs_mul and hs_inverse compute on that form
in Python ints (the product as exact.gaussian_product, the one Kronecker-packed
Gaussian product that the product of core.ExactPoly shares, cut to the
truncation; the inversion recurrence over the running lcm of its outputs'
denominators) and reduce each result by one gcd; the Euler and Bernoulli
numbers are read from the numerators of the combination's form.
FormalSeries, the replacement-principle twin, is the second route to the same
coefficients: it inverts by Newton iteration over plain QC arithmetic and
shares no code with these kernels, so a fault in one route shows as a mismatch
rather than repeating in both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .core import ExactPoly
from .errors import NonUnit, TruncationFailure
from .exact import QC, as_qc, gaussian_parts, gaussian_powers, gaussian_product, lowest_terms

DEFAULT_TRUNC = 24
# Highest truncation order hs_inverse accepts.  `table euler` costs about
# K^3.5: K^2/2 int products in the inversion recurrence, and one packed product,
# over numerators whose size grows with K.  This admits
# `table euler|bernoulli 651` (K = 652: about 10 s and 4.5 s on a 2-core
# x86-64 host, Python 3.11).
SERIES_ORDER_BUDGET = 652


def _require_order(K: int):
    """TruncationFailure where an inversion to order K would pass
    SERIES_ORDER_BUDGET; euler_numbers and bernoulli_numbers call it before they
    build a series."""
    if K > SERIES_ORDER_BUDGET:
        raise TruncationFailure(f"half-series inversion to order {K} exceeds "
                                f"SERIES_ORDER_BUDGET = {SERIES_ORDER_BUDGET}")


class HalfSeries:
    """sum_{n>=0} a_n e_*^{n i w}, coefficients exact, truncated at n = trunc.

    poly is the core.ExactPoly sum_n a_n q^n, of degree at most trunc; its form
    is unique, so == compares truncation and poly."""

    __slots__ = ("poly", "trunc")

    def __init__(self, poly: ExactPoly, trunc: int):
        self.poly, self.trunc = poly, trunc

    @staticmethod
    def from_list(cs, trunc: int = DEFAULT_TRUNC) -> "HalfSeries":
        return HalfSeries(ExactPoly(tuple(cs)[:trunc + 1]), trunc)

    @staticmethod
    def one(trunc: int) -> "HalfSeries":
        return HalfSeries(ExactPoly.from_form([1], [0], 1), trunc)

    def __eq__(self, other):
        if not isinstance(other, HalfSeries):
            return NotImplemented
        return (self.trunc, self.poly) == (other.trunc, other.poly)

    def __repr__(self):
        return f"HalfSeries(poly={self.poly!r}, trunc={self.trunc})"

    def __add__(self, other: "HalfSeries") -> "HalfSeries":
        K = min(self.trunc, other.trunc)
        p = self.poly + other.poly
        if p.degree > K:                            # mod q^(K+1)
            re, im, d = p.form
            p = ExactPoly.from_form(re[:K + 1], im[:K + 1], d)
        return HalfSeries(p, K)

    def scale(self, c) -> "HalfSeries":
        return HalfSeries(self.poly.scale(c), self.trunc)


def hs_mul(f: HalfSeries, g: HalfSeries) -> HalfSeries:
    """Cauchy product, exact.  With f_i = F_i/D_f and
    g_j = G_j/D_g (Gaussian integers F, G), out_n = sum_{i+j=n} F_i G_j / (D_f D_g),
    taken as one packed Gaussian product (exact.gaussian_product)."""
    K = min(f.trunc, g.trunc)
    fa, fb, df = f.poly.form
    ga, gb, dg = g.poly.form
    if not fa or not ga:
        return HalfSeries(ExactPoly.from_form([], [], 1), K)
    re, im = gaussian_product(fa[:K + 1], fb[:K + 1], ga[:K + 1], gb[:K + 1], K + 1)
    return HalfSeries(ExactPoly.from_form(re, im, df * dg), K)


def hs_inverse(f: HalfSeries) -> HalfSeries:
    """Inverse by indeterminate coefficients: with f = sum a_n q^n, a_0 != 0,
    solve (sum a q)(sum b q) = 1 order by order.

    With a_j = A_j/D (Gaussian integers A) and b_0..b_{n-1} = B_0..B_{n-1} over
    their lcm L, the recurrence b_n = -(sum_{j>=1} a_j b_{n-j}) / a_0 reads

        b_n = -S conj(A_0) / (L |A_0|^2),   S = sum_{j>=1} A_j B_{n-j},

    so each step sums in ints and divides one gcd out of b_n, and L stays the
    lcm of the outputs' canonical denominators.  The sums stop at A's last
    nonzero numerator."""
    A, Ai, D = f.poly.form
    if not A or not (A[0] or Ai[0]):
        raise NonUnit("constant term vanishes; not invertible in the half-series algebra")
    K = f.trunc
    _require_order(K)
    a0, a0i = A[0], Ai[0]
    norm = a0 * a0 + a0i * a0i
    B, Bi, L = lowest_terms([D * a0], [-D * a0i], norm)
    for n in range(1, K + 1):
        ra, rb = A[1:n + 1], Ai[1:n + 1]
        sa, sb = B[n - 1::-1], Bi[n - 1::-1]
        s = sum(map(mul, ra, sa)) - sum(map(mul, rb, sb))
        si = sum(map(mul, ra, sb)) + sum(map(mul, rb, sa))
        (qa,), (qb,), d = lowest_terms([-(s * a0 + si * a0i)], [s * a0i - si * a0], L * norm)
        L2 = math.lcm(L, d)
        if L2 != L:
            r = L2 // L
            B = [x * r for x in B]
            Bi = [x * r for x in Bi]
            L = L2
        r = L // d
        B.append(qa * r)
        Bi.append(qb * r)
    return HalfSeries(ExactPoly.from_form(B, Bi, L), K)


def exp_series(scale, trunc: int) -> HalfSeries:
    """sum_l scale^l / l! q^l  (the exponential of the basis element, scaled):
    with scale = s/s_d, the numerators s^l s_d^(K-l) K!/l! over s_d^K K!."""
    sa, sb, sd = gaussian_parts(scale)
    pa, pb = gaussian_powers(sa, sb, trunc)         # s^l
    re, im = [], []
    w = den = sd ** trunc * math.factorial(trunc)   # s_d^(K-l) K!/l!
    for l in range(trunc + 1):
        re.append(pa[l] * w)
        im.append(pb[l] * w)
        w //= sd * (l + 1)
    return HalfSeries(ExactPoly.from_form(re, im, den), trunc)


def euler_combination(trunc: int) -> HalfSeries:
    """e_*^{q} (1 + e^{2q}-series)^{-1} + e_*^{-q} (1 + e^{-2q}-series)^{-1}
    = sum E_{2n} q^{2n} / (2n)!  (q standing for e_*^{iw}), truncated at trunc."""
    one = HalfSeries.one(trunc)
    return hs_mul(exp_series(1, trunc), hs_inverse(one + exp_series(2, trunc))) \
        + hs_mul(exp_series(-1, trunc), hs_inverse(one + exp_series(-2, trunc)))


def _even_numbers(lhs: HalfSeries, N: int, family: str) -> list:
    """c_0, c_2, ..., c_{2N} of lhs = sum c_{2n} q^{2n} / (2n)!, read from the
    numerators of its form (re + im i)/d as Fraction(re[2n] (2n)!, d); raises
    ArithmeticError where an even numerator has an imaginary part or an odd
    numerator below 2N + 2 is nonzero."""
    re, im, d = lhs.poly.form
    top = 2 * N + 2
    if any(im[0:top:2]):
        raise ArithmeticError(f"{family} extraction produced a complex value")
    if any(re[1:top:2]) or any(im[1:top:2]):
        raise ArithmeticError(f"odd-index {family} coefficient nonzero")
    re = re + [0] * (top - len(re))
    return [Fraction(re[2 * n] * math.factorial(2 * n), d) for n in range(N + 1)]


def euler_numbers(N: int) -> list:
    """E_0, E_2, ..., E_{2N} as exact Fractions, the coefficients of
    euler_combination times (2n)!, truncated at 2N + 2; no coefficient below
    the truncation depends on it (the cut is a ring map).  Odd coefficients
    vanish identically."""
    _require_order(2 * N + 2)
    return _even_numbers(euler_combination(2 * N + 2), N, "Euler")


def euler_numbers_recurrence(N: int) -> list:
    """Independent oracle: sum_k binom(2n, 2k) E_{2k} = 0 for n >= 1, E_0 = 1."""
    out = [Fraction(1)]
    for n in range(1, N + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(2 * n, 2 * k) * out[k]
        out.append(-s)
    return out


def bernoulli_numbers(N: int) -> list:
    """B_0, B_2, ..., B_{2N} as exact Fractions from the symmetrized inversions,
    truncated at 2N + 2 (no coefficient below the truncation depends on it),

        (1/2)(sum q^n/(n+1)!)^{-1} + (1/2)(sum (-q)^n/(n+1)!)^{-1}
            = sum B_{2n} q^{2n} / (2n)!

    (the symmetrization removes the odd B_1 term)."""
    K = 2 * N + 2
    _require_order(K)
    plus = HalfSeries.from_list(
        [QC(Fraction(1, math.factorial(n + 1))) for n in range(K + 1)], K)
    minus = HalfSeries.from_list(
        [QC(Fraction((-1) ** n, math.factorial(n + 1))) for n in range(K + 1)], K)
    lhs = hs_inverse(plus).scale(Fraction(1, 2)) + hs_inverse(minus).scale(Fraction(1, 2))
    return _even_numbers(lhs, N, "Bernoulli")


def bernoulli_numbers_recurrence(N: int) -> list:
    """Independent oracle: sum_{k<n} binom(n+1,k) B_k = -(n+1) B_n, B_1 = -1/2."""
    full = [Fraction(1)]
    for n in range(1, 2 * N + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(n + 1, k) * full[k]
        full.append(-s / (n + 1))
    return [full[2 * n] for n in range(N + 1)]


def hs_to_tau_expression(f: HalfSeries, tau, w_grid):
    """sum a_n e^{-n^2 tau/4} e^{inw} on the grid (Re tau > 0), over the
    columns of theta.tau_basis; raises DomainError when a term is outside the
    float range."""
    import numpy as np

    from .theta import tau_basis

    basis = tau_basis(range(f.trunc + 1), tau, w_grid)
    acc = np.zeros(len(basis), complex)
    for n, c in enumerate(f.poly.to_complex().coeffs):
        if c:
            acc = acc + c * basis[:, n]
    return acc


def zero_detection(f: HalfSeries, tau) -> bool:
    """Injectivity probe: recover the coefficients from K+1 samples of the
    tau-expression, evenly spaced on [0.1, 3], by solving the (weighted
    Vandermonde) linear system; returns True when all recovered coefficients
    vanish (so the element is zero)."""
    import numpy as np

    from .theta import tau_basis

    K = f.trunc
    probe_points = [0.1 + 2.9 * j / K for j in range(K + 1)]
    vals = hs_to_tau_expression(f, tau, probe_points)
    M = tau_basis(range(K + 1), tau, probe_points)
    rec = np.linalg.solve(M, vals)
    return bool(np.abs(rec).max() < 1e-9)


# ----------------------------- independent formal-basis twin (replacement)

class FormalSeries:
    """Truncated formal power series over exact rational-complex coefficients.

    Distinct implementation used for the replacement-principle cross-check:
    the same indeterminate-constant computations run in the formal power basis
    and must produce identical coefficient sequences."""

    def __init__(self, coeffs, trunc: int = DEFAULT_TRUNC):
        cs = [as_qc(c) for c in coeffs][:trunc + 1]
        cs += [QC(0)] * (trunc + 1 - len(cs))
        self.coeffs = cs
        self.trunc = trunc

    def __add__(self, other):
        return FormalSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.trunc)

    def __mul__(self, other):
        K = self.trunc
        out = [QC(0)] * (K + 1)
        for n in range(K + 1):
            acc = QC(0)
            for i in range(n + 1):
                a, b = self.coeffs[i], other.coeffs[n - i]
                if a and b:
                    acc = acc + a * b
            out[n] = acc
        return FormalSeries(out, K)

    def inverse(self):
        """Newton iteration b <- b(2 - f b): each step doubles the number of
        correct terms, so it works on truncations to that many terms."""
        if not self.coeffs[0]:
            raise NonUnit("constant term vanishes")
        K = self.trunc
        b = FormalSeries([QC(1) / self.coeffs[0]], 0)
        while b.trunc < K:
            m = min(2 * b.trunc + 1, K)
            b = FormalSeries(b.coeffs, m)
            b = b * (FormalSeries([2], m) + (FormalSeries(self.coeffs, m) * b).negate())
        return b

    def negate(self):
        return FormalSeries([QC(0) - c for c in self.coeffs], self.trunc)

    def scale(self, c):
        c = as_qc(c)
        return FormalSeries([c * a for a in self.coeffs], self.trunc)


def formal_exp(scale, trunc: int) -> FormalSeries:
    cs = []
    c = QC(1)
    for l in range(trunc + 1):
        if l:
            c = c * as_qc(scale) / l
        cs.append(c)
    return FormalSeries(cs, trunc)


def euler_numbers_formal(N: int) -> list:
    """Replacement-principle twin of euler_numbers in the formal power basis."""
    K = 2 * N + 2
    one = FormalSeries([1], K)
    lhs = formal_exp(1, K) * (one + formal_exp(2, K)).inverse() \
        + formal_exp(-1, K) * (one + formal_exp(-2, K)).inverse()
    return [lhs.coeffs[2 * n].re * math.factorial(2 * n) for n in range(N + 1)]


def bernoulli_numbers_formal(N: int) -> list:
    K = 2 * N + 2
    plus = FormalSeries([QC(Fraction(1, math.factorial(n + 1))) for n in range(K + 1)], K)
    minus = FormalSeries([QC(Fraction((-1) ** n, math.factorial(n + 1)))
                          for n in range(K + 1)], K)
    lhs = plus.inverse().scale(Fraction(1, 2)) + minus.inverse().scale(Fraction(1, 2))
    return [lhs.coeffs[2 * n].re * math.factorial(2 * n) for n in range(N + 1)]

