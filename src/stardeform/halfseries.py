"""Exact half-series algebra: truncated series in the basis q = e_*^{iw}.

The exponential law collapses the basis (q^m q^n = q^{m+n}), so the algebra is
ordinary truncated power-series arithmetic with exact rational-complex
coefficients; the tau-expression of q^n carries the weight e^{-n^2 tau/4}.
Euler and Bernoulli numbers drop out of the symmetrized inversions below with
bit-exact rational values.

A HalfSeries holds its coefficients as one Gaussian form, integer numerators
over one denominator in lowest terms, as core.Poly does.  hs_mul, hs_inverse,
exp_series, + and scale compute on forms in Python ints (the product as
exact.gaussian_product, the one Kronecker-packed Gaussian product that the
Poly product of core shares, cut to the truncation; the inversion recurrence
over the running lcm of its outputs' denominators) and reduce each result by
one gcd; the QC
coefficients are built (exact.from_gaussian) only when .coeffs is read.
FormalSeries, the replacement-principle twin, is the second route to the same
coefficients: it inverts by Newton iteration over plain QC arithmetic and
shares no code with these kernels, so a fault in one route shows as a mismatch
rather than repeating in both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DomainError, NonUnit, TruncationFailure
from .exact import (QC, as_qc, from_gaussian, gaussian_parts, gaussian_product, lowest_terms,
                    to_gaussian)

DEFAULT_TRUNC = 24
# Highest truncation order hs_inverse accepts.  `table euler` costs about
# K^3.5: K^2/2 int products in the inversion recurrence, and one packed product,
# over numerators whose size grows with K.  This admits
# `table euler|bernoulli 651` (K = 652: about 10 s and 4.5 s on a 2-core
# x86-64 host, Python 3.11).
SERIES_ORDER_BUDGET = 652


class HalfSeries:
    """e_*^{l i w} * sum_{n>=0} a_n e_*^{n i w}, coefficients exact, truncated
    at n = trunc.

    A series holds its Gaussian form (re, im, d), as core.Poly does: the
    numerators of a_0..a_trunc over d, the lcm of the coefficients' canonical
    denominators.  The form is in lowest terms and unique, so == compares base
    degree, truncation and form.  A series built from coefficients takes its
    form (to_gaussian) when a kernel first reads it; a kernel's result holds
    only its form and builds its QC coefficients when .coeffs is first read."""

    __slots__ = ("base_deg", "trunc", "_coeffs", "_gauss")

    def __init__(self, base_deg: int, coeffs, trunc: int):
        self.base_deg, self.trunc = base_deg, trunc
        self._coeffs, self._gauss = tuple(coeffs), None

    @staticmethod
    def _of_form(base_deg: int, re: list, im: list, d: int, trunc: int) -> "HalfSeries":
        """The series over (re + im i)/d, fresh lists of trunc + 1 numerators,
        with one gcd divided out."""
        out = object.__new__(HalfSeries)
        out.base_deg, out.trunc, out._coeffs = base_deg, trunc, None
        out._gauss = lowest_terms(re, im, d)
        return out

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            re, im, d = self._gauss
            self._coeffs = tuple([from_gaussian(a, b, d) for a, b in zip(re, im)])
        return self._coeffs

    @staticmethod
    def from_list(cs, base_deg: int, trunc: int = DEFAULT_TRUNC) -> "HalfSeries":
        cs = [as_qc(c) for c in cs][:trunc + 1]
        cs += [QC(0)] * (trunc + 1 - len(cs))
        return HalfSeries(base_deg, tuple(cs), trunc)

    @staticmethod
    def one(trunc: int) -> "HalfSeries":
        return HalfSeries._of_form(0, [1] + [0] * trunc, [0] * (trunc + 1), 1, trunc)

    def __eq__(self, other):
        if not isinstance(other, HalfSeries):
            return NotImplemented
        return (self.base_deg == other.base_deg and self.trunc == other.trunc
                and _form(self) == _form(other))

    def __repr__(self):
        return f"HalfSeries(base_deg={self.base_deg}, coeffs={self.coeffs!r}, trunc={self.trunc})"

    def __add__(self, other: "HalfSeries") -> "HalfSeries":
        if self.base_deg != other.base_deg:
            lo = min(self.base_deg, other.base_deg)
            return self.with_base(lo) + other.with_base(lo)
        ra, ia, da = _form(self)
        rb, ib, db = _form(other)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        # zip stops at the shorter form: min(trunc) + 1 numerators
        return HalfSeries._of_form(self.base_deg, [a * sa + b * sb for a, b in zip(ra, rb)],
                                   [a * sa + b * sb for a, b in zip(ia, ib)], da * sa,
                                   min(self.trunc, other.trunc))

    def with_base(self, new_base: int) -> "HalfSeries":
        """Re-express with a lower base degree (pads leading zeros)."""
        if new_base > self.base_deg:
            raise ValueError("can only lower the base degree")
        pad = [0] * (self.base_deg - new_base)
        re, im, d = _form(self)
        n = self.trunc + 1
        return HalfSeries._of_form(new_base, (pad + re)[:n], (pad + im)[:n], d, self.trunc)

    def scale(self, c) -> "HalfSeries":
        ca, cb, cd = gaussian_parts(c)
        re, im, d = _form(self)
        return HalfSeries._of_form(self.base_deg, [a * ca - b * cb for a, b in zip(re, im)],
                                   [a * cb + b * ca for a, b in zip(re, im)], d * cd, self.trunc)


def _form(f: HalfSeries) -> tuple:
    """f's Gaussian form (re, im, d), taken by to_gaussian on first use and kept."""
    if f._gauss is None:
        f._gauss = to_gaussian(f._coeffs)
    return f._gauss


def hs_mul(f: HalfSeries, g: HalfSeries) -> HalfSeries:
    """Cauchy product; base degrees add; exact.  With f_i = F_i/D_f and
    g_j = G_j/D_g (Gaussian integers F, G), out_n = sum_{i+j=n} F_i G_j / (D_f D_g),
    taken as one packed Gaussian product (exact.gaussian_product)."""
    K = min(f.trunc, g.trunc)
    fa, fb, df = _form(f)
    ga, gb, dg = _form(g)
    re, im = gaussian_product(fa[:K + 1], fb[:K + 1], ga[:K + 1], gb[:K + 1], K + 1)
    return HalfSeries._of_form(f.base_deg + g.base_deg, re, im, df * dg, K)


def hs_inverse(f: HalfSeries) -> HalfSeries:
    """Inverse by indeterminate coefficients: with f = q^l sum a_n q^n, a_0 != 0,
    solve (sum a q)(sum b q) = 1 order by order; base degree negates.

    With a_j = A_j/D (Gaussian integers A) and b_0..b_{n-1} = B_0..B_{n-1} over
    their lcm L, the recurrence b_n = -(sum_{j>=1} a_j b_{n-j}) / a_0 reads

        b_n = -S conj(A_0) / (L |A_0|^2),   S = sum_{j>=1} A_j B_{n-j},

    so each step sums in ints and divides one gcd out of b_n, and L stays the
    lcm of the outputs' canonical denominators."""
    A, Ai, D = _form(f)
    if not A or not (A[0] or Ai[0]):
        raise NonUnit("constant term vanishes; not invertible in the half-series algebra")
    K = f.trunc
    if K > SERIES_ORDER_BUDGET:
        raise TruncationFailure(f"half-series inversion to order {K} exceeds "
                                f"SERIES_ORDER_BUDGET = {SERIES_ORDER_BUDGET}")
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
    return HalfSeries._of_form(-f.base_deg, B, Bi, L, K)


def exp_series(scale, trunc: int) -> HalfSeries:
    """sum_l scale^l / l! q^l  (the exponential of the basis element, scaled):
    with scale = s/s_d, the numerators s^l s_d^(K-l) K!/l! over s_d^K K!."""
    sa, sb, sd = gaussian_parts(scale)
    re, im = [], []
    pa, pb = 1, 0                                   # s^l
    w = den = sd ** trunc * math.factorial(trunc)   # s_d^(K-l) K!/l!
    for l in range(trunc + 1):
        re.append(pa * w)
        im.append(pb * w)
        w //= sd * (l + 1)
        pa, pb = pa * sa - pb * sb, pa * sb + pb * sa
    return HalfSeries._of_form(0, re, im, den, trunc)


def euler_combination(trunc: int) -> HalfSeries:
    """e_*^{q} (1 + e^{2q}-series)^{-1} + e_*^{-q} (1 + e^{-2q}-series)^{-1}
    = sum E_{2n} q^{2n} / (2n)!  (q standing for e_*^{iw}), truncated at trunc."""
    one = HalfSeries.one(trunc)
    return hs_mul(exp_series(1, trunc), hs_inverse(one + exp_series(2, trunc))) \
        + hs_mul(exp_series(-1, trunc), hs_inverse(one + exp_series(-2, trunc)))


def euler_numbers(N: int) -> list:
    """E_0, E_2, ..., E_{2N} as exact Fractions, the coefficients of
    euler_combination times (2n)!, truncated at max(2N + 2, DEFAULT_TRUNC).
    Odd coefficients vanish identically."""
    K = max(2 * N + 2, DEFAULT_TRUNC)
    lhs = euler_combination(K)
    assert lhs.base_deg == 0
    out = []
    for n in range(N + 1):
        c = lhs.coeffs[2 * n]
        if c.im != 0:
            raise ArithmeticError("Euler extraction produced a complex value")
        out.append(c.re * math.factorial(2 * n))
    for n in range(0, min(2 * N + 1, K), 2):
        if lhs.coeffs[n + 1]:
            raise ArithmeticError("odd-index Euler coefficient nonzero")
    return out


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
    truncated at max(2N + 2, DEFAULT_TRUNC),

        (1/2)(sum q^n/(n+1)!)^{-1} + (1/2)(sum (-q)^n/(n+1)!)^{-1}
            = sum B_{2n} q^{2n} / (2n)!

    (the symmetrization removes the odd B_1 term)."""
    K = max(2 * N + 2, DEFAULT_TRUNC)
    plus = HalfSeries.from_list([QC(Fraction(1, math.factorial(n + 1))) for n in range(K + 1)],
                                0, K)
    minus = HalfSeries.from_list([QC(Fraction((-1) ** n, math.factorial(n + 1)))
                                  for n in range(K + 1)], 0, K)
    lhs = hs_inverse(plus).scale(Fraction(1, 2)) + hs_inverse(minus).scale(Fraction(1, 2))
    out = []
    for n in range(N + 1):
        c = lhs.coeffs[2 * n]
        out.append(c.re * math.factorial(2 * n))
    for n in range(0, min(2 * N + 1, K), 2):
        if lhs.coeffs[n + 1]:
            raise ArithmeticError("odd-index Bernoulli coefficient nonzero")
    return out


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
    """sum a_n e^{-(l+n)^2 tau/4} e^{i(l+n)w} on the grid (Re tau > 0), over the
    columns of theta.tau_basis; raises DomainError when a term is outside the
    float range."""
    import numpy as np

    from .theta import tau_basis

    basis = tau_basis([f.base_deg + n for n in range(len(f.coeffs))], tau, w_grid)
    acc = np.zeros(len(basis), complex)
    for n, c in enumerate(f.coeffs):
        if c:
            acc = acc + c.to_complex() * basis[:, n]
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
    M = tau_basis([f.base_deg + n for n in range(K + 1)], tau, probe_points)
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
    K = max(2 * N + 2, DEFAULT_TRUNC)
    one = FormalSeries([1], K)
    lhs = formal_exp(1, K) * (one + formal_exp(2, K)).inverse() \
        + formal_exp(-1, K) * (one + formal_exp(-2, K)).inverse()
    return [lhs.coeffs[2 * n].re * math.factorial(2 * n) for n in range(N + 1)]


def bernoulli_numbers_formal(N: int) -> list:
    K = max(2 * N + 2, DEFAULT_TRUNC)
    plus = FormalSeries([QC(Fraction(1, math.factorial(n + 1))) for n in range(K + 1)], K)
    minus = FormalSeries([QC(Fraction((-1) ** n, math.factorial(n + 1)))
                          for n in range(K + 1)], K)
    lhs = plus.inverse().scale(Fraction(1, 2)) + minus.inverse().scale(Fraction(1, 2))
    return [lhs.coeffs[2 * n].re * math.factorial(2 * n) for n in range(N + 1)]


# ---------------------------------------------- two-parameter exploration

def conjecture_coefficients(tau, tau_prime, N: int):
    """Exploratory only: numeric coefficients a_{2n}(tau, tau') of the
    re-expansion of the one-sided Euler combination at a second expression
    parameter, matched at 2N + 1 points evenly spaced on [0.05, 2.85].  No
    acceptance criterion attaches; emitted by the CLI for exploration."""
    import numpy as np

    if N < 1:
        raise DomainError(f"the coefficient count must be >= 1, got {N}")
    tau_c, tp = complex(tau), complex(tau_prime)
    if tau_c.real <= 0 or (tau_c - tp).real <= 0 or tp.real <= 0:
        raise DomainError("need Re tau' > 0 and Re(tau - tau') > 0")
    comb = euler_combination(max(4 * N + 8, 32))
    # tau-expression of the combination, sampled, then matched against the
    # formal-power basis weights at tau'
    w_points = [0.05 + 2.8 * j / (2 * N) for j in range(2 * N + 1)]
    vals = hs_to_tau_expression(comb, tau_c, w_points)
    M = np.empty((len(w_points), N + 1), dtype=complex)
    for r, w in enumerate(w_points):
        for n in range(N + 1):
            M[r, n] = (1j * w) ** (2 * n)
    coef, *_ = np.linalg.lstsq(M, vals, rcond=None)
    return coef
