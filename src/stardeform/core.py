"""Deformed product on one-variable polynomials, with exact and floating backends.

The product

    f *_tau g = sum_k (tau^k / (2^k k!)) f^(k) g^(k)

is commutative and associative; tau = 0 is the plain polynomial algebra and the
map exp(((tau'-tau)/4) d^2/dw^2) intertwines the products at two parameter
values.  All operations are pure; values are immutable after construction.

Coefficients are generic: Python complex, or exact int, Fraction and
exact.QC (rational-complex, used for zero-residual identity checks).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import QC


def _is_zero(c) -> bool:
    return c == 0


class Poly:
    """Dense polynomial in w; zero polynomial has an empty coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def x(power: int = 1, coeff=1) -> "Poly":
        return Poly([0] * power + [coeff])

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(a + b)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        return Poly([c * a for a in self.coeffs])

    def deriv(self, order: int = 1) -> "Poly":
        cs = list(self.coeffs)
        for _ in range(order):
            cs = [i * cs[i] for i in range(1, len(cs))]
        return Poly(cs)

    def shift(self, c) -> "Poly":
        """p(w + c) by Horner in (w + c)."""
        out = Poly()
        for a in reversed(self.coeffs):
            out = out * Poly([c, 1]) + Poly.const(a)
        return out

    def __call__(self, w):
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * w + a
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def map_coeffs(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    def to_complex(self) -> "Poly":
        return self.map_coeffs(lambda c: c.to_complex() if isinstance(c, QC) else complex(c))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def star_product(f: Poly, g: Poly, tau) -> Poly:
    """sum_k (tau^k / (2^k k!)) f^(k) g^(k); finite, commutative, exact over QC."""
    out = f * g
    fk, gk = f, g
    scale = _one_like(tau)
    kmax = min(f.degree, g.degree)
    for k in range(1, kmax + 1):
        fk = fk.deriv()
        gk = gk.deriv()
        scale = scale * tau / (2 * k)
        out = out + (fk * gk).scale(scale)
    return out


def _one_like(tau):
    """1 in the arithmetic of tau; an int tau gets a Fraction, so that the
    scales tau^k / (2^k k!) stay exact."""
    if isinstance(tau, QC):
        return QC(1)
    if isinstance(tau, (int, Fraction)):
        return Fraction(1)
    return 1


def intertwine(f: Poly, tau_from, tau_to) -> Poly:
    """exp(((tau_to - tau_from)/4) d^2) f: algebra morphism between parameter values."""
    diff = tau_to - tau_from
    theta = Fraction(diff, 4) if isinstance(diff, int) else diff / 4
    out = f
    term = f
    scale = _one_like(theta)
    j = 0
    while term.degree >= 2:
        j += 1
        term = term.deriv(2)
        scale = scale * theta / j
        out = out + term.scale(scale)
    return out


def w_star_power(n: int, tau) -> Poly:
    """The n-th deformed power of w: monic degree-n polynomial

        P_n(w, tau) = sum_{k <= n/2} n!/(4^k k! (n-2k)!) tau^k w^(n-2k).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [0] * (n + 1)
    one = _one_like(tau)
    # exact combinatorial prefactors; tau powers in the ambient arithmetic
    c = Fraction(1)
    tpow = one
    for k in range(n // 2 + 1):
        if k > 0:
            # ratio of successive prefactors: (n-2k+2)(n-2k+1) / (4k)
            c = c * Fraction((n - 2 * k + 2) * (n - 2 * k + 1), 4 * k)
            tpow = tpow * tau
        coeffs[n - 2 * k] = _rat_times(c, tpow)
    return Poly(coeffs)


def _rat_times(frac: Fraction, x):
    if isinstance(x, QC):
        return QC(frac) * x
    if isinstance(x, (int, Fraction)):
        return frac * x
    if frac.denominator == 1:
        return int(frac) * x
    return (frac.numerator / frac.denominator) * x


def infinitesimal_intertwiner(f: Poly) -> Poly:
    """Quarter of the second derivative: the generator of the intertwiner flow."""
    return f.deriv(2).scale(Fraction(1, 4)) if _coeffs_exact(f) else f.deriv(2).scale(0.25)


def _coeffs_exact(f: Poly) -> bool:
    return all(isinstance(c, (int, Fraction, QC)) for c in f.coeffs)
