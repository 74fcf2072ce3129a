"""Deformed product on one-variable polynomials, with exact and floating backends.

The product

    f *_tau g = sum_k (tau^k / (2^k k!)) f^(k) g^(k)

is commutative and associative; tau = 0 is the plain polynomial algebra and the
map exp(((tau'-tau)/4) d^2/dw^2) intertwines the products at two parameter
values.  All operations are pure; values are immutable after construction.

Coefficients are generic: Python complex, or exact int, Fraction and
exact.QC (rational-complex, used for zero-residual identity checks).

star_product and intertwine choose their route by scalar type alone.  When
every coefficient and every parameter is a QC, they bring the coefficients to
Gaussian-integer numerators over one common denominator (exact.to_gaussian),
evaluate the defining sums in Python ints, and canonicalise once per output
coefficient (exact.from_gaussian); the result equals the generic route's value
for value.  Any other input (float/complex, int, Fraction, or a mix) takes the
generic loop over Poly arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .exact import QC, from_gaussian, to_gaussian


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
    if type(tau) is QC and _all_qc(f) and _all_qc(g):
        return _star_product_gaussian(f, g, tau)
    return _star_product_loop(f, g, tau)


def _star_product_loop(f: Poly, g: Poly, tau) -> Poly:
    """The defining sum over Poly arithmetic, for any coefficient type."""
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


def _all_qc(p: Poly) -> bool:
    return all(type(c) is QC for c in p.coeffs)


def _deriv(v: list) -> list:
    return [i * c for i, c in enumerate(v[1:], 1)]


def _pack(v: list, bits: int) -> int:
    """sum_i v[i] 2^(bits i): the polynomial at 2^bits (Kronecker substitution),
    so one int product multiplies two polynomials."""
    x = 0
    for c in reversed(v):
        x = (x << bits) + c
    return x


def _unpack(x: int, bits: int, n: int) -> list:
    """The n coefficients of a packed polynomial; each must lie strictly
    between -2^(bits-1) and 2^(bits-1)."""
    out = []
    full = 1 << bits
    mask, half = full - 1, full >> 1
    for _ in range(n):
        c = x & mask
        if c >= half:
            c -= full
        out.append(c)
        x = (x - c) >> bits
    return out


def _from_gaussian_poly(re: list, im: list, d: int) -> Poly:
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    return Poly([from_gaussian(a, b, d) for a, b in zip(re, im)])


def _star_product_gaussian(f: Poly, g: Poly, tau: QC) -> Poly:
    """star_product over QC in ints.  With f = F/D_f, g = G/D_g (F, G
    Gaussian-integer polynomials), tau = T/t_d and K = min(deg f, deg g),

        f *_tau g = sum_k C_k F^(k) G^(k) / (D_f D_g (2 t_d)^K K!),
        C_k = T^k (2 t_d)^(K-k) K!/k!.

    Each product F^(k) G^(k) is four int products of packed polynomials, and
    the sum over k is taken in packed form, so only the result is unpacked."""
    if f.is_zero() or g.is_zero():
        return Poly()
    fa, fb, df = to_gaussian(f.coeffs)
    ga, gb, dg = to_gaussian(g.coeffs)
    (ta,), (tb,), td = to_gaussian((tau,))
    nf, ng = len(fa), len(ga)
    K = min(nf, ng) - 1
    fK = factorial(K)
    cs = []
    ca, cb = 1, 0                                   # T^k
    for k in range(K + 1):
        r = (2 * td) ** (K - k) * (fK // factorial(k))
        cs.append((ca * r, cb * r))
        ca, cb = ca * ta - cb * tb, ca * tb + cb * ta
    # |Re|, |Im| of an output numerator: at most K+1 terms C_k times at most
    # nf ng pairs of 2 |F_i| |G_j| (i)_k (j)_k, and (i)_k <= (max(nf, ng) - 1)!
    bound = ((K + 1) * max(abs(a) + abs(b) for a, b in cs) * nf * ng
             * 2 * max(map(abs, fa + fb)) * max(map(abs, ga + gb))
             * factorial(max(nf, ng) - 1) ** 2)
    bits = bound.bit_length() + 2
    re = im = 0
    for k, (ra, rb) in enumerate(cs):
        if k:
            fa, fb, ga, gb = _deriv(fa), _deriv(fb), _deriv(ga), _deriv(gb)
        if ra or rb:
            pfa, pfb, pga, pgb = _pack(fa, bits), _pack(fb, bits), _pack(ga, bits), _pack(gb, bits)
            xr, xi = pfa * pga - pfb * pgb, pfa * pgb + pfb * pga
            re += ra * xr - rb * xi
            im += ra * xi + rb * xr
    n = nf + ng - 1
    return _from_gaussian_poly(_unpack(re, bits, n), _unpack(im, bits, n),
                               df * dg * (2 * td) ** K * fK)


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
    if type(tau_from) is QC and type(tau_to) is QC and _all_qc(f):
        return _intertwine_gaussian(f, (tau_to - tau_from) / 4)
    return _intertwine_loop(f, tau_from, tau_to)


def _intertwine_loop(f: Poly, tau_from, tau_to) -> Poly:
    """The exponential series over Poly arithmetic, for any coefficient type."""
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


def _intertwine_gaussian(f: Poly, theta: QC) -> Poly:
    """intertwine over QC in ints.  With f_i = F_i/D_f, theta = Θ/t_d and
    J = floor(deg f / 2),

        out_n = sum_j Θ^j t_d^(J-j) (J!/j!) ((n+2j)!/n!) F_{n+2j} / (D_f t_d^J J!)."""
    if f.is_zero():
        return Poly()
    fa, fb, df = to_gaussian(f.coeffs)
    (ta,), (tb,), td = to_gaussian((theta,))
    N = len(fa)
    J = (N - 1) // 2
    # c_j = Θ^j t_d^(J-j) J!/j!
    ca, cb = [], []
    pa, pb = 1, 0
    for j in range(J + 1):
        r = td ** (J - j) * (factorial(J) // factorial(j))
        ca.append(pa * r)
        cb.append(pb * r)
        pa, pb = pa * ta - pb * tb, pa * tb + pb * ta
    out_a, out_b = [0] * N, [0] * N
    for n in range(N):
        xa = xb = 0
        w = 1                                       # (n+2j)!/n!
        for j in range((N - 1 - n) // 2 + 1):
            if j:
                w *= (n + 2 * j) * (n + 2 * j - 1)
            a, b = fa[n + 2 * j], fb[n + 2 * j]
            if a or b:
                xa += w * (ca[j] * a - cb[j] * b)
                xb += w * (ca[j] * b + cb[j] * a)
        out_a[n], out_b[n] = xa, xb
    return _from_gaussian_poly(out_a, out_b, df * td ** J * factorial(J))


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
