"""Deformed product on one-variable polynomials, with exact and floating backends.

The product

    f *_tau g = sum_k (tau^k / (2^k k!)) f^(k) g^(k)

is commutative and associative; tau = 0 is the plain polynomial algebra and the
map exp(((tau'-tau)/4) d^2/dw^2) intertwines the products at two parameter
values.  All operations are pure; values are immutable after construction.

Coefficients are Python complex, or exact int, Fraction and exact.QC
(rational-complex, used for zero-residual identity checks); exact.is_exact
tells them apart.  Every entry point computes exact input in QC and returns QC
coefficients.  Poly itself converts no coefficient: Poly.x() has int
coefficients and serves float code as well.

An exact Poly also holds its Gaussian form (re, im, d): Gaussian-integer
numerators over d, the lcm of the coefficients' canonical denominators.  That
form is in lowest terms and unique, so two exact polynomials are equal exactly
when their forms are.  A Poly built from exact coefficients takes its form
(exact.to_gaussian) when a kernel first reads it and keeps it; a float Poly
never holds one.  When tau is exact and both inputs hold a form, star_product
and intertwine evaluate the defining sums in Python ints, divide the output
numerators and denominator by one gcd, and return a Poly that holds only that
form.  They read an exact tau's parts (a, b, d) directly
(exact.gaussian_parts); intertwine forms theta = (tau_to - tau_from)/4 from
the two taus' parts in ints, with one gcd.  An output Poly's QC coefficients
are built (exact.from_gaussian, once per coefficient) when something first
reads .coeffs, and a chain of kernels or an equality test between outputs
never builds them.  Any other input takes the float loop over Poly arithmetic
with every QC scalar taken as complex, so exact and float scalars mix to the
float result; over QC the loop is also the tests' reference for the integer
route.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .exact import (QC, all_exact, as_qc, from_gaussian, gaussian_parts, is_exact, lowest_terms,
                    pack, to_gaussian, unpack)


def _is_zero(c) -> bool:
    return c == 0


class Poly:
    """Dense polynomial in w; zero polynomial has an empty coefficient tuple.

    The slot _gauss holds the Gaussian form of an exact Poly once a kernel has
    read it (_form) and stays unset on a float Poly.
    """

    __slots__ = ("coeffs", "_gauss")

    def __init__(self, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def x() -> "Poly":
        """The monomial w."""
        return Poly([0, 1])

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
        a, b = getattr(self, "_gauss", None), getattr(other, "_gauss", None)
        if a is not None and b is not None:
            return a == b
        a, b = self.coeffs, other.coeffs
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))

    def __hash__(self):
        return hash(self.coeffs)

    def map_coeffs(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    def to_complex(self) -> "Poly":
        return self.map_coeffs(complex)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


class _FormPoly(Poly):
    """A Poly returned by an exact kernel: it holds its form and builds its QC
    coefficients when they are first read.  Poly itself defines no
    __getattr__, so on any other Poly a slot read stays plain, and CPython can
    specialise it; a __getattr__ on Poly costs the float paths that."""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only while a slot is unset, and _gauss is always set
        if name != "coeffs":
            raise AttributeError(f"'Poly' object has no attribute {name!r}")
        re, im, d = self._gauss
        self.coeffs = tuple([from_gaussian(a, b, d) for a, b in zip(re, im)])
        return self.coeffs


def _form(p: Poly):
    """p's Gaussian form (re, im, d), taken by to_gaussian on first use and kept;
    None for a Poly with a float coefficient, which is never given one."""
    form = getattr(p, "_gauss", None)
    if form is None and all_exact(p.coeffs):
        form = p._gauss = to_gaussian(p.coeffs)
    return form


def _form_poly(re: list, im: list, d: int) -> Poly:
    """The Poly of (re + im i)/d, holding its lowest-terms form: trailing zeros
    stripped and one gcd divided out.  re and im are the caller's fresh lists,
    and no one mutates a held form."""
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    p = object.__new__(_FormPoly)
    p._gauss = lowest_terms(re, im, d)
    return p


def star_product(f: Poly, g: Poly, tau) -> Poly:
    """sum_k (tau^k / (2^k k!)) f^(k) g^(k); finite, commutative, exact over QC."""
    if is_exact(tau):
        ff, gf = _form(f), _form(g)
        if ff is not None and gf is not None:
            return _star_product_gaussian(ff, gf, gaussian_parts(tau))
    return _star_product_loop(f.map_coeffs(_inexact), g.map_coeffs(_inexact), _inexact(tau))


def _inexact(c):
    """A QC as complex, any other scalar unchanged: the float loops' scalars."""
    return complex(c) if type(c) is QC else c


def _star_product_loop(f: Poly, g: Poly, tau) -> Poly:
    """The defining sum over Poly arithmetic: the float route, and over QC the
    reference for the integer route."""
    out = f * g
    fk, gk = f, g
    scale = 1
    kmax = min(f.degree, g.degree)
    for k in range(1, kmax + 1):
        fk = fk.deriv()
        gk = gk.deriv()
        scale = scale * tau / (2 * k)
        out = out + (fk * gk).scale(scale)
    return out


def _deriv(v: list) -> list:
    return [i * c for i, c in enumerate(v[1:], 1)]


def _star_product_gaussian(f_form: tuple, g_form: tuple, tau: tuple) -> Poly:
    """star_product of the forms f = F/D_f, g = G/D_g (F, G Gaussian-integer
    polynomials) at the parts tau = (T_re, T_im, t_d) of an exact tau = T/t_d.
    With K = min(deg f, deg g),

        f *_tau g = sum_k C_k F^(k) G^(k) / (D_f D_g (2 t_d)^K K!),
        C_k = T^k (2 t_d)^(K-k) K!/k!.

    Each product F^(k) G^(k) is four int products of packed polynomials, and
    the sum over k is taken in packed form, so only the result is unpacked.
    The result holds the output form, reduced by one gcd; no coefficient is
    built."""
    fa, fb, df = f_form
    ga, gb, dg = g_form
    if not fa or not ga:
        return _form_poly([], [], 1)
    ta, tb, td = tau
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
            pfa, pfb, pga, pgb = pack(fa, bits), pack(fb, bits), pack(ga, bits), pack(gb, bits)
            xr, xi = pfa * pga - pfb * pgb, pfa * pgb + pfb * pga
            re += ra * xr - rb * xi
            im += ra * xi + rb * xr
    n = nf + ng - 1
    return _form_poly(unpack(re, bits, n), unpack(im, bits, n), df * dg * (2 * td) ** K * fK)


def intertwine(f: Poly, tau_from, tau_to) -> Poly:
    """exp(((tau_to - tau_from)/4) d^2) f: algebra morphism between parameter values."""
    if is_exact(tau_from) and is_exact(tau_to):
        form = _form(f)
        if form is not None:
            return _intertwine_gaussian(form, _quarter_difference(tau_from, tau_to))
    return _intertwine_loop(f.map_coeffs(_inexact), _inexact(tau_from), _inexact(tau_to))


def _intertwine_loop(f: Poly, tau_from, tau_to) -> Poly:
    """The exponential series over Poly arithmetic: the float route, and over
    QC the reference for the integer route."""
    theta = (tau_to - tau_from) / 4
    out = f
    term = f
    scale = 1
    j = 0
    while term.degree >= 2:
        j += 1
        term = term.deriv(2)
        scale = scale * theta / j
        out = out + term.scale(scale)
    return out


def _quarter_difference(tau_from, tau_to) -> tuple:
    """The parts (Θ_re, Θ_im, t_d) of theta = (tau_to - tau_from)/4 for exact
    taus, in lowest terms."""
    a1, b1, d1 = gaussian_parts(tau_from)
    a2, b2, d2 = gaussian_parts(tau_to)
    (ta,), (tb,), td = lowest_terms([a2 * d1 - a1 * d2], [b2 * d1 - b1 * d2], 4 * d1 * d2)
    return ta, tb, td


def _intertwine_gaussian(f_form: tuple, theta: tuple) -> Poly:
    """intertwine of the form f_i = F_i/D_f at the parts theta = (Θ_re, Θ_im,
    t_d) of theta = Θ/t_d.  With
    J = floor(deg f / 2),

        out_n = sum_j Θ^j t_d^(J-j) (J!/j!) ((n+2j)!/n!) F_{n+2j} / (D_f t_d^J J!).

    The result holds the output form, reduced by one gcd; no coefficient is
    built."""
    fa, fb, df = f_form
    if not fa:
        return _form_poly([], [], 1)
    ta, tb, td = theta
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
    return _form_poly(out_a, out_b, df * td ** J * factorial(J))


def w_star_power(n: int, tau) -> Poly:
    """The n-th deformed power of w: monic degree-n polynomial

        P_n(w, tau) = sum_{k <= n/2} n!/(4^k k! (n-2k)!) tau^k w^(n-2k),

    over QC for an exact tau.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    tau = as_qc(tau)
    exact = is_exact(tau)
    coeffs = [QC(0) if exact else 0] * (n + 1)
    c = 1                                           # n!/(k! (n-2k)!)
    tpow = QC(1) if exact else 1
    for k in range(n // 2 + 1):
        if k > 0:
            c = c * (n - 2 * k + 2) * (n - 2 * k + 1) // k
            tpow = tpow * tau
        coeffs[n - 2 * k] = (from_gaussian(c, 0, 4 ** k) if exact else c / 4 ** k) * tpow
    return Poly(coeffs)


def infinitesimal_intertwiner(f: Poly) -> Poly:
    """Quarter of the second derivative: the generator of the intertwiner flow."""
    if all_exact(f.coeffs):
        return f.deriv(2).map_coeffs(lambda c: as_qc(c) / 4)
    return f.deriv(2).scale(0.25)
