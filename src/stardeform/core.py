"""Deformed product on one-variable polynomials, with exact and floating backends.

The product

    f *_tau g = sum_k (tau^k / (2^k k!)) f^(k) g^(k)

is commutative and associative; tau = 0 is the plain polynomial algebra and the
map exp(((tau'-tau)/4) d^2/dw^2) intertwines the products at two parameter
values.  All operations are pure; values are immutable after construction.

Coefficients are Python complex, or exact int, Fraction and exact.QC
(rational-complex, used for zero-residual identity checks); exact.is_exact
tells them apart.  Every entry point computes exact input in QC and returns QC
coefficients.

An exact Poly can hold its Gaussian form (re, im, d): Gaussian-integer
numerators over d, the lcm of the coefficients' canonical denominators.  That
form is in lowest terms and unique, so two exact polynomials are equal exactly
when their forms are.  The slot _gauss holds it once taken, False for a Poly
with an inexact coefficient (a float or complex top coefficient marks that at
construction, any other Poly on first use), so no operator rescans a float
Poly.

Operators.  +, -, unary -, * by a Poly or an exact scalar, scale and deriv
take the form route when every operand is exact and one operand holds a form
or has a QC coefficient (a QC scalar counts): they compute on the forms in
Python ints (the Poly product as one packed Gaussian product,
exact.gaussian_product), divide one gcd out and return a Poly that holds only
its form.  is_zero and degree read a held form, and == compares forms on the
same route.  Every other call runs the coefficient loop: float and mixed
operands bit for bit as before, and polynomials with int and Fraction
coefficients only keep int and Fraction results (float code mixes Poly.x()
and GaussPoly's Poly.const(1) with complex polynomials, and (w * w).coeffs
stays ints).  Over QC the loop is the tests' reference for the form route.

Kernels.  star_product and intertwine take the form of any exact input
(exact.to_gaussian) when tau is exact, evaluate the defining sums in Python
ints and return a form-holding Poly.  They read an exact tau's parts (a, b, d)
directly (exact.gaussian_parts); intertwine forms theta = (tau_to -
tau_from)/4 from the two taus' parts in ints, with one gcd.  w_star_power
builds its form directly for an exact tau.  A form-holding Poly builds its QC
coefficients (exact.from_gaussian, once per coefficient) when something first
reads .coeffs, so a chain of kernels and operators, or an equality test
between their outputs, never builds them.  Any other kernel input takes the
float loop over Poly arithmetic with every QC scalar taken as complex, so
exact and float scalars mix to the float result; over QC the loop is also the
tests' reference for the integer route.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, perm
from typing import Sequence

from .exact import (QC, all_exact, from_gaussian, gaussian_parts, gaussian_product,
                    gaussian_to_complex, is_exact, lowest_terms, pack, to_gaussian, unpack)

_INEXACT_TYPES = frozenset((float, complex))


class Poly:
    """Dense polynomial in w; zero polynomial has an empty coefficient tuple.

    The slot _gauss holds the Gaussian form of an exact Poly once it has been
    taken (_qc_form, _form), False for a Poly with an inexact coefficient, and
    None until a Poly is first classified (or while it has int and Fraction
    coefficients only).
    """

    __slots__ = ("coeffs", "_gauss")

    def __init__(self, coeffs: Sequence = ()):
        cs = tuple(coeffs)
        if cs and cs[-1] == 0:
            n = len(cs) - 1
            while n and cs[n - 1] == 0:
                n -= 1
            cs = cs[:n]
        self.coeffs = cs
        # a float or complex top coefficient marks the Poly inexact at once, so
        # float code never scans; any other Poly is classified on first use
        self._gauss = False if cs and type(cs[-1]) in _INEXACT_TYPES else None

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
        if self._gauss is not False and other._gauss is not False:
            forms = _form_operands(self, other)
            if forms:
                return _add_forms(*forms)
        a, b = self.coeffs, other.coeffs
        out = [x + y for x, y in zip(a, b)]
        # the longer operand's top coefficients plus 0, as in a padded sum
        if len(a) > len(b):
            out += [x + 0 for x in a[len(b):]]
        elif len(b) > len(a):
            out += [0 + y for y in b[len(a):]]
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        form = _qc_form(self)
        if form:
            re, im, d = form
            return _held([-a for a in re], [-b for b in im], d)
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
        if self._gauss is not False and other._gauss is not False:
            forms = _form_operands(self, other)
            if forms:
                return _mul_forms(*forms)
        if not (self.coeffs and other.coeffs):
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        if self._gauss is not False and is_exact(c):
            form = _qc_form(self)
            if form is not False and (form or type(c) is QC):
                return _scale_form(form or to_gaussian(self.coeffs), gaussian_parts(c))
        return Poly([c * a for a in self.coeffs])

    def deriv(self, order: int = 1) -> "Poly":
        if self._gauss is not False:
            form = _qc_form(self)
            if form:
                re, im, d = form
                return _form_poly(_deriv(re, order), _deriv(im, order), d)
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
        if self._gauss is not False and other._gauss is not False:
            forms = _form_operands(self, other)
            if forms:
                return forms[0] == forms[1]
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
    """A Poly returned by the form route: it holds its form and builds its QC
    coefficients when they are first read; degree, is_zero and to_complex read
    the form.
    Poly itself defines no __getattr__, so on any other Poly a slot read stays
    plain, and CPython can specialise it; a __getattr__ on Poly costs the float
    paths that."""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only while a slot is unset, and _gauss is always set
        if name != "coeffs":
            raise AttributeError(f"'Poly' object has no attribute {name!r}")
        re, im, d = self._gauss
        self.coeffs = tuple([from_gaussian(a, b, d) for a, b in zip(re, im)])
        return self.coeffs

    @property
    def degree(self) -> int:
        return len(self._gauss[0]) - 1

    def is_zero(self) -> bool:
        return not self._gauss[0]

    def to_complex(self) -> Poly:
        re, im, d = self._gauss
        return Poly([gaussian_to_complex(a, b, d) for a, b in zip(re, im)])


def _qc_form(p: Poly):
    """p's form if it holds one or has a QC coefficient (the form is then taken
    and kept); None for int and Fraction coefficients only; False, kept, for an
    inexact coefficient."""
    form = p._gauss
    if form is None:
        cs = p.coeffs
        if not all_exact(cs):
            form = p._gauss = False
        elif QC in map(type, cs):
            form = p._gauss = to_gaussian(cs)
    return form


def _form(p: Poly):
    """p's Gaussian form for an exact kernel, taken by to_gaussian on first use
    and kept whatever p's exact coefficients are; None for a Poly with an
    inexact coefficient."""
    form = _qc_form(p)
    if form is None:
        form = p._gauss = to_gaussian(p.coeffs)
    return form or None


def _form_operands(p: Poly, q: Poly):
    """The forms of p and q when an operator takes the form route: both exact,
    and one holds a form or has a QC coefficient.  An int or Fraction operand's
    form is taken but not kept, so its later operators keep int and Fraction
    results.  None sends the operator to the loop."""
    a, b = p._gauss or _qc_form(p), q._gauss or _qc_form(q)
    if a and b:
        return a, b
    if a is False or b is False or not (a or b):
        return None
    return a or to_gaussian(p.coeffs), b or to_gaussian(q.coeffs)


def _held(re: list, im: list, d: int) -> Poly:
    """A _FormPoly holding (re, im, d), which must already be in lowest terms
    with no trailing zeros."""
    p = object.__new__(_FormPoly)
    p._gauss = re, im, d
    return p


def _form_poly(re: list, im: list, d: int) -> Poly:
    """The Poly of (re + im i)/d, holding its lowest-terms form: trailing zeros
    stripped and one gcd divided out.  re and im are the caller's fresh lists,
    and no one mutates a held form."""
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    return _held(*lowest_terms(re, im, d))


def _add_forms(f: tuple, g: tuple) -> Poly:
    """f + g over the lcm of the two denominators."""
    fa, fb, df = f
    ga, gb, dg = g
    c = gcd(df, dg)
    s, t = dg // c, df // c                         # df s = dg t = lcm(df, dg)
    re = [x * s + y * t for x, y in zip(fa, ga)]
    im = [x * s + y * t for x, y in zip(fb, gb)]
    n = len(re)
    if len(fa) > n:
        re += [x * s for x in fa[n:]]
        im += [x * s for x in fb[n:]]
    elif len(ga) > n:
        re += [y * t for y in ga[n:]]
        im += [y * t for y in gb[n:]]
    return _form_poly(re, im, df * s)


def _mul_forms(f: tuple, g: tuple) -> Poly:
    """f g: one Gaussian product of the numerators over the product of the
    denominators."""
    fa, fb, df = f
    ga, gb, dg = g
    if not fa or not ga:
        return _held([], [], 1)
    return _form_poly(*gaussian_product(fa, fb, ga, gb), df * dg)


def _scale_form(f: tuple, c: tuple) -> Poly:
    """c f for the parts c = (c_re, c_im, c_d) of an exact scalar."""
    fa, fb, d = f
    ca, cb, cd = c
    if not cb:
        if not ca:
            return _held([], [], 1)
        return _form_poly([a * ca for a in fa], [b * ca for b in fb], d * cd)
    return _form_poly([a * ca - b * cb for a, b in zip(fa, fb)],
                      [a * cb + b * ca for a, b in zip(fa, fb)], d * cd)


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


def _deriv(v: list, order: int = 1) -> list:
    """The numerators of the order-th derivative: c_i i!/(i - order)! at i - order."""
    if order == 1:
        return [i * c for i, c in enumerate(v[1:], 1)]
    return [perm(i, order) * c for i, c in enumerate(v[order:], order)]


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

    over QC for an exact tau = T/t_d: with K = floor(n/2), the numerator of
    w^(n-2k) is n!/(k! (n-2k)!) T^k (4 t_d)^(K-k) over (4 t_d)^K, and the
    result holds that form, reduced by one gcd.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    c = 1                                           # n!/(k! (n-2k)!)
    if not is_exact(tau):
        coeffs = [0] * (n + 1)
        tpow = 1
        for k in range(n // 2 + 1):
            if k > 0:
                c = c * (n - 2 * k + 2) * (n - 2 * k + 1) // k
                tpow = tpow * tau
            coeffs[n - 2 * k] = c / 4 ** k * tpow
        return Poly(coeffs)
    ta, tb, td = gaussian_parts(tau)
    K = n // 2
    re, im = [0] * (n + 1), [0] * (n + 1)
    pa, pb = 1, 0                                   # T^k
    for k in range(K + 1):
        if k > 0:
            c = c * (n - 2 * k + 2) * (n - 2 * k + 1) // k
            pa, pb = pa * ta - pb * tb, pa * tb + pb * ta
        r = c * (4 * td) ** (K - k)
        re[n - 2 * k], im[n - 2 * k] = pa * r, pb * r
    return _form_poly(re, im, (4 * td) ** K)


def infinitesimal_intertwiner(f: Poly) -> Poly:
    """Quarter of the second derivative: the generator of the intertwiner flow."""
    return f.deriv(2).scale(Fraction(1, 4) if _form(f) else 0.25)
