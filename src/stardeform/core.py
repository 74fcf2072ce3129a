"""Deformed product on one-variable polynomials, with exact and floating backends.

The product

    f *_tau g = sum_k (tau^k / (2^k k!)) f^(k) g^(k)

is commutative and associative; tau = 0 is the plain polynomial algebra and the
map exp(((tau'-tau)/4) d^2/dw^2) intertwines the products at two parameter
values.  All operations are pure; values are immutable after construction.

Two polynomial types.  ExactPoly holds its Gaussian form (re, im, d):
Gaussian-integer numerators over one positive denominator, in lowest terms, so
equal values have equal forms.  Its operators compute on the forms in Python
ints (the product as one packed Gaussian product, exact.gaussian_product) and
divide one gcd out; its .coeffs are QC values, built when first read unless it
was built from values, which it keeps.  Poly is the coefficient loop over
whatever numbers it holds: float and complex in the package, ints in Poly.x()
and Poly.const(1), which float code mixes with complex polynomials, and QC in
the tests, where the loop is the reference for ExactPoly; its +, - and * take
Poly operands, and scale a scalar.  The kernels choose
their route by the operand's type: ExactPoly operands at an exact tau (int,
Fraction or QC, read as its parts by exact.gaussian_parts) take the integer
kernels and return an ExactPoly, and Poly operands take the loop.  An
ExactPoly mixed with a Poly, or with a float or complex scalar or tau, raises
TypeError; to_complex() converts it.

The integer star product sums the packed products pack(F^(k)) pack(G^(k)),
and it reads every packed derivative from repeated synthetic division at the
packing point, which forms no derivative list.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, perm
from typing import Sequence

from .exact import (all_exact, as_qc, from_gaussian, gaussian_parts, gaussian_powers,
                    gaussian_product, gaussian_to_complex, is_exact, lowest_terms,
                    to_gaussian, unpack)


def horner(coeffs, w):
    """sum_j coeffs[j] w^j by Horner's rule from the top coefficient, the loop of
    Poly.__call__; each coefficient may be a value or an array, as the
    coefficient columns of starexp's batches are."""
    acc = 0
    for a in reversed(coeffs):
        acc = acc * w + a
    return acc


class Poly:
    """Dense polynomial in w; zero polynomial has an empty coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = tuple(coeffs)
        if cs and cs[-1] == 0:
            n = len(cs) - 1
            while n and cs[n - 1] == 0:
                n -= 1
            cs = cs[:n]
        self.coeffs = cs

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
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [x + y for x, y in zip(a, b)]
        # the longer operand's top coefficients plus 0, as in a padded sum
        if len(a) > len(b):
            out += [x + 0 for x in a[len(b):]]
        elif len(b) > len(a):
            out += [0 + y for y in b[len(a):]]
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not (self.coeffs and other.coeffs):
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

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
        return horner(self.coeffs, w)

    def to_complex(self) -> "Poly":
        return Poly([complex(c) for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


class ExactPoly:
    """Exact polynomial in w over Q(i): coefficient i is (re[i] + im[i] i)/d for
    form = (re, im, d), with d > 0, gcd(d, *re, *im) == 1 and no trailing zero;
    the zero polynomial is ([], [], 1).  +, - and == take an ExactPoly or an
    int, Fraction or QC scalar, * an ExactPoly, and scale a scalar."""

    __slots__ = ("form", "_coeffs")

    def __init__(self, coeffs: Sequence = ()):
        """From int, Fraction or QC values, kept as QC values for .coeffs.  Their
        form (to_gaussian) is over the lcm of their canonical denominators, so
        it is in lowest terms."""
        cs = tuple(coeffs)
        if not all_exact(cs):
            raise TypeError("ExactPoly takes int, Fraction or QC coefficients")
        re, im, d = to_gaussian(cs)
        n = len(cs)
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        self.form = re[:n], im[:n], d
        self._coeffs = tuple(map(as_qc, cs[:n]))

    @staticmethod
    def x() -> "ExactPoly":
        """The monomial w."""
        return ExactPoly([0, 1])

    @staticmethod
    def const(c) -> "ExactPoly":
        return ExactPoly([c])

    @staticmethod
    def from_form(re: list, im: list, d: int) -> "ExactPoly":
        """The ExactPoly of (re + im i)/d for d > 0: trailing zeros stripped and
        one gcd divided out.  re and im are the caller's fresh lists, and no
        one mutates a form."""
        while re and not (re[-1] or im[-1]):
            re.pop()
            im.pop()
        p = object.__new__(ExactPoly)
        p.form, p._coeffs = lowest_terms(re, im, d), None
        return p

    @property
    def coeffs(self) -> tuple:
        """The QC coefficients (exact.from_gaussian), built when first read."""
        if self._coeffs is None:
            re, im, d = self.form
            self._coeffs = tuple([from_gaussian(a, b, d) for a, b in zip(re, im)])
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.form[0]) - 1

    def is_zero(self) -> bool:
        return not self.form[0]

    def _combine(self, other, sign: int) -> "ExactPoly":
        """self + sign other, over the lcm of the two denominators."""
        fa, fb, df = self.form
        ga, gb, dg = _operand(other)
        c = gcd(df, dg)
        s, t = dg // c, df // c * sign              # df s = dg |t| = lcm(df, dg)
        re = [x * s + y * t for x, y in zip(fa, ga)]
        im = [x * s + y * t for x, y in zip(fb, gb)]
        n = len(re)
        if len(fa) > n:
            re += [x * s for x in fa[n:]]
            im += [x * s for x in fb[n:]]
        elif len(ga) > n:
            re += [y * t for y in ga[n:]]
            im += [y * t for y in gb[n:]]
        return ExactPoly.from_form(re, im, df * s)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        fa, fb, df = self.form
        ga, gb, dg = other.form
        if not fa or not ga:
            return ExactPoly.from_form([], [], 1)
        return ExactPoly.from_form(*gaussian_product(fa, fb, ga, gb), df * dg)

    def scale(self, c) -> "ExactPoly":
        fa, fb, d = self.form
        ca, cb, cd = _exact_parts(c)
        if not cb:
            return ExactPoly.from_form([a * ca for a in fa], [b * ca for b in fb], d * cd)
        return ExactPoly.from_form([a * ca - b * cb for a, b in zip(fa, fb)],
                                   [a * cb + b * ca for a, b in zip(fa, fb)], d * cd)

    def deriv(self, order: int = 1) -> "ExactPoly":
        re, im, d = self.form
        return ExactPoly.from_form(_deriv(re, order), _deriv(im, order), d)

    def __eq__(self, other):
        return self.form == _operand(other)

    def to_complex(self) -> Poly:
        """The float Poly of complex() of each coefficient, without building QC values."""
        re, im, d = self.form
        return Poly([gaussian_to_complex(a, b, d) for a, b in zip(re, im)])

    def __repr__(self):
        return f"ExactPoly({list(self.coeffs)!r})"


def _exact_parts(c) -> tuple:
    """exact.gaussian_parts of an exact scalar or tau; TypeError for any other."""
    if not is_exact(c):
        raise TypeError(f"an ExactPoly takes int, Fraction or QC operands, not "
                        f"{type(c).__name__}; convert it with to_complex()")
    return gaussian_parts(c)


def _operand(x) -> tuple:
    """The form of an ExactPoly, or of an exact scalar as a constant."""
    if isinstance(x, ExactPoly):
        return x.form
    a, b, d = _exact_parts(x)
    return ([a], [b], d) if a or b else ([], [], 1)


def _deriv(v: list, order: int) -> list:
    """The numerators of the order-th derivative: c_i i!/(i - order)! at i - order."""
    return [perm(i, order) * c for i, c in enumerate(v[order:], order)]


def star_product(f, g, tau):
    """sum_k (tau^k / (2^k k!)) f^(k) g^(k); finite and commutative, exact for
    ExactPoly operands at an exact tau."""
    if isinstance(f, ExactPoly) or isinstance(g, ExactPoly):
        return _star_product_gaussian(_operand(f), _operand(g), _exact_parts(tau))
    return _star_product_loop(f, g, tau)


def _star_product_loop(f: Poly, g: Poly, tau) -> Poly:
    """The defining sum over Poly arithmetic: the float route, and over QC the
    tests' reference for the integer kernel."""
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


def _star_product_gaussian(f_form: tuple, g_form: tuple, tau: tuple) -> ExactPoly:
    """star_product of the forms f = F/D_f, g = G/D_g (F, G Gaussian-integer
    polynomials) at the parts tau = (T_re, T_im, t_d) of an exact tau = T/t_d.
    With K = min(deg f, deg g),

        f *_tau g = sum_k C_k F^(k) G^(k) / (D_f D_g (2 t_d)^K K!),
        C_k = T^k (2 t_d)^(K-k) K!/k!.

    Each product F^(k) G^(k) is the Gaussian product of the packed values
    pack(F^(k)) = F^(k)(X), X = 2^bits, and the sum over k is taken in packed
    form, so only the result is unpacked.  K + 1 passes of synthetic division
    by w - X read every F^(k)(X)/k! at once (_taylor_values), and the weight
    C_k k!^2 puts back the two k!, so no derivative list is formed.  The
    result is reduced by one gcd; no coefficient is built."""
    fa, fb, df = f_form
    ga, gb, dg = g_form
    if not fa or not ga:
        return ExactPoly.from_form([], [], 1)
    ta, tb, td = tau
    nf, ng = len(fa), len(ga)
    K = min(nf, ng) - 1
    fK = factorial(K)
    pa, pb = gaussian_powers(ta, tb, K)             # T^k
    cs, top = [], 0
    for k in range(K + 1):
        r = (2 * td) ** (K - k) * (fK // factorial(k))     # C_k = T^k r
        top = max(top, (abs(pa[k]) + abs(pb[k])) * r)
        r *= factorial(k) ** 2                      # t_k = pack(F^(k))/k!, so C_k k!^2
        cs.append((pa[k] * r, pb[k] * r))
    # |Re|, |Im| of an output numerator: at most K+1 terms C_k times at most
    # nf ng pairs of 2 |F_i| |G_j| (i)_k (j)_k, and (i)_k <= (max(nf, ng) - 1)!
    bound = ((K + 1) * top * nf * ng
             * 2 * max(map(abs, fa + fb)) * max(map(abs, ga + gb))
             * factorial(max(nf, ng) - 1) ** 2)
    bits = bound.bit_length() + 2
    terms = K + 1 if ta or tb else 1                # at tau = 0 only the k = 0 term
    values = zip(*[_taylor_values(v, bits, terms) for v in (fa, fb, ga, gb)])
    re = im = 0
    for (ra, rb), (pfa, pfb, pga, pgb) in zip(cs[:terms], values):
        xr, xx = pfa * pga, pfb * pgb
        if pfb and pgb:                             # three int products, not four
            xi = (pfa + pfb) * (pga + pgb) - xr - xx
        else:                                       # a product by zero is free
            xi = pfa * pgb + pfb * pga
        xr -= xx
        re += ra * xr - rb * xi
        im += ra * xi + rb * xr
    n = nf + ng - 1
    return ExactPoly.from_form(unpack(re, bits, n), unpack(im, bits, n),
                               df * dg * (2 * td) ** K * fK)


def _taylor_values(v: list, bits: int, terms: int) -> list:
    """[t_0, ..., t_(terms-1)], t_k = P^(k)(X)/k! at X = 2^bits for the integer
    polynomial P of coefficients v (terms <= len(v)): the remainders of
    repeated synthetic division by w - X, P's Taylor coefficients at X.  So
    k! t_k = pack(P^(k), bits)."""
    if not any(v):
        return [0] * terms
    out = []
    q = v[::-1]                                     # top coefficient first
    for _ in range(terms):
        acc = 0
        rest = []
        for c in q:
            acc = (acc << bits) + c
            rest.append(acc)
        out.append(rest.pop())                      # P(X); rest is P's quotient by w - X
        q = rest
    return out


def intertwine(f, tau_from, tau_to):
    """exp(((tau_to - tau_from)/4) d^2) f: algebra morphism between parameter
    values, exact for an ExactPoly at exact taus."""
    if isinstance(f, ExactPoly):
        return _intertwine_gaussian(f.form, _quarter_difference(tau_from, tau_to))
    return _intertwine_loop(f, tau_from, tau_to)


def _intertwine_loop(f: Poly, tau_from, tau_to) -> Poly:
    """The exponential series over Poly arithmetic: the float route, and over
    QC the tests' reference for the integer kernel."""
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
    a1, b1, d1 = _exact_parts(tau_from)
    a2, b2, d2 = _exact_parts(tau_to)
    (ta,), (tb,), td = lowest_terms([a2 * d1 - a1 * d2], [b2 * d1 - b1 * d2], 4 * d1 * d2)
    return ta, tb, td


def _intertwine_gaussian(f_form: tuple, theta: tuple) -> ExactPoly:
    """intertwine of the form f_i = F_i/D_f at the parts theta = (Θ_re, Θ_im,
    t_d) of theta = Θ/t_d.  With
    J = floor(deg f / 2),

        out_n = sum_j Θ^j t_d^(J-j) (J!/j!) ((n+2j)!/n!) F_{n+2j} / (D_f t_d^J J!).

    The result is reduced by one gcd; no coefficient is built."""
    fa, fb, df = f_form
    if not fa:
        return ExactPoly.from_form([], [], 1)
    ta, tb, td = theta
    N = len(fa)
    J = (N - 1) // 2
    # c_j = Θ^j t_d^(J-j) J!/j!
    ca, cb = gaussian_powers(ta, tb, J)
    for j in range(J + 1):
        r = td ** (J - j) * (factorial(J) // factorial(j))
        ca[j] *= r
        cb[j] *= r
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
    return ExactPoly.from_form(out_a, out_b, df * td ** J * factorial(J))


def w_star_power(n: int, tau):
    """The n-th deformed power of w: monic degree-n polynomial

        P_n(w, tau) = sum_{k <= n/2} n!/(4^k k! (n-2k)!) tau^k w^(n-2k),

    an ExactPoly for an exact tau = T/t_d: with K = floor(n/2), the numerator
    of w^(n-2k) is n!/(k! (n-2k)!) T^k (4 t_d)^(K-k) over (4 t_d)^K, reduced
    by one gcd; a float Poly otherwise.
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
    for k, (pa, pb) in enumerate(zip(*gaussian_powers(ta, tb, K))):   # T^k
        if k > 0:
            c = c * (n - 2 * k + 2) * (n - 2 * k + 1) // k
        r = c * (4 * td) ** (K - k)
        re[n - 2 * k], im[n - 2 * k] = pa * r, pb * r
    return ExactPoly.from_form(re, im, (4 * td) ** K)


def infinitesimal_intertwiner(f):
    """Quarter of the second derivative: the generator of the intertwiner flow."""
    return f.deriv(2).scale(Fraction(1, 4))
