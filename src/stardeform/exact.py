"""Exact arithmetic support: rational-complex scalars and sparse Laurent polynomials.

QC is a complex number with rational real and imaginary parts, stored as a
Gaussian integer over one positive denominator.  It interoperates with int and
Fraction, so generic code written for +,-,*,/ runs unchanged over QC or float
complex; it does not mix with float.  complex(), float() and str() treat a QC
as they treat a Fraction.  is_exact is the one exactness rule: the exact routes
compute every int, Fraction or QC input as a QC (as_qc), anything else in float.

Each QC operation pays one gcd to stay canonical, so no exact container
computes over QC.  Each holds a form instead: Gaussian-integer numerators over
one positive denominator, taken from QC values by to_gaussian and read back as
QC values by from_gaussian only when something reads them.  core.Poly and
halfseries.HalfSeries keep their form in lowest terms (lowest_terms, one gcd
per result), so equal values have equal forms; SparseLaurent (below) leaves
its denominator unreduced and compares by cross-multiplying, and so do its
subclasses vertex.CoeffRing and vertex.VertexElem (the rational span, which
adds a grade cap); restrict is the one grade filter of both, which keep
their u-grade as the last exponent.  gaussian_parts gives the parts of one
exact scalar, such as a tau.  pack and unpack multiply integer polynomials as
single ints (Kronecker substitution), and gaussian_product is the one product
of two Gaussian-integer polynomials built on them, which core.Poly's * and
halfseries.hs_mul share.  This module is the only one that reads a QC's
fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Union

from .errors import DomainError

_Rat = Union[int, Fraction]


class QC:
    """Rational-complex number (exact), (a + b i)/d in canonical form.

    a, b and d are Python ints with d > 0 and gcd(a, b, d) == 1, so every value
    has exactly one representation and equality is equality of the triples;
    zero is (0, 0, 1).  Each result is normalised with one gcd.  re and im are
    read-only Fractions; a real QC hashes like the equal int or Fraction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: _Rat = 0, im: _Rat = 0):
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        rd, id_ = re.denominator, im.denominator
        g = gcd(rd, id_)
        self._a = re.numerator * (id_ // g)
        self._b = im.numerator * (rd // g)
        self._d = rd // g * id_

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(x):
        x = as_qc(x)
        return x if type(x) is QC else NotImplemented

    def __add__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._d
        if d == o._d:
            return from_gaussian(self._a + o._a, self._b + o._b, d)
        od = o._d
        return from_gaussian(self._a * od + o._a * d, self._b * od + o._b * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._d
        if d == o._d:
            return from_gaussian(self._a - o._a, self._b - o._b, d)
        od = o._d
        return from_gaussian(self._a * od - o._a * d, self._b * od - o._b * d, d * od)

    def __rsub__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return from_gaussian(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero QC")
        od = o._d
        return from_gaussian((a * c + b * e) * od, (b * c - a * e) * od, self._d * n)

    def __rtruediv__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / (self ** (-n))
        out = QC(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self.re)

    def __bool__(self):
        return bool(self._a or self._b)

    def to_complex(self) -> complex:
        """Nearest float complex; raises DomainError beyond the float range."""
        return gaussian_to_complex(self._a, self._b, self._d)

    __complex__ = to_complex

    def __float__(self) -> float:
        """Nearest float of a real value; TypeError otherwise, as for complex."""
        if self._b:
            raise TypeError("float() of a QC with a nonzero imaginary part")
        return self.to_complex().real

    def __repr__(self):
        if not self._b:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"

    def __str__(self):
        """A real value prints as its Fraction (-5/4, 3); any other as repr."""
        return repr(self) if self._b else str(self.re)


def _new(a: int, b: int, d: int) -> QC:
    """QC from a triple already in canonical form."""
    q = object.__new__(QC)
    q._a, q._b, q._d = a, b, d
    return q


_EXACT = frozenset((int, Fraction, QC))
_INT = frozenset((int,))


def is_exact(x) -> bool:
    """True for an int, Fraction or QC: the scalars the exact routes take."""
    return type(x) in _EXACT


def all_exact(values) -> bool:
    """is_exact for every value."""
    return _EXACT.issuperset(map(type, values))


def as_qc(x):
    """x as a QC if it is an int or Fraction; any other value unchanged."""
    t = type(x)
    if t is int:
        return _new(x, 0, 1)
    if t is Fraction:
        return _new(x.numerator, 0, x.denominator)
    return x


def to_gaussian(values) -> tuple:
    """(re, im, d) for a sequence of exact scalars: d is the lcm of their
    denominators and values[i] == (re[i] + im[i] i)/d, with int lists re, im.
    No QC is built for an int or Fraction value."""
    if _INT.issuperset(map(type, values)):         # ints: numerators over 1
        return list(values), [0] * len(values), 1
    parts = [(q._a, q._b, q._d) if type(q) is QC else (q.numerator, 0, q.denominator)
             for q in values]
    d = lcm(*[e for _, _, e in parts])
    return [a * (d // e) for a, _, e in parts], [b * (d // e) for _, b, e in parts], d


def gaussian_parts(x) -> tuple:
    """(a, b, d) of an exact scalar x == (a + b i)/d in lowest terms."""
    t = type(x)
    if t is QC:
        return x._a, x._b, x._d
    if t is int:
        return x, 0, 1
    return x.numerator, 0, x.denominator


def gaussian_to_complex(a: int, b: int, d: int) -> complex:
    """complex() of (a + b i)/d, bit for bit what QC.to_complex gives for the
    reduced value (int true division rounds correctly, so a common factor
    changes no bit); raises DomainError beyond the float range."""
    try:
        return complex(a / d) + 1j * complex(b / d)
    except OverflowError:
        raise DomainError("exact value is outside the float range") from None


def lowest_terms(re: list, im: list, d: int) -> tuple:
    """The form (re + im i)/d with gcd(d, *re, *im) divided out: the one form
    of its values whose d is the lcm of their canonical denominators.  re and
    im are the caller's fresh lists, returned as they are when already
    reduced."""
    g = gcd(d, *re, *im)
    if g != 1:
        re = [a // g for a in re]
        im = [b // g for b in im]
        d //= g
    return re, im, d


def from_gaussian(a: int, b: int, d: int) -> QC:
    """QC of (a + b i)/d for d > 0, dividing out gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    q = object.__new__(QC)
    q._a, q._b, q._d = a, b, d
    return q


def pack(v: list, bits: int) -> int:
    """sum_i v[i] 2^(bits i): the polynomial at 2^bits (Kronecker substitution),
    so one int product multiplies two polynomials."""
    n = len(v)
    if n > 32:                      # halves, so long inputs are not copied n times
        h = n // 2
        return pack(v[:h], bits) + (pack(v[h:], bits) << (bits * h))
    x = 0
    for c in reversed(v):
        x = (x << bits) + c
    return x


def unpack(x: int, bits: int, n: int) -> list:
    """The n lowest coefficients of a packed polynomial; each must lie strictly
    between -2^(bits-1) and 2^(bits-1)."""
    if not x:
        return [0] * n
    if n > 32:
        h = n // 2
        s = bits * h
        lo = x & ((1 << s) - 1)     # the low h coefficients' value, taken signed
        if lo >> (s - 1):
            lo -= 1 << s
        return unpack(lo, bits, h) + unpack((x - lo) >> s, bits, n - h)
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


def gaussian_product(fa: list, fb: list, ga: list, gb: list, n: int | None = None) -> tuple:
    """(re, im): the numerators of (fa + fb i)(ga + gb i) for Gaussian-integer
    polynomials given by their real and imaginary numerator lists, nonempty;
    its first n coefficients, all of them by default.  Each part is one
    difference or sum of two packed int products; a factor w^j (one real
    numerator 1) shifts the other instead."""
    if n is None:
        n = len(fa) + len(ga) - 1
    if len(ga) > len(fa):
        fa, fb, ga, gb = ga, gb, fa, fb
    j = len(ga) - 1
    if ga[j] == 1 and not any(ga[:j]) and not any(gb):
        return ([0] * j + fa)[:n], ([0] * j + fb)[:n]
    # |Re|, |Im| of an output numerator: at most len(ga) pairs of 2 |F_i| |G_j|
    bound = 2 * len(ga) * max(map(abs, fa + fb)) * max(map(abs, ga + gb))
    bits = bound.bit_length() + 1
    pfa, pfb, pga, pgb = pack(fa, bits), pack(fb, bits), pack(ga, bits), pack(gb, bits)
    return unpack(pfa * pga - pfb * pgb, bits, n), unpack(pfa * pgb + pfb * pga, bits, n)


def _nonzero(pairs) -> dict:
    """{key: c} over the (key, int c) pairs whose c is nonzero."""
    return {k: c for k, c in pairs if c}


def _lincomb(x: dict, a: int, y: dict, b: int) -> dict:
    """a x + b y for dicts of nonzero ints; keys whose sums cancel are dropped."""
    if a == 1:                      # sums over one denominator, and differences
        out = dict(x)
    else:
        out = {k: c * a for k, c in x.items()} if a else {}
    if b:
        for k, c in y.items():
            v = out.get(k, 0) + c * b
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _convolve(out: dict, x: dict, y: dict, sign: int) -> dict:
    """out += sign x y, exponent tuples adding; cancelled sums stay in out."""
    for k1, c1 in x.items():
        c1 *= sign
        for k2, c2 in y.items():
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _derivative(x: dict, axis: int) -> dict:
    out = {}
    for k, c in x.items():
        e = k[axis]
        if e:
            out[k[:axis] + (e - 1,) + k[axis + 1:]] = c * e
    return out


def _invert_axis(x: dict, axis: int, onto: int) -> dict:
    out = {}
    for k, c in x.items():
        nk = list(k)
        nk[onto] -= nk[axis]
        nk[axis] = 0
        nk = tuple(nk)
        out[nk] = out.get(nk, 0) + c
    return _nonzero(out.items())


def _cross_equal(x: dict, y: dict, dx: int, dy: int) -> bool:
    """x/dx == y/dy for dicts of nonzero int numerators."""
    if dx == dy:
        return x == y
    return x.keys() == y.keys() and all(c * dy == y[k] * dx for k, c in x.items())


class SparseLaurent:
    """Exact Laurent polynomial in several symbols with rational-complex
    coefficients.

    The coefficient of the monomial with exponent tuple k (one integer per
    symbol, negative allowed) is (re[k] + im[k] i)/den: re and im map exponent
    tuples to nonzero ints, and the zero element has neither.  den > 0 is not
    reduced (a product multiplies the two denominators, a sum works over their
    lcm), so == compares by cross-multiplying; terms is the read-only
    {exponent: QC} view, built when read.  Arithmetic keeps the class of its
    left operand, so subclasses that add named evaluation stay closed.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, terms=None):
        """From {exponent: int, Fraction or QC}."""
        if not terms:               # the zero element: no values to convert
            self.re, self.im, self.den = {}, {}, 1
            return
        re, im, self.den = to_gaussian(list(terms.values()))
        self.re = _nonzero(zip(terms, re))
        self.im = _nonzero(zip(terms, im))

    def _wrap(self, re: dict, im: dict, den: int):
        """An element of self's class over numerators that are already nonzero
        ints; a subclass with slots of its own copies them here."""
        out = object.__new__(type(self))
        out.re, out.im, out.den = re, im, den
        return out

    @property
    def terms(self) -> dict:
        re, im, d = self.re, self.im, self.den
        return {k: from_gaussian(re.get(k, 0), im.get(k, 0), d) for k in re | im}

    def _combine(self, other, sign: int):
        """self + sign other, over the lcm of the two denominators."""
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g * sign
        return self._wrap(_lincomb(self.re, s1, other.re, s2),
                          _lincomb(self.im, s1, other.im, s2), d1 * s1)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, SparseLaurent):
            ar, ai, br, bi = self.re, self.im, other.re, other.im
            re = _convolve(_convolve({}, ar, br, 1), ai, bi, -1)
            im = _convolve(_convolve({}, ar, bi, 1), ai, br, 1)
            return self._wrap(_nonzero(re.items()), _nonzero(im.items()), self.den * other.den)
        if isinstance(other, (int, Fraction, QC)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        ca, cb, cd = gaussian_parts(c)
        return self._wrap(_lincomb(self.re, ca, self.im, -cb),
                          _lincomb(self.im, ca, self.re, cb), self.den * cd)

    def d(self, axis: int):
        """Partial derivative in symbol `axis`."""
        return self._wrap(_derivative(self.re, axis), _derivative(self.im, axis), self.den)

    def restrict(self, grade: int):
        """The terms whose last exponent is <= grade."""
        return self._wrap({k: c for k, c in self.re.items() if k[-1] <= grade},
                          {k: c for k, c in self.im.items() if k[-1] <= grade}, self.den)

    def restrict_inverse(self, axis: int, onto: int):
        """Substitute symbol `axis` by the inverse of symbol `onto`; the
        exponent of `axis` becomes 0 (a ring endomorphism)."""
        if axis == onto:
            raise ValueError("a symbol cannot be replaced by its own inverse")
        return self._wrap(_invert_axis(self.re, axis, onto), _invert_axis(self.im, axis, onto),
                          self.den)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __eq__(self, other):
        if not isinstance(other, SparseLaurent):
            return False
        g = gcd(self.den, other.den)    # cross-multiply by the cofactors only
        d1, d2 = self.den // g, other.den // g
        return _cross_equal(self.re, other.re, d1, d2) and _cross_equal(self.im, other.im, d1, d2)

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"
