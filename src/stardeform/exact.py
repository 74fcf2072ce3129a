"""Exact arithmetic support: rational-complex scalars and sparse Laurent polynomials.

QC is a complex number with rational real and imaginary parts, stored as a
Gaussian integer over one positive denominator.  It takes an int or Fraction
operand on either side of + and * and on the right of - and /, so the
coefficient loops (core.Poly) run unchanged over QC; it does not mix with
float, and it is not hashable.  complex() and str() treat a QC as they treat
a Fraction.  is_exact is the one exactness rule: the exact routes
compute every int, Fraction or QC input as a QC (as_qc), anything else in float.

Each QC operation pays one gcd to stay canonical, so no exact container
computes over QC.  Each holds a form instead: Gaussian-integer numerators over
one positive denominator, taken from QC values by to_gaussian and read back as
QC values by from_gaussian only when something reads them.  The one dense
form is core.ExactPoly's, kept in lowest terms (lowest_terms, one gcd per
result), so equal values have equal forms; a halfseries.HalfSeries is an
ExactPoly in q cut at its truncation.  SparseLaurent (below) holds rational
coefficients as int numerators over one denominator, which it leaves
unreduced, and compares by cross-multiplying; so do its subclasses
vertex.CoeffRing and vertex.VertexElem (the span, which adds a grade cap) and
the central parts of vertex.bracket_elems, whose last exponent is the u-grade
that restrict, the one grade filter, cuts at.  gaussian_parts gives the parts
of one exact scalar, such as a tau, and gaussian_powers the numerators of a
Gaussian integer's powers.  pack and unpack multiply integer polynomials as
single ints (Kronecker substitution), and gaussian_product is the one product
of two Gaussian-integer polynomials built on them, which core.ExactPoly's *
and halfseries.hs_mul share.  This module is the only one that reads a QC's
fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import DomainError


class QC:
    """Rational-complex number (exact), (a + b i)/d in canonical form.

    a, b and d are Python ints with d > 0 and gcd(a, b, d) == 1, so every value
    has exactly one representation and equality is equality of the triples;
    zero is (0, 0, 1).  Each result is normalised with one gcd.  re and im are
    read-only Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
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

    def __sub__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._d
        if d == o._d:
            return from_gaussian(self._a - o._a, self._b - o._b, d)
        od = o._d
        return from_gaussian(self._a * od - o._a * d, self._b * od - o._b * d, d * od)

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

    def __eq__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __bool__(self):
        return bool(self._a or self._b)

    def to_complex(self) -> complex:
        """Nearest float complex; raises DomainError beyond the float range."""
        return gaussian_to_complex(self._a, self._b, self._d)

    __complex__ = to_complex

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


def gaussian_powers(a: int, b: int, n: int) -> tuple:
    """(re, im): the numerators of T^0..T^n for the Gaussian integer T = a + b i."""
    re, im = [1], [0]
    x, y = 1, 0
    for _ in range(n):
        x, y = x * a - y * b, x * b + y * a
        re.append(x)
        im.append(y)
    return re, im


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


def _convolve(out: dict, x: dict, y: dict) -> dict:
    """out += x y, exponent tuples adding; cancelled sums stay in out."""
    for k1, c1 in x.items():
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


def _cross_equal(x: dict, y: dict, dx: int, dy: int) -> bool:
    """x/dx == y/dy for dicts of nonzero int numerators."""
    if dx == dy:
        return x == y
    return x.keys() == y.keys() and all(c * dy == y[k] * dx for k, c in x.items())


def _rational_parts(c) -> tuple:
    """(numerator, denominator) of an int or Fraction; TypeError for any other
    value, a QC included."""
    if type(c) is int:
        return c, 1
    if type(c) is Fraction:
        return c.numerator, c.denominator
    raise TypeError(f"SparseLaurent values are rational (int or Fraction), not {type(c).__name__}")


class SparseLaurent:
    """Exact Laurent polynomial in several symbols with rational coefficients.

    The coefficient of the monomial with exponent tuple k (one integer per
    symbol, negative allowed) is num[k]/den: num maps exponent tuples to
    nonzero ints, and the zero element has none.  den > 0 is not reduced (a
    product multiplies the two denominators, a sum works over their lcm), so
    == compares by cross-multiplying; terms is the read-only {exponent:
    Fraction} view, built when read.  Arithmetic keeps the class of its left
    operand, so subclasses that add named evaluation stay closed.  A value or
    scalar that is not an int or Fraction raises TypeError.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        """From {exponent: int or Fraction}."""
        terms = terms or {}
        parts = [_rational_parts(c) for c in terms.values()]
        self.den = lcm(*[d for _, d in parts])
        self.num = _nonzero(zip(terms, [a * (self.den // d) for a, d in parts]))

    def _wrap(self, num: dict, den: int):
        """An element of self's class over numerators that are already nonzero
        ints; a subclass with slots of its own copies them here."""
        out = object.__new__(type(self))
        out.num, out.den = num, den
        return out

    @property
    def terms(self) -> dict:
        d = self.den
        return {k: Fraction(c, d) for k, c in self.num.items()}

    def _combine(self, other, sign: int):
        """self + sign other, over the lcm of the two denominators."""
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s1 = d2 // g
        return self._wrap(_lincomb(self.num, s1, other.num, d1 // g * sign), d1 * s1)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, SparseLaurent):
            return self._wrap(_nonzero(_convolve({}, self.num, other.num).items()),
                              self.den * other.den)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        ca, cd = _rational_parts(c)
        return self._wrap(_lincomb(self.num, ca, {}, 0), self.den * cd)

    def d(self, axis: int):
        """Partial derivative in symbol `axis`."""
        return self._wrap(_derivative(self.num, axis), self.den)

    def restrict(self, grade: int):
        """The terms whose last exponent is <= grade."""
        return self._wrap({k: c for k, c in self.num.items() if k[-1] <= grade}, self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, SparseLaurent):
            return NotImplemented
        g = gcd(self.den, other.den)    # cross-multiply by the cofactors only
        return _cross_equal(self.num, other.num, self.den // g, other.den // g)

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"
