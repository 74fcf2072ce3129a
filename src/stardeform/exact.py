"""Exact arithmetic support: rational-complex scalars and sparse Laurent polynomials.

QC is a complex number with rational real and imaginary parts, stored as a
Gaussian integer over one positive denominator.  It interoperates with int and
Fraction, so generic code written for +,-,*,/ runs unchanged over QC or float
complex.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
        if isinstance(x, QC):
            return x
        if isinstance(x, int):
            return _new(x, 0, 1)
        if isinstance(x, Fraction):
            return _new(x.numerator, 0, x.denominator)
        return NotImplemented

    def __add__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._d
        if d == o._d:
            return _canonical(self._a + o._a, self._b + o._b, d)
        od = o._d
        return _canonical(self._a * od + o._a * d, self._b * od + o._b * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = other if type(other) is QC else QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._d
        if d == o._d:
            return _canonical(self._a - o._a, self._b - o._b, d)
        od = o._d
        return _canonical(self._a * od - o._a * d, self._b * od - o._b * d, d * od)

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
        return _canonical(a * c - b * e, a * e + b * c, self._d * o._d)

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
        return _canonical((a * c + b * e) * od, (b * c - a * e) * od, self._d * n)

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

    def conjugate(self) -> "QC":
        return _new(self._a, -self._b, self._d)

    def to_complex(self) -> complex:
        """Nearest float complex; raises DomainError beyond the float range."""
        try:
            return complex(self._a / self._d) + 1j * complex(self._b / self._d)
        except OverflowError:
            raise DomainError("exact value is outside the float range") from None

    def __repr__(self):
        if not self._b:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def _new(a: int, b: int, d: int) -> QC:
    """QC from a triple already in canonical form."""
    q = object.__new__(QC)
    q._a, q._b, q._d = a, b, d
    return q


def _canonical(a: int, b: int, d: int) -> QC:
    """QC of (a + b i)/d for d > 0, dividing out gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    q = object.__new__(QC)
    q._a, q._b, q._d = a, b, d
    return q


def _accumulate(out: dict, key, v: QC) -> None:
    """out[key] += v, dropping the key when the sum cancels."""
    cur = out.get(key)
    if cur is None:
        out[key] = v
        return
    s = cur + v
    if s:
        out[key] = s
    else:
        del out[key]


class SparseLaurent:
    """Exact Laurent polynomial in several symbols with QC coefficients.

    terms maps an exponent tuple (one integer per symbol, negative allowed) to
    a nonzero QC; the zero element has no terms.  Arithmetic keeps the class
    of its left operand, so subclasses that add named evaluation stay closed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for k, v in (terms or {}).items():
            v = v if isinstance(v, QC) else QC(v)
            if v:
                self.terms[k] = v

    @classmethod
    def _wrap(cls, terms: dict):
        """An element over terms that are already QC and nonzero."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, v)
        return self._wrap(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, -v)
        return self._wrap(out)

    def __mul__(self, other):
        if isinstance(other, SparseLaurent):
            out = {}
            for k1, v1 in self.terms.items():
                for k2, v2 in other.terms.items():
                    _accumulate(out, tuple(map(add, k1, k2)), v1 * v2)
            return self._wrap(out)
        if isinstance(other, (int, Fraction, QC)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        c = c if isinstance(c, QC) else QC(c)
        if not c:
            return self._wrap({})
        return self._wrap({k: v * c for k, v in self.terms.items()})

    def d(self, axis: int):
        """Partial derivative in symbol `axis`."""
        out = {}
        for k, v in self.terms.items():
            e = k[axis]
            if e:
                out[k[:axis] + (e - 1,) + k[axis + 1:]] = v * e
        return self._wrap(out)

    def restrict_inverse(self, axis: int, onto: int):
        """Substitute symbol `axis` by the inverse of symbol `onto`; the
        exponent of `axis` becomes 0 (a ring endomorphism)."""
        if axis == onto:
            raise ValueError("a symbol cannot be replaced by its own inverse")
        out = {}
        for k, v in self.terms.items():
            nk = list(k)
            nk[onto] -= nk[axis]
            nk[axis] = 0
            _accumulate(out, tuple(nk), v)
        return self._wrap(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, SparseLaurent) and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"
