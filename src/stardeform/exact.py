"""Exact arithmetic support: rational-complex scalars and sparse Laurent polynomials.

QC is a complex number with Fraction real and imaginary parts.  It interoperates
with int and Fraction, so generic code written for +,-,*,/ runs unchanged over
QC, float complex, or mpmath scalars.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Union

_Rat = Union[int, Fraction]


class QC:
    """Rational-complex number (exact)."""

    __slots__ = ("re", "im")

    def __init__(self, re: _Rat = 0, im: _Rat = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x)
        return NotImplemented

    def __add__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = QC._coerce(other)
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
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


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
