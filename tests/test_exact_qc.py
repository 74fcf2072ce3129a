"""Exact rational-complex scalar QC against a Fraction-pair oracle.

The oracle is the arithmetic QC had when it stored its real and imaginary
parts as two Fractions.  Operands are generated as int, Fraction or QC, on
either side of + and * and on the right of - and /; every result must equal
the oracle's and be in canonical form (a + b i)/d with d > 0 and
gcd(a, b, d) == 1.  A QC is not hashable.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stardeform.core import ExactPoly, Poly
from stardeform.errors import DomainError
from stardeform.exact import QC, as_qc, is_exact
from stardeform.specialfn import hermite_table

RATS = st.one_of(st.fractions(min_value=-50, max_value=50, max_denominator=60),
                 st.integers(-10 ** 20, 10 ** 20).map(lambda n: Fraction(n, 10 ** 12 + 39)))
PAIRS = st.tuples(RATS, RATS)
NONZERO = PAIRS.filter(any)


def scalars(pairs=PAIRS):
    """(operand, oracle pair): a QC, or an int or Fraction with zero imaginary part."""
    as_qc = pairs.map(lambda p: (QC(*p), p))
    as_frac = pairs.map(lambda p: (p[0], (p[0], Fraction(0))))
    as_int = st.integers(-10 ** 6, 10 ** 6).map(lambda n: (n, (Fraction(n), Fraction(0))))
    return st.one_of(as_qc, as_frac, as_int)


def o_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def o_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def o_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def o_div(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def o_repr(x):
    return f"QC({x[0]})" if x[1] == 0 else f"QC({x[0]}, {x[1]})"


def o_complex(x):
    return complex(x[0]) + 1j * complex(x[1])


def assert_matches(q, pair):
    """q is a canonical QC with the oracle's value and representation."""
    assert isinstance(q, QC)
    a, b, d = q._a, q._b, q._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (q.re, q.im) == pair
    assert repr(q) == o_repr(pair)
    assert repr(q.to_complex()) == repr(o_complex(pair))


@settings(deadline=None, max_examples=300)
@given(scalars(), scalars())
def test_ring_operations_match_oracle(xs, ys):
    (x, px), (y, py) = xs, ys
    if not isinstance(x, QC) and not isinstance(y, QC):
        x = QC(x)
    assert_matches(x + y, o_add(px, py))
    assert_matches(x * y, o_mul(px, py))
    q = as_qc(x)                # - and / take an int or Fraction on the right
    assert_matches(q - y, o_sub(px, py))
    if any(py):
        assert_matches(q / y, o_div(px, py))
    else:
        with pytest.raises(ZeroDivisionError):
            q / y


@settings(deadline=None)
@given(NONZERO.map(lambda p: (QC(*p), p)), scalars().filter(lambda s: any(s[1])))
def test_division_matches_oracle_both_sides(xs, ys):
    """x / y for a nonzero QC x and any nonzero y, and y / x the other way round
    with y as a QC."""
    (x, px), (y, py) = xs, ys
    assert_matches(x / y, o_div(px, py))
    assert_matches(as_qc(y) / x, o_div(py, px))


@settings(deadline=None)
@given(scalars(), scalars())
def test_equality_bool_and_hash(xs, ys):
    (x, px), (y, py) = xs, ys
    q = x if isinstance(x, QC) else QC(x)
    assert (q == y) == (px == py)
    assert (y == q) == (px == py)
    assert bool(q) == any(px)
    with pytest.raises(TypeError):
        hash(q)


@settings(deadline=None)
@given(PAIRS, NONZERO)
def test_equal_values_share_one_representation(p, r):
    """A value reached by different routes has one representation."""
    x, y = QC(*p), QC(*r)
    z = (x * y) / y
    assert (z._a, z._b, z._d) == (x._a, x._b, x._d) and z == x
    s = (x + y) - y
    assert (s._a, s._b, s._d) == (x._a, x._b, x._d) and s == x


def test_hash_contract_in_containers():
    """QC and ExactPoly compare by value and hash by nothing, so neither is a
    set member or a dict key."""
    assert QC(3) == 3 and QC(Fraction(4, 2), Fraction(3, 3)) == QC(2, 1)
    for value in (QC(3), ExactPoly([QC(1)])):
        with pytest.raises(TypeError):
            {value}
        with pytest.raises(TypeError):
            {value: "x"}


@given(PAIRS)
def test_conjugate_and_negation(p):
    q = QC(*p)
    assert_matches(0 * q - q, (-p[0], -p[1]))
    assert_matches(q * QC(p[0], -p[1]), (p[0] * p[0] + p[1] * p[1], Fraction(0)))


def test_canonical_form_examples():
    cases = [(QC(0), (0, 0, 1)),
             (QC(Fraction(1, 2), Fraction(1, 3)), (3, 2, 6)),
             (QC(Fraction(-4, 6)), (-2, 0, 3)),
             (QC(Fraction(1, 2), Fraction(1, 2)) * 2, (1, 1, 1)),
             (QC(Fraction(1, 2), Fraction(1, 2)) - QC(Fraction(1, 2), Fraction(1, 2)), (0, 0, 1)),
             (QC(0.5, "1/3"), (3, 2, 6))]
    for q, triple in cases:
        assert (q._a, q._b, q._d) == triple


def test_division_by_zero_raises():
    for num in (QC(1), QC(Fraction(2, 3), -1)):
        with pytest.raises(ZeroDivisionError):
            num / QC(0)
    with pytest.raises(ZeroDivisionError):
        QC(1, 1) / 0


def test_read_only_parts_and_float_operands_rejected():
    q = QC(Fraction(1, 2), 3)
    assert q.re == Fraction(1, 2) and q.im == 3
    with pytest.raises(AttributeError):
        q.re = Fraction(1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(q, 1.5)
        with pytest.raises(TypeError):
            op(1.5, q)
    assert (q == 0.5) is False


def test_to_complex_beyond_float_range_is_domain_error():
    assert QC(10 ** 308).to_complex() == 1e308
    with pytest.raises(DomainError):
        QC(10 ** 400).to_complex()
    with pytest.raises(DomainError):
        QC(0, -10 ** 400).to_complex()
    with pytest.raises(DomainError):
        hermite_table(5, QC(10 ** 308))


@given(PAIRS)
def test_conversions_match_fraction(p):
    """complex() and str() treat a QC as they treat a Fraction pair."""
    q = QC(*p)
    assert complex(q) == q.to_complex() == o_complex(p)
    assert str(q) == (repr(q) if p[1] else str(p[0]))


def test_conversion_examples():
    assert str(QC(Fraction(-5, 4))) == "-5/4" and str(QC(3)) == "3" and str(QC(0)) == "0"
    assert str(QC(Fraction(1, 2), -1)) == "QC(1/2, -1)"
    assert str(QC(0, Fraction(33, 128))) == "QC(0, 33/128)"
    assert complex(QC(Fraction(-5, 4))) == -1.25 and complex(QC(1, 2)) == 1 + 2j
    with pytest.raises(DomainError):
        complex(QC(0, 10 ** 400))
    assert Poly([QC(1, 2), Fraction(1, 2), 3]).to_complex().coeffs == (1 + 2j, 0.5, 3)


def test_is_exact_and_as_qc():
    for x in (0, -7, Fraction(2, 3), QC(1, 2)):
        assert is_exact(x)
        q = as_qc(x)
        assert type(q) is QC and q == x
    assert as_qc(QC(1, 2)) == QC(1, 2)
    for x in (0.5, 1j, True, "1", None):
        assert not is_exact(x)
        assert as_qc(x) is x
