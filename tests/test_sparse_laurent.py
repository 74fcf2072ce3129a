"""Exact sparse Laurent polynomials: ring laws, derivative and restriction,
over generated rational elements in 2-4 symbols with negative exponents."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stardeform.exact import QC, SparseLaurent
from stardeform.vertex import CoeffRing

RATS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# ints and Fractions, the two value types an element takes
VALUES = st.one_of(st.integers(-3, 3), RATS)


def elements(nvars: int):
    keys = st.tuples(*[st.integers(-3, 3)] * nvars)
    return st.dictionaries(keys, VALUES, max_size=4).map(SparseLaurent)


def ring(count: int):
    """count elements of one ring, plus its number of symbols."""
    return st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), *[elements(n)] * count))


def canonical(x: SparseLaurent) -> bool:
    return all(type(v) is Fraction and v for v in x.terms.values())


@settings(deadline=None)
@given(ring(3))
def test_product_commutative_associative_distributive(case):
    _, x, y, z = case
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert canonical(x * (y + z))


@settings(deadline=None)
@given(ring(1))
def test_difference_with_itself_is_empty(case):
    _, x = case
    diff = x - x
    assert diff.is_zero() and diff.terms == {}
    assert (x * 0).terms == {}


@settings(deadline=None)
@given(ring(2), st.data())
def test_derivative_leibniz(case, data):
    n, x, y = case
    axis = data.draw(st.integers(0, n - 1))
    assert (x * y).d(axis) == x.d(axis) * y + x * y.d(axis)
    assert canonical((x * y).d(axis))


def restrict_inverse(x: SparseLaurent, axis: int, onto: int) -> SparseLaurent:
    """x with symbol `axis` replaced by the inverse of symbol `onto` (as tau =
    1/z restricts to a surface); the exponent of `axis` becomes 0."""
    out: dict = {}
    for k, v in x.terms.items():
        nk = list(k)
        nk[onto] -= nk[axis]
        nk[axis] = 0
        out[tuple(nk)] = out.get(tuple(nk), 0) + v
    return SparseLaurent(out)


@settings(deadline=None)
@given(ring(2), st.data())
def test_restrict_inverse_is_ring_homomorphism(case, data):
    """The substitution commutes with the element arithmetic: a product,
    sum or scaling of substituted elements is the substituted result."""
    n, x, y = case
    axis, onto = data.draw(st.permutations(range(n)))[:2]

    def r(e):
        return restrict_inverse(e, axis, onto)

    assert r(x * y) == r(x) * r(y)
    assert r(x + y) == r(x) + r(y)
    assert r(x.scale(Fraction(-2, 3))) == r(x).scale(Fraction(-2, 3))
    assert all(k[axis] == 0 for k in r(x).terms)
    assert canonical(r(x * y))


def ref_sum(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def ref_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


@settings(deadline=None)
@given(ring(2), VALUES)
def test_arithmetic_matches_the_fraction_reference(case, c):
    """Sums, differences, products and scalings of elements over different
    denominators read back the Fraction arithmetic of their terms."""
    _, x, y = case
    assert (x + y).terms == ref_sum(x.terms, y.terms, 1)
    assert (x - y).terms == ref_sum(x.terms, y.terms, -1)
    assert (x * y).terms == ref_product(x.terms, y.terms)
    assert x.scale(c).terms == {k: v * c for k, v in x.terms.items() if v * c}


NONZERO_RATS = RATS.filter(bool)


@settings(deadline=None)
@given(ring(2), NONZERO_RATS, st.booleans())
def test_equality_is_equality_of_terms(case, r, same_value):
    """x == y exactly when x.terms == y.terms; with same_value, y holds x's
    value over a denominator scaled by r's numerator and denominator."""
    _, x, y = case
    if same_value:
        y = x.scale(r).scale(1 / r)
    assert (x == y) == (y == x) == (x.terms == y.terms)
    assert (x == y) == (x - y).is_zero()


def test_restrict_inverse_monomial():
    # z^2 u^3 with u = 1/z -> z^-1, the product z^2 z^-3
    e = SparseLaurent({(2, 3): Fraction(1, 2)})
    want = SparseLaurent({(-1, 0): Fraction(1, 2)})
    assert restrict_inverse(e, 1, 0) == want
    assert SparseLaurent({(2, 0): Fraction(1, 2)}) * SparseLaurent({(-3, 0): 1}) == want


def test_coefficient_ring_arithmetic_stays_in_subclass():
    a = CoeffRing({(0, 0, 0, 0): 3})
    b = CoeffRing({(1, 0, 2, 1): Fraction(1, 2)})
    for r in (a + b, a - b, a * b, 2 * b, b * Fraction(2), b.scale(-1), b.d(2),
              b.restrict(0)):
        assert isinstance(r, CoeffRing)


@pytest.mark.parametrize("value", [QC(1, 1), QC(0, 1), QC(3), 1.5, 2j])
def test_a_value_that_is_not_rational_raises(value):
    """int and Fraction are the values: a QC (a real one too), a float or a
    complex raises TypeError, as a value and as a scalar."""
    x = SparseLaurent({(1, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        SparseLaurent({(0, 0): value})
    with pytest.raises(TypeError):
        x.scale(value)
    with pytest.raises(TypeError):
        x * value
