"""Half-series algebra: exact arithmetic, Euler/Bernoulli extraction."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardeform import halfseries, verify
from stardeform.core import ExactPoly
from stardeform.errors import NonUnit, TruncationFailure
from stardeform.exact import QC
from stardeform.halfseries import (DEFAULT_TRUNC, SERIES_ORDER_BUDGET, FormalSeries, HalfSeries,
                                   bernoulli_numbers, bernoulli_numbers_formal,
                                   bernoulli_numbers_recurrence,
                                   euler_numbers, euler_numbers_formal, euler_numbers_recurrence,
                                   exp_series, hs_inverse, hs_mul, hs_to_tau_expression,
                                   zero_detection)


def rand_series(rng, K=12):
    cs = [QC(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(K + 1)]
    if not cs[0]:
        cs[0] = QC(1)
    return HalfSeries.from_list(cs, K)


def coeffs(f: HalfSeries) -> tuple:
    """a_0..a_trunc as QC values: f.poly's, padded with zeros."""
    cs = f.poly.coeffs
    return cs + (QC(0),) * (f.trunc + 1 - len(cs))


def hs_mul_reference(f, g):
    """The Cauchy product as a loop over QC arithmetic."""
    K = min(f.trunc, g.trunc)
    out = [QC(0)] * (K + 1)
    for i, a in enumerate(coeffs(f)[:K + 1]):
        if not a:
            continue
        for j, b in enumerate(coeffs(g)[:K + 1 - i]):
            if b:
                out[i + j] = out[i + j] + a * b
    return HalfSeries.from_list(out, K)


def hs_inverse_reference(f):
    """The inversion recurrence b_n = -(sum_{j>=1} a_j b_{n-j}) / a_0 over QC."""
    a, K = coeffs(f), f.trunc
    b = [QC(0)] * (K + 1)
    b[0] = QC(1) / a[0]
    for n in range(1, K + 1):
        s = QC(0)
        for j in range(1, n + 1):
            if a[j]:
                s = s + a[j] * b[n - j]
        b[n] = (QC(0) - s) / a[0]
    return HalfSeries.from_list(b, K)


def test_mul_identity_and_oracle():
    rng = random.Random(21)
    one = HalfSeries.one(12)
    for _ in range(10):
        f = rand_series(rng)
        assert coeffs(hs_mul(f, one)) == coeffs(f)
        g = rand_series(rng)
        assert hs_mul(f, g) == hs_mul_reference(f, g)


def test_geometric_inverse():
    K = 16
    one_minus_q = HalfSeries.from_list([1, -1], K)
    geo = hs_inverse(one_minus_q)
    assert all(c == QC(1) for c in coeffs(geo))
    assert list(coeffs(hs_mul(one_minus_q, geo))) == [QC(1)] + [QC(0)] * K


def test_inverse_unique_and_involution():
    rng = random.Random(22)
    for _ in range(10):
        f = rand_series(rng)
        inv = hs_inverse(f)
        prod = hs_mul(f, inv)
        assert list(coeffs(prod)) == [QC(1)] + [QC(0)] * f.trunc
        assert coeffs(hs_inverse(inv)) == coeffs(f)


def test_inverse_of_bernoulli_generator_has_minus_half():
    K = 10
    f = HalfSeries.from_list([QC(Fraction(1, math.factorial(n + 1))) for n in range(K + 1)], K)
    inv = hs_inverse(f)
    assert coeffs(inv)[1] == QC(Fraction(-1, 2))


def test_non_unit_raises():
    with pytest.raises(NonUnit):
        hs_inverse(HalfSeries.from_list([0, 1], 8))


def test_euler_values():
    got = euler_numbers(5)
    assert got == [1, -1, 5, -61, 1385, -50521]
    assert got == euler_numbers_recurrence(5)


def test_bernoulli_values():
    got = bernoulli_numbers(5)
    assert got == [Fraction(1), Fraction(1, 6), Fraction(-1, 30),
                   Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66)]
    assert got == bernoulli_numbers_recurrence(5)


def test_spec_reading_of_euler_series():
    # the re-reading with the k>=1 sum (i.e. plain e^{2q} in the inverse)
    # produces cosh, not sech: its even coefficients are 2/(2n)!, which fails
    # the Euler recurrence -- the as-written series is the correct one
    K = 16
    one = HalfSeries.one(K)
    k_ge_1 = HalfSeries.from_list(
        [QC(0)] + [QC(Fraction(2 ** k, math.factorial(k))) for k in range(1, K + 1)], K)
    lhs = hs_mul(exp_series(1, K), hs_inverse(one + k_ge_1)) \
        + hs_mul(exp_series(-1, K), hs_inverse(
            one + HalfSeries.from_list(
                [QC(0)] + [QC(Fraction((-2) ** k, math.factorial(k))) for k in range(1, K + 1)],
                K)))
    wrong_e2 = coeffs(lhs)[2].re * 2
    assert wrong_e2 != Fraction(-1)   # oracle value is -1


@pytest.mark.parametrize("numbers", [euler_numbers, bernoulli_numbers])
def test_numbers_refuse_an_imaginary_even_coefficient(monkeypatch, numbers):
    """hs_inverse inverts f + i: both combinations stay even in q, so only the
    imaginary parts of their even coefficients change."""
    true = halfseries.hs_inverse
    monkeypatch.setattr(halfseries, "hs_inverse",
                        lambda f: true(f + HalfSeries.from_list([QC(0, 1)], f.trunc)))
    with pytest.raises(ArithmeticError, match="complex value"):
        numbers(3)


def test_replacement_principle_cross_basis():
    assert euler_numbers(5) == euler_numbers_formal(5)
    assert bernoulli_numbers(5) == bernoulli_numbers_formal(5)


@pytest.mark.parametrize("numbers", [euler_numbers, bernoulli_numbers,
                                     euler_numbers_formal, bernoulli_numbers_formal])
def test_numbers_do_not_depend_on_their_truncation(numbers):
    """Each N truncates at 2N + 2; N = 12 truncates at 26, above every
    truncation N = 0..11 uses, so its first N + 1 values are read at a
    higher order."""
    full = numbers(12)
    for N in range(12):
        assert numbers(N) == full[:N + 1], N


def test_euler_combination_agrees_below_the_truncation():
    high = coeffs(halfseries.euler_combination(24))
    for N in range(12):
        K = 2 * N + 2
        assert coeffs(halfseries.euler_combination(K))[:K] == high[:K], N


def conjugate(f: HalfSeries) -> HalfSeries:
    re, im, d = f.poly.form
    return HalfSeries(ExactPoly.from_form(list(re), [-b for b in im], d), f.trunc)


@pytest.mark.parametrize("seed", [1, 7, 20261018])
def test_verify_sees_a_sign_fault_in_the_imaginary_part_of_the_inverse(monkeypatch, seed):
    """verify halfseries draws complex series for its inverse check, so an
    inversion that returns the conjugate of the inverse fails that record;
    real series are their own conjugates and would hide it."""
    true = halfseries.hs_inverse
    monkeypatch.setattr(halfseries, "hs_inverse", lambda f: conjugate(true(f)))
    records = verify.suite_halfseries(seed=seed, grid=[-2 + k / 4 for k in range(17)])
    passed = {r["anchor"]: r["passed"] for r in records}
    assert passed.pop("inverse-unique-involutive") is False
    assert all(passed.values())


def test_formal_newton_inverse():
    rng = random.Random(23)
    K = 12
    cs = [QC(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(K + 1)]
    cs[0] = QC(Fraction(3, 2))
    f = FormalSeries(cs, K)
    prod = f * f.inverse()
    assert [c for c in prod.coeffs] == [QC(1)] + [QC(0)] * K


def test_tau_expression_constant_and_geometric():
    W = [0.1, 0.7, -1.3]
    one = HalfSeries.one(10)
    vals = hs_to_tau_expression(one, 1.0, W)
    assert np.abs(vals - 1.0).max() < 1e-15

    # geometric series (base grading 2): matches the one-sided inverse values
    from stardeform.theta import geometric_inverse_sum
    K = 20
    geo = hs_inverse(HalfSeries.from_list([1, -1], K))
    tau = 1.0
    # q here stands for e_*^{2iw}: evaluate with doubled mode index
    ws = np.asarray(W)
    acc = sum(coeffs(geo)[n].to_complex() * np.exp(-(2 * n) ** 2 * tau / 4 + 2j * n * ws)
              for n in range(K + 1))
    want = geometric_inverse_sum("+", tau, ws)
    assert np.abs(acc - want).max() < 1e-12


def test_euler_identity_on_grid():
    # both sides of the Euler generating identity as tau-expressions, Re tau = 2
    K = DEFAULT_TRUNC
    tau = 2.0
    W = [-1.0, -0.3, 0.2, 0.9]
    one = HalfSeries.one(K)
    lhs_series = hs_mul(exp_series(1, K), hs_inverse(one + exp_series(2, K))) \
        + hs_mul(exp_series(-1, K), hs_inverse(one + exp_series(-2, K)))
    lhs = hs_to_tau_expression(lhs_series, tau, W)
    E = euler_numbers(K // 2)
    ws = np.asarray(W)
    rhs = sum(complex(Fraction(E[n]) / math.factorial(2 * n))
              * np.exp(-(2 * n) ** 2 * tau / 4 + 2j * n * ws)
              for n in range(K // 2 + 1))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_bernoulli_identity_on_grid():
    K = DEFAULT_TRUNC
    tau = 2.0
    W = [-0.8, 0.1, 0.6]
    plus = HalfSeries.from_list(
        [QC(Fraction(1, math.factorial(n + 1))) for n in range(K + 1)], K)
    minus = HalfSeries.from_list(
        [QC(Fraction((-1) ** n, math.factorial(n + 1))) for n in range(K + 1)], K)
    series = hs_inverse(plus).scale(Fraction(1, 2)) + hs_inverse(minus).scale(Fraction(1, 2))
    lhs = hs_to_tau_expression(series, tau, W)
    B = bernoulli_numbers(K // 2)
    ws = np.asarray(W)
    rhs = sum(complex(B[n] / Fraction(math.factorial(2 * n)))
              * np.exp(-(2 * n) ** 2 * tau / 4 + 2j * n * ws)
              for n in range(K // 2 + 1))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_zero_detection():
    zero = HalfSeries.from_list([0] * 9, 8)
    assert zero_detection(zero, 1.0)
    not_zero = HalfSeries.from_list([0, 0, Fraction(1, 7)], 8)
    assert not zero_detection(not_zero, 1.0)


def test_zero_detection_record_fails_when_the_expression_is_zeroed(monkeypatch):
    """A zeroed tau-expression makes every series look like zero, and zero
    detection then answers True for any of them; the record probes two nonzero
    series, so it fails."""
    def record():
        rec, = [r for r in verify.suite_halfseries(seed=7, grid=[-2 + k / 4 for k in range(17)])
                if r["anchor"] == "zero-detection"]
        return rec

    assert record()["passed"] is True
    monkeypatch.setattr(halfseries, "hs_to_tau_expression",
                        lambda f, tau, w: np.zeros(len(w), complex))
    assert record()["passed"] is False


def test_field_axioms_random():
    rng = random.Random(24)
    for _ in range(8):
        f, g, h = (rand_series(rng, K=10) for _ in range(3))
        assert coeffs(hs_mul(f, g)) == coeffs(hs_mul(g, f))
        assert coeffs(hs_mul(hs_mul(f, g), h)) == coeffs(hs_mul(f, hs_mul(g, h)))
        s = HalfSeries.from_list([a + b for a, b in zip(coeffs(g), coeffs(h))], 10)
        assert coeffs(hs_mul(f, s)) == tuple(
            a + b for a, b in zip(coeffs(hs_mul(f, g)), coeffs(hs_mul(f, h))))


def test_inverse_order_budget():
    """Inversion is exact up to SERIES_ORDER_BUDGET and refused above it."""
    K = SERIES_ORDER_BUDGET
    inv = hs_inverse(HalfSeries.from_list([1, 1], K))
    assert list(coeffs(inv)) == [QC((-1) ** n) for n in range(K + 1)]
    with pytest.raises(TruncationFailure, match="SERIES_ORDER_BUDGET"):
        hs_inverse(HalfSeries.from_list([1, 1], K + 1))
    with pytest.raises(TruncationFailure):
        euler_numbers(K // 2)


@pytest.mark.parametrize("numbers", [euler_numbers, bernoulli_numbers])
def test_number_tables_check_the_order_before_building_a_series(monkeypatch, numbers):
    """Past the budget, the Euler and Bernoulli tables raise the inversion's own
    message before they build any series."""
    def refuse(*args):
        raise AssertionError("a series was built past the order budget")

    monkeypatch.setattr(HalfSeries, "__init__", refuse)
    with pytest.raises(TruncationFailure, match=r"^half-series inversion to order 2002 exceeds "
                                                r"SERIES_ORDER_BUDGET = 652$"):
        numbers(1000)


RATS = st.fractions(min_value=-6, max_value=6, max_denominator=5)
QCS = st.builds(QC, RATS, RATS)


@st.composite
def series(draw, unit: bool):
    """A HalfSeries over QC with trunc 0..12, whose constant term is nonzero
    (unit) or zero."""
    K = draw(st.integers(0, 12), label="trunc")
    head = draw(QCS.filter(bool)) if unit else QC(0)
    tail = draw(st.lists(QCS, max_size=K), label="tail")
    return HalfSeries.from_list([head, *tail], K)


@settings(deadline=None)
@given(series(unit=True))
def test_inverse_properties(f):
    inv = hs_inverse(f)
    assert hs_mul(f, inv) == HalfSeries.one(f.trunc)
    assert hs_inverse(inv) == f


@settings(deadline=None)
@given(series(unit=False))
def test_zero_constant_term_is_not_a_unit(f):
    with pytest.raises(NonUnit):
        hs_inverse(f)


# rationals with denominators up to 30 and numerators up to 10^9, so the
# operands of a product have distinct denominators and wide numerators
WIDE = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=30),
                 st.fractions(min_value=-10 ** 9, max_value=10 ** 9, max_denominator=30))
COEFFS = st.one_of(st.just(QC(0)), st.builds(QC, WIDE, st.just(0)), st.builds(QC, WIDE, WIDE))


@st.composite
def wide_series(draw, unit: bool):
    """A HalfSeries with trunc 0..40, complex coefficients with zero interior
    entries, and a short list (zero-padded) or a zero tail."""
    K = draw(st.integers(0, 40), label="trunc")
    head = draw(COEFFS.filter(bool)) if unit else draw(COEFFS)
    tail = draw(st.lists(COEFFS, max_size=K), label="tail")
    if tail and draw(st.booleans()):
        tail[draw(st.integers(0, len(tail) - 1)):] = []
    return HalfSeries.from_list([head, *tail], K)


@settings(deadline=None)
@given(wide_series(unit=False), wide_series(unit=False))
def test_mul_equals_reference(f, g):
    assert_same_series(hs_mul(f, g), hs_mul_reference(f, g))


@settings(deadline=None)
@given(wide_series(unit=True))
def test_inverse_equals_reference(f):
    assert_same_series(hs_inverse(f), hs_inverse_reference(f))


def assert_same_series(got: HalfSeries, want: HalfSeries):
    """A kernel's result (holding only its form) and a series built from QC
    coefficients compare equal both ways and read back the same coefficients."""
    assert got == want and want == got
    assert coeffs(got) == coeffs(want)


def hs_add_reference(f, g):
    """f + g over QC: each cut at its own truncation, then summed up to the
    smaller one."""
    K = min(f.trunc, g.trunc)
    return HalfSeries.from_list([x + y for x, y in zip(coeffs(f)[:K + 1], coeffs(g)[:K + 1])],
                                K)


@settings(deadline=None)
@given(wide_series(unit=False), wide_series(unit=False), COEFFS, st.integers(0, 30), QCS)
def test_form_kernels_equal_their_qc_references(f, g, c, K, s):
    assert_same_series(f + g, hs_add_reference(f, g))
    assert_same_series(f.scale(c), HalfSeries.from_list([c * a for a in coeffs(f)], f.trunc))
    assert_same_series(exp_series(s, K), HalfSeries.from_list(
        [math.prod([s] * n, start=QC(1)) / math.factorial(n) for n in range(K + 1)], K))
    assert_same_series(HalfSeries.one(K), HalfSeries.from_list([1], K))


def cut(p: ExactPoly, K: int) -> ExactPoly:
    """p mod q^(K+1), through its QC coefficients."""
    return ExactPoly(p.coeffs[:K + 1])


@settings(deadline=None)
@given(wide_series(unit=False), wide_series(unit=False), COEFFS)
def test_series_operations_are_exact_poly_operations_cut_at_the_truncation(f, g, c):
    K = min(f.trunc, g.trunc)
    assert (f + g).poly == cut(f.poly + g.poly, K)
    assert f.scale(c).poly == f.poly.scale(c)
    assert hs_mul(f, g).poly == cut(f.poly * g.poly, K)


# The replacement-principle twin and the names of the form kernels it must not reach
TWIN = ("FormalSeries", "formal_exp", "euler_numbers_formal", "bernoulli_numbers_formal")
KERNEL_NAMES = {"ExactPoly", "HalfSeries", "hs_mul", "hs_inverse", "exp_series",
                "gaussian_product", "lowest_terms"}


def names_reached(defs: dict, roots) -> set:
    """Every Name and attribute name in the roots' definitions and in the
    module-level definitions they reach by name."""
    seen, todo, names = set(), list(roots), set()
    while todo:
        node = defs[todo.pop()]
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else \
                sub.attr if isinstance(sub, ast.Attribute) else None
            if name is None:
                continue
            names.add(name)
            if name in defs and name not in seen:
                seen.add(name)
                todo.append(name)
    return names


def test_the_formal_twin_shares_nothing_with_the_form_kernels():
    tree = ast.parse(Path(halfseries.__file__).read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not names_reached(defs, TWIN) & KERNEL_NAMES
    # the walk sees a kernel named inside a helper that the twin calls
    helper = ast.parse("def twin():\n    return helper()\n"
                       "def helper():\n    return hs_mul(1, 2)\n")
    assert "hs_mul" in names_reached({n.name: n for n in helper.body}, ["twin"])


def test_formal_inverse_equals_hs_inverse_at_every_order():
    """The Newton twin's working orders end on K+1 = 2^j and 2^j + 1 terms
    within 0..40; every K must give the recurrence's coefficients."""
    rng = random.Random(25)
    full = [QC(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 5))) for _ in range(41)]
    full[0] = QC(Fraction(2, 3), Fraction(-1, 2))
    for K in range(41):
        want = coeffs(hs_inverse(HalfSeries.from_list(full, K)))
        assert tuple(FormalSeries(full, K).inverse().coeffs) == want, K


def test_euler_and_bernoulli_to_100_match_recurrences():
    assert euler_numbers(100) == euler_numbers_recurrence(100)
    assert bernoulli_numbers(100) == bernoulli_numbers_recurrence(100)
