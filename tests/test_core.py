"""Core polynomial algebra: products, intertwiners, deformed powers.

Expected values tagged below were either checked by hand against the defining
finite sums or frozen from the independent oracles in this file (repeated
products, term-by-term differentiation, finite differences).
"""

import inspect
import operator
import random
import textwrap
from fractions import Fraction
from math import factorial, gcd, perm

import pytest
from hypothesis import given, settings, strategies as st

from stardeform import (QC, ExactPoly, Poly, core, infinitesimal_intertwiner, intertwine,
                        star_product, verify, w_star_power)
from stardeform.core import _intertwine_loop, _star_product_loop
from stardeform.exact import as_qc, to_gaussian
from stardeform.specialfn import laguerre_star, legendre_star_exact

RATS = st.fractions(min_value=-9, max_value=9, max_denominator=7)
# exact scalars as a QC, a Fraction or an int; they serve as coefficients and tau
SCALARS = st.one_of(st.builds(QC, RATS, RATS), RATS, st.integers(-9, 9))


def polys(max_degree):
    return st.lists(SCALARS, max_size=max_degree + 1).map(ExactPoly)


def rand_qc(rng, num=9, den=7):
    return QC(Fraction(rng.randint(-num, num), rng.randint(1, den)),
              Fraction(rng.randint(-num, num), rng.randint(1, den)))


def rand_poly(rng, deg):
    return ExactPoly([rand_qc(rng, 6) for _ in range(deg + 1)])


def star_power_oracle(n, tau):
    """Independent route: n-fold product w * (w * (... * w))."""
    w = ExactPoly.x()
    out = ExactPoly.const(1)
    for _ in range(n):
        out = star_product(w, out, tau)
    return out


def test_star_w_w_tau2():
    # direct evaluation of the k=0,1 terms of the defining sum
    got = star_product(ExactPoly.x(), ExactPoly.x(), 2)
    assert got == ExactPoly([1, 0, 1])  # w^2 + 1


@settings(deadline=None)
@given(polys(8), SCALARS)
def test_star_identity_element(f, tau):
    assert star_product(ExactPoly.const(1), f, tau) == f
    assert star_product(f, ExactPoly.const(QC(1)), tau) == f


def test_star_w2_w2():
    # frozen from the finite sum k=0..2 done by hand:
    # w^4 + 2 tau w^2 + tau^2/2
    tau = QC(Fraction(3, 2))
    got = star_product(ExactPoly([0, 0, QC(1)]), ExactPoly([0, 0, QC(1)]), tau)
    assert got == ExactPoly([tau * tau / 2, QC(0), 2 * tau, QC(0), QC(1)])


def test_intertwine_w2():
    tau = QC(Fraction(5, 3))
    assert intertwine(ExactPoly([0, 0, QC(1)]), QC(0), tau) == ExactPoly([tau / 2, QC(0), QC(1)])


def test_intertwine_identity():
    rng = random.Random(2)
    f = rand_poly(rng, 7)
    tau = rand_qc(rng)
    assert intertwine(f, tau, tau) == f


def test_intertwine_w3():
    # frozen: exp((tau/4) d^2) w^3 = w^3 + (3 tau/2) w
    tau = QC(Fraction(7, 4))
    got = intertwine(ExactPoly([0, 0, 0, QC(1)]), QC(0), tau)
    assert got == ExactPoly([QC(0), tau * 3 / 2, QC(0), QC(1)])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_w_star_power_vs_repeated_product(n):
    tau = QC(Fraction(2, 3), Fraction(1, 5))
    assert w_star_power(n, tau) == star_power_oracle(n, tau)


def test_w_star_power_small_values():
    tau = QC(Fraction(1, 2))
    assert w_star_power(0, tau) == ExactPoly.const(1)
    assert w_star_power(2, tau) == ExactPoly([tau / 2, QC(0), QC(1)])
    # frozen from the repeated-product oracle: w^5 + 5 tau w^3 + (15/4) tau^2 w
    assert w_star_power(5, tau) == ExactPoly(
        [QC(0), tau * tau * Fraction(15, 4), QC(0), tau * 5, QC(0), QC(1)])


def test_w_star_power_monic():
    tau = QC(Fraction(9, 2))
    for n in range(12):
        p = w_star_power(n, tau)
        assert p.degree == n and p.coeffs[-1] == 1


def test_infinitesimal_intertwiner_values():
    assert infinitesimal_intertwiner(ExactPoly([0, 0, QC(1)])) == ExactPoly.const(Fraction(1, 2))
    assert infinitesimal_intertwiner(ExactPoly.x()) == ExactPoly()
    assert infinitesimal_intertwiner(ExactPoly([0, 0, 0, 0, QC(1)])) == ExactPoly([0, 0, QC(3)])


def test_infinitesimal_intertwiner_finite_difference():
    # lim (intertwine(f, tau, tau+h) - f)/h via Richardson of two small h
    f = Poly([0.3, -1.2, 0.0, 2.0, 1.0])
    tau = 0.4 + 0.1j
    want = infinitesimal_intertwiner(f)
    for h in (1e-5, 1e-6):
        fd = (intertwine(f, tau, tau + h) - f).scale(1.0 / h)
        diff = fd - want
        resid = max((abs(c) for c in diff.coeffs), default=0.0)
        assert resid < 5e-5


@settings(deadline=None)
@given(polys(12), polys(12), SCALARS)
def test_commutativity_exact(f, g, tau):
    assert star_product(f, g, tau) == star_product(g, f, tau)


@settings(deadline=None, max_examples=50)
@given(polys(8), polys(8), polys(8), SCALARS)
def test_associativity_exact(f, g, h, tau):
    assert star_product(star_product(f, g, tau), h, tau) == \
        star_product(f, star_product(g, h, tau), tau)


@settings(deadline=None)
@given(polys(10), SCALARS, SCALARS, SCALARS)
def test_intertwiner_cocycle_exact(f, t1, t2, t3):
    assert intertwine(f, t1, t3) == intertwine(intertwine(f, t1, t2), t2, t3)


@settings(deadline=None, max_examples=50)
@given(polys(8), polys(8), SCALARS, SCALARS)
def test_intertwiner_homomorphism_exact(f, g, t1, t2):
    lhs = intertwine(star_product(f, g, t1), t1, t2)
    rhs = star_product(intertwine(f, t1, t2), intertwine(g, t1, t2), t2)
    assert lhs == rhs


# ------------------------------------- `verify core` with a broken product law
# The suite forms f *_t1 g and f taken from t1 to t2 once per draw and reuses
# them; each law must still compare two independently formed sides.

CORE_LAWS = ("product-commutativity", "product-associativity", "intertwiner-cocycle",
             "intertwiner-homomorphism")


def core_verdicts(seed: int = 1) -> dict:
    return {r["anchor"]: r["passed"] for r in verify.suite_core(seed=seed)
            if r["anchor"] in CORE_LAWS}


def test_verify_core_catches_an_asymmetric_product(monkeypatch):
    real = core.star_product
    monkeypatch.setattr(core, "star_product", lambda f, g, tau: real(f, g, tau) + f)
    assert not core_verdicts()["product-commutativity"]


def test_verify_core_catches_an_intertwiner_that_reads_its_start(monkeypatch):
    real = core.intertwine
    monkeypatch.setattr(core, "intertwine",
                        lambda f, t_from, t_to: real(f, t_from, t_to) + f.scale(t_from))
    got = core_verdicts()
    assert not got["intertwiner-cocycle"] and not got["intertwiner-homomorphism"]


def kernel_mutant(old, new):
    """core._star_product_gaussian with its one occurrence of the source
    snippet old replaced by new, compiled over a copy of core's globals."""
    src = textwrap.dedent(inspect.getsource(core._star_product_gaussian))
    assert src.count(old) == 1
    namespace = dict(vars(core))
    exec(src.replace(old, new), namespace)
    return namespace["_star_product_gaussian"]


# Mutants of the synthetic-division route, which every product of verify core
# takes, and the records that fail under each at seed 1.  Each mutant is
# symmetric in f and g, or (bits) errs only on operands far apart in size, so
# product-commutativity passes under all four.
@pytest.mark.parametrize("old, new, failing", [
    # the weight C_k k! in place of C_k k!^2
    ("factorial(k) ** 2", "factorial(k)",
     {"product-associativity", "intertwiner-homomorphism"}),
    # the Taylor values of order k + 1 paired with the weight of order k
    ("_taylor_values(v, bits, terms) for", "_taylor_values(v, bits, terms)[1:] + [0] for",
     {"product-associativity", "intertwiner-homomorphism"}),
    # the k = K term dropped when K >= 3
    ("zip(cs[:terms], values)", "zip(cs[:terms] if K < 3 else cs[:K], values)",
     {"product-associativity", "intertwiner-homomorphism"}),
    # bits sized from f's coefficients alone
    ("max(map(abs, ga + gb))", "max(map(abs, fa + fb))",
     {"intertwiner-homomorphism"}),
])
def test_verify_core_catches_a_taylor_route_mutant(monkeypatch, old, new, failing):
    monkeypatch.setattr(core, "_star_product_gaussian", kernel_mutant(old, new))
    assert {anchor for anchor, ok in core_verdicts().items() if not ok} == failing


def test_pn_recurrence_exact():
    # P_{n+1} = w P_n + (tau/2) P_n'
    tau = QC(Fraction(4, 7), Fraction(2, 3))
    p = ExactPoly.const(QC(1))
    for n in range(12):
        nxt = ExactPoly.x() * p + p.deriv().scale(tau / 2)
        assert nxt == w_star_power(n + 1, tau)
        p = nxt


def test_float_backend_matches_exact():
    rng = random.Random(7)
    for _ in range(10):
        f = rand_poly(rng, 6)
        g = rand_poly(rng, 6)
        tau = rand_qc(rng)
        exact = star_product(f, g, tau).to_complex()
        approx = star_product(f.to_complex(), g.to_complex(), tau.to_complex())
        scale = max(1.0, max(abs(a) for a in exact.coeffs))
        assert max(abs(a - b) for a, b in zip(exact.coeffs, approx.coeffs)) < 1e-12 * scale


# ExactPoly operands take the integer kernels; the Poly loop over QC is their
# reference.
EXACT_POLYS = st.lists(SCALARS, max_size=11).map(ExactPoly)  # zero, constant, degree <= 10
EXACT_TAUS = st.one_of(st.sampled_from([0, Fraction(0), QC(0)]), SCALARS)


def over_qc(p):
    """The Poly over an ExactPoly's QC values, on which every operator loops."""
    return Poly(p.coeffs)


def check_form(p):
    """p's form is the lowest-terms form of its QC coefficients: d > 0, one gcd
    divided out and no trailing zero."""
    re, im, d = p.form
    assert d > 0 and gcd(d, *re, *im) == 1
    assert not re or re[-1] or im[-1]
    assert p.form == to_gaussian(p.coeffs)
    assert all(type(c) is QC for c in p.coeffs)


def matches_loop(got, want):
    """got is the ExactPoly whose lowest-terms form and QC coefficients are
    those of the loop's result want."""
    return (type(got) is ExactPoly and got.form == to_gaussian(want.coeffs)
            and got.coeffs == want.coeffs)


# real, imaginary and complex exact taus
STAR_TAUS = st.one_of(EXACT_TAUS, RATS.map(lambda y: QC(0, y)))
CUT = core.TAYLOR_ROUTE_LENGTH


@settings(deadline=None)
@given(EXACT_POLYS, EXACT_POLYS, STAR_TAUS)
def test_star_product_integer_route_equals_loop(f, g, tau):
    assert matches_loop(star_product(f, g, tau),
                        _star_product_loop(over_qc(f), over_qc(g), as_qc(tau)))


# Operand lengths on both sides of the route cut, and K = 0 on each route.
@pytest.mark.parametrize("nf, ng", [(CUT - 1, CUT - 1), (CUT, CUT), (CUT + 1, CUT + 1),
                                    (CUT, CUT + 1), (1, CUT), (CUT + 1, 1)])
@pytest.mark.parametrize("tau", [Fraction(-3, 7), QC(0, Fraction(5, 2)),
                                 QC(Fraction(2, 3), Fraction(-1, 5))])
def test_star_product_integer_route_equals_loop_at_the_cut(nf, ng, tau):
    rng = random.Random(100 * nf + ng)
    f, g = rand_poly(rng, nf - 1), rand_poly(rng, ng - 1)
    assert matches_loop(star_product(f, g, tau),
                        _star_product_loop(over_qc(f), over_qc(g), as_qc(tau)))


# 21 coefficients take the synthetic division, 41 the per-order packs
@pytest.mark.parametrize("m, n", [(20, 20), (40, 40)])
def test_star_product_of_monomials_closed_form(m, n):
    """w^m *_tau w^n = sum_k tau^k/(2^k k!) m!/(m-k)! n!/(n-k)! w^(m+n-2k), the
    defining sum with each derivative of a monomial written out."""
    tau = QC(Fraction(3, 4), Fraction(-2, 5))
    want = [0] * (m + n + 1)
    tau_k = QC(1)
    for k in range(min(m, n) + 1):
        want[m + n - 2 * k] = tau_k * Fraction(perm(m, k) * perm(n, k), 2 ** k * factorial(k))
        tau_k = tau_k * tau
    assert star_product(ExactPoly([0] * m + [1]), ExactPoly([0] * n + [1]), tau) == \
        ExactPoly(want)


@settings(deadline=None)
@given(EXACT_POLYS, EXACT_TAUS, EXACT_TAUS, st.booleans())
def test_intertwine_integer_route_equals_loop(f, tau_from, tau_to, same):
    tau_to = tau_from if same else tau_to
    assert matches_loop(intertwine(f, tau_from, tau_to),
                        _intertwine_loop(over_qc(f), as_qc(tau_from), as_qc(tau_to)))


# ------------------------------------------- the Gaussian form an ExactPoly holds
# An ExactPoly takes its form when it is built; kernel and operator outputs
# hold only their form until .coeffs is read.  Inputs below include the zero
# polynomial and lists that end in exact zeros.

ZEROS = st.lists(st.sampled_from([0, Fraction(0), QC(0)]), max_size=3)
PADDED_LISTS = st.tuples(st.lists(SCALARS, max_size=8), ZEROS).map(lambda t: t[0] + t[1])
PADDED_POLYS = PADDED_LISTS.map(ExactPoly)


def held(p):
    """The form p holds: an ExactPoly's, and False for a Poly, which holds none."""
    return p.form if isinstance(p, ExactPoly) else False


@settings(deadline=None, max_examples=60)
@given(PADDED_POLYS, PADDED_POLYS, PADDED_POLYS, EXACT_TAUS, EXACT_TAUS)
def test_held_forms_through_a_chain_equal_the_loops(f, g, h, t1, t2):
    """Outputs fed back in (product, then intertwiner, then product) match the
    QC loops at every step, and each holds the form of its coefficients."""
    fg = star_product(f, g, t1)
    moved = intertwine(fg, t1, t2)
    out = star_product(moved, h, t2)
    ref_fg = _star_product_loop(over_qc(f), over_qc(g), as_qc(t1))
    ref_moved = _intertwine_loop(ref_fg, as_qc(t1), as_qc(t2))
    ref_out = _star_product_loop(ref_moved, over_qc(h), as_qc(t2))
    for got, want in ((fg, ref_fg), (moved, ref_moved), (out, ref_out)):
        assert matches_loop(got, want)
        check_form(got)
    for p in (f, g, h):                 # inputs hold the form of the values they were given
        check_form(p)


SCALES = st.sampled_from([1, Fraction(1, 2), 2, Fraction(-3, 4), QC(0, 1), QC(1, 1), 0])


@settings(deadline=None)
@given(PADDED_POLYS, PADDED_POLYS, EXACT_TAUS, SCALES)
def test_equality_by_forms_agrees_with_coefficients(f, g, tau, c):
    """a and b = c a (or an unrelated product) compare by their forms as by
    their coefficients, also against an ExactPoly built from a's QC values,
    and to_complex() is complex() of each value."""
    a = star_product(f, g, tau)
    b = star_product(f, g.scale(c), tau) if not g.is_zero() else intertwine(f, tau, 0)
    assert (a == b) == (a.coeffs == b.coeffs)
    twin = ExactPoly(list(a.coeffs))
    assert a == twin and twin == a
    assert (b == twin) == (b.coeffs == twin.coeffs)
    assert a.to_complex().coeffs == tuple(complex(v) for v in a.coeffs)
    if a.degree <= 0:                   # a constant equals its scalar
        assert a == (a.coeffs[0] if a.coeffs else 0)


def test_forms_that_differ_only_in_the_denominator_are_unequal():
    one = star_product(ExactPoly([1]), ExactPoly([1]), 0)
    half = star_product(ExactPoly([Fraction(1, 2)]), ExactPoly([1]), 0)
    assert one.form[:2] == half.form[:2] and one.form != half.form
    assert one != half
    assert intertwine(ExactPoly([0, 0, 1]), 0, 1) != \
        intertwine(ExactPoly([0, 0, Fraction(1, 3)]), 0, 3)


def test_verify_draws_the_stream_of_randint():
    """_rand_qc draws what QC(Fraction(randint, randint), Fraction(randint,
    randint)) drew, field by field, so every seed of verify core and every
    pinned exact report means the same draws."""
    for seed in (1, 7, 20261018):
        mine, ref = random.Random(seed), random.Random(seed)
        for _ in range(10_000):
            got = verify._rand_qc(mine)
            want = QC(Fraction(ref.randint(-6, 6), ref.randint(1, 5)),
                      Fraction(ref.randint(-6, 6), ref.randint(1, 5)))
            assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
        assert mine.getstate() == ref.getstate()


def test_verify_draws_polynomials_as_forms_of_the_randint_stream():
    """_rand_poly builds one form from the draws of _rand_qc: the form of the
    ExactPoly of those QC values, with the rng left where they leave it."""
    for seed in (1, 7, 20261018):
        mine, ref = random.Random(seed), random.Random(seed)
        for _ in range(2_000):
            got = verify._rand_poly(mine, mine.randint(0, 8))
            want = ExactPoly([QC(Fraction(ref.randint(-6, 6), ref.randint(1, 5)),
                                 Fraction(ref.randint(-6, 6), ref.randint(1, 5)))
                              for _ in range(ref.randint(0, 8) + 1)])
            assert got.form == want.form
        assert mine.getstate() == ref.getstate()


def all_qc(p):
    return all(type(c) is QC for c in p.coeffs)


@settings(deadline=None, max_examples=50)
@given(polys(6), polys(6), SCALARS, SCALARS)
def test_exact_entry_points_return_qc(f, g, tau, tau2):
    """An int, Fraction or QC input gives QC coefficients, never a mix of types."""
    assert all_qc(star_product(f, g, tau))
    assert all_qc(intertwine(f, tau, tau2))
    assert all_qc(infinitesimal_intertwiner(f))
    assert all_qc(w_star_power(5, tau))
    tables = [[w_star_power(n, tau) for n in range(5)], legendre_star_exact(4, tau)]
    if tau:
        tables.append(laguerre_star(4, tau))
    for table in tables:
        assert all(map(all_qc, table))


FLOAT_POLYS = st.lists(st.floats(-2, 2), max_size=6).map(Poly)


def close(got, want):
    scale = 1 + max((abs(c) for c in want.coeffs), default=0.0)
    diff = got - want
    return max((abs(c) for c in diff.coeffs), default=0.0) <= 1e-9 * scale


@settings(deadline=None)
@given(FLOAT_POLYS, FLOAT_POLYS, st.one_of(RATS, st.integers(-9, 9)),
       st.one_of(RATS, st.integers(-9, 9)))
def test_exact_tau_with_float_coefficients_computes_in_float(f, g, tau, tau2):
    """Float coefficients keep the float route at an int or Fraction tau, and
    agree with the same computation at complex(tau)."""
    got = star_product(f, g, tau)
    assert all(type(c) is float for c in got.coeffs)
    assert close(got, star_product(f, g, complex(tau)))
    got = intertwine(f, tau, tau2)
    assert all(type(c) is float for c in got.coeffs)
    assert close(got, intertwine(f, complex(tau), complex(tau2)))


def test_every_mix_of_the_two_types_raises_type_error():
    """An ExactPoly mixes with no Poly, in arithmetic, in == or in a kernel,
    and takes no float or complex scalar or tau; to_complex() converts it."""
    e, p, ints = ExactPoly([1, QC(0, 1)]), Poly([0.5, 1.0]), Poly.x()
    for a, b in ((e, p), (p, e), (e, ints), (ints, e)):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(TypeError):
                op(a, b)
        with pytest.raises(TypeError):
            star_product(a, b, QC(1))
        with pytest.raises(TypeError):
            star_product(a, b, 1.0)
    for x in (0.5, 1j, 1 + 0j):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(TypeError):
                op(e, x)
            with pytest.raises(TypeError):
                op(x, e)
        with pytest.raises(TypeError):
            e.scale(x)
        with pytest.raises(TypeError):
            ExactPoly([1, x])
        with pytest.raises(TypeError):
            star_product(e, e, x)
        with pytest.raises(TypeError):
            intertwine(e, x, QC(1))
        with pytest.raises(TypeError):
            intertwine(e, QC(1), x)
    assert star_product(e.to_complex(), p, 1.0).coeffs == \
        star_product(Poly([1 + 0j, 1j]), p, 1.0).coeffs
    assert intertwine(e.to_complex(), 0.5, 1.0).coeffs == e.to_complex().coeffs


# ------------------------------------------- ExactPoly operators on the form
# + and - (with an ExactPoly or an exact scalar), * by an ExactPoly, scale and
# deriv compute on the forms; the coefficient loop of Poly over the same QC
# values is their reference.

OP_SCALARS = st.one_of(SCALARS, st.sampled_from([0, Fraction(0), QC(0)]))


@settings(deadline=None, max_examples=150)
@given(PADDED_POLYS, PADDED_POLYS, OP_SCALARS, st.integers(0, 3))
def test_form_route_operators_equal_the_loop_over_qc(f, g, c, order):
    """Each operator equals the loop over QC, holds that value's lowest-terms
    form, and reads degree and is_zero from it; zero results and cancelled
    tops included."""
    F, G, C = over_qc(f), over_qc(g), Poly.const(as_qc(c))
    top = ExactPoly([0] * f.degree + [f.coeffs[-1]]) if not f.is_zero() else ExactPoly()
    cases = [(f + g, F + G), (g + f, G + F), (f - g, minus(F, G)), (g - f, minus(G, F)),
             (f * g, F * G), (g * f, G * F), (f.scale(c), F.scale(as_qc(c))),
             (f.deriv(order), F.deriv(order)), (f + c, F + C), (f - c, minus(F, C)),
             (f - f, minus(F, F)), (f - top, minus(F, over_qc(top))),
             (f * g - g * f, minus(F * G, G * F))]
    for got, want in cases:
        assert matches_loop(got, want)
        check_form(got)
        assert (got.degree, got.is_zero()) == (want.degree, want.is_zero())
    assert (f == g) == (F.coeffs == G.coeffs) and (f == c) == (F.coeffs == C.coeffs)


def minus(a: Poly, b: Poly) -> Poly:
    """a - b in the loop over QC, as a + (-1) b: a QC has no unary minus."""
    return a + b.scale(-1)


@settings(deadline=None)
@given(PADDED_LISTS, OP_SCALARS)
def test_a_qc_coefficient_or_scalar_takes_the_form_route(values, c):
    """An ExactPoly takes its form when it is built, whether its values are
    int, Fraction or QC, and keeps them as QC values; a QC scalar and the equal
    int or Fraction act alike."""
    p, qcs = ExactPoly(values), Poly([as_qc(v) for v in values])
    check_form(p)
    assert p.form == to_gaussian(qcs.coeffs) and p.coeffs == qcs.coeffs
    assert p == ExactPoly(qcs.coeffs)
    assert p.scale(c) == p.scale(as_qc(c)) and matches_loop(p.scale(c), qcs.scale(as_qc(c)))
    assert p + c == p + as_qc(c) and p - c == p - as_qc(c)


def test_int_and_fraction_polynomials_keep_their_types():
    x = Poly.x()
    assert [type(c) for c in (x * x).coeffs] == [int, int, int]
    assert [type(c) for c in (x + x - Poly.const(3)).coeffs] == [int, int]
    assert [type(c) for c in x.deriv().coeffs] == [int]
    half = Poly([Fraction(1, 2), Fraction(1, 3)])
    assert [type(c) for c in (half * half).coeffs] == [Fraction] * 3
    assert [type(c) for c in (half + half).scale(Fraction(3)).coeffs] == [Fraction] * 2
    # a Poly loops over QC values as over any other; ExactPoly is the exact type
    assert [type(c) for c in (x * Poly.const(QC(1))).coeffs] == [QC, QC]
    assert type(ExactPoly.x() * ExactPoly.const(QC(1))) is ExactPoly


def test_heat_flow_of_int_polynomials_at_complex_parameters():
    """GaussPoly's default Poly.const(1) and Poly.x() mix with complex
    polynomials in the float code; they still run, and match the same
    computation on complex coefficients."""
    from stardeform.starexp import GaussPoly, gauss_star, heat_apply

    alpha, beta = -0.3 + 0.2j, 0.1 - 0.4j
    one = heat_apply(0.2 + 0.1j, GaussPoly(Poly.const(1), alpha, beta, 1.0, 0.0, 1))
    assert one.poly.coeffs == (1,)
    ints = heat_apply(0.2 + 0.1j, GaussPoly(Poly([2, 0, 1]), alpha, beta, 1.0, 0.0, 1))
    floats = heat_apply(0.2 + 0.1j, GaussPoly(Poly([2 + 0j, 0j, 1 + 0j]), alpha, beta, 1.0, 0.0, 1))
    assert all(abs(a - b) < 1e-14 for a, b in zip(ints.poly.coeffs, floats.poly.coeffs))
    g = gauss_star(GaussPoly(Poly.x(), alpha, 0.0, 1.0, 0.0, 1),
                   GaussPoly(Poly.const(1), alpha, beta, 1.0, 0.0, 1), 0.5j)
    assert all(type(c) is complex for c in g.poly.coeffs)


def _indexed_add(a, b):
    out = []
    for i in range(max(len(a), len(b))):
        out.append((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0))
    return out


def _indexed_mul(a, b):
    if not (a and b):
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def bits(values):
    """The coefficients bit for bit, zeros' signs included, trailing zeros cut."""
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return repr(values)


SIGNED = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0]))
FLOATISH = st.one_of(st.builds(complex, SIGNED, SIGNED), SIGNED, st.integers(-3, 3))
FLOAT_LISTS = st.lists(FLOATISH, max_size=12)


@settings(deadline=None)
@given(FLOAT_LISTS, FLOAT_LISTS)
def test_float_products_and_sums_are_bitwise_the_plain_loops(a, b):
    """Float and mixed operands run the coefficient loops, whose sums start from
    0 and pad with 0: the signs of zeros come out as those loops give them."""
    p, q = Poly(a), Poly(b)
    assert bits((p * q).coeffs) == bits(_indexed_mul(p.coeffs, q.coeffs))
    assert bits((p + q).coeffs) == bits(_indexed_add(p.coeffs, q.coeffs))
    assert bits((q + p).coeffs) == bits(_indexed_add(q.coeffs, p.coeffs))
    if p.coeffs and type(p.coeffs[-1]) in (float, complex):
        assert held(p) is False         # marked inexact when built
