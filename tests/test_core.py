"""Core polynomial algebra: products, intertwiners, deformed powers.

Expected values tagged below were either checked by hand against the defining
finite sums or frozen from the independent oracles in this file (repeated
products, term-by-term differentiation, finite differences).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stardeform import (QC, Poly, core, infinitesimal_intertwiner, intertwine, star_product,
                        verify, w_star_power)
from stardeform.core import _intertwine_loop, _star_product_loop
from stardeform.exact import all_exact, as_qc, is_exact
from stardeform.specialfn import hermite_table, laguerre_star, legendre_star_exact

RATS = st.fractions(min_value=-9, max_value=9, max_denominator=7)
# exact scalars as a QC, a Fraction or an int; they serve as coefficients and tau
SCALARS = st.one_of(st.builds(QC, RATS, RATS), RATS, st.integers(-9, 9))


def polys(max_degree):
    return st.lists(SCALARS, max_size=max_degree + 1).map(Poly)


def rand_qc(rng, num=9, den=7):
    return QC(Fraction(rng.randint(-num, num), rng.randint(1, den)),
              Fraction(rng.randint(-num, num), rng.randint(1, den)))


def rand_poly(rng, deg):
    return Poly([rand_qc(rng, 6) for _ in range(deg + 1)])


def star_power_oracle(n, tau):
    """Independent route: n-fold product w * (w * (... * w))."""
    w = Poly.x()
    out = Poly.const(QC(1) if isinstance(tau, QC) else 1)
    for _ in range(n):
        out = star_product(w, out, tau)
    return out


def test_star_w_w_tau2():
    # direct evaluation of the k=0,1 terms of the defining sum
    got = star_product(Poly.x(), Poly.x(), 2)
    assert got == Poly([1, 0, 1])  # w^2 + 1


@settings(deadline=None)
@given(polys(8), SCALARS)
def test_star_identity_element(f, tau):
    assert star_product(Poly.const(1), f, tau) == f
    assert star_product(f, Poly.const(QC(1)), tau) == f


def test_star_w2_w2():
    # frozen from the finite sum k=0..2 done by hand:
    # w^4 + 2 tau w^2 + tau^2/2
    tau = QC(Fraction(3, 2))
    got = star_product(Poly([0, 0, QC(1)]), Poly([0, 0, QC(1)]), tau)
    assert got == Poly([tau * tau / 2, QC(0), 2 * tau, QC(0), QC(1)])


def test_intertwine_w2():
    tau = QC(Fraction(5, 3))
    assert intertwine(Poly([0, 0, QC(1)]), QC(0), tau) == Poly([tau / 2, QC(0), QC(1)])


def test_intertwine_identity():
    rng = random.Random(2)
    f = rand_poly(rng, 7)
    tau = rand_qc(rng)
    assert intertwine(f, tau, tau) == f


def test_intertwine_w3():
    # frozen: exp((tau/4) d^2) w^3 = w^3 + (3 tau/2) w
    tau = QC(Fraction(7, 4))
    got = intertwine(Poly([0, 0, 0, QC(1)]), QC(0), tau)
    assert got == Poly([QC(0), tau * 3 / 2, QC(0), QC(1)])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_w_star_power_vs_repeated_product(n):
    tau = QC(Fraction(2, 3), Fraction(1, 5))
    assert w_star_power(n, tau) == star_power_oracle(n, tau)


def test_w_star_power_small_values():
    tau = QC(Fraction(1, 2))
    assert w_star_power(0, tau) == Poly.const(1)
    assert w_star_power(2, tau) == Poly([tau / 2, QC(0), QC(1)])
    # frozen from the repeated-product oracle: w^5 + 5 tau w^3 + (15/4) tau^2 w
    assert w_star_power(5, tau) == Poly(
        [QC(0), tau * tau * Fraction(15, 4), QC(0), tau * 5, QC(0), QC(1)])


def test_w_star_power_monic():
    tau = QC(Fraction(9, 2))
    for n in range(12):
        p = w_star_power(n, tau)
        assert p.degree == n and p.coeffs[-1] == 1


def test_infinitesimal_intertwiner_values():
    assert infinitesimal_intertwiner(Poly([0, 0, QC(1)])) == Poly.const(Fraction(1, 2))
    assert infinitesimal_intertwiner(Poly.x()) == Poly()
    assert infinitesimal_intertwiner(Poly([0, 0, 0, 0, QC(1)])) == Poly([0, 0, QC(3)])


def test_infinitesimal_intertwiner_finite_difference():
    # lim (intertwine(f, tau, tau+h) - f)/h via Richardson of two small h
    f = Poly([0.3, -1.2, 0.0, 2.0, 1.0])
    tau = 0.4 + 0.1j
    want = infinitesimal_intertwiner(f)
    for h in (1e-5, 1e-6):
        fd = (intertwine(f, tau, tau + h) - f).scale(1.0 / h)
        err = max(abs(a - b) for a, b in zip(
            (fd - want).coeffs or [0], (fd - want).coeffs or [0])) if not (fd - want).is_zero() else 0.0
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
    return {r["anchor"]: r["passed"] for r in verify.suite_core(verify.RunConfig(seed=seed))
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


def test_pn_recurrence_exact():
    # P_{n+1} = w P_n + (tau/2) P_n'
    tau = QC(Fraction(4, 7), Fraction(2, 3))
    p = Poly.const(QC(1))
    for n in range(12):
        nxt = Poly.x() * p + p.deriv().scale(tau / 2)
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


# Exact inputs take the integer-numerator route; the Poly loop over QC is its reference.
EXACT_POLYS = st.lists(SCALARS, max_size=11).map(Poly)     # zero, constant, degree <= 10
EXACT_TAUS = st.one_of(st.sampled_from([0, Fraction(0), QC(0)]), SCALARS)


def over_qc(p):
    return p.map_coeffs(as_qc)


def same_poly(got, want):
    return got == want and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@settings(deadline=None)
@given(EXACT_POLYS, EXACT_POLYS, EXACT_TAUS)
def test_star_product_integer_route_equals_loop(f, g, tau):
    assert same_poly(star_product(f, g, tau),
                     _star_product_loop(over_qc(f), over_qc(g), as_qc(tau)))


@settings(deadline=None)
@given(EXACT_POLYS, EXACT_TAUS, EXACT_TAUS, st.booleans())
def test_intertwine_integer_route_equals_loop(f, tau_from, tau_to, same):
    tau_to = tau_from if same else tau_to
    assert same_poly(intertwine(f, tau_from, tau_to),
                     _intertwine_loop(over_qc(f), as_qc(tau_from), as_qc(tau_to)))


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
    tables = [hermite_table(4, tau).reduced, legendre_star_exact(4, tau)]
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


def as_complex(p):
    return p.map_coeffs(complex)


def test_mixed_exact_and_float_scalars_take_the_float_route():
    """A QC tau with float coefficients, and a Poly mixing QC and float
    coefficients, give the float result at complex() of every QC."""
    f, g = Poly([0.5, 1.0]), Poly([0, 1.0])
    assert star_product(f, g, QC(1)) == star_product(as_complex(f), as_complex(g), 1 + 0j)
    h = Poly([0.5, 0, 1.0])
    assert intertwine(h, QC(1), 2.0) == intertwine(as_complex(h), 1 + 0j, 2 + 0j)
    m = Poly([QC(Fraction(1, 2), 1), 0.25, QC(3)])
    assert star_product(m, g, 1.0) == star_product(as_complex(m), as_complex(g), 1 + 0j)
    assert star_product(m, m, QC(0, 1)) == star_product(as_complex(m), as_complex(m), 1j)
    assert intertwine(m, 0.5, QC(2)) == intertwine(as_complex(m), 0.5 + 0j, 2 + 0j)


MIXED_POLYS = st.lists(st.one_of(st.floats(-2, 2), st.builds(QC, RATS, RATS)),
                       max_size=6).map(Poly)


@settings(deadline=None)
@given(MIXED_POLYS, MIXED_POLYS, SCALARS, st.one_of(SCALARS, st.floats(-2, 2)))
def test_mixed_scalars_agree_with_the_complex_call(f, g, tau, tau2):
    if not (all_exact(f.coeffs) and all_exact(g.coeffs)):
        assert close(star_product(f, g, tau),
                     star_product(as_complex(f), as_complex(g), complex(tau)))
    if not (all_exact(f.coeffs) and is_exact(tau2)):
        assert close(intertwine(f, tau, tau2),
                     intertwine(as_complex(f), complex(tau), complex(tau2)))
