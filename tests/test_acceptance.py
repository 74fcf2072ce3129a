"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else.  Criterion 13's delta-support
clause is false under the bracket rules and is checked as refuted: every
[y_l, y_m] is compared exactly with its closed form
(l - m) sum_g ((-2)^g/g!) a_{l+m+2g-1} (x) u^g, which is nonzero off the
diagonal for l + m even, and the counterexample [y_{-3}, y_1] is asserted.
The companion test checks the clauses of 13 that hold.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from stardeform import core
from stardeform.exact import QC
from stardeform import distributions, halfseries, residue, specialfn, starexp, theta, vertex

W21 = [-1.0 + 0.1 * k for k in range(21)]


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {detail}")
    return ok


def rand_qc(rng, num=6, den=5):
    return QC(Fraction(rng.randint(-num, num), rng.randint(1, den)),
              Fraction(rng.randint(-num, num), rng.randint(1, den)))


def rand_poly(rng, deg):
    return core.Poly([rand_qc(rng) for _ in range(deg + 1)])


def test_criterion_01_exact_polynomial_algebra():
    rng = random.Random(101)
    t0 = time.time()
    ok = True
    for _ in range(200):
        f = rand_poly(rng, rng.randint(0, 8))
        g = rand_poly(rng, rng.randint(0, 8))
        h = rand_poly(rng, rng.randint(0, 8))
        t1, t2, t3 = (rand_qc(rng) for _ in range(3))
        ok &= core.star_product(f, g, t1) == core.star_product(g, f, t1)
        ok &= core.star_product(core.star_product(f, g, t1), h, t1) == \
            core.star_product(f, core.star_product(g, h, t1), t1)
        ok &= core.intertwine(f, t1, t3) == \
            core.intertwine(core.intertwine(f, t1, t2), t2, t3)
        ok &= core.intertwine(core.star_product(f, g, t1), t1, t2) == \
            core.star_product(core.intertwine(f, t1, t2), core.intertwine(g, t1, t2), t2)
    dt = time.time() - t0
    ok &= dt < 10.0
    assert report(1, ok, f"exact algebra, 200 cases in {dt:.2f}s (zero residual)")


def test_criterion_02_gaussian_product_oracle():
    rng = random.Random(102)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        a1 = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        a2 = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        tau = cmath.exp(2j * math.pi * rng.random()) * rng.random()
        f = starexp.GaussPoly(core.Poly.const(1), a1, 0.0)
        g = starexp.GaussPoly(core.Poly.const(1), a2, 0.0)
        prod = starexp.gauss_star(f, g, tau)
        for w in (-0.7, 0.4):
            qf, qg = f.poly, g.poly
            cf = core.Poly([f.beta, 2 * f.alpha])
            cg = core.Poly([g.beta, 2 * g.alpha])
            acc = qf(w) * qg(w)
            scl = 1.0
            for k in range(1, 60):
                qf = qf.deriv() + qf * cf
                qg = qg.deriv() + qg * cg
                scl = scl * tau / (2 * k)
                acc += scl * qf(w) * qg(w)
            acc *= cmath.exp(a1 * w * w) * cmath.exp(a2 * w * w)
            worst = max(worst, abs(prod(w) - acc) / max(1.0, abs(acc)))
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 5.0
    assert report(2, ok, f"series oracle, worst rel err {worst:.2e} in {dt:.2f}s")


def test_criterion_03_exponential_laws():
    rng = random.Random(103)
    worst_lin = 0.0
    for _ in range(100):
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tau = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        prod = starexp.gauss_star(starexp.star_exp_linear(s, tau),
                                  starexp.star_exp_linear(t, tau), tau)
        target = starexp.star_exp_linear(s + t, tau)
        worst_lin = max(worst_lin, abs(prod.alpha), abs(prod.beta - target.beta),
                        abs(prod.amp() / target.amp() - 1))
    # closed-form exactness over exact scalars: the log-amplitude identity
    sq, tq, tauq = QC(Fraction(2, 3)), QC(Fraction(-1, 4), Fraction(1, 2)), QC(Fraction(5, 7))
    exact_ok = (sq * sq * tauq / 4 + tq * tq * tauq / 4 + sq * tq * tauq / 2
                == (sq + tq) * (sq + tq) * tauq / 4)

    worst_quad = 0.0
    count = 0
    while count < 100:
        s = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        t = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        tau = cmath.exp(2j * math.pi * rng.random()) * rng.random()
        if min(abs(1 - tau * s), abs(1 - tau * t), abs(1 - tau * (s + t))) < 1e-3:
            continue
        worst_quad = max(worst_quad, starexp.quad_exponential_law(s, t, tau))
        count += 1
    ok = worst_lin < 1e-13 and exact_ok and worst_quad <= 1e-12
    assert report(3, ok, f"linear law {worst_lin:.2e} (exact log-amp ok={exact_ok}), "
                         f"quadratic law {worst_quad:.2e} over 100 samples")


def test_criterion_04_value_relation():
    t0 = time.time()
    worst = max(theta.jacobi_relation_residual(tau)
                for tau in (1.0, 2.0, 1.0 + 0.5j))
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 1.0
    assert report(4, ok, f"theta value relation, worst {worst:.2e} in {dt:.2f}s")


def test_criterion_05_imaginary_transform():
    worst = max(theta.imaginary_transform_residual(w, tau)
                for tau in (1.0, 2.0) for w in W21)
    ok = worst <= 1e-10
    assert report(5, ok, f"imaginary transform on 21-point grid, worst {worst:.2e}")


def test_criterion_06_hermite():
    checks = specialfn.hermite_checks(specialfn.hermite_table(12, QC(-1)))
    exact_ok = all(checks.values())
    worst = 0.0
    for n in range(9):
        got = specialfn.hermite_orthogonality(n, n, -1.0)
        want = specialfn.hermite_orthogonality_target(n, -1.0)
        worst = max(worst, abs(got - want) / abs(want))
    for n, m in ((1, 0), (4, 2), (7, 3), (8, 5)):
        got = specialfn.hermite_orthogonality(n, m, -1.0)
        scale = abs(specialfn.hermite_orthogonality_target(max(n, m), -1.0))
        worst = max(worst, abs(got) / scale)
    ok = exact_ok and worst <= 1e-8
    assert report(6, ok, f"recurrence/ODE/ladder exact={exact_ok}, orthogonality {worst:.2e}")


def test_criterion_07_bessel():
    tab = specialfn.bessel_table(1.0, 1.0, 14, W21)
    unit = specialfn.bessel_unit_sum_residual(tab)
    addition = specialfn.bessel_addition_residual(1.0, 1.0, 1.0, W21[::4])
    ok = unit <= 1e-10 and addition <= 1e-9
    assert report(7, ok, f"unit sum {unit:.2e}, addition {addition:.2e}")


def test_criterion_08_residue():
    worst = 0.0
    for tau in (1.0, 1 + 1j):
        for w in (0.0, 0.5):
            got = residue.residue_contour(0, 0.0, tau, w, radius=1.0, n_nodes=256)
            want = residue.sqrt_minus_tau(tau) ** -1 * cmath.exp(-w * w / complex(tau))
            worst = max(worst, abs(got - want))
    vanish = max(residue.closed_contour_vanishing(1.0, tau, w)
                 for tau in (1.0, 1 + 1j) for w in (0.0, 0.5))
    ladder = max(residue.ladder_residual(k, 1.0, 1 + 1j, W21[::4]) for k in (-1, 0, 1))
    ok = worst <= 1e-10 and vanish <= 1e-10 and ladder <= 1e-12
    assert report(8, ok, f"contour vs closed {worst:.2e}, double-turn {vanish:.2e}, "
                         f"ladder {ladder:.2e}")


def test_criterion_09_annihilation_discontinuity():
    worst = 0.0
    floor = math.inf
    for t in (0.1, 1.0):
        res = residue.orphan_annihilation(t, 0, 1.0, 1.0, [0.0, 0.5])
        worst = max(worst, res["annihilation"])
        floor = min(floor, float(np.abs(res["t_zero_values"]).max()))
    ok = worst <= 1e-10 and floor > 1e-3
    assert report(9, ok, f"annihilation {worst:.2e}; t=0 ladder magnitude {floor:.2e}")


def test_criterion_10_delta_inverses():
    tau = 1.0
    W41 = [-3.0 + 0.15 * k for k in range(41)]
    sided = max(distributions.sided_inverse_defect(a, s, tau, W41)
                for a in (0.0, 1.0, 1j) for s in "+-")
    diff = max(distributions.delta_difference_residual(a, tau, W21[::2])
               for a in (0.0, 0.8))
    ysgn = distributions.y_sgn_identity_residuals(tau, W41)
    ymax = max(ysgn.values())
    sem = max(residue.semigroup_on_delta(t, alpha, tau, W21[::2])
              for t, alpha in ((0.0, 0.5), (0.4, 1j), (1.0, 0.7), (1.0 / tau, 0.6)))
    ok = sided <= 1e-8 and diff <= 1e-9 and ymax <= 1e-10 and sem <= 1e-12
    assert report(10, ok, f"sided {sided:.2e}, delta-diff {diff:.2e}, Y/sgn {ymax:.2e}, "
                          f"delta-flow (incl t=1/tau) {sem:.2e}")


def test_criterion_11_euler_bernoulli():
    t0 = time.time()
    E = halfseries.euler_numbers(5)
    B = halfseries.bernoulli_numbers(5)
    ok = E == [1, -1, 5, -61, 1385, -50521]
    ok &= B == [Fraction(1), Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                Fraction(-1, 30), Fraction(5, 66)]
    ok &= E == halfseries.euler_numbers_recurrence(5)
    ok &= B == halfseries.bernoulli_numbers_recurrence(5)
    dt = time.time() - t0
    ok &= dt < 1.0
    assert report(11, ok, f"exact values + recurrences in {dt:.2f}s")


def test_criterion_12_divergence_evidence():
    r3 = starexp.series_radius_probe(3, 1.0, 16)
    growth = 1.0
    for r in r3[:15]:
        growth *= r
    monotone = all(b > a for a, b in zip(r3[5:], r3[6:]))
    # measured behavior: ratios ~ c sqrt(n) (unbounded, monotone from n>=1);
    # the coefficient growth c_15/c_0 exceeds 1e3 (it is ~2e13); the ratio
    # itself reaches ~9.5 by n=15
    ok = monotone and growth > 1e3 and r3[14] > r3[5] > 1.0
    assert report(12, ok, f"coefficient growth {growth:.2e} (>1e3), ratios monotone "
                          f"n>=5 (r15={r3[14]:.2f})")


def test_criterion_13_vertex_passing_clauses():
    t0 = time.time()
    witt = vertex.witt_identity_check(4, K=6)
    eigen = all(vertex.y_eigen_defect(n, m).is_zero()
                for n in range(-3, 4) for m in range(-3, 4))
    rep = vertex.central_constraint_check(K=6)
    kc = vertex.k_centrality_check(K=6)
    dt = time.time() - t0
    ok = witt and eigen and kc and rep["diagonal_proportionality"] \
        and rep["c1_closed_form_matches"] and rep["antisymmetry"] \
        and rep["odd_parity_vanishing"] and dt < 60.0
    assert report(13, ok, f"witt sweep={witt}, weight-eigen={eigen}, "
                          f"diagonal c_m = m c_1={rep['diagonal_proportionality']}, "
                          f"K-centrality={kc} in {dt:.1f}s")


def central_bracket_oracle(l, m, K):
    """[y_l, y_m] from the bracket rules alone, as grade -> CoeffRing.

    With [x_a, x_b] = (a - b) a_{a+b-1} and y_m = sum_k c_k x_{m+2k} (x) u^k,
    c(t) = sum_k c_k t^k = e^{-t}, grade g collects
    sum_{k+j=g} c_k c_j (l - m + 2(k - j)) a_{l+m+2g-1}; the (k - j) part
    cancels by symmetry and sum_{k+j=g} c_k c_j = [t^g] e^{-2t}, so

        C_{l,m} = (l - m) sum_{g<=K} ((-2)^g / g!) a_{l+m+2g-1} (x) u^g.

    The coefficient-ring cap K + 2 is the one bracket_elems uses by default."""
    out = {}
    for g in range(K + 1):
        co = vertex.laurent_coefficient_ring(l + m + 2 * g - 1, K + 2) \
            .scale(Fraction((l - m) * (-2) ** g, math.factorial(g)))
        if not co.is_zero():
            out[g] = co
    return out


def test_criterion_13_delta_support_as_stated():
    """The delta-support clause of criterion 13, checked as refuted.

    The clause C_{l,m} = [y_l, y_m] = m c_1 delta_{l+m,0} is false under the
    bracket rules: every C_{l,m} equals the closed form of
    central_bracket_oracle exactly, and a_j is nonzero for odd j, so every
    pair with l != m, l + m even and l + m != 0 has a nonzero bracket.  The
    test asserts that exact closed form for |l|, |m| <= 3 at K = 6, that the
    report marks the clause false, the exact set of 12 nonzero off-diagonal
    pairs, and the counterexample [y_{-3}, y_1] = 8 gamma u + ... at grade 1.
    (At l = -m the same form gives the diagonal law c_m = m c_1, checked in
    the companion test.)
    """
    K, index_max = 6, vertex.INDEX_MAX
    rep = vertex.central_constraint_check(K=K)
    rng = range(-index_max, index_max + 1)
    mismatched = [(l, m) for l in rng for m in rng
                  if rep["C"][(l, m)] != central_bracket_oracle(l, m, K)]
    expected_pairs = {(l, m) for l in rng for m in rng
                      if l != m and (l + m) % 2 == 0 and l + m != 0}
    pairs = rep["offdiagonal_nonzero_pairs"]
    gamma_coeff = rep["C"][(-3, 1)].get(1, vertex.CoeffRing()).terms.get((1, 0, 0, 0))
    ok = not mismatched and rep["delta_support"] is False \
        and len(pairs) == len(expected_pairs) and set(pairs) == expected_pairs \
        and gamma_coeff == QC(8)
    assert report(13, ok, f"(delta-support clause refuted) closed form exact on "
                          f"{len(rng) ** 2 - len(mismatched)}/{len(rng) ** 2} pairs, "
                          f"{len(pairs)} nonzero off-diagonal pairs; counterexample "
                          f"[y_-3, y_1] grade-1 gamma coefficient {gamma_coeff}")


def test_criterion_14_covariant_calculus():
    kernel_ok = all(residue.surface_derivative_exact(residue.parallel_polynomial(k, m)) == {}
                    for k in range(-3, 4) for m in range(-3, 4))
    worst = max(residue.covariant_evolution_residual(H, 0.7, z, W21[::2])
                for H in (core.Poly([1.0]), core.Poly([0.5, -1.0, 2.0]),
                          core.Poly([0.0, 1.0, 0.3, 0.7, 0.2]))
                for z in (1.0, 0.8 + 0.4j, 1.6))
    ok = kernel_ok and worst <= 1e-12
    assert report(14, ok, f"parallel kernel exact={kernel_ok}, first-order residual {worst:.2e}")
