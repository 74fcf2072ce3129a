"""Formal bracket system: exact symbolic checks over the truncated u-grading."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stardeform.residue as rs
import stardeform.vertex as vx
from stardeform import verify
from stardeform.exact import QC, SparseLaurent
from stardeform.residue import laurent_coeff_closed
from stardeform.vertex import (INDEX_MAX, STABILITY_GRADES, CoeffRing, L_action,
                               VertexElem, bracket_elems, central_constraint_check,
                               k_centrality_check, laurent_coefficient_ring,
                               truncation_stability, witt_identity_check, x_elem, y_eigen_defect,
                               y_generator)

TRUNC = 3
RATS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
INDICES = st.integers(-3, 3)


def elems(trunc: int = TRUNC):
    """Rational combinations of x_m (x) u^k, |m| <= 3, k <= trunc."""
    keys = st.tuples(INDICES, st.integers(0, trunc))
    return st.dictionaries(keys, RATS.filter(bool), max_size=4) \
        .map(lambda terms: VertexElem(terms, trunc))


def canonical(e: VertexElem) -> bool:
    """Nonzero Fraction values, at grades <= trunc only."""
    return all(type(c) is Fraction and c and k <= e.trunc for (_, k), c in e.terms.items())


def ring_value(C: SparseLaurent) -> CoeffRing:
    """A central part of grade 0 as a ring element, each a_j cut at 6."""
    assert all(g == 0 for _, g in C.terms)
    return sum((laurent_coefficient_ring(j, 6).scale(c) for (j, _), c in C.terms.items()),
               CoeffRing())


def test_bracket_antisymmetry_and_diagonal():
    assert bracket_elems(x_elem(2, 6), x_elem(2, 6)).is_zero()
    b = bracket_elems(x_elem(3, 6), x_elem(1, 6))
    assert (b + bracket_elems(x_elem(1, 6), x_elem(3, 6))).is_zero()
    assert b == SparseLaurent({(3, 0): 2})


def test_bracket_heisenberg_specialization():
    # nu = w = 0: [x_m, x_n] = 2 m delta_{m+n,0} / sqrt(-tau)
    gamma0 = 1 / cmath.sqrt(-1 + 0j)  # tau = 1, principal
    for m in range(-3, 4):
        for n in range(-3, 4):
            val = ring_value(bracket_elems(x_elem(m, 6), x_elem(n, 6))).evaluate(1.0, 0.0, 0.0)
            want = 2 * m * gamma0 if m + n == 0 else 0.0
            assert abs(val - want) < 1e-14 * max(1.0, abs(want))


def test_bracket_is_2_a_minus1():
    # [x_1, x_{-1}] = 2 a_{-1} (x) u^0
    b = bracket_elems(x_elem(1, 6), x_elem(-1, 6))
    assert b == SparseLaurent({(-1, 0): 2})
    assert (ring_value(b) - laurent_coefficient_ring(-1, 6).scale(2)).is_zero()


def test_gamma_dictionary_consistency():
    # CoeffRing values reproduce the closed-form Laurent coefficients
    tau, nu, w = 1.0 + 0.3j, 0.7, 0.4
    for j in (-3, -1, 1, 3):
        ring = laurent_coefficient_ring(j, 40)
        got = ring.evaluate(tau, nu, w)
        want = laurent_coeff_closed((j + 1) // 2, nu, tau, w)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_L_action_rule():
    e = x_elem(0, K=4)
    out = L_action(0, e)
    # [L_0, x_0] = 2 x_2 (x) u
    assert set(out.terms) == {(2, 1)}
    assert out.terms[(2, 1)] == Fraction(2)

    out2 = L_action(3, x_elem(2, K=4))
    assert out2.terms[(5, 0)] == Fraction(2)
    assert out2.terms[(7, 1)] == Fraction(2)


def test_L_action_drops_grade_above_cap():
    assert L_action(0, x_elem(0, K=0)).is_zero()


def test_nested_action_expansion():
    # [L_l, [L_n, x_m]] = m(n+m) x_{n+m+l} + 2(m + (n+m+2)) x_{n+m+l+2} u + 4 x_{n+m+l+4} u^2
    n, ell, m = 1, -2, 3
    e = x_elem(m, K=6)
    out = L_action(ell, L_action(n, e))
    assert out.terms[(n + m + ell, 0)] == Fraction(m * (n + m))
    assert out.terms[(n + m + ell + 2, 1)] == Fraction(2 * m + 2 * (n + m + 2))
    assert out.terms[(n + m + ell + 4, 2)] == Fraction(4)


# ------------------------------------------- per-pair references of the sweeps
# One check per pair, every action formed afresh through vx.L_action (so a
# patched action reaches them too); the memoised sweeps must agree with them.

def ad_commutator(n: int, ell: int, e: VertexElem) -> VertexElem:
    """ad(L_n) ad(L_ell) - ad(L_ell) ad(L_n) applied to e."""
    return vx.L_action(n, vx.L_action(ell, e)) + vx.L_action(ell, vx.L_action(n, e)).scale(-1)


def witt_identity_reference(n: int, ell: int, m: int, K: int) -> bool:
    """ad(L_n)ad(L_ell) - ad(L_ell)ad(L_n) = (ell - n) ad(L_{n+ell}) on x_m,
    compared exactly on grades <= K (computed with headroom K+2)."""
    e = x_elem(m, K + 2)
    lhs = ad_commutator(n, ell, e).restrict(K)
    rhs = vx.L_action(n + ell, e).scale(ell - n).restrict(K)
    return lhs == rhs


def k_centrality_reference(m: int, n: int, K: int) -> bool:
    """adcomm(m,n) - (n - m) ad(L_{m+n}) annihilates all y_l and x_l
    (|l| <= INDEX_MAX) up to grade K."""
    probes = [p for ell in range(-INDEX_MAX, INDEX_MAX + 1)
              for p in (y_generator(ell, K + 2), x_elem(ell, K + 2))]
    return all(ad_commutator(m, n, p).restrict(K)
               == vx.L_action(m + n, p).scale(n - m).restrict(K) for p in probes)


def witt_reference_sweep(R: int, K: int) -> bool:
    idx = range(-R, R + 1)
    return all(witt_identity_reference(n, ell, m, K) for n in idx for ell in idx for m in idx)


def k_centrality_reference_sweep(K: int) -> bool:
    idx = range(-INDEX_MAX, INDEX_MAX + 1)
    return all(k_centrality_reference(m, n, K) for m in idx for n in idx)


def test_witt_identity_samples_and_sweep():
    assert witt_identity_reference(1, -1, 2, K=4)
    assert witt_identity_reference(2, 2, 0, K=4)    # n = l: both sides zero
    assert witt_identity_check(4, K=6)
    assert witt_identity_check(0, K=0)


def squared_index_action(real):
    """L_{n^2} in place of L_n: its commutators do not close as the Witt law says."""
    return lambda n, e: real(n * n, e)


@pytest.mark.parametrize("K", [0, 2, 6, 9, 32])
@pytest.mark.parametrize("broken", [False, True], ids=["witt-action", "squared-index"])
def test_sweeps_equal_their_per_pair_references(monkeypatch, K, broken):
    """Both orders of each pair, both actions: the sweep's verdict is the
    references' all(); under the squared-index action both are False."""
    if broken:
        monkeypatch.setattr(vx, "L_action", squared_index_action(vx.L_action))
    for R in (3, 4):
        assert witt_identity_check(R, K) == witt_reference_sweep(R, K) == (not broken)
    assert k_centrality_check(K) == k_centrality_reference_sweep(K) == (not broken)


def test_y_generator_structure():
    y = y_generator(2, K=0)
    assert set(y.terms) == {(2, 0)}
    y3 = y_generator(-1, K=3)
    assert y3.terms[(-1 + 2 * 2, 2)] == Fraction(1, 2)


def test_y_eigen_exact():
    for m in range(-3, 4):
        assert y_eigen_defect(0, m).is_zero()
        for n in (-2, 1, 3):
            assert y_eigen_defect(n, m).is_zero()


def test_alternative_dressing_fails_eigen():
    # the (-2)^k/k! x_{m+k} dressing leaves a grade-1 defect: its correction
    # term lands off the support lattice and nothing cancels it
    import math
    m, K = 1, 4
    bad = VertexElem({(m + k, k): Fraction((-2) ** k, math.factorial(k))
                      for k in range(K + 2)}, K + 1)
    lhs = L_action(0, bad).restrict(1)
    rhs = bad.scale(m).restrict(1)
    assert lhs != rhs


def test_central_constraints():
    rep = central_constraint_check(K=6)
    assert rep["antisymmetry"]
    assert rep["odd_parity_vanishing"]
    assert rep["diagonal_proportionality"]
    assert rep["y0_self_bracket_zero"]
    assert rep["c1_closed_form_matches"]
    # the off-diagonal entries are genuinely nonzero under the defined rules
    assert not rep["delta_support"]
    assert (-3, 1) in rep["offdiagonal_nonzero_pairs"]


def test_offdiagonal_counterexample_value():
    # [y_{-3}, y_1] at nu = w = 0, tau = 1: 8 gamma u at grade 1, its a_j
    # expanded at the ring cap K + 2
    C = bracket_elems(y_generator(-3, 6), y_generator(1, 6))
    grade1 = CoeffRing()
    for (j, g), c in C.terms.items():
        if g == 1:
            grade1 = grade1 + laurent_coefficient_ring(j, 8).scale(c)
    val = grade1.evaluate(1.0, 0.0, 0.0)
    gamma0 = 1 / cmath.sqrt(-1 + 0j)
    assert abs(val - 8 * gamma0) < 1e-14


def test_k_centrality():
    assert k_centrality_check(K=6)
    assert all(k_centrality_reference(m, n, K=6) for m in (-3, 0, 2) for n in (-1, 3))


def test_even_subalgebra_closes():
    # brackets of even-index operators land on even indices
    for m in (-4, -2, 0, 2, 4):
        for n in (-2, 2, 4):
            e = x_elem(0, K=6)
            out = ad_commutator(m, n, e)
            assert all((idx % 2 == 0) for idx, _ in out.terms)


def test_truncation_stability():
    assert truncation_stability(central_constraint_check(STABILITY_GRADES[0])["C"])


def test_truncation_stability_sees_a_grade_missing_at_the_low_budget(monkeypatch):
    """A low-budget bracket that lacks its grade-0 terms differs from the
    high-budget one at a grade it does not carry; the check must see it."""
    real = vx.bracket_elems

    def drop_grade0_at_6(e1, e2):
        out = real(e1, e2)
        if min(e1.trunc, e2.trunc) != 6:
            return out
        return SparseLaurent({e: v for e, v in out.terms.items() if e[-1] > 0})

    monkeypatch.setattr(vx, "bracket_elems", drop_grade0_at_6)
    assert not truncation_stability(central_constraint_check(STABILITY_GRADES[0])["C"])


def test_jacobi_x():
    """[x_a, x_b] = (a - b) a_{a+b-1} (x) u^0 for |a|, |b| <= INDEX_MAX: the
    brackets are antisymmetric and land in the central ring, so every cyclic
    Jacobi term [x_a, [x_b, x_c]] vanishes."""
    rng = range(-INDEX_MAX, INDEX_MAX + 1)
    for a in rng:
        for b in rng:
            C = bracket_elems(x_elem(a, 6), x_elem(b, 6))
            assert (C + bracket_elems(x_elem(b, 6), x_elem(a, 6))).is_zero()
            want = {(a + b - 1, 0): a - b} if a != b and (a + b) % 2 == 0 else {}
            assert C == SparseLaurent(want)


def _gamma_dictionary_passes() -> bool:
    return next(r for r in verify.suite_vertex() if r["anchor"] == "gamma-dictionary")["passed"]


def test_gamma_dictionary_sees_the_sqrt_off_the_principal_branch(monkeypatch):
    """sqrt(-tau) without the signed-zero normalization puts real positive tau
    below the cut: a_{-1} at tau = 1, nu = w = 0 reads +i, not -i."""
    assert _gamma_dictionary_passes()
    monkeypatch.setattr(rs, "sqrt_minus_tau", lambda tau: cmath.sqrt(-complex(tau)))
    assert not _gamma_dictionary_passes()


def test_gamma_dictionary_sees_the_nu_exponent_of_the_ring(monkeypatch):
    """A ring built with nu^q in place of nu^{k+q} agrees at j = -1 only."""
    def nu_q(j, cap):
        if j % 2 == 0:
            return CoeffRing()
        k = (j + 1) // 2
        return CoeffRing({(1, q, q, 2 * q): Fraction((-1) ** q,
                                                     math.factorial(q) * math.factorial(k + q))
                          for q in range(max(0, -k), cap + 1)})

    assert _gamma_dictionary_passes()
    monkeypatch.setattr(vx, "laurent_coefficient_ring", nu_q)
    assert not _gamma_dictionary_passes()


@settings(deadline=None)
@given(elems(), elems(), RATS, INDICES)
def test_L_action_is_linear(a, b, r, n):
    out = L_action(n, a + b)
    assert out == L_action(n, a) + L_action(n, b)
    assert L_action(n, a.scale(r)) == L_action(n, a).scale(r)
    assert canonical(out)


@settings(deadline=None)
@given(elems(), RATS)
def test_sum_with_negative_is_zero(e, r):
    diff = e + e.scale(-1)
    assert diff.is_zero() and diff.terms == {}
    assert e.scale(0).terms == {}
    assert canonical(e.scale(r)) and canonical(e + e)


def test_span_refuses_non_rational_coefficients():
    """Span coefficients are rational: a QC scalar or value is refused, even
    a real one."""
    e = y_generator(1, 3)
    with pytest.raises(TypeError):
        e.scale(QC(1, 2))
    with pytest.raises(TypeError):
        e.scale(QC(3))
    with pytest.raises(TypeError):
        VertexElem({(0, 0): QC(0, 1)}, 3)


@settings(deadline=None)
@given(elems(), elems(), elems(), RATS)
def test_bracket_bilinear_antisymmetric(a, b, c, r):
    assert (bracket_elems(a + b, c) - (bracket_elems(a, c) + bracket_elems(b, c))).is_zero()
    assert (bracket_elems(a.scale(r), c) - bracket_elems(a, c).scale(r)).is_zero()
    assert (bracket_elems(a, b) - bracket_elems(b, a).scale(-1)).is_zero()


@settings(deadline=None)
@given(elems(TRUNC + 2), INDICES, INDICES)
def test_witt_identity_on_generated_elements(e, n, ell):
    # grades <= TRUNC see no term dropped at the cap TRUNC + 2
    lhs = ad_commutator(n, ell, e).restrict(TRUNC)
    rhs = L_action(n + ell, e).scale(ell - n).restrict(TRUNC)
    assert lhs == rhs


@settings(deadline=None)
@given(st.dictionaries(INDICES, RATS, max_size=4), INDICES)
def test_L_action_is_diagonal_on_normalized_generators(coeffs, n):
    """[L_n, sum r_m y_m] = sum m r_m y_{n+m} on grades <= TRUNC."""
    e = VertexElem({}, TRUNC + 1)
    want = VertexElem({}, TRUNC + 1)
    for m, r in coeffs.items():
        e = e + y_generator(m, TRUNC + 1).scale(r)
        want = want + y_generator(n + m, TRUNC + 1).scale(m * r)
    assert L_action(n, e).restrict(TRUNC) == want.restrict(TRUNC)


# ------------------------------------------------ Fraction-dict reference span
# The span operations on {(m, k): Fraction} dicts, written from the defining
# rules; VertexElem (integer numerators over one denominator) must agree.

def ref_clean(terms: dict, trunc: int) -> dict:
    return {mk: c for mk, c in terms.items() if c and mk[1] <= trunc}


def ref_add(a: dict, b: dict, trunc: int) -> dict:
    out = dict(a)
    for mk, c in b.items():
        out[mk] = out.get(mk, 0) + c
    return ref_clean(out, trunc)


def ref_L_action(n: int, a: dict, trunc: int) -> dict:
    out: dict = {}
    for (m, k), c in a.items():
        for mk, v in (((n + m, k), c * m), ((n + m + 2, k + 1), 2 * c)):
            out[mk] = out.get(mk, 0) + v
    return ref_clean(out, trunc)


def ref_bracket(a: dict, b: dict, K: int) -> dict:
    """{(j, g): coefficient of a_j (x) u^g}, odd j only (a_j = 0 for even j)."""
    out: dict = {}
    for (m, k), c1 in a.items():
        for (n, j), c2 in b.items():
            if k + j <= K and (m + n - 1) % 2:
                # [x_m, x_n] = (m - n) a_{m+n-1}, times u^{k+j}
                key = (m + n - 1, k + j)
                out[key] = out.get(key, 0) + (m - n) * c1 * c2
    return {jg: c for jg, c in out.items() if c}


NONZERO_RATS = RATS.filter(bool)
# scaled twice, so denominators are products that are not in lowest terms
SCALED = st.builds(lambda e, r, s: e.scale(r).scale(s), elems(), NONZERO_RATS, NONZERO_RATS)


@settings(deadline=None)
@given(SCALED, SCALED, RATS, INDICES, st.integers(0, TRUNC))
def test_span_operations_match_fraction_reference(a, b, r, n, grade):
    ta, tb = a.terms, b.terms
    assert (a + b).terms == ref_add(ta, tb, TRUNC)
    assert (a.restrict(grade) + b).terms == ref_add(ref_clean(ta, grade), tb, TRUNC)
    assert a.scale(r).terms == ref_clean({mk: c * r for mk, c in ta.items()}, TRUNC)
    assert L_action(n, a).terms == ref_L_action(n, ta, TRUNC)
    assert a.restrict(grade).terms == ref_clean(ta, grade)
    assert type(a.restrict(grade)) is VertexElem and a.restrict(grade).trunc == a.trunc
    assert (a == b) == (ta == tb)
    assert a == VertexElem(ta, TRUNC) and VertexElem(ta, TRUNC) == a
    assert canonical(a + b) and canonical(L_action(n, a))


@settings(deadline=None)
@given(SCALED, SCALED)
def test_bracket_elems_matches_pairwise_reference(a, b):
    got = bracket_elems(a, b)
    want = ref_bracket(a.terms, b.terms, TRUNC)
    assert type(got) is SparseLaurent
    assert got.terms == want and got == SparseLaurent(want)


@settings(deadline=None)
@given(SCALED, SCALED, st.integers(-1, 2 * TRUNC + 1))
def test_restrict_matches_dict_filter_on_the_central_part(a, b, grade):
    """SparseLaurent.restrict keeps the terms whose last exponent, the central
    part's u-grade, is <= grade (the span's restrict is checked in
    test_span_operations_match_fraction_reference)."""
    C = bracket_elems(a, b).scale(Fraction(1, 2))
    R = C.restrict(grade)
    assert type(R) is SparseLaurent
    assert R.terms == {e: c for e, c in C.terms.items() if e[1] <= grade}


def test_y_generator_matches_its_defining_sum():
    for m in (-2, 0, 3):
        for K in (0, 1, 5):
            want = {(m + 2 * k, k): Fraction((-1) ** k, math.factorial(k)) for k in range(K + 1)}
            assert y_generator(m, K).terms == want


# ------------------------------------------- the span-level sweep as reference
# The reference builds, restricts, scales and compares VertexElem values for
# both orders of every pair; _commutator_sweep compares numerator dicts and
# checks each unordered pair once, and must reach the same verdict.

def span_sweep_verdicts(probes: list, R: int, K: int) -> list:
    """Per probe, {(m, n): verdict} for every ordered pair, every action
    formed through vx.L_action (so a patched action reaches it too)."""
    idx = range(-R, R + 1)
    out = []
    for p in probes:
        one = {j: vx.L_action(j, p) for j in range(-2 * R, 2 * R + 1)}
        two = {(a, b): vx.L_action(a, one[b]).restrict(K) for a in idx for b in idx}
        out.append({(m, n): two[(m, n)] + two[(n, m)].scale(-1)
                    == one[m + n].scale(n - m).restrict(K) for m in idx for n in idx})
    return out


def m_squared_action(n: int, e: VertexElem) -> VertexElem:
    """[L_n, .] with the coefficient c m^2 in place of c m: not affine in m, so
    the commutators do not close.  A shifted m, or another constant than 2 in
    the u-raising term, leaves the Witt law true and is no mutation of it.
    Like the Witt action, it keeps its input's denominator."""
    out: dict = {}
    for (m, k), c in e.num.items():
        if m:
            out[(n + m, k)] = out.get((n + m, k), 0) + c * m * m
        if k < e.trunc:
            key = (n + m + 2, k + 1)
            out[key] = out.get(key, 0) + 2 * c
    return VertexElem(out, e.trunc).scale(Fraction(1, e.den))


PROBES = st.lists(st.builds(lambda e, r: e.scale(r), elems(TRUNC + 2), NONZERO_RATS),
                  min_size=1, max_size=3)


def top_sum_doubled_action(real, R: int):
    """The Witt action with L_{2R-1} doubled: for R >= 2 only the pair
    (R - 1, R) reaches L_{2R-1}, so only that pair's check fails."""
    return lambda n, e: real(n, e).scale(2) if n == 2 * R - 1 else real(n, e)


@settings(deadline=None)
@given(PROBES, st.integers(1, 3), st.integers(0, TRUNC),
       st.sampled_from(["witt", "m-squared", "squared-index", "top-sum-doubled"]))
def test_numerator_sweep_equals_the_span_level_sweep(probes, R, K, action):
    """Both orders of every pair give the same verdict, and the numerator
    sweep's verdict is their all(), under the Witt action and three broken
    ones."""
    actions = {"witt": vx.L_action, "m-squared": m_squared_action,
               "squared-index": squared_index_action(vx.L_action),
               "top-sum-doubled": top_sum_doubled_action(vx.L_action, R)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vx, "L_action", actions[action])
        verdicts = span_sweep_verdicts(probes, R, K)
        got = vx._commutator_sweep(probes, R, K)
    assert all(v[(m, n)] == v[(n, m)] for v in verdicts for m, n in v)
    assert got == all(all(v.values()) for v in verdicts)


def test_sweeps_fail_under_an_action_not_affine_in_m(monkeypatch):
    monkeypatch.setattr(vx, "L_action", m_squared_action)
    assert not witt_identity_check(3, K=6)
    assert not k_centrality_check(K=6)


# ------------------------------------------- the sweeps form no grade above K

def recording_action(real, seen: list):
    """real, recording (highest grade, cap) of each output."""
    def action(n, e):
        out = real(n, e)
        seen.append((max((k for _, k in out.num), default=-1), out.trunc))
        return out
    return action


def test_witt_and_k_centrality_sweeps_form_no_grade_above_K(monkeypatch):
    seen = []
    monkeypatch.setattr(vx, "L_action", recording_action(vx.L_action, seen))
    for check in (lambda: witt_identity_check(3, 6), lambda: k_centrality_check(6)):
        seen.clear()
        assert check()
        assert seen and all(g <= 6 and cap == 6 for g, cap in seen)


def test_a_probe_below_K_keeps_its_own_cap(monkeypatch):
    seen = []
    monkeypatch.setattr(vx, "L_action", recording_action(vx.L_action, seen))
    probes = [x_elem(1, 2), y_generator(-1, 2)]
    assert vx._commutator_sweep(probes, 2, 5)
    assert seen and all(g <= 2 and cap == 2 for g, cap in seen)


@settings(deadline=None)
@given(PROBES, st.integers(1, 3), st.integers(0, TRUNC + 4))
def test_sweep_on_drawn_probes_forms_no_grade_above_K(probes, R, K):
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vx, "L_action", recording_action(vx.L_action, seen))
        vx._commutator_sweep(probes, R, K)
    cap = min(TRUNC + 2, K)
    assert seen and all(g <= cap and c == cap for g, c in seen)


def m_squared_at_grade(K: int):
    """The Witt action except at u-grade K, where the x-coefficient is c m^2
    in place of c m; it keeps its input's denominator."""
    def action(n, e):
        out: dict = {}
        for (m, k), c in e.num.items():
            if m:
                out[(n + m, k)] = out.get((n + m, k), 0) + c * (m * m if k == K else m)
            if k < e.trunc:
                key = (n + m + 2, k + 1)
                out[key] = out.get(key, 0) + 2 * c
        return VertexElem(out, e.trunc).scale(Fraction(1, e.den))
    return action


def test_k_centrality_sees_a_fault_at_the_compared_grade_only(monkeypatch):
    """Wrong only at grade 6, the action fails the check at K = 6, so a sweep
    capped below K cannot pass it, and passes at K = 5, below the fault."""
    monkeypatch.setattr(vx, "L_action", m_squared_at_grade(6))
    assert not k_centrality_check(6)
    assert k_centrality_check(5)
