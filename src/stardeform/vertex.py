"""Truncated formal bracket system: loop-algebra generators, Witt action,
normalized generators, central constraints.

Generators x_m carry brackets [x_m, x_n] = (m - n) a_{m+n-1} with values in the
coefficient ring (exact polynomials in nu, w^2, 1/tau times the formal unit
gamma standing for e^{nu/tau} (-tau)^{-1/2} e^{-w^2/tau}); the operators L_n
act by [L_n, x_m (x) u^k] = m x_{n+m} (x) u^k + 2 x_{n+m+2} (x) u^{k+1}, where
u is the formal star power of the quadratic element.  The action and the
normalized generators only multiply by rationals, so span elements are
rational combinations of x_m (x) u^k, and central parts are rational
combinations of a_j (x) u^g.  Ring values, CoeffRing elements over
(gamma, nu, w2, zinv), appear only in the gamma dictionary, which evaluates
laurent_coefficient_ring against the closed-form Laurent coefficients.
The u-grade cap K is the only approximation; all coefficients are exact.

A span element (VertexElem) is an exact.SparseLaurent over the exponents
(m, k), plus its grade cap.  The action multiplies numerators by ints and
keeps the denominator; sums work over the lcm of the two denominators and
equality cross-multiplies, as for every SparseLaurent, so no operation on the
span pays a gcd per coefficient.  Every action of a probe keeps the probe's
denominator, so the commutator sweep behind witt_identity_check and
k_centrality_check compares numerator dicts directly, and it checks each
unordered pair of operators once.  The action only raises u-grades, so grades
<= K of an action depend only on grades <= K of its input: the sweep cuts
each probe at the compared grade K once, and no action forms a grade that the
comparison would drop.  bracket_elems sums its pairs in ints per index j and
grade g into one SparseLaurent over (j, g) and den1 den2, the coefficients of
a_j (x) u^g; SparseLaurent.restrict cuts it, like a span element, at a u-grade.

Composition-order convention: the operator commutator ad(L_n)ad(L_l) -
ad(L_l)ad(L_n) equals (l - n) ad(L_{n+l}) exactly on the span (the opposite
order gives (n - l)); checks below state the order they use explicitly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .errors import TruncationFailure
from .exact import SparseLaurent, _lincomb, _nonzero

# Highest u-grade budget K that central_constraint_check and
# k_centrality_check accept.  The central check costs about K^2 (49 brackets,
# each a loop in ints over the pairs of two (K + 1)-term generators; 0.017,
# 0.068 and 0.23 s at K = 32, 64, 128 on a 2-core x86-64 host, Python 3.11), and
# k_centrality_check, which forms 53 actions on each of its 14 probes, takes
# 0.05 s at this budget.  witt_identity_check reaches at most grade 2 above its
# input, so its cost does not grow with K (2.6 ms at R = WITT_INDEX_MAX) and it
# has no budget.
GRADE_BUDGET = 128
INDEX_MAX = 3        # generator indices |l| of the central and K-centrality checks
WITT_INDEX_MAX = 4   # indices |l|, |m|, |n| of `vertex --check witt`
EIGEN_GRADE = 6      # grades y_eigen_defect compares
# truncation_stability: the two u-grade budgets and indices |l| <= 2
STABILITY_GRADES, STABILITY_INDEX_MAX = (6, 8), 2


def _check_grade_budget(K: int) -> None:
    if K > GRADE_BUDGET:
        raise TruncationFailure(f"u-grade budget K = {K} exceeds GRADE_BUDGET = {GRADE_BUDGET}")


class CoeffRing(SparseLaurent):
    """Exact ring element over the exponents (gamma, nu, w2, zinv), where zinv
    stands for 1/tau and gamma for the transcendental envelope unit."""

    __slots__ = ()

    def evaluate(self, tau, nu, w) -> complex:
        """Numeric substitution; gamma evaluates through the principal branch."""
        from .residue import sqrt_minus_tau

        tau_c, nu_c, w_c = complex(tau), complex(nu), complex(w)
        gamma = cmath.exp(nu_c / tau_c - w_c * w_c / tau_c) / sqrt_minus_tau(tau_c)
        acc = 0j
        for (g, p, q, r), v in self.terms.items():
            acc += complex(v) * gamma ** g * nu_c ** p * (w_c * w_c) ** q \
                * tau_c ** (-r)
        return acc


@lru_cache(maxsize=4096)
def laurent_coefficient_ring(j: int, cap: int) -> CoeffRing:
    """a_j in the coefficient ring; zero for even j; for j = 2k-1:

        gamma * sum_{q >= max(0,-k)}^{cap} (-1)^q nu^{k+q} w2^q zinv^{2q} / (q!(k+q)!).

    Cached per (j, cap), so callers share the returned element: every
    SparseLaurent operation returns an element over a fresh dict and no caller
    mutates one."""
    if j % 2 == 0:
        return CoeffRing()
    k = (j + 1) // 2
    terms = {}
    for q in range(max(0, -k), cap + 1):
        terms[(1, k + q, q, 2 * q)] = Fraction((-1) ** q,
                                               math.factorial(q) * math.factorial(k + q))
    return CoeffRing(terms)


class VertexElem(SparseLaurent):
    """Finite rational combination of basis symbols x_m (x) u^k with grades
    k <= trunc: an exact.SparseLaurent over the exponents (m, k), so the
    coefficient of x_m (x) u^k is num[(m, k)] / den.  The action multiplies
    numerators by ints and keeps den; sums, scale, ==, terms and restrict are
    SparseLaurent's.  trunc is the grade cap, carried by every result of a
    left operand."""

    __slots__ = ("trunc",)

    def __init__(self, terms: dict, trunc: int):
        """From {(m, k): int or Fraction}; grades above trunc are dropped."""
        super().__init__({mk: c for mk, c in terms.items() if mk[1] <= trunc})
        self.trunc = trunc

    def _wrap(self, num: dict, den: int) -> "VertexElem":
        out = object.__new__(VertexElem)
        out.num, out.den, out.trunc = num, den, self.trunc
        return out


def x_elem(m: int, K: int) -> VertexElem:
    return VertexElem({(m, 0): 1}, K)


def L_action(n: int, e: VertexElem) -> VertexElem:
    """[L_n, .] on the span: x_m (x) u^k -> m x_{n+m} (x) u^k + 2 x_{n+m+2} (x) u^{k+1}."""
    out: dict = {}
    trunc = e.trunc
    for (m, k), c in e.num.items():
        if m:
            key = (n + m, k)
            out[key] = out.get(key, 0) + c * m
        if k < trunc:
            key = (n + m + 2, k + 1)
            out[key] = out.get(key, 0) + 2 * c
    return e._wrap(_nonzero(out.items()), e.den)


def _commutator_sweep(probes: list, R: int, K: int) -> bool:
    """(L_m L_n - L_n L_m) p = (n - m) L_{m+n} p on grades <= K, for every probe
    p and every pair |m|, |n| <= R.

    The action only raises grades, so each probe is cut once to its grades
    <= min(p.trunc, K), with that as its cap, and no action forms a grade
    above K.  The (n, m) equation is the (m, n) equation times -1, and at
    m = n both sides vanish, so each pair m < n is checked once.  L_action is
    linear and keeps its input's denominator, so every action of one probe
    shares p.den and the two sides are compared as numerator dicts.  The
    checks share their actions, and each is formed once: a probe's L_j p for
    |j| < 2R (j = m + n or a single index) and L_a L_b p for |a|, |b| <= R
    with a != b."""
    idx = range(-R, R + 1)
    for p in probes:
        cap = min(p.trunc, K)
        p = p.restrict(cap)
        p.trunc = cap
        one = {j: L_action(j, p) for j in range(1 - 2 * R, 2 * R)}
        two = {(a, b): L_action(a, one[b]).num for a in idx for b in idx if a != b}
        for m in idx:
            for n in range(m + 1, R + 1):
                s = n - m
                want = {mk: c * s for mk, c in one[m + n].num.items()}
                if _lincomb(two[(m, n)], 1, two[(n, m)], -1) != want:
                    return False
    return True


def witt_identity_check(R: int, K: int) -> bool:
    """ad(L_m)ad(L_n) - ad(L_n)ad(L_m) = (n - m) ad(L_{m+n}) on every x_l, for
    |l|, |m|, |n| <= R, compared exactly on grades <= K."""
    return _commutator_sweep([x_elem(ell, K) for ell in range(-R, R + 1)], R, K)


def y_generator(m: int, K: int) -> VertexElem:
    """Normalized generator: sum_{k<=K} (-1)^k/k! x_{m+2k} (x) u^k, over the
    denominator K!.

    This is the dressing that satisfies [L_n, y_m] = m y_{n+m} exactly at every
    grade (the x-index steps by 2 per u-grade, matching the action's shift)."""
    fK = math.factorial(K)
    # the empty element at cap K wraps the sum's numerators over K!
    return VertexElem({}, K)._wrap({(m + 2 * k, k): (-1) ** k * (fK // math.factorial(k))
                                    for k in range(K + 1)}, fK)


def y_eigen_defect(n: int, m: int) -> VertexElem:
    """[L_n, y_m] - m y_{n+m} on grades <= EIGEN_GRADE, the generators' cap (the
    action only raises grades, so no higher grade reaches the compared ones)."""
    return L_action(n, y_generator(m, EIGEN_GRADE)) - y_generator(n + m, EIGEN_GRADE).scale(m)


def bracket_elems(e1: VertexElem, e2: VertexElem) -> SparseLaurent:
    """Central part [e1, e2] in the basis a_j (x) u^g: a SparseLaurent over
    (j, g) whose entry at (j, g) is the coefficient of a_j (x) u^g (x-parts
    bracket pairwise, u-grades add; grades beyond the common cap are dropped).

    Since [x_m, x_n] = (m - n) a_{m+n-1}, the pairs are summed in ints per
    index j = m + n - 1 and grade g, over den1 den2; no a_j is expanded."""
    K = min(e1.trunc, e2.trunc)
    sums: dict = {}
    for (m, k), c1 in e1.num.items():
        for (n, j), c2 in e2.num.items():
            g = k + j
            # a_{m+n-1} vanishes for even m+n-1
            if g <= K and m != n and (m + n) % 2 == 0:
                key = (m + n - 1, g)
                sums[key] = sums.get(key, 0) + (m - n) * c1 * c2
    return SparseLaurent()._wrap(_nonzero(sums.items()), e1.den * e2.den)


def central_constraint_check(K: int) -> dict:
    """Structure of C_{l,m} = [y_l, y_m] up to grade K, |l|, |m| <= INDEX_MAX.

    Verified exactly: antisymmetry; vanishing for odd l+m; the diagonal law
    c_m := C_{-m,m} = m c_1 with c_1 = C_{-1,1} = -2 sum_n ((-2)^n/n!)
    a_{2n-1} (x) u^n.  In general, since the dressing of y_generator has
    generating function e^{-t} and the (k - j) part of the index difference
    cancels by symmetry,

        C_{l,m} = (l - m) sum_{g<=K} ((-2)^g/g!) a_{l+m+2g-1} (x) u^g,

    which gives c_1 at (l, m) = (-1, 1).  Also reported: whether the
    off-diagonal C_{l,m} (l+m != 0, even) vanish -- they do NOT: for l != m
    the index l+m+2g-1 is odd and a_j is nonzero for odd j (e.g.
    [y_{-3}, y_1] = 8 gamma u at nu = w = 0), so delta-support fails; the
    nonzero off-diagonal pairs are returned.

    Every comparison reads the central parts in the a_j (x) u^g basis.  That
    decides the comparison of their ring values exactly at any ring cap of
    K + 2 or more: distinct a_j have disjoint exponent supports (the nu
    exponent minus the w2 exponent is (j + 1)/2), and no odd a_j vanishes at
    such a cap except a_{-7} at K = 0, which only the pair l = m = -3 could
    give, with coefficient l - m = 0."""
    _check_grade_budget(K)
    rng = range(-INDEX_MAX, INDEX_MAX + 1)
    ys = {m: y_generator(m, K) for m in rng}
    C = {(l, m): bracket_elems(ys[l], ys[m]) for l in rng for m in rng}
    c1 = C[(-1, 1)]
    # closed form of c_1 for cross-checking, over K!
    fK = math.factorial(K)
    c1_closed = SparseLaurent()._wrap({(2 * g - 1, g): -2 * (-2) ** g * (fK // math.factorial(g))
                                       for g in range(K + 1)}, fK)
    offdiag_nonzero = [(l, m) for l in rng for m in rng
                       if l + m != 0 and not C[(l, m)].is_zero()]
    return {
        "antisymmetry": all((C[(l, m)] + C[(m, l)]).is_zero() for l in rng for m in rng),
        "odd_parity_vanishing": all(C[(l, m)].is_zero()
                                    for l in rng for m in rng if (l + m) % 2),
        "diagonal_proportionality": all(C[(-m, m)] == c1.scale(m) for m in rng),
        "y0_self_bracket_zero": C[(0, 0)].is_zero(),
        "c1_closed_form_matches": c1 == c1_closed,
        "delta_support": not offdiag_nonzero,
        "offdiagonal_nonzero_pairs": offdiag_nonzero,
        "C": C,
    }


def k_centrality_check(K: int) -> bool:
    """K_{m,n} := adcomm(m,n) - (n - m) ad(L_{m+n}) annihilates the span, for
    |m|, |n| <= INDEX_MAX: checked on all y_l and x_l (|l| <= INDEX_MAX) up to
    grade K.  The x_l half is witt_identity_check(INDEX_MAX, K)."""
    return y_centrality_check(K) and witt_identity_check(INDEX_MAX, K)


def y_centrality_check(K: int) -> bool:
    """k_centrality_check on the y_l alone, for a caller that holds the x_l half."""
    _check_grade_budget(K)
    return _commutator_sweep([y_generator(ell, K) for ell in range(-INDEX_MAX, INDEX_MAX + 1)],
                             INDEX_MAX, K)


def truncation_stability(low: dict) -> bool:
    """Raising the u-grade budget from STABILITY_GRADES[0] to [1] does not change
    coefficients at grades <= the low budget, including terms that either budget
    lacks; the central parts are compared in the a_j (x) u^g basis.

    low holds the brackets [y_l, y_m] at the low budget by (l, m), as
    central_constraint_check(STABILITY_GRADES[0])["C"] forms them."""
    K_low, K_high = STABILITY_GRADES
    rng = range(-STABILITY_INDEX_MAX, STABILITY_INDEX_MAX + 1)
    ys = {m: y_generator(m, K_high) for m in rng}
    for l in rng:
        for m in rng:
            if low[(l, m)] != bracket_elems(ys[l], ys[m]).restrict(K_low):
                return False
    return True

