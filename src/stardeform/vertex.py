"""Truncated formal bracket system: loop-algebra generators, Witt action,
normalized generators, central constraints.

Generators x_m carry brackets [x_m, x_n] = (m - n) a_{m+n-1} with values in the
coefficient ring (exact polynomials in nu, w^2, 1/tau times the formal unit
gamma standing for e^{nu/tau} (-tau)^{-1/2} e^{-w^2/tau}); the operators L_n
act by [L_n, x_m (x) u^k] = m x_{n+m} (x) u^k + 2 x_{n+m+2} (x) u^{k+1}, where
u is the formal star power of the quadratic element.  The action and the
normalized generators only multiply by rationals, so span elements are
rational combinations of x_m (x) u^k; ring values appear only in the central
part returned by bracket_elems.  The u-grade cap K is the only approximation;
all coefficients are exact.

A span element stores integer numerators over one positive denominator.  The
action multiplies numerators by ints and keeps the denominator, sums work over
the lcm of the two denominators, and equality cross-multiplies, so no
operation on the span pays a gcd per coefficient.  bracket_elems sums its
pairs in ints per grade and index and divides by the product of the two
denominators once, in the coefficient ring.

Composition-order convention: the operator commutator ad(L_n)ad(L_l) -
ad(L_l)ad(L_n) equals (l - n) ad(L_{n+l}) exactly on the span (the opposite
order gives (n - l)); checks below state the order they use explicitly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import TruncationFailure
from .exact import QC, SparseLaurent

# Highest u-grade budget K that central_constraint_check and
# k_centrality_check accept.  The central check costs about K^2.5 (49
# brackets of K-term generators whose ring values grow with K); at this
# budget it takes 2.6-3.7 s on a 2-core x86-64 host (Python 3.11), and
# k_centrality_check, which forms 62 actions on each of its 14 probes,
# 0.2 s.  witt_identity_check reaches at most grade 2 above its input, so its
# cost does not grow with K (15 ms at R = 4) and it has no budget.
GRADE_BUDGET = 128
INDEX_MAX = 3        # generator indices |l| of the central, K-centrality, Jacobi checks
EIGEN_GRADE = 6      # grades y_eigen_defect compares
XX_CAP = 6           # ring cap of bracket_xx
# truncation_stability: the two u-grade budgets, indices |l| <= 2, ring cap 12
STABILITY_GRADES, STABILITY_INDEX_MAX, STABILITY_CAP = (6, 8), 2, 12


def _check_grade_budget(K: int) -> None:
    if K > GRADE_BUDGET:
        raise TruncationFailure(f"u-grade budget K = {K} exceeds GRADE_BUDGET = {GRADE_BUDGET}")


class CoeffRing(SparseLaurent):
    """Exact ring element: exponents (gamma, nu, w2, zinv) -> QC, where
    zinv stands for 1/tau and gamma for the transcendental envelope unit."""

    __slots__ = ()

    def evaluate(self, tau, nu, w) -> complex:
        """Numeric substitution; gamma evaluates through the principal branch."""
        from .residue import sqrt_minus_tau

        tau_c, nu_c, w_c = complex(tau), complex(nu), complex(w)
        gamma = cmath.exp(nu_c / tau_c - w_c * w_c / tau_c) / sqrt_minus_tau(tau_c)
        acc = 0j
        for (g, p, q, r), v in self.terms.items():
            acc += v.to_complex() * gamma ** g * nu_c ** p * (w_c * w_c) ** q \
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
        c = QC(Fraction((-1) ** q, math.factorial(q) * math.factorial(k + q)))
        terms[(1, k + q, q, 2 * q)] = c
    return CoeffRing(terms)


def bracket_xx(m: int, n: int) -> CoeffRing:
    """[x_m, x_n] = (m - n) a_{m+n-1}, a cut at XX_CAP."""
    return laurent_coefficient_ring(m + n - 1, XX_CAP).scale(m - n)


def _numerators(pairs, trunc: int) -> tuple:
    """(num, den) of the sum of c x_m (x) u^k over ((m, k), c) in pairs, c int
    or Fraction: grades above trunc and keys whose coefficients cancel are
    dropped, and den is the lcm of the denominators."""
    pairs = [(mk, c) for mk, c in pairs if mk[1] <= trunc]
    den = lcm(*(c.denominator for _, c in pairs))
    num: dict = {}
    for mk, c in pairs:
        num[mk] = num.get(mk, 0) + c.numerator * (den // c.denominator)
    return _nonzero(num), den


def _nonzero(num: dict) -> dict:
    return {mk: c for mk, c in num.items() if c}


class VertexElem:
    """Finite rational combination of basis symbols x_m (x) u^k with grades
    k <= trunc, stored as integer numerators over one positive denominator:
    num maps (m, k) to a nonzero int, and the coefficient of x_m (x) u^k is
    num[(m, k)] / den.  den is not reduced (the action multiplies numerators
    by ints and keeps it), so == compares by cross-multiplying.  terms is the
    read-only {(m, k): Fraction} view.  Values are immutable after
    construction."""

    __slots__ = ("num", "den", "trunc")

    def __init__(self, terms: dict | None = None, trunc: int = 6):
        """From {(m, k): int or Fraction}."""
        self.num, self.den = _numerators((terms or {}).items(), trunc)
        self.trunc = trunc

    @classmethod
    def _wrap(cls, num: dict, den: int, trunc: int) -> "VertexElem":
        """An element over numerators that are already nonzero ints."""
        out = object.__new__(cls)
        out.num, out.den, out.trunc = num, den, trunc
        return out

    @property
    def terms(self) -> dict:
        den = self.den
        return {mk: Fraction(c, den) for mk, c in self.num.items()}

    def __add__(self, other: "VertexElem") -> "VertexElem":
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        trunc = self.trunc
        out = {mk: c * s1 for mk, c in self.num.items()}
        for mk, c in other.num.items():
            if mk[1] <= trunc:
                out[mk] = out.get(mk, 0) + c * s2
        return VertexElem._wrap(_nonzero(out), d1 * s1, trunc)

    def scale(self, c) -> "VertexElem":
        """c times the element, for an int or Fraction c."""
        p = c.numerator
        if not p:
            return VertexElem._wrap({}, 1, self.trunc)
        return VertexElem._wrap({mk: v * p for mk, v in self.num.items()},
                                self.den * c.denominator, self.trunc)

    def restrict(self, grade: int) -> "VertexElem":
        return VertexElem._wrap({(m, k): v for (m, k), v in self.num.items() if k <= grade},
                                self.den, self.trunc)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, VertexElem):
            return False
        a, b = self.num, other.num
        if a.keys() != b.keys():
            return False
        d1, d2 = self.den, other.den
        return all(c * d2 == b[mk] * d1 for mk, c in a.items())

    def __repr__(self):
        return f"VertexElem({self.terms!r}, {self.trunc})"


def x_elem(m: int, K: int) -> VertexElem:
    return VertexElem._wrap({(m, 0): 1}, 1, K)


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
    return VertexElem._wrap(_nonzero(out), e.den, trunc)


def _commutator_sweep(probes: list, R: int, K: int) -> bool:
    """(L_m L_n - L_n L_m) p = (n - m) L_{m+n} p on grades <= K, for every probe
    p and every ordered pair |m|, |n| <= R; (m, n) and (n, m) are separate checks.

    L_action is linear and the checks share their actions, so each probe's
    L_j p (|j| <= 2R) and L_a L_b p (|a|, |b| <= R) are formed once."""
    idx = range(-R, R + 1)
    for p in probes:
        one = {j: L_action(j, p) for j in range(-2 * R, 2 * R + 1)}
        two = {(a, b): L_action(a, one[b]).restrict(K) for a in idx for b in idx}
        for m in idx:
            for n in idx:
                lhs = two[(m, n)] + two[(n, m)].scale(-1)
                if lhs != one[m + n].scale(n - m).restrict(K):
                    return False
    return True


def witt_identity_check(R: int, K: int) -> bool:
    """ad(L_m)ad(L_n) - ad(L_n)ad(L_m) = (n - m) ad(L_{m+n}) on every x_l, for
    |l|, |m|, |n| <= R, compared exactly on grades <= K (computed with
    headroom K+2)."""
    return _commutator_sweep([x_elem(ell, K + 2) for ell in range(-R, R + 1)], R, K)


def y_generator(m: int, K: int = 6) -> VertexElem:
    """Normalized generator: sum_{k<=K} (-1)^k/k! x_{m+2k} (x) u^k, over the
    denominator K!.

    This is the dressing that satisfies [L_n, y_m] = m y_{n+m} exactly at every
    grade (the x-index steps by 2 per u-grade, matching the action's shift)."""
    fK = math.factorial(K)
    return VertexElem._wrap({(m + 2 * k, k): (-1) ** k * (fK // math.factorial(k))
                             for k in range(K + 1)}, fK, K)


def y_eigen_defect(n: int, m: int) -> VertexElem:
    """[L_n, y_m] - m y_{n+m} restricted to grades <= EIGEN_GRADE (headroom inside)."""
    y = y_generator(m, EIGEN_GRADE + 1)
    lhs = L_action(n, y).restrict(EIGEN_GRADE)
    rhs = y_generator(n + m, EIGEN_GRADE + 1).scale(m).restrict(EIGEN_GRADE)
    return lhs + rhs.scale(-1)


def bracket_elems(e1: VertexElem, e2: VertexElem, cap: int | None = None) -> dict:
    """Central part [e1, e2]: dict grade -> CoeffRing (x-parts bracket pairwise,
    u-grades add; grades beyond the common cap are dropped).

    Since [x_m, x_n] = (m - n) a_{m+n-1}, the pairs are summed in ints per
    grade g and index s = m + n, and each a_{s-1} is scaled once by its sum
    over den1 den2."""
    K = min(e1.trunc, e2.trunc)
    qcap = cap if cap is not None else K + 2
    sums: dict = {}
    for (m, k), c1 in e1.num.items():
        for (n, j), c2 in e2.num.items():
            g = k + j
            # a_{m+n-1} vanishes for even m+n-1
            if g <= K and m != n and (m + n) % 2 == 0:
                key = (g, m + n)
                sums[key] = sums.get(key, 0) + (m - n) * c1 * c2
    den = e1.den * e2.den
    out: dict = {}
    for (g, s), c in sums.items():
        if not c:
            continue
        term = laurent_coefficient_ring(s - 1, qcap).scale(Fraction(c, den))
        cur = out.get(g)
        total = term if cur is None else cur + term
        if total.is_zero():
            out.pop(g, None)
        else:
            out[g] = total
    return out


def central_zero(central: dict) -> bool:
    return all(c.is_zero() for c in central.values())


def central_scale(central: dict, c) -> dict:
    return {g: v.scale(c) for g, v in central.items()}


def central_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for g, v in b.items():
        cur = out.get(g)
        s = v.scale(-1) if cur is None else cur - v
        if s.is_zero():
            out.pop(g, None)
        else:
            out[g] = s
    return out


def central_constraint_check(K: int = 6) -> dict:
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
    nonzero off-diagonal pairs are returned."""
    _check_grade_budget(K)
    rng = range(-INDEX_MAX, INDEX_MAX + 1)
    ys = {m: y_generator(m, K) for m in rng}
    C = {(l, m): bracket_elems(ys[l], ys[m]) for l in rng for m in rng}
    c1 = C[(-1, 1)]
    # closed form of c_1 for cross-checking
    c1_closed = {g: laurent_coefficient_ring(2 * g - 1, K + 2)
                 .scale(Fraction(-2 * (-2) ** g, math.factorial(g))) for g in range(K + 1)}
    offdiag_nonzero = [(l, m) for l in rng for m in rng
                       if l + m != 0 and not central_zero(C[(l, m)])]
    return {
        "antisymmetry": all(central_zero(central_sub(C[(l, m)], central_scale(C[(m, l)], -1)))
                            for l in rng for m in rng),
        "odd_parity_vanishing": all(central_zero(C[(l, m)])
                                    for l in rng for m in rng if (l + m) % 2),
        "diagonal_proportionality": all(central_zero(central_sub(C[(-m, m)], central_scale(c1, m)))
                                        for m in rng),
        "y0_self_bracket_zero": central_zero(C[(0, 0)]),
        "c1_closed_form_matches": central_zero(central_sub(c1, c1_closed)),
        "delta_support": not offdiag_nonzero,
        "offdiagonal_nonzero_pairs": offdiag_nonzero,
        "C": C,
    }


def k_centrality_check(K: int) -> bool:
    """K_{m,n} := adcomm(m,n) - (n - m) ad(L_{m+n}) annihilates the span, for
    |m|, |n| <= INDEX_MAX: checked on all y_l and x_l (|l| <= INDEX_MAX) up to
    grade K (computed with headroom K+2)."""
    _check_grade_budget(K)
    probes = [p for ell in range(-INDEX_MAX, INDEX_MAX + 1)
              for p in (y_generator(ell, K + 2), x_elem(ell, K + 2))]
    return _commutator_sweep(probes, INDEX_MAX, K)


def truncation_stability() -> bool:
    """Raising the u-grade budget from STABILITY_GRADES[0] to [1] does not change
    coefficients at grades <= the low budget (the coefficient-ring polynomial
    cap is separate and held fixed at STABILITY_CAP for the comparison)."""
    K_low, K_high = STABILITY_GRADES
    rng = range(-STABILITY_INDEX_MAX, STABILITY_INDEX_MAX + 1)
    for l in rng:
        for m in rng:
            a = bracket_elems(y_generator(l, K_low), y_generator(m, K_low), cap=STABILITY_CAP)
            b = bracket_elems(y_generator(l, K_high), y_generator(m, K_high), cap=STABILITY_CAP)
            for g, coeff in a.items():
                if g <= K_low and not central_zero({0: coeff - b.get(g, CoeffRing())}):
                    return False
    return True


def jacobi_x_check() -> bool:
    """Antisymmetry and Jacobi on the x-generators, |a|, |b| <= INDEX_MAX.

    [x_b, x_c] lands in the coefficient ring, which is central by construction
    (brackets of x with ring elements are zero), so every cyclic Jacobi term
    [x_a, [x_b, x_c]] vanishes identically; the content checked here is
    antisymmetry of the structure map and the Heisenberg specialization."""
    for a in range(-INDEX_MAX, INDEX_MAX + 1):
        for b in range(-INDEX_MAX, INDEX_MAX + 1):
            lhs = bracket_xx(a, b)
            rhs = bracket_xx(b, a).scale(-1)
            if not (lhs - rhs).is_zero():
                return False
            if a == b and not lhs.is_zero():
                return False
            # nu = w = 0 specialization: 2a delta_{a+b,0} / sqrt(-tau);
            # at tau = 1 the envelope unit evaluates to 1/i
            val = lhs.evaluate(1.0, 0.0, 0.0)
            want = 2 * a * (1 / 1j) if a + b == 0 else 0.0
            if abs(val - want) > 1e-14 * max(1.0, 2 * abs(a)):
                return False
    return True
