"""Jacobi theta functions as bilateral series of deformed exponentials.

With q = exp(-tau) and Re tau > 0:

    theta1 = (1/i) sum (-1)^n q^{(n+1/2)^2} e^{(2n+1)iw}
    theta2 =       sum        q^{(n+1/2)^2} e^{(2n+1)iw}
    theta3 =       sum        q^{n^2}       e^{2niw}
    theta4 =       sum (-1)^n q^{n^2}       e^{2niw}

The same objects arise as Gaussian combs (delta_sum_representation) and as
differences of one-sided geometric inverses; both routes are provided for
cross-checks.  All evaluators accept complex w and run over float complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationFailure
from .numeric import cabs, cexp, csqrt, to_complex


# Largest truncation order theta_eval starts from: about 3.5x the order at
# tau = 1e-6 (5.7e3 at the default tol 1e-14).
THETA_TERM_BUDGET = 20_000


def _require_right_halfplane(tau):
    if to_complex(tau).real <= 0:
        raise DomainError(f"Re tau must be positive, got {tau}")


def truncation_order(tau, tol) -> int:
    """Smallest N with the |q|^(N^2) tail below tol, plus safety margin;
    raises TruncationFailure when N exceeds THETA_TERM_BUDGET."""
    re = to_complex(tau).real
    n = math.sqrt(max(-math.log(tol), 1.0) / re)
    if not n + 2 <= THETA_TERM_BUDGET:
        raise TruncationFailure(f"theta series needs {n:.3g} terms at tau={tau}, more than "
                                f"THETA_TERM_BUDGET = {THETA_TERM_BUDGET}")
    return math.ceil(n) + 2


@dataclass(frozen=True)
class ThetaSeries:
    kind: int
    tau: complex
    trunc: int
    tol: float = 1e-14

    def __post_init__(self):
        if self.kind not in (1, 2, 3, 4):
            raise DomainError(f"kind must be 1..4, got {self.kind}")
        _require_right_halfplane(self.tau)

    @property
    def q(self):
        return cexp(-self.tau)

    def __call__(self, w):
        return theta_eval(self.kind, w, self.tau, self.tol, self.trunc)


def _term(kind: int, n: int, w, tau):
    if kind in (3, 4):
        k = 2 * n
        val = cexp(-(n * n) * tau + 1j * k * w)
        if kind == 4 and n % 2:
            val = -val
        return val
    k = 2 * n + 1
    val = cexp(-(k * k) * tau / 4 + 1j * k * w)
    if kind == 1:
        val = val / 1j
        if n % 2:
            val = -val
    return val


def theta_eval(kind: int, w, tau, tol: float = 1e-14, n_start: int | None = None):
    """Truncated bilateral sum with adaptive tail control (complex w allowed)."""
    if kind not in (1, 2, 3, 4):
        raise DomainError(f"kind must be 1..4, got {kind}")
    _require_right_halfplane(tau)
    n0 = n_start if n_start is not None else truncation_order(tau, tol)
    acc = _term(kind, 0, w, tau)
    n = 1
    quiet = 0
    while True:
        t = _term(kind, n, w, tau) + _term(kind, -n, w, tau)
        acc = acc + t
        quiet = quiet + 1 if cabs(t) < tol else 0
        if n >= n0 and quiet >= 3:
            return acc
        n += 1
        if n > 40 * (n0 + 4):
            raise TruncationFailure(f"theta series did not settle by n={n}")


def quasi_periodicity_residual(kind: int, w, tau, tol: float = 1e-14) -> float:
    """|e^{2iw - tau} theta(w + i tau) -/+ theta(w)| ; sign +1 for kinds 2,3, -1 for 1,4."""
    sign = 1 if kind in (2, 3) else -1
    lhs = cexp(2j * w - tau) * theta_eval(kind, w + 1j * tau, tau, tol)
    rhs = sign * theta_eval(kind, w, tau, tol)
    return cabs(lhs - rhs)


def imaginary_transform_residual(w, tau, tol: float = 1e-14) -> float:
    """theta3(w, tau) vs sqrt(pi/tau) exp(-w^2/tau) theta3(pi w/(i tau), pi^2/tau)."""
    _require_right_halfplane(tau)
    tau2 = math.pi * math.pi / tau
    _require_right_halfplane(tau2)
    lhs = theta_eval(3, w, tau, tol)
    w2 = math.pi * w / (1j * tau)
    rhs = csqrt(math.pi / tau) * cexp(-w * w / tau) * theta_eval(3, w2, tau2, tol)
    return cabs(lhs - rhs)


def jacobi_relation_residual(tau, tol: float = 1e-16) -> float:
    """theta3(0, tau) = sqrt(pi/tau) theta3(0, pi^2/tau)."""
    return imaginary_transform_residual(0.0, tau, tol)


def delta_sum_representation(w, tau, tol: float = 1e-14):
    """Gaussian comb  sqrt(pi/tau) sum_n exp(-(w + pi n)^2 / tau); equals theta3."""
    _require_right_halfplane(tau)
    pref = csqrt(math.pi / tau)
    acc = cexp(-(w * w) / tau)
    n = 1
    quiet = 0
    while True:
        t = cexp(-((w + math.pi * n) ** 2) / tau) + cexp(-((w - math.pi * n) ** 2) / tau)
        acc = acc + t
        quiet = quiet + 1 if cabs(pref * t) < tol else 0
        if quiet >= 3:
            return pref * acc
        n += 1
        if n > 10000:
            raise TruncationFailure("Gaussian comb did not settle")


def theta_eigen_residual(kind: int, tau, w_grid, tol: float = 1e-14) -> float:
    """Left product with e_*^{2iw} fixes theta2/theta3 and negates theta1/theta4.

    Realized through the translation action (s = i):
    e_*^{2iw} * f = e^{2iw - tau} f(w + i tau)."""
    from .starexp import translate_action

    sign = 1 if kind in (2, 3) else -1
    f = lambda z: theta_eval(kind, z, tau, tol)  # noqa: E731
    acted = translate_action(1j, f, tau)
    worst = 0.0
    for w in w_grid:
        lhs = acted(w)
        rhs = sign * f(w)
        worst = max(worst, cabs(lhs - rhs))
    return worst


def geometric_inverse_sum(sign: int, side: str, tau, w, n_terms: int):
    """One-sided geometric inverses of (1 -/+ e_*^{2iw}) in tau-expression.

    sign=+1: inverses of 1 - e_*^{2iw};  sign=-1: of 1 + e_*^{2iw} (alternating).
    side '+': sum_{n>=0} (+-1)^n e_*^{2niw};  side '-': -sum_{n>=1} (+-1)^n e_*^{-2niw}.
    """
    acc = 0.0 + 0.0j
    if side == "+":
        for n in range(n_terms):
            c = 1.0 if sign > 0 else (-1.0) ** n
            acc += c * cexp(-(n * n) * tau + 2j * n * w)
    else:
        for n in range(1, n_terms + 1):
            c = 1.0 if sign > 0 else (-1.0) ** n
            acc -= c * cexp(-(n * n) * tau - 2j * n * w)
    return acc


def theta3_from_inverses(w, tau, n_terms: int = 40):
    """theta3 = (1 - e_*^{2iw})^{-1}_{*+} - (1 - e_*^{2iw})^{-1}_{*-}."""
    return geometric_inverse_sum(+1, "+", tau, w, n_terms) \
        - geometric_inverse_sum(+1, "-", tau, w, n_terms)


def theta4_from_inverses(w, tau, n_terms: int = 40):
    return geometric_inverse_sum(-1, "+", tau, w, n_terms) \
        - geometric_inverse_sum(-1, "-", tau, w, n_terms)


def theta1_from_inverses(w, tau, n_terms: int = 40):
    """2i theta1 = (cos_* w)^{-1}_{*+} - (cos_* w)^{-1}_{*-}."""
    plus = 0.0 + 0.0j
    minus = 0.0 + 0.0j
    for n in range(n_terms):
        k = 2 * n + 1
        c = (-1.0) ** n * 2.0
        plus += c * cexp(-(k * k) * tau / 4 + 1j * k * w)
        minus += c * cexp(-(k * k) * tau / 4 - 1j * k * w)
    return (plus - minus) / 2j


def constant_coefficient_kernel(n_modes: int):
    """Kernel of the truncated operator f -> (e_*^{2iw} - 1) * f on coefficient
    vectors (c_{-N}, ..., c_N): interior constraints force c_{m-1} = c_m, so the
    kernel is one-dimensional and spanned by the constant vector.

    Returns (kernel dimension, normalized kernel vector)."""
    N = n_modes
    dim = 2 * N + 1
    rows = []
    for m in range(-N + 1, N + 1):
        r = np.zeros(dim)
        r[m - 1 + N] = 1.0
        r[m + N] = -1.0
        rows.append(r)
    A = np.array(rows)
    _, s, vt = np.linalg.svd(A)
    null_mask = np.concatenate([s, np.zeros(dim - len(s))]) < 1e-12
    kernel = vt[null_mask.nonzero()[0]]
    vec = kernel[0] if len(kernel) else np.zeros(dim)
    vec = vec / vec[N]
    return len(kernel), vec
