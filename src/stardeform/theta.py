"""Jacobi theta functions as bilateral series of deformed exponentials.

The tau-expression of e_*^{ikw} is e^{-k^2 tau/4 + ikw} (Re tau > 0).  Every such
series takes its terms from tau_basis over the k that lattice keeps: |k| <=
gaussian_halfwidth at rate Re tau/4 and growth max |Im w|, where a term has fallen
1e-16 below e^0.  gaussian_comb sums the same elements in the other expression,
e^{-(w + P n)^2/tau}, over the teeth inside quadrature.x_window.  A cut of more
than THETA_TERM_BUDGET terms raises TruncationFailure.

With q = exp(-tau):

    theta1 = (1/i) sum (-1)^n q^{(n+1/2)^2} e^{(2n+1)iw}
    theta2 =       sum        q^{(n+1/2)^2} e^{(2n+1)iw}
    theta3 =       sum        q^{n^2}       e^{2niw}
    theta4 =       sum (-1)^n q^{n^2}       e^{2niw}

theta3 is also a Gaussian comb (delta_sum_representation).  The one-sided
geometric inverses of 1 - e_*^{2iw} (geometric_inverse_sum) split theta3's own
series at k = 0, so their difference is theta3.  Every evaluator takes a
scalar w, complex allowed, or a 1-D grid of them.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import DomainError, TruncationFailure
from .numeric import exp_array
from .quadrature import gaussian_halfwidth, x_window

# Most terms one cut may keep.  The lattice Z reaches it near Re tau = 3.7e-7,
# theta3's even lattice near 9e-8.
THETA_TERM_BUDGET = 40_000
# Entries of one block of a basis or comb matrix; a longer grid runs in blocks.
_BLOCK = 1 << 16


def check_tau(tau):
    if complex(tau).real <= 0:
        raise DomainError(f"Re tau must be positive, got {tau}")


def _require_budget(count: float, what: str, tau):
    if not count <= THETA_TERM_BUDGET:
        raise TruncationFailure(f"{what} needs {count:.3g} terms at tau={tau}, more than "
                                f"THETA_TERM_BUDGET = {THETA_TERM_BUDGET}")


def _on_blocks(f, w, width: int):
    """f on a scalar w, or on a 1-D grid in blocks of about _BLOCK / width points."""
    w = np.asarray(w, complex)
    if w.ndim == 0:
        return complex(f(w))
    rows = max(1, _BLOCK // max(width, 1))
    return np.concatenate([f(w[i:i + rows]) for i in range(0, len(w), rows)])


def lattice(tau, w, step: int = 1, offset: int = 0):
    """The k = offset + step n, |k| <= gaussian_halfwidth(Re tau/4, max |Im w|), of a
    series of e^{-k^2 tau/4 + ikw} over the grid w, at most THETA_TERM_BUDGET."""
    check_tau(tau)
    K = gaussian_halfwidth(complex(tau).real / 4, float(np.abs(np.imag(w)).max()))
    _require_budget(2 * K / step + 1, "the lattice series", tau)
    n = np.arange(math.ceil((-K - offset) / step), math.floor((K - offset) / step) + 1)
    return step * n + offset


def tau_basis(k, tau, w):
    """The matrix e^{-k^2 tau/4 + ikw}, a row per point of the grid w (a vector for a
    scalar w), a column per k; DomainError where Re tau <= 0 or an entry is not finite."""
    check_tau(tau)
    k = np.asarray(k)
    return exp_array(lambda: -k * k * complex(tau) / 4
                     + np.multiply.outer(np.asarray(w, complex), 1j * k))


def lattice_sum(k, coef, tau, w):
    """sum_j coef_j e^{-k_j^2 tau/4 + i k_j w} on a scalar w or a grid."""
    return _on_blocks(lambda ws: tau_basis(k, tau, ws) @ coef, w, len(k))


def gaussian_comb(period: float, tau, w):
    """sum_n e^{-(w + period n)^2/tau} on a scalar w or a grid: the teeth period n
    inside x_window(-w, tau) of some grid point, at most THETA_TERM_BUDGET of them."""
    check_tau(tau)
    lo, hi = x_window(-np.asarray(w, complex), tau)
    lo, hi = float(np.min(lo)) / period, float(np.max(hi)) / period
    _require_budget(hi - lo + 1, "the Gaussian comb", tau)
    x = period * np.arange(math.ceil(lo), math.floor(hi) + 1)

    def teeth(ws):
        return exp_array(lambda: -np.add.outer(ws, x) ** 2 / complex(tau)).sum(axis=-1)

    return _on_blocks(teeth, w, len(x))


def theta_eval(kind: int, w, tau):
    """theta_kind on a scalar w (a complex result) or a grid (an array)."""
    if kind not in (1, 2, 3, 4):
        raise DomainError(f"kind must be 1..4, got {kind}")
    k = lattice(tau, w, 2, 1 if kind in (1, 2) else 0)
    alt = 1.0 - 2.0 * (k // 2 % 2)          # (-1)^n for k = 2n or 2n + 1
    coef = -1j * alt if kind == 1 else alt if kind == 4 else np.ones(len(k))
    return lattice_sum(k, coef, tau, w)


def quasi_periodicity_residual(kind: int, w, tau):
    """|e^{2iw - tau} theta(w + i tau) -/+ theta(w)| at each w; sign +1 for kinds 2,3,
    -1 for 1,4.  The factor is the tau-expression of e_*^{2iw}."""
    sign = 1 if kind in (2, 3) else -1
    w = np.asarray(w, complex)
    lhs = tau_basis([2], tau, w)[..., 0] * theta_eval(kind, w + 1j * tau, tau)
    return np.abs(lhs - sign * theta_eval(kind, w, tau))


def imaginary_transform_residual(w, tau):
    """|theta3(w, tau) - sqrt(pi/tau) exp(-w^2/tau) theta3(pi w/(i tau), pi^2/tau)|
    at each w."""
    w = np.asarray(w, complex)
    lhs = theta_eval(3, w, tau)
    rhs = cmath.sqrt(math.pi / tau) * exp_array(lambda: -w * w / tau) \
        * theta_eval(3, math.pi * w / (1j * tau), math.pi * math.pi / tau)
    return np.abs(lhs - rhs)


def jacobi_relation_residual(tau) -> float:
    """theta3(0, tau) = sqrt(pi/tau) theta3(0, pi^2/tau)."""
    return float(imaginary_transform_residual(0.0, tau))


def jacobi_relation_rounding(tau) -> float:
    """A rounding bound carried with the two sums of jacobi_relation_residual
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):

        eps (S(tau) + |sqrt(pi/tau)| S(pi^2/tau)),
        S(t) = sum_k (1 + |z_k|) |e^{z_k}|,  z_k = -k^2 t/4,

    over the terms e^{z_k} of theta3(0, t).  An exponent is formed with a
    relative error of order eps, which its term inherits as eps |z_k|, and each
    addition adds eps |term|.  Near Re tau = 0.01 with |Im tau| >= 17 the
    transformed side sums about 2,000 terms whose phases reach 1e5 rad, and
    this bound exceeds 1e-12; at moderate tau it is below 1e-14."""
    def carried(t):
        k = lattice(t, 0.0, 2)
        z = -k * k * complex(t) / 4
        return float(np.sum((1 + np.abs(z)) * np.exp(z.real)))

    return sys.float_info.epsilon * (carried(tau) + abs(cmath.sqrt(math.pi / tau))
                                     * carried(math.pi * math.pi / tau))


def delta_sum_representation(w, tau):
    """Gaussian comb  sqrt(pi/tau) sum_n exp(-(w + pi n)^2 / tau); equals theta3."""
    return gaussian_comb(math.pi, tau, w) * cmath.sqrt(math.pi / tau)


def geometric_inverse_sum(side: str, tau, w):
    """One-sided geometric inverses of 1 - e_*^{2iw} in tau-expression, on a
    scalar w or a grid, over the even lattice's cut.

    side '+': sum_{n>=0} e_*^{2niw};  side '-': -sum_{n>=1} e_*^{-2niw}.
    """
    k = lattice(tau, w, 2)
    k = k[k >= 0] if side == "+" else k[k < 0]
    return lattice_sum(k, np.full(len(k), 1.0 if side == "+" else -1.0), tau, w)
