"""Laurent/residue calculus of the quadratic exponential family at the
branching point z = 1/tau, boundary-value solutions, and the covariant flow.

On the double cover z = 1/tau + s^2 the density

    E(s) = e^{nu/tau} (-tau)^{-1/2} e^{-w^2/tau} (1/s) e^{nu s^2 - w^2/(tau^2 s^2)}

is single valued in s with only odd s-degrees; a_{2k-1} denotes its Laurent
coefficients.  Two independent code paths compute them: the double-series
closed form and trapezoid contour integrals (which inherit the principal
branch of sqrt(-tau), the same slit convention as the quadratic exponential).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Poly
from .errors import DegenerateBoundary, DomainError, NodeCountError, SingularPoint
from .exact import SparseLaurent
from .numeric import as_grid, cexp, worst_of
from .quadrature import integrate_segment_refined
from .starexp import GaussPoly, nearest_branch_sqrt, quadexp_star, star_poly_gauss

SERIES_TOL = 1e-18           # the Laurent series stop on a term below this
GAUSSPOLY_Q_MAX = 40         # laurent_gausspoly keeps the terms q <= 40
DEFECT_Q_MAX = 8             # and diffeqevol_exact_defect the terms q <= 8
CONTOUR_RADIUS, CONTOUR_NODES = 1.0, 256     # trapezoid contours, rechecked at 2x nodes
# The trapezoid sums converge geometrically in the node count, so more nodes buy
# no accuracy, only memory: `stardeform residue` at the budget peaks ~15 MB higher.
CONTOUR_NODE_BUDGET = 1 << 16

# ------------------------------------------------------------ closed forms

def sqrt_minus_tau(tau):
    """Principal sqrt(-tau) with the signed zero of the imaginary part
    normalized (so real positive tau lands above the cut, giving +i sqrt(tau))."""
    z = -complex(tau)
    return cmath.sqrt(complex(z.real, z.imag + 0.0))


def laurent_series_coefficient(k: int, nu, tau, w):
    """c_{2k-1}: the s^{2k-1} coefficient of (1/s) e^{nu s^2 - (w/tau)^2/s^2},

        sum_{q >= max(0,-k)} nu^{k+q} (-1)^q (w/tau)^{2q} / (q! (k+q)!).

    |k| is at most 170, the largest n with n! below the float maximum.
    """
    if abs(k) > 170:
        raise DomainError(f"|k| must be at most 170, got {k}")
    acc = 0.0 + 0.0j
    x = complex(w) / complex(tau) if tau else 0.0
    x2 = x * x
    nu_c = complex(nu)
    q = max(0, -k)
    term_scale = (-1.0) ** q
    while q < 400:
        term = term_scale * nu_c ** (k + q) * x2 ** q \
            / (math.factorial(q) * math.factorial(k + q))
        acc += term
        if q > max(2, -k + 2) and abs(term) < SERIES_TOL * max(1.0, abs(acc)):
            break
        q += 1
        term_scale = -term_scale
    return acc


def laurent_coeff_closed(k: int, nu, tau, w):
    """a_{2k-1}(nu, tau, w) in closed form (principal sqrt(-tau)); raises
    DomainError when it is outside the float range."""
    tau_c = complex(tau)
    if tau_c == 0:
        raise DomainError("tau must be nonzero")
    try:
        pref = cexp(complex(nu) / tau_c - complex(w) ** 2 / tau_c) / sqrt_minus_tau(tau_c)
        value = pref * laurent_series_coefficient(k, nu, tau, w)
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise DomainError(f"a_{2 * k - 1} at nu={nu}, tau={tau}, w={w} is outside the float range")


def laurent_gausspoly(k: int, nu, tau) -> GaussPoly:
    """a_{2k-1} as a GaussPoly: polynomial in w^2 times the Gaussian envelope;
    raises DomainError when a coefficient is outside the float range."""
    tau_c, nu_c = complex(tau), complex(nu)
    coeffs = {}
    q = max(0, -k)
    while q <= GAUSSPOLY_Q_MAX:
        try:
            c = (-1.0) ** q * nu_c ** (k + q) / (math.factorial(q) * math.factorial(k + q)) \
                / tau_c ** (2 * q)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"a_{2 * k - 1} at nu={nu}, tau={tau} is outside the float "
                              "range") from None
        coeffs[2 * q] = c
        if q > max(2, -k + 2) and abs(c) < SERIES_TOL:
            break
        q += 1
    deg = max(coeffs)
    poly = Poly([coeffs.get(i, 0.0) for i in range(deg + 1)])
    return GaussPoly(poly, -1 / tau_c, 0.0, 1 / sqrt_minus_tau(tau_c), nu_c / tau_c, 1)


# ------------------------------------------------------------ contour route

def _contour_nodes(radius: float, n_nodes: int):
    th = 2 * np.pi * np.arange(n_nodes) / n_nodes
    return radius * np.exp(1j * th)


def _density_on_nodes(s, nu_c, tau_c, w_c):
    """E(s) at the nodes s through the z-form: z = 1/tau + s^2 and
    1 - z tau = -s^2 tau, single valued in s; sqrt(-tau) is principal.  Raises
    DomainError where 1/tau is not a normal float or -s^2 tau overflows."""
    inv = 1 / tau_c
    with np.errstate(over="ignore", invalid="ignore"):
        denom = -s * s * tau_c
    if not (sys.float_info.min <= abs(inv) < math.inf and np.all(np.isfinite(denom))):
        raise DomainError(f"1/tau or s^2 tau at tau={tau_c} is outside the float range")
    z = inv + s * s
    return np.exp(z * nu_c) / (sqrt_minus_tau(tau_c) * s) * np.exp(z * w_c * w_c / denom)


def _contour_mean(p: int, nu, tau, w, radius: float, n_nodes: int):
    """mean over the nodes of E(s) s^p s, which is (1/2pi i) contour-integral
    s^p E(s) ds on |s| = radius, checked against twice the nodes.

    A sum that overflows to inf or nan (e.g. a radius so small that
    e^{w^2/(tau^2 s^2)} overflows), or that moves under node doubling, raises
    NodeCountError."""
    if not radius > 0:
        raise DomainError("radius must be positive")
    if not 1 <= n_nodes <= CONTOUR_NODE_BUDGET:
        raise DomainError(f"n_nodes must be in 1..{CONTOUR_NODE_BUDGET}, got {n_nodes}")
    tau_c, nu_c, w_c = complex(tau), complex(nu), complex(w)
    if tau_c == 0:
        raise DomainError("tau must be nonzero")

    def value(n):
        s = _contour_nodes(radius, n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = _density_on_nodes(s, nu_c, tau_c, w_c)
            return np.mean(f * s ** p * s)

    got, ref = value(n_nodes), value(2 * n_nodes)
    if not (cmath.isfinite(got) and cmath.isfinite(ref)):
        raise NodeCountError(f"contour sum is not finite at radius {radius} "
                             f"with {n_nodes} nodes")
    if abs(got - ref) > 1e-10 * max(1.0, abs(ref)):
        raise NodeCountError(f"contour integral not converged at {n_nodes} nodes")
    return got


def residue_contour(k: int, nu, tau, w, radius=CONTOUR_RADIUS, n_nodes=CONTOUR_NODES):
    """a_{2k-1} = (1/2pi i) contour-integral s^{-2k} E(s) ds on |s| = radius.

    The integrand is evaluated through the z-form with the substitution
    1 - z tau = -s^2 tau, which is single valued in s (the double cover
    trivializes the cut); sqrt(-tau) is principal."""
    return _contour_mean(-2 * k, nu, tau, w, radius, n_nodes)


def closed_contour_vanishing(nu, tau, w):
    """|contour-integral of :e_*^{z(nu+w-element)}: dz| around the branch point on
    the double cover (z = 1/tau + s^2, s once around; dz = 2s ds): the secondary
    residue is absent, so the integral vanishes.  It is 4 pi i times the would-be
    even coefficient a_{-2}, and every even coefficient a_{2j} (the mean with
    p = -2j - 1) vanishes in the same way."""
    return abs(4j * np.pi * _contour_mean(1, nu, tau, w, CONTOUR_RADIUS, CONTOUR_NODES))


def ladder_residual(k: int, nu, tau, w_grid) -> tuple:
    """(max |(nu + w-element^2) * a_{2k-1} - (k + 1/2) a_{2k+1}| on the grid, the left
    product by the finite product rule on the GaussPoly form; its rounding bound
    eps max (|(nu + tau/2) a_{2k-1}| + |w^2 * a_{2k-1}| + |rhs|), Higham ch. 3)."""
    tau_c, nu_c = complex(tau), complex(nu)
    a_lo, a_hi = laurent_gausspoly(k, nu, tau), laurent_gausspoly(k + 1, nu, tau)
    lhs = star_poly_gauss(Poly([nu_c + tau_c / 2, 0.0, 1.0]), a_lo, tau_c)
    ws = as_grid(w_grid)
    left, rhs, first = lhs(ws), (k + 0.5) * a_hi(ws), (nu_c + tau_c / 2) * a_lo(ws)
    sizes = np.abs(first) + np.abs(left - first) + np.abs(rhs)
    return float(np.abs(left - rhs).max()), sys.float_info.epsilon * float(sizes.max())


# ----------------------------------------------------- boundary-value pair

@dataclass(frozen=True)
class PhiPsi:
    """The even solution Phi of the quadratic eigen-equation built from the
    delta pair at +-alpha, pinned by value 1 and slope 0 at w = 0."""
    alpha: complex
    tau: complex
    a: complex          # coefficient of delta at +alpha (argument w + alpha)
    b: complex          # coefficient of delta at -alpha
    phi_parts: tuple    # (GaussPoly, GaussPoly) for Phi

    def phi(self, w):
        return self.phi_parts[0](w) + self.phi_parts[1](w)


def phi_psi(alpha, tau) -> PhiPsi:
    """Solve the 2x2 boundary system for Phi (value 1, slope 0) as a
    combination of the two shifted deltas."""
    from .distributions import delta_tau

    alpha_c, tau_c = complex(alpha), complex(tau)
    dp = delta_tau(alpha_c, tau_c)       # delta_*(w + alpha)
    dm = delta_tau(-alpha_c, tau_c)      # delta_*(w - alpha)
    v = np.array([dp(0.0), dm(0.0)])
    d = np.array([dp.diff()(0.0), dm.diff()(0.0)])
    M = np.array([v, d])
    # Hadamard's bound |det M| <= |row 1| |row 2| gives the scale
    if abs(np.linalg.det(M)) <= 1e-14 * float(np.prod(np.linalg.norm(M, axis=1))):
        raise DegenerateBoundary(f"boundary system singular at alpha={alpha}")
    ab_phi = np.linalg.solve(M, np.array([1.0, 0.0]))
    return PhiPsi(alpha_c, tau_c, complex(ab_phi[0]), complex(ab_phi[1]),
                  (dp.scaled(ab_phi[0]), dm.scaled(ab_phi[1])))


def semigroup_on_delta(t, alpha, tau, w_grid) -> float:
    """|quad-exponential(t) * delta_*(w+alpha) - e^{t alpha^2} delta_*(w+alpha)|.

    Computed by the mu-parameterized closed product, which is regular at
    t = 1/tau (removable singularity)."""
    from .distributions import delta_tau

    alpha_c, tau_c, t_c = complex(alpha), complex(tau), complex(t)
    d = delta_tau(alpha_c, tau_c)
    prod = quadexp_star(t_c, tau_c, d)
    ws = as_grid(w_grid)
    return float(np.abs(prod(ws) - cexp(t_c * alpha_c * alpha_c) * d(ws)).max())


def phi_group_action_residual(t, alpha, tau, w_grid) -> float:
    """quad-exponential(t) * Phi_alpha = e^{t alpha^2} Phi_alpha, all t
    (including t = 1/tau: the delta pair removes the singularity), and the pins
    Phi(0) = 1, Phi'(0) = 0: the action scales any combination of the pair, so
    only the pins see the boundary solve."""
    pp = phi_psi(alpha, tau)
    t_c, tau_c = complex(t), complex(tau)
    scale = cexp(t_c * complex(alpha) ** 2)
    ws = as_grid(w_grid)
    acted = quadexp_star(t_c, tau_c, pp.phi_parts[0])(ws) \
        + quadexp_star(t_c, tau_c, pp.phi_parts[1])(ws)
    slope = pp.phi_parts[0].diff()(0.0) + pp.phi_parts[1].diff()(0.0)
    return worst_of((float(np.abs(acted - scale * pp.phi(ws)).max()),
                     abs(pp.phi(0.0) - 1), abs(slope)))


# ------------------------------------------------------ orphan annihilation

def orphan_annihilation(t, k: int, nu, tau, w_grid) -> dict:
    """The t-family kills every Laurent coefficient away from t = 0:

      t != 0:  (1/2pi i) contour s^{-2k} :e_*^{(t + 1/tau + s^2)(...)}: ds -> 0
               with radius r < |t|/2 (the shifted branch point |s| = sqrt|t|
               lies outside), also rechecked at r/2;
      t = 0:   the bracket equals (k + 1/2) a_{2k+1} instead (ladder).

    Returns {"annihilation": max |integral| over the grid at r and r/2,
             "t_zero_values": (k+1/2) a_{2k+1} on the grid}."""
    tau_c, nu_c, t_c = complex(tau), complex(nu), complex(t)
    if t_c == 0:
        raise ValueError("t must be nonzero for the annihilation member")
    r0 = abs(t_c) / 2
    ws = as_grid(w_grid)[:, None]
    worst = 0.0
    for radius in (r0, r0 / 2):
        s = _contour_nodes(radius, CONTOUR_NODES)
        z = t_c + 1 / tau_c + s * s
        denom = 1 - z * tau_c
        # branch continued around the loop; winding of denom around 0 is zero
        root = nearest_branch_sqrt(denom, cmath.sqrt(denom[0]))
        if not abs(root[0] - root[-1]) <= abs(root[0] + root[-1]):
            raise SingularPoint("square-root branch does not close around the contour")
        f = np.exp(z * nu_c) / root * np.exp(z * ws * ws / denom)
        integrals = np.mean(f * s ** (-2 * k) * s, axis=1)
        worst = worst_of((worst, float(np.abs(integrals).max())))
    t_zero = (k + 0.5) * laurent_gausspoly(k + 1, nu, tau)(w_grid)
    return {"annihilation": worst, "t_zero_values": t_zero}


# -------------------------------------------------------- covariant calculus

def parallel_polynomial(k: int, m: int) -> SparseLaurent:
    """f_{k,m}(z, tau) = (m+k) z^m - m tau^k z^{m+k}; in the kernel of the
    surface derivative (z-slot partial restricted to tau = 1/z).  Axes: (z, tau)."""
    return SparseLaurent({(m, 0): m + k}) - SparseLaurent({(m + k, k): m})


def surface_derivative_exact(f: SparseLaurent) -> dict:
    """d/dz in the z slot, then restrict tau = 1/z; exact Laurent dict in z."""
    return {e: v for (e, _), v in f.d(0).restrict_inverse(1, 0).terms.items()}


def diffeqevol_exact_defect(k: int) -> SparseLaurent:
    """Exact symbolic defect of the covariant evolution equation for a_{2k-1}.

    Writing a = gamma(z,w) S(z,w,nu) with the envelope rules
        d_z gamma = (nu - w^2 + 1/(2z)) gamma,   d_w gamma = -2 z w gamma,
    the surface derivative of a minus the product (nu + w-element^2) * a reduces
    to gamma * [defect]; the returned element is that defect (zero = identity
    exact at every truncation order, here DEFECT_Q_MAX).  Axes: (z, w, nu)."""
    # S = sum_q (-1)^q /(q!(k+q)!) z^{2q} w^{2q} nu^{k+q}
    S = SparseLaurent({(2 * q, 2 * q, k + q):
                       Fraction((-1) ** q, math.factorial(q) * math.factorial(k + q))
                       for q in range(max(0, -k), DEFECT_Q_MAX + 1)})

    nu = SparseLaurent({(0, 0, 1): 1})
    w2 = SparseLaurent({(0, 2, 0): 1})
    half_zinv = SparseLaurent({(-1, 0, 0): Fraction(1, 2)})
    quarter_zinv2 = SparseLaurent({(-2, 0, 0): Fraction(1, 4)})

    dS_z = S.d(0)
    dS_w = S.d(1)
    d2S_w = dS_w.d(1)
    dg = nu - w2 + half_zinv                              # d_z gamma / gamma
    gw = SparseLaurent({(1, 1, 0): -2})                   # d_w gamma / gamma
    gww = SparseLaurent({(1, 0, 0): -2, (2, 2, 0): 4})    # d_w^2 gamma / gamma

    # surface derivative: (d_z + (1/4z^2) d_w^2) applied to gamma*S, over gamma
    lhs = dg * S + dS_z + quarter_zinv2 * (gww * S + 2 * gw * dS_w + d2S_w)

    # product side: (nu + w^2 + tau/2) A + tau w A' + (tau^2/4) A'' with tau = 1/z
    rhs = (nu + w2 + half_zinv) * S \
        + SparseLaurent({(-1, 1, 0): 1}) * (gw * S + dS_w) \
        + quarter_zinv2 * (gww * S + 2 * gw * dS_w + d2S_w)
    return lhs - rhs


# ------------------------------------------------------ covariant evolution

def evolution_family(H: Poly, nu):
    """Closed family F(z) = sqrt(z) e^{z(nu - w^2)} H(z w) as a GaussPoly-valued
    callable of z = 1/tau (principal sqrt; continuation handled by callers)."""
    nu_c = complex(nu)

    def F(z):
        z = complex(z)
        coeffs = [H.coeffs[j] * z ** j for j in range(len(H.coeffs))]
        return GaussPoly(Poly(coeffs), -z, 0.0, cmath.sqrt(z), z * nu_c, 1)

    def dF_dz(z):
        z = complex(z)
        P = [H.coeffs[j] * z ** j for j in range(len(H.coeffs))]
        dP = [H.coeffs[j] * j * z ** (j - 1) if j else 0.0
              for j in range(len(H.coeffs))]
        # d/dz [sqrt(z) e^{z nu} P(zw) e^{-z w^2}]
        #   = [ (1/(2z) + nu) P + dP/dz - w^2 P ] * envelope
        poly = Poly(dP) + Poly(P).scale(1 / (2 * z) + nu_c) \
            - Poly([0.0, 0.0, 1.0]) * Poly(P)
        return GaussPoly(poly, -z, 0.0, cmath.sqrt(z), z * nu_c, 1)

    return F, dF_dz


def covariant_evolution_residual(H: Poly, nu, z, w_grid) -> float:
    """Residual of the first-order surface equation

        d_z F = tau w d_w F + (w^2 + nu + tau/2) F,   tau = 1/z,

    for the closed family; derivatives analytic."""
    F, dF = evolution_family(H, nu)
    z = complex(z)
    tau = 1 / z
    f0 = F(z)
    lhs = dF(z)
    ws = as_grid(w_grid)
    vals = f0(ws)
    rhs = tau * ws * f0.diff()(ws) + (ws * ws + complex(nu) + tau / 2) * vals
    return float(np.abs(lhs(ws) - rhs).max()) / max(float(np.abs(vals).max()), 1e-300)


# ----------------------------------------------------- non-compact integrals

def gamma_path_integral(nu, tau, waypoints, w_grid):
    """integral of :e_*^{z(nu + w-element^2)}: dz along a polyline in z, branch
    of (1 - z tau)^{-1/2} continued from the first waypoint (principal there),
    with its first and second w-derivatives: rows F, F', F'' over the grid.

    Each segment is one quadrature of the three integrands together; the root
    at each later waypoint is continued from the segment's last node.  The rows
    are accepted jointly, so every row carries the tolerance 1e-12 * max(1,
    largest |entry| of the three): where F'' is much larger than F, F is held
    only to F'''s scale."""
    tau_c, nu_c = complex(tau), complex(nu)
    ws = as_grid(w_grid)[:, None]
    total = np.zeros((3, len(ws)), dtype=complex)
    root = cmath.sqrt(1 - complex(waypoints[0]) * tau_c)
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        last = []

        def f(zs):
            denoms = 1 - zs * tau_c
            roots = nearest_branch_sqrt(denoms, root)
            last.append(roots[-1])
            alpha = zs / denoms
            base = np.exp(zs * nu_c + alpha * ws ** 2) / roots
            slope = 2 * alpha * ws
            return np.stack([base, base * slope, base * (2 * alpha + slope ** 2)])

        total = total + integrate_segment_refined(f, complex(a), complex(b))
        root = complex(nearest_branch_sqrt([1 - complex(b) * tau_c], last[-1])[0])
    return total


def gamma_inverse_residual(nu, tau, waypoints, w_grid) -> float:
    """(nu + w-element^2) * integral = boundary term = 1 for a path from far
    left (Re z nu -> -inf) to 0; returns the max grid residual."""
    tau_c, nu_c = complex(tau), complex(nu)
    f0, f1, f2 = gamma_path_integral(nu, tau, waypoints, w_grid)
    ws = as_grid(w_grid)
    lhs = (nu_c + ws ** 2 + tau_c / 2) * f0 + tau_c * ws * f1 + tau_c ** 2 / 4 * f2
    return float(np.abs(lhs - 1.0).max())
