"""Gaussian-exponential family under the deformed product, with sheet tracking.

A GaussPoly represents   sheet * pref * exp(logamp) * p(w) * exp(alpha w^2 + beta w).

The family is closed under the deformed product, differentiation, argument
shifts, and the heat flow exp(theta d^2/dw^2); that flow implements pullback /
pushforward between parameter values and hence the product of two Gaussians.

The quadratic exponential element E(t) = (1-tau t)^{-1/2} exp(t w^2/(1-tau t))
is double valued in t with branch point at t = 1/tau; the sheet tag is fixed by
continuing sqrt(1 - tau t) from +1 at t = 0 along a caller-supplied polygonal path,
64 samples per segment, each root on the branch nearer the previous one (an exact
tie takes the principal root).  The slit of the principal branch runs from 1/tau
to infinity along arg = arg(1/tau), so "sheet" = (continued value) / (principal value).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import Poly
from .errors import SingularPoint, SingularProduct
from .numeric import cexp

SINGULAR_MARGIN = 1e-6
STEPS_PER_SEGMENT = 64
LEG_MARGIN = 0.15   # leg_path detours around branch points nearer its segment than this


@dataclass(frozen=True)
class GaussPoly:
    poly: Poly = field(default_factory=lambda: Poly.const(1))
    alpha: complex = 0.0
    beta: complex = 0.0
    pref: complex = 1.0
    logamp: complex = 0.0
    sheet: int = 1

    def __call__(self, w):
        return self.sheet * self.pref * cexp(self.logamp + self.alpha * w * w + self.beta * w) \
            * self.poly(w)

    def values(self, ws):
        """The values over an array of w, in one numpy pass."""
        return self.sheet * self.pref * np.exp(self.logamp + self.alpha * ws * ws
                                               + self.beta * ws) * self.poly(ws)

    def amp(self):
        """Overall scalar amplitude sheet*pref*exp(logamp)."""
        return self.sheet * self.pref * cexp(self.logamp)

    def diff(self) -> "GaussPoly":
        q = self.poly.deriv() + self.poly * Poly([self.beta, 2 * self.alpha])
        return replace(self, poly=q)

    def scaled(self, c) -> "GaussPoly":
        return replace(self, pref=self.pref * c)

    def shift_arg(self, c) -> "GaussPoly":
        """Replace w by w + c."""
        return replace(
            self,
            poly=self.poly.shift(c),
            beta=self.beta + 2 * self.alpha * c,
            logamp=self.logamp + self.alpha * c * c + self.beta * c,
        )

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def max_abs_on(self, ws) -> float:
        return max(abs(self(w)) for w in ws)


def gp_sub_on_grid(f: GaussPoly, g: GaussPoly, ws) -> float:
    """max |f - g| over the grid (the two need not share exponents)."""
    return max(abs(f(w) - g(w)) for w in ws)


def heat_apply(theta, g: GaussPoly) -> GaussPoly:
    """exp(theta d^2/dw^2) applied to a GaussPoly, in closed form.

    Base Gaussian:  (1-4 a theta)^{-1/2} exp((a w^2 + b w + theta b^2)/(1-4 a theta));
    polynomial prefactors go through the conjugated operator w + 2 theta d.
    """
    denom = 1 - 4 * g.alpha * theta
    if abs(complex(denom)) < SINGULAR_MARGIN:
        raise SingularProduct(f"heat flow denominator 1-4*alpha*theta ~ 0 (={denom})")
    alpha2 = g.alpha / denom
    beta2 = g.beta / denom
    logamp2 = g.logamp + theta * g.beta * g.beta / denom
    pref2 = g.pref / cmath.sqrt(denom)
    base = GaussPoly(Poly.const(1), alpha2, beta2, pref2, logamp2, g.sheet)
    if g.poly.degree <= 0:
        if g.poly.is_zero():
            return replace(base, poly=Poly())
        return replace(base, poly=Poly.const(g.poly.coeffs[0]))

    # Horner over the operator W = w + 2 theta d acting on poly * base-Gaussian
    def w_op(q: Poly) -> Poly:
        return Poly.x() * q + (q.deriv() + q * Poly([beta2, 2 * alpha2])).scale(2 * theta)

    cs = g.poly.coeffs
    q = Poly.const(cs[-1])
    for c in reversed(cs[:-1]):
        q = w_op(q) + Poly.const(c)
    return replace(base, poly=q)


def multiply_pointwise(f: GaussPoly, g: GaussPoly) -> GaussPoly:
    return GaussPoly(f.poly * g.poly, f.alpha + g.alpha, f.beta + g.beta,
                     f.pref * g.pref, f.logamp + g.logamp, f.sheet * g.sheet)


def gauss_star(f: GaussPoly, g: GaussPoly, tau) -> GaussPoly:
    """Deformed product on the Gaussian family via pullback-multiply-pushforward."""
    theta = tau / 4
    f0 = heat_apply(-theta, f)
    g0 = heat_apply(-theta, g)
    return heat_apply(theta, multiply_pointwise(f0, g0))


def star_exp_linear(s, tau) -> GaussPoly:
    """Deformed exponential of a linear argument: amplitude exp(s^2 tau/4), factor exp(s w)."""
    return GaussPoly(Poly.const(1), 0 * tau, s, 1.0, s * s * tau / 4, 1)


@dataclass(frozen=True)
class PathParam:
    """Polygonal path of waypoints in the t-plane, starting at 0 by convention."""

    waypoints: tuple

    def __init__(self, waypoints: Sequence[complex]):
        object.__setattr__(self, "waypoints", tuple(complex(w) for w in waypoints))

    @staticmethod
    def straight(t) -> "PathParam":
        return PathParam([0.0, complex(t)])

    def validate_avoids(self, point: complex):
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            if _segment_distance(point, a, b) < SINGULAR_MARGIN:
                raise SingularPoint(
                    f"path segment {a}->{b} passes within {SINGULAR_MARGIN} of {point}")


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).real * d.real + (p - a).imag * d.imag) / L2))
    return abs(p - (a + t * d))


def nearest_branch_sqrt(vals, prev) -> np.ndarray:
    """Square roots along a node sequence, each root on the branch nearer the
    root before it (prev for the first node); an exact tie takes the principal
    root.  Bit for bit the per-node loop

        r = cmath.sqrt(v); prev = r if abs(r - prev) <= abs(r + prev) else -r
    """
    # cmath.sqrt, not np.sqrt: the C library's csqrt rounds differently on the
    # imaginary axis, where leg_path's detour nodes can land, and at subnormals
    roots = np.fromiter(map(cmath.sqrt, vals), complex, len(vals))
    before = np.concatenate(([prev], roots[:-1]))
    with np.errstate(invalid="ignore"):         # inf - inf is nan, as in the loop
        d, e = roots - before, roots + before
    near = np.hypot(d.real, d.imag)     # np.hypot rounds as abs() does; np.abs does not
    far = np.hypot(e.real, e.imag)
    # the branch carries over where near < far and flips where near > far; a
    # tie restarts on the principal root and a nan on its negative, as the loop
    # does, so a restart at node r leaves node i flipped by the flips r..i
    keep = near <= far
    flips = np.logical_xor.accumulate(~keep)
    last = np.maximum.accumulate(np.where(keep == (far <= near), np.arange(len(roots)), 0))
    flips ^= np.concatenate(([False], flips))[last]
    return np.where(flips, -roots, roots)


def continue_sqrt(expr: Callable[[complex], complex], path: PathParam) -> complex:
    """Continuation of sqrt(expr(t)) along the path from its principal value at
    the first waypoint, through STEPS_PER_SEGMENT samples of each segment."""
    ts = [path.waypoints[0]] + [a + (b - a) * (j / STEPS_PER_SEGMENT)
                                for a, b in zip(path.waypoints[:-1], path.waypoints[1:])
                                for j in range(1, STEPS_PER_SEGMENT + 1)]
    vals = [expr(t) for t in ts]
    return complex(nearest_branch_sqrt(vals, cmath.sqrt(vals[0]))[-1])


def star_exp_quadratic(t, tau, path: PathParam | None = None) -> GaussPoly:
    """Deformed exponential of the quadratic element:

        (1 - tau t)^{-1/2} exp(t w^2 / (1 - tau t)),

    branch fixed by continuation along `path` from t=0 (value +1 there); the
    sheet tag records which branch of the square root the value lives on.
    """
    t = complex(t)
    tau_c = complex(tau)
    if abs(1 - tau_c * t) < SINGULAR_MARGIN:
        raise SingularPoint(f"t*tau = {tau_c * t} too close to 1")
    if path is None:
        path = PathParam.straight(t)
    if abs(path.waypoints[-1] - t) > 1e-12:
        raise ValueError("path must end at t")
    if tau_c != 0:
        path.validate_avoids(1 / tau_c)
    root = continue_sqrt(lambda z: 1 - tau_c * z, path)
    principal = cmath.sqrt(1 - tau_c * t)
    sheet = 1 if abs(root - principal) <= abs(root + principal) else -1
    return GaussPoly(Poly.const(1), t / (1 - tau_c * t), 0.0,
                     1 / principal, 0.0, sheet)


def translate_action(s, f, tau):
    """Left product with the linear exponential of 2s:

        exp(2sw + s^2 tau) * f(w + s tau)

    f may be a GaussPoly (closed form returned) or a callable (callable returned).
    """
    if isinstance(f, GaussPoly):
        g = f.shift_arg(s * tau)
        return replace(g, beta=g.beta + 2 * s, logamp=g.logamp + s * s * tau)

    def acted(w):
        return cexp(2 * s * w + s * s * tau) * f(w + s * tau)

    return acted


def quadexp_star(t, tau, g: GaussPoly) -> GaussPoly:
    """Product of the quadratic exponential at t with a pure Gaussian g, in a form
    whose removable factor at t = 1/tau is cancelled algebraically:

        mu = 1 - t (tau + alpha tau^2)
        result: pref_g / sqrt(mu),  alpha -> (t + alpha(1+t tau))/mu,
                beta -> beta/mu,    logamp += t beta^2 tau^2 / (4 mu).

    Valid whenever mu is away from 0; in particular at t = 1/tau when g kills
    the singularity (e.g. star-deltas).
    """
    if g.poly.degree > 0:
        raise ValueError("quadexp_star requires a pure Gaussian (constant prefactor)")
    mu = 1 - t * (tau + g.alpha * tau * tau)
    if abs(complex(mu)) < SINGULAR_MARGIN:
        raise SingularPoint(f"product denominator mu ~ 0 (={mu})")
    return GaussPoly(
        g.poly,
        (t + g.alpha * (1 + t * tau)) / mu,
        g.beta / mu,
        g.pref / cmath.sqrt(mu),
        g.logamp + t * g.beta * g.beta * tau * tau / (4 * mu),
        g.sheet,
    )


def star_poly_gauss(p: Poly, g: GaussPoly, tau) -> GaussPoly:
    """Product (p *_tau g) for polynomial p: the defining sum is finite.

    Exact when p, g carry exact coefficients (the exponent parameters stay fixed).
    """
    qk = g.poly
    acc = p * qk
    scale = 1
    pk = p
    chain = Poly([g.beta, 2 * g.alpha])
    for k in range(1, p.degree + 1):
        pk = pk.deriv()
        qk = qk.deriv() + qk * chain
        scale = scale * tau / (2 * k)
        acc = acc + (pk * qk).scale(scale)
    return replace(g, poly=acc)


def quad_exponential_law(s, t, tau, w_grid=None) -> float:
    """Max-modulus residual of E(s) * E(t) = E(s+t) on a w grid, sheets aligned
    by continuation from 0 along straight paths."""
    for point, name in ((s, "s"), (t, "t"), (s + t, "s+t")):
        if abs(1 - complex(tau) * complex(point)) < SINGULAR_MARGIN:
            raise SingularPoint(f"{name}*tau too close to 1")
    if w_grid is None:
        w_grid = [ -2.0 + 0.2 * k for k in range(21) ]
    es = star_exp_quadratic(s, tau)
    et = star_exp_quadratic(t, tau)
    est = star_exp_quadratic(s + t, tau)
    prod = gauss_star(es, et, tau)
    scale = max(est.max_abs_on(w_grid), 1e-300)
    return gp_sub_on_grid(prod, est, w_grid) / scale


def series_radius_probe(ell: int, tau, n_max: int):
    """Sup-norm coefficient ratios for the series sum_n t^n/n! (w-power n*ell).

    Returns |c_{n+1}|/|c_n| for n = 0..n_max-1 where c_n = sup_{|w|<=1}
    |P_{n ell}(w, tau)| / n!.  For ell >= 3 and tau != 0 the ratios grow
    without bound (the series has radius 0); ell = 2 gives bounded ratios.
    """
    from math import cos, pi, sin

    from .core import w_star_power

    circle = [complex(cos(2 * pi * j / 64), sin(2 * pi * j / 64)) for j in range(64)]
    cs = []
    fact = 1.0
    for n in range(n_max + 1):
        if n > 0:
            fact *= n
        p = w_star_power(n * ell, tau).to_complex()
        cs.append(max(abs(p(z)) for z in circle) / fact)
    return [cs[n + 1] / cs[n] for n in range(n_max)]


def leg_path(t, avoid_sided) -> PathParam:
    """Path 0 -> t detouring around each (point, side) that the straight segment
    grazes; side +1 detours to the left of the travel direction, -1 right.

    The side choices are the leg's local trivialization data: any fixed
    convention is admissible, and the round-trip composition below exposes
    that different legs' conventions need not cocycle.
    """
    t = complex(t)
    pts = [(0.0, 0.0 + 0.0j), (1.0, t)]
    if abs(t) == 0:
        return PathParam([p for _, p in pts])
    u = t / abs(t)
    for p, side in sorted(((complex(p), s) for p, s in avoid_sided), key=lambda z: abs(z[0])):
        if _segment_distance(p, 0.0, t) < LEG_MARGIN:
            s = max(0.0, min(1.0, (p.real * u.real + p.imag * u.imag) / abs(t)))
            pts.append((s, s * t + 2 * LEG_MARGIN * side * 1j * u))
    pts.sort(key=lambda q: q[0])
    return PathParam([p for _, p in pts])


def sheet_transport(t, tau_a, tau_b, sheet: int) -> int:
    """Move a sheet label at t from expression tau_a to tau_b.

    The label is identified by its continuation class along a path from 0 that
    is admissible for both expressions; the convention here detours the source
    branch point on the left and the target's on the right.
    """
    avoid = []
    if tau_a:
        avoid.append((1 / complex(tau_a), +1))
    if tau_b:
        avoid.append((1 / complex(tau_b), -1))
    path = leg_path(t, avoid)
    ca = continue_sqrt(lambda z: 1 - complex(tau_a) * z, path)
    cb = continue_sqrt(lambda z: 1 - complex(tau_b) * z, path)
    pa = cmath.sqrt(1 - complex(tau_a) * complex(t))
    pb = cmath.sqrt(1 - complex(tau_b) * complex(t))
    val_a = sheet * pa
    eps = 1 if abs(val_a - ca) <= abs(val_a + ca) else -1
    val_b = eps * cb
    return 1 if abs(val_b - pb) <= abs(val_b + pb) else -1


def triple_transport_sign(t, taus) -> int:
    """Net sheet sign of the round trip tau1 -> tau2 -> tau3 -> tau1 at t.

    Each leg transports along a path admissible for its two expressions; the
    round trip preserves t but may flip the sheet for some t and not others,
    depending on where t sits relative to the three slits."""
    t1, t2, t3 = taus
    s = 1
    s = sheet_transport(t, t1, t2, s)
    s = sheet_transport(t, t2, t3, s)
    s = sheet_transport(t, t3, t1, s)
    return s
