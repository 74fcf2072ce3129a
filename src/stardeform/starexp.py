"""Gaussian-exponential family under the deformed product, with sheet tracking.

A GaussPoly represents   sheet * pref * exp(logamp) * p(w) * exp(alpha w^2 + beta w).
One checked formula evaluates it, at a scalar w, over an array of them, or for a
batch of elements over one grid (gauss_batch): a GaussPoly's call is the batch of
one, with its parameters as scalars, and in a batch they are columns of arrays and
the prefactors one block of coefficients, padded at the top with +0, that one
Horner pass evaluates.  On a finite grid each row of a batch is its element's call
bit for bit.  Where the exponential or the whole product leaves the float range a
call raises DomainError, never inf, and a batch flags the row (gauss_values raises
the first flagged row's error).  Only evaluation is batched: the parameters are
still formed in Python's scalar arithmetic, as numpy's complex product rounds apart.

The family is closed under the deformed product, differentiation, argument
shifts, and the heat flow exp(theta d^2/dw^2); that flow implements pullback /
pushforward between parameter values and hence the product of two Gaussians.

The quadratic exponential element E(t) = (1-tau t)^{-1/2} exp(t w^2/(1-tau t))
is double valued in t with branch point at t = 1/tau; the sheet tag is fixed by
continuing sqrt(1 - tau t) from +1 at t = 0 along a caller-supplied polygonal path,
one decision per segment: its end root is the one nearer its start root (an exact
tie takes the principal root), as 1 - tau t maps a segment that misses 1/tau to one
that subtends less than pi at 0.  The slit of the principal branch runs from 1/tau
to infinity along arg = arg(1/tau), so "sheet" = (continued value) / (principal value).
continue_sqrt continues a batch of paths in one array pass: the values 1 - c t are
formed on real and imaginary float arrays, which round as CPython's complex
arithmetic does (numpy's complex product does not), and each root is cmath.sqrt.
The tests check it against 64 nodes per segment and against an exact crossing route.
"""

from __future__ import annotations

import cmath
from typing import Sequence

import numpy as np

from .core import Poly, horner, w_star_power
from .errors import DomainError, SingularPoint, SingularProduct, StarDeformError
from .numeric import cexp, exp_array

SINGULAR_MARGIN = 1e-6
LEG_MARGIN = 0.15   # leg_path detours around branch points nearer its segment than this
LAW_GRID = -2.0 + 0.2 * np.arange(21)   # quad_exponential_law's w points


class GaussPoly:
    """sheet * pref * exp(logamp) * poly(w) * exp(alpha w^2 + beta w)."""

    __slots__ = ("poly", "alpha", "beta", "pref", "logamp", "sheet")

    def __init__(self, poly: Poly, alpha, beta, pref, logamp, sheet: int):
        self.poly, self.alpha, self.beta = poly, alpha, beta
        self.pref, self.logamp, self.sheet = pref, logamp, sheet

    def __call__(self, w):
        """The value at a scalar w, or over an array of them, by the one checked
        formula that gauss_batch applies to many elements: both raise
        DomainError where the exponential or its product with the prefactors
        leaves the float range.  A scalar goes through the same array loops as a
        grid, so it rounds as its grid entry does (numpy's complex products round
        apart from Python's)."""
        ws = np.atleast_1d(w)
        z, e, vals = _gauss_formula(self.sheet * self.pref, self.logamp, self.alpha,
                                    self.beta, self.poly.coeffs, ws)
        # where z and the values are finite, so is exp(z): an infinite factor
        # leaves a product inf or nan
        if not (np.isfinite(z).all() and np.isfinite(vals).all()):
            raise _range_error(_fails(z, e, vals))
        return vals if np.ndim(w) else vals[0]

    def amp(self):
        """Overall scalar amplitude sheet*pref*exp(logamp)."""
        return self.sheet * self.pref * cexp(self.logamp)

    def diff(self) -> "GaussPoly":
        q = self.poly.deriv() + self.poly * Poly([self.beta, 2 * self.alpha])
        return GaussPoly(q, self.alpha, self.beta, self.pref, self.logamp, self.sheet)

    def scaled(self, c) -> "GaussPoly":
        return GaussPoly(self.poly, self.alpha, self.beta, self.pref * c, self.logamp, self.sheet)

    def shift_arg(self, c) -> "GaussPoly":
        """Replace w by w + c."""
        return GaussPoly(self.poly.shift(c), self.alpha, self.beta + 2 * self.alpha * c,
                         self.pref, self.logamp + self.alpha * c * c + self.beta * c,
                         self.sheet)


def _coefficient_block(polys) -> np.ndarray:
    """The polys' coefficients as columns, low degree first: entry [j, i, 0] is
    the w^j coefficient of polys[i], padded at the top with +0 to the widest.
    On a finite grid a pad leaves Horner's running sum at +0, as it starts, so
    each row keeps its own sum's bits."""
    width = max(len(p.coeffs) for p in polys)
    return np.array([p.coeffs + (0,) * (width - len(p.coeffs)) for p in polys]).T[..., None]


def _gauss_formula(amp, logamp, alpha, beta, coeffs, ws):
    """The exponent logamp + alpha w^2 + beta w over the grid ws, its exponential
    and the values amp * exp(...) * p(ws), with amp = sheet * pref and coeffs
    p's coefficients; each parameter and coefficient is one value or a column
    of them.  Formed with overflow warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = logamp + alpha * ws * ws + beta * ws
        e = np.exp(z)
        return z, e, amp * e * horner(coeffs, ws)


def _fails(z, e, vals):
    """Per row (the grid is the last axis): 0 where the values are finite, 1
    where the exponent or its exponential is not, and 2 where only the values
    are not."""
    exp_ok = np.isfinite(z).all(axis=-1) & np.isfinite(e).all(axis=-1)
    return np.where(exp_ok, 2 * ~np.isfinite(vals).all(axis=-1), 1)


def _range_error(fail) -> DomainError:
    return DomainError("a tau-expression is outside the float range" if fail == 1
                       else "a Gaussian's value is outside the float range")


def gauss_batch(gs, ws) -> tuple:
    """(values, fails) of the GaussPolys gs over one finite grid ws: fails[i] is 0
    where gs[i](ws) returns, and row i of values is then that call's values bit
    for bit; it is 1 where the call raises for the exponent or its exponential
    and 2 where it raises for their product.  A failing row is flagged, not
    raised, and nothing warns.

    Elements go through the formula in one pass where each of sheet * pref,
    logamp, alpha, beta and the prefactor's coefficients is of one kind, real
    or complex, across them: a real parameter in a complex column would be
    computed in complex arithmetic, where numpy's exp rounds apart from its
    real exp and a zero's sign can differ."""
    ws = np.atleast_1d(ws)
    groups = {}
    for i, g in enumerate(gs):
        member = (g.sheet * g.pref, g.logamp, g.alpha, g.beta)
        kind = (*[isinstance(x, complex) for x in member],
                any(isinstance(c, complex) for c in g.poly.coeffs))
        groups.setdefault(kind, []).append((i, member))
    parts = []
    for members in groups.values():
        rows = [i for i, _ in members]
        if len(rows) == 1:
            # a lone element keeps its call's scalars: numpy's complex product
            # of a (1, 1) column and a one-point grid rounds apart from theirs
            z, e, vals = (x[None] for x in _gauss_formula(*members[0][1],
                                                          gs[rows[0]].poly.coeffs, ws))
        else:
            columns = [np.array(col)[:, None] for col in zip(*(m for _, m in members))]
            block = _coefficient_block([gs[i].poly for i in rows])
            z, e, vals = _gauss_formula(*columns, block, ws)
        parts.append((rows, vals, _fails(z, e, vals)))
    if len(parts) == 1:
        return parts[0][1:]
    values = np.empty((len(gs), ws.size), np.result_type(float, *(v for _, v, _ in parts)))
    fails = np.zeros(len(gs), int)
    for rows, vals, fail in parts:
        values[rows], fails[rows] = vals, fail
    return values, fails


def gauss_values(gs, ws) -> np.ndarray:
    """The values of gauss_batch; the first failing row raises the DomainError
    that its own call raises."""
    values, fails = gauss_batch(gs, ws)
    if fails.any():
        raise _range_error(fails[np.flatnonzero(fails)[0]])
    return values


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
    if g.poly.degree <= 0:
        return GaussPoly(g.poly, alpha2, beta2, pref2, logamp2, g.sheet)

    # Horner over the operator W = w + 2 theta d acting on poly * base-Gaussian
    def w_op(q: Poly) -> Poly:
        return Poly.x() * q + (q.deriv() + q * Poly([beta2, 2 * alpha2])).scale(2 * theta)

    cs = g.poly.coeffs
    q = Poly.const(cs[-1])
    for c in reversed(cs[:-1]):
        q = w_op(q) + Poly.const(c)
    return GaussPoly(q, alpha2, beta2, pref2, logamp2, g.sheet)


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


class PathParam:
    """Polygonal path of waypoints in the t-plane, starting at 0 by convention."""

    __slots__ = ("waypoints",)

    def __init__(self, waypoints: Sequence[complex]):
        self.waypoints = tuple(complex(w) for w in waypoints)

    def validate_avoids(self, point: complex):
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            if _segment_distance(point, a, b) < SINGULAR_MARGIN:
                raise SingularPoint(
                    f"path segment {a}->{b} passes within {SINGULAR_MARGIN} of {point}")


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    d = b - a
    try:
        L2 = abs(d) ** 2
    except OverflowError:
        # |d| is past 1.3e154: measured on a copy scaled by 2^-600 (exact for
        # parts above 1e-143) and scaled back
        return _segment_distance(p * 2.0 ** -600, a * 2.0 ** -600, b * 2.0 ** -600) * 2.0 ** 600
    if L2 == 0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).real * d.real + (p - a).imag * d.imag) / L2))
    return abs(p - (a + t * d))


def nearest_branch_sqrt(vals, prev) -> np.ndarray:
    """Square roots along a node sequence, each root on the branch nearer the
    root before it (prev for the first node); an exact tie takes the principal
    root.  Bit for bit the per-node loop

        r = cmath.sqrt(v); prev = r if abs(r - prev) <= abs(r + prev) else -r

    A 2-D vals holds one sequence per row, each started from its own entry of prev.
    """
    vals = np.asarray(vals, complex)
    # cmath.sqrt, not np.sqrt: the C library's csqrt rounds differently on the
    # imaginary axis, where leg_path's detour nodes can land, and at subnormals
    roots = np.fromiter(map(cmath.sqrt, vals.ravel().tolist()), complex,
                        vals.size).reshape(vals.shape)
    before = np.concatenate((np.reshape(prev, vals.shape[:-1] + (1,)), roots[..., :-1]), axis=-1)
    with np.errstate(invalid="ignore"):         # inf - inf is nan, as in the loop
        d, e = roots - before, roots + before
    near = np.hypot(d.real, d.imag)     # np.hypot rounds as abs() does; np.abs does not
    far = np.hypot(e.real, e.imag)
    # the branch carries over where near < far and flips where near > far; a
    # tie restarts on the principal root and a nan on its negative, as the loop
    # does, so a restart at node r leaves node i flipped by the flips r..i
    keep = near <= far
    flips = np.logical_xor.accumulate(~keep, axis=-1)
    restart = np.where(keep == (far <= near), np.arange(vals.shape[-1]), 0)
    earlier = np.concatenate((np.zeros_like(flips[..., :1]), flips[..., :-1]), axis=-1)
    flips ^= np.take_along_axis(earlier, np.maximum.accumulate(restart, axis=-1), axis=-1)
    return np.where(flips, -roots, roots)


def continue_sqrt(c, paths) -> list:
    """End roots of sqrt(1 - c t) continued along each path of a batch (c one
    value or one per path) from the principal root at its first waypoint, with
    one node per segment a -> b, its end a + (b - a); the per-segment loop's
    roots bit for bit.  A shorter path is padded at its start with its first
    waypoint, whose root the padding keeps."""
    if not paths:
        return []
    width = max(len(p.waypoints) for p in paths)
    w = np.array([p.waypoints[:1] * (width - len(p.waypoints)) + p.waypoints for p in paths])
    # each path's first waypoint, then its segments' ends a + (b - a), which
    # need not round to b; a node's parts are CPython's up to the signs of
    # zeros, which 1 - c t drops
    tr, ti = [np.concatenate((x[:, :1], x[:, :-1] + np.diff(x)), axis=1)
              for x in (w.real, w.imag)]
    c = np.asarray(c, complex).reshape(-1, 1)
    vals = np.empty(tr.shape, complex)
    vals.real, vals.imag = 1.0 - (c.real * tr - c.imag * ti), 0.0 - (c.real * ti + c.imag * tr)
    starts = [cmath.sqrt(v) for v in vals[:, 0].tolist()]
    return nearest_branch_sqrt(vals, starts)[:, -1].tolist()


def _quadratic_path(t, tau, path: PathParam | None) -> PathParam:
    """path (None: the straight one from 0), checked to end at t and to keep off 1/tau."""
    t, tau_c = complex(t), complex(tau)
    if abs(1 - tau_c * t) < SINGULAR_MARGIN:
        raise SingularPoint(f"t*tau = {tau_c * t} too close to 1")
    if path is None:
        path = PathParam([0.0, t])
    if abs(path.waypoints[-1] - t) > 1e-12:
        raise ValueError("path must end at t")
    if tau_c != 0:
        path.validate_avoids(1 / tau_c)
    return path


def _quadratic_on_sheet(t, tau, root: complex) -> GaussPoly:
    """The quadratic element at t on the sheet of root, a continued sqrt(1 - tau t)."""
    t, tau_c = complex(t), complex(tau)
    principal = cmath.sqrt(1 - tau_c * t)
    sheet = 1 if abs(root - principal) <= abs(root + principal) else -1
    return GaussPoly(Poly.const(1), t / (1 - tau_c * t), 0.0,
                     1 / principal, 0.0, sheet)


def star_exp_quadratic(t, tau, path: PathParam | None = None) -> GaussPoly:
    """Deformed exponential of the quadratic element:

        (1 - tau t)^{-1/2} exp(t w^2 / (1 - tau t)),

    branch fixed by continuation along `path` from t=0 (value +1 there); the
    sheet tag records which branch of the square root the value lives on.
    """
    root, = continue_sqrt(complex(tau), [_quadratic_path(t, tau, path)])
    return _quadratic_on_sheet(t, tau, root)


def translate_action(s, f, tau):
    """Left product with the linear exponential of 2s:

        exp(2sw + s^2 tau) * f(w + s tau)

    f may be a GaussPoly (closed form returned) or a callable on a scalar or a grid.
    """
    if isinstance(f, GaussPoly):
        g = f.shift_arg(s * tau)
        return GaussPoly(g.poly, g.alpha, g.beta + 2 * s, g.pref, g.logamp + s * s * tau, g.sheet)

    def acted(w):
        return exp_array(lambda: 2 * s * w + s * s * tau) * f(w + s * tau)

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
    return GaussPoly(acc, g.alpha, g.beta, g.pref, g.logamp, g.sheet)


def quad_exponential_law(cases) -> list:
    """For each case (s, t, tau): the max-modulus residual of E(s) * E(t) = E(s+t)
    on LAW_GRID over max |E(s+t)|, sheets aligned by one continue_sqrt call along
    every case's straight paths from 0; None where the case raises a
    StarDeformError (a point near 1/tau, a singular product) or a value leaves
    the float range."""
    paths = []
    for s, t, tau in cases:
        try:
            paths.append([_quadratic_path(p, tau, None) for p in (s, t, s + t)])
        except SingularPoint:
            paths.append([])
    cs = [complex(tau) for (_, _, tau), legs in zip(cases, paths) for _ in legs]
    roots = iter(continue_sqrt(cs, [leg for legs in paths for leg in legs]))
    pairs, at = [], []
    for i, ((s, t, tau), legs) in enumerate(zip(cases, paths)):
        if legs:
            es, et, est = [_quadratic_on_sheet(p, tau, next(roots)) for p in (s, t, s + t)]
            try:
                pairs += [est, gauss_star(es, et, tau)]
            except StarDeformError:
                continue
            at.append(i)
    # every case's target and product in one batch; a case with a flagged row is None
    vals, fails = gauss_batch(pairs, LAW_GRID)
    ok = (fails[::2] | fails[1::2]) == 0
    targets, prods = vals[::2][ok], vals[1::2][ok]
    scales = np.maximum(np.abs(targets).max(axis=1), 1e-300)
    out = [None] * len(cases)
    for i, resid, scale in zip([i for i, good in zip(at, ok) if good],
                               np.abs(prods - targets).max(axis=1).tolist(), scales.tolist()):
        out[i] = resid / scale
    return out


def series_radius_probe(ell: int, tau, n_max: int):
    """Sup-norm coefficient ratios for the series sum_n t^n/n! (w-power n*ell).

    Returns |c_{n+1}|/|c_n| for n = 0..n_max-1 where c_n = sup_{|w|<=1}
    |P_{n ell}(w, tau)| / n!.  For ell >= 3 and tau != 0 the ratios grow
    without bound (the series has radius 0); ell = 2 gives bounded ratios.
    """
    th = 2 * np.pi * np.arange(64) / 64
    circle = np.cos(th) + 1j * np.sin(th)
    polys = [w_star_power(n * ell, tau).to_complex() for n in range(n_max + 1)]
    sups = np.abs(horner(_coefficient_block(polys), circle)).max(axis=1)   # one Horner pass
    cs = []
    fact = 1.0
    for n, sup in enumerate(sups.tolist()):
        if n > 0:
            fact *= n
        cs.append(sup / fact)
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


def sheet_transport(t, legs, sheet: int) -> int:
    """Move a sheet label at t along each leg (tau_a, tau_b) in turn, from
    expression tau_a to tau_b.

    The label is identified by its continuation class along a path from 0 that
    is admissible for both expressions of a leg; the convention here detours
    the source branch point on the left and the target's on the right.  One
    continue_sqrt call continues both expressions of every leg.
    """
    paths = []
    for leg in legs:
        avoid = [(1 / complex(tau), side) for tau, side in zip(leg, (+1, -1)) if tau]
        paths += [leg_path(t, avoid)] * 2
    roots = continue_sqrt([complex(tau) for leg in legs for tau in leg], paths)
    for (tau_a, tau_b), ca, cb in zip(legs, roots[::2], roots[1::2]):
        val_a = sheet * cmath.sqrt(1 - complex(tau_a) * complex(t))
        val_b = (1 if abs(val_a - ca) <= abs(val_a + ca) else -1) * cb
        pb = cmath.sqrt(1 - complex(tau_b) * complex(t))
        sheet = 1 if abs(val_b - pb) <= abs(val_b + pb) else -1
    return sheet


def triple_transport_sign(t, taus) -> int:
    """Net sheet sign of the round trip tau1 -> tau2 -> tau3 -> tau1 at t.

    Each leg transports along a path admissible for its two expressions; the
    round trip preserves t but may flip the sheet for some t and not others,
    depending on where t sits relative to the three slits."""
    t1, t2, t3 = taus
    return sheet_transport(t, [(t1, t2), (t2, t3), (t3, t1)], 1)
