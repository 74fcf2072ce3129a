"""Composite Gauss-Legendre quadrature: one refining driver with an error
estimate, the fixed composite kernel under it, and the Gaussian windows for
oscillatory integrals against e^{-t^2 tau/4}.  tau is complex throughout the
package, so classical weighted rules do not apply; every integral is taken on
N_NODES-node panels over an explicitly cut interval (gaussian_halfwidth, and
x_window for a Gaussian e^{-(x - c)^2/tau} on the x side).

integrate_segment is the fixed kernel: one pass of equal panels.
integrate_segment_refined is the driver every rule goes through.  It doubles
the panels from start_panels up to max_panels and returns the first pass whose
error, estimated either of two ways, plus a rounding term is within
tol * max(floor, |value|):
  - from the pass's own node values: each panel of width h adds
    h (|c_14| + |c_15|), c_k = (2k+1)/2 sum_j w_j P_k(x_j) f(x_j) being the
    Legendre coefficients of f on the panel (Trefethen, SIAM Review 50, 2008).
    That bounds the degree-15 interpolant, so it is pessimistic for the 16-node
    rule, which is exact to degree 31;
  - from the second pass on, by |value - previous pass's value|, the classical
    composite-rule test (Piessens et al., QUADPACK, 1983).
The rounding term eps * integral |f| is what cancellation in the sum leaves.
Otherwise the driver raises QuadratureFailure; it raises at once where the
value is not finite or the rounding term alone exceeds the bound, which more
panels cannot lower.  The x-side rules take floor = 1; the Gaussian windows
take floor = 0 and WINDOW_RTOL, relative to the largest value on the grid
however small it is.

Both functions have a row form: with 1-D arrays of endpoints, row r of the
nodes lies on row r's segment, so one call integrates one integrand per grid
point, say, over a segment of its own.  The driver accepts each row on its
own, against its own previous value, and calls f(x, rows), rows being the
indices of the rows x holds, so that a doubling pass covers only the rows not
yet accepted.

`_panel_rule(n_panels)` caches the composite rule on [0, 1] and hands every
caller the same read-only arrays (a write raises ValueError); it keeps at most
64 rules of at most MAX_CACHED_NODES nodes, about 4 MB, and rebuilds wider
ones on each call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure


N_NODES = 16
_LOG_WINDOW_TOL = math.log(1e16)
# Most panels a Gaussian window may use.  f is sampled on N_NODES nodes per
# panel for every grid point at once, so this also bounds memory per grid
# point; on the default `dist` grid (-3..3) it admits real tau down to about
# 4e-6 (3.6e-6 for --side pv, 2e-6 for the one-sided inverses).
WINDOW_PANEL_BUDGET = 4096
# Error the Gaussian windows accept, relative to the largest value on the grid.
WINDOW_RTOL = 1e-10
# Most nodes (n_panels * N_NODES) of a composite rule that _panel_rule caches.
MAX_CACHED_NODES = 4096


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=1)
def _gl_rule():
    """Nodes and weights on [0, 1], and the (N_NODES, 2) matrix taking node values
    to the panel's top two Legendre coefficients c_14, c_15."""
    x, w = np.polynomial.legendre.leggauss(N_NODES)
    top = np.stack([(2 * k + 1) / 2 * w * np.polynomial.legendre.Legendre.basis(k)(x)
                    for k in (N_NODES - 2, N_NODES - 1)], axis=1)
    return _read_only((x + 1.0) / 2.0, w / 2.0, top)


def _build_panel_rule(n_panels: int):
    x, w, _ = _gl_rule()
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    ts = (edges[:-1, None] + np.diff(edges)[:, None] * x[None, :]).ravel()
    ws = (np.diff(edges)[:, None] * w[None, :]).ravel()
    return _read_only(ts, ws)


_cached_panel_rule = lru_cache(maxsize=64)(_build_panel_rule)


def _panel_rule(n_panels: int):
    """Nodes and weights of n_panels equal Gauss-Legendre panels on [0, 1];
    cached up to MAX_CACHED_NODES nodes."""
    if n_panels * N_NODES > MAX_CACHED_NODES:
        return _build_panel_rule(n_panels)
    return _cached_panel_rule(n_panels)


def integrate_segment(f, a, b, n_panels: int = 8):
    """Integrate vectorized f along the straight segment a->b (complex endpoints ok).

    a and b may instead be 1-D arrays of per-row endpoints: f then receives the
    nodes of row r in row r of a (rows, nodes) array, and the result has one
    value per row."""
    ts, ws = _panel_rule(n_panels)
    lo, span = a, b - a
    if np.ndim(span):
        lo, span = np.asarray(a)[:, None], span[:, None]
    vals = f(lo + span * ts)
    return (b - a) * np.sum(vals * ws, axis=-1)


def _truncation_term(vals, span, n_panels: int):
    """The node estimate of one pass over the last axis: the sum over panels of
    h (|c_14| + |c_15|); raises QuadratureFailure where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = vals.reshape(vals.shape[:-1] + (n_panels, N_NODES)) @ _gl_rule()[2]
        trunc = np.abs(span) / n_panels * np.abs(coeffs).sum(axis=(-2, -1))
    if not np.isfinite(trunc).all():
        raise QuadratureFailure(f"quadrature value is not finite with {n_panels} panels")
    return trunc


def _rounding_term(vals, span, n_panels: int):
    """eps * integral |f| of one pass over the last axis."""
    return np.finfo(float).eps * np.abs(span) * (np.abs(vals) @ _panel_rule(n_panels)[1])


def integrate_segment_refined(f, a, b, tol: float = 1e-12, start_panels: int = 8,
                              max_panels: int = 512, floor: float = 1.0):
    """The quadrature driver: integrate_segment from start_panels panels, doubled
    until the node estimate, or from the second pass on the change from the
    previous pass, plus the rounding term (see the module docstring) is within
    tol * max(floor, |value|); raises QuadratureFailure beyond max_panels, at once
    where rounding alone exceeds that bound, or where the value is not finite.

    With scalar endpoints the whole value (every entry of a vector-valued f) is
    accepted together: the largest estimate, each entry's the smaller of its two,
    against tol * max(floor, largest |entry|).  With 1-D arrays of per-row
    endpoints each row is accepted on its own, against tol * max(floor,
    |row value|) and its own previous value, and a doubling pass calls
    f(x, rows) on the rows not yet accepted only.  The rounding term is formed
    on every pass, the node estimate only for the entries (rows) whose change
    does not already meet the bound."""
    rows = np.ndim(b - a) > 0
    if rows:
        a, b = np.asarray(a), np.asarray(b)
        out = np.empty(len(a), complex)
        todo = np.arange(len(a))
    n, prev = start_panels, None
    while n <= max_panels:
        passes = []

        def sampled(x):
            vals = f(x, todo) if rows else f(x)
            passes.append(vals)
            return vals

        lo, hi = (a[todo], b[todo]) if rows else (a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            val = integrate_segment(sampled, lo, hi, n)
            rounding = _rounding_term(passes[0], hi - lo, n)
        if not (np.isfinite(val).all() and np.isfinite(rounding).all()):
            raise QuadratureFailure(f"quadrature value is not finite with {n} panels")
        if rows:
            bound = tol * np.maximum(floor, np.abs(val))
        else:
            bound = tol * max(floor, float(np.max(np.abs(val))))
            rounding = np.max(rounding)
        # each entry's (row's) error is its node estimate or, from the second
        # pass on, the smaller of that and its change; the node estimate is
        # formed only where the change plus rounding misses the bound
        if prev is None:
            err = _truncation_term(passes[0], hi - lo, n)
        else:
            err = np.atleast_1d(np.abs(val - prev))
            need = err + rounding > bound
            if need.any():
                err[need] = np.minimum(_truncation_term(np.atleast_2d(passes[0])[need],
                                                        (hi - lo)[need] if rows else hi - lo, n),
                                       err[need])
        if np.any(rounding > bound):
            raise QuadratureFailure(f"quadrature error estimate exceeds its bound: rounding in "
                                    f"the sum alone is {np.max(rounding):.3g}")
        met = err + rounding <= bound
        if not rows:
            if np.all(met):
                return val
            prev = val
        else:
            out[todo[met]] = val[met]
            todo, prev = todo[~met], val[~met]
            if not len(todo):
                return out
        n *= 2
    raise QuadratureFailure(f"segment quadrature did not reach tol={tol} "
                            f"within {max_panels} panels")


def gaussian_halfwidth(rate: float, growth: float = 0.0, power: int = 0) -> float:
    """Cut of a Gaussian window: the T beyond the peak t_p = sqrt(power / (2 rate))
    of t^power e^{-rate t^2} at which the log-envelope
    E(t) = power log t - rate t^2 + growth t  has fallen log(1e16) below E(t_p).

    For power = 0 (t_p = 0) this is the root of rate T^2 - growth T = log(1e16).
    For power > 0, E is concave, so Newton's method from a point past the root
    descends onto it.  A rate <= 0, or a descent not converged in 100 steps,
    raises QuadratureFailure."""
    if not rate > 0:
        raise QuadratureFailure("nonpositive Gaussian decay rate")
    if power == 0:
        return (growth + math.sqrt(growth * growth + 4 * rate * _LOG_WINDOW_TOL)) / (2 * rate)
    tp = math.sqrt(power / (2 * rate))

    def drop(t):        # E(t) - E(t_p) + log(1e16)
        return (power * math.log(t / tp) - rate * (t * t - tp * tp) + growth * (t - tp)
                + _LOG_WINDOW_TOL)

    step = 1.0
    while drop(tp + step) >= 0:
        step *= 2
    t = tp + step
    for _ in range(100):
        nxt = t - drop(t) / (power / t - 2 * rate * t + growth)
        if t - nxt <= 1e-12 * t:
            return nxt
        t = nxt
    raise QuadratureFailure(f"Gaussian window cut did not converge at rate={rate}, "
                            f"growth={growth}, power={power}")


def x_window(centre, tau):
    """(lo, hi) of the window of e^{-(x - c)^2/tau} around Re c, for a centre c or an
    array of them: gaussian_halfwidth at rate Re(1/tau), growth 2 |Im c Im(1/tau)|."""
    c, inv = np.asarray(centre, complex), 1 / complex(tau)
    L = gaussian_halfwidth(inv.real, float(np.max(2 * np.abs(c.imag * inv.imag))))
    return c.real - L, c.real + L


def integrate_gaussian_window(f, tau, side: int, osc: float, shift: float = 0.0,
                              power: int = 0):
    """Integral of f(t) e^{-t^2 tau/4} over t >= 0 (side=+1), t <= 0 (side=-1)
    or the whole line (side=0), for an f of size |t|^power e^{|shift| |t|},
    vectorized over its last axis.

    The window is cut at gaussian_halfwidth(Re tau/4, |shift|, power), where the
    weighted envelope has fallen log(1e16) below its peak.  The oscillation
    e^{i osc t} and the Gaussian's chirp e^{-i t^2 Im tau/4}, whose frequency
    reaches |Im tau| T/2 at the cut, sum to a frequency k, and
    waves = 2 (osc + |Im tau| T/2) T/pi panels would give four panels per
    wavelength of it.  The window starts from max(4, int(waves / 8) + 2) panels,
    about half a panel per wavelength: there kh/2 is about 2 pi, which the
    16-node rule resolves, and the doubling after it confirms the value by the
    change between the two passes.  Where that doubling, twice the start,
    exceeds WINDOW_PANEL_BUDGET the window raises QuadratureFailure; otherwise
    the driver refines up to that budget against WINDOW_RTOL times the largest
    value."""
    tau_c = complex(tau)
    T = gaussian_halfwidth(tau_c.real / 4, abs(shift), power)
    waves = 2 * (osc + abs(tau_c.imag) * T / 2) * T / math.pi
    start = max(4, int(waves / 8) + 2) if waves < 8 * WINDOW_PANEL_BUDGET else math.inf
    if 2 * start > WINDOW_PANEL_BUDGET:
        raise QuadratureFailure(f"Gaussian window needs {2 * (waves / 8 + 2):.3g} panels at "
                                f"tau={tau}, more than WINDOW_PANEL_BUDGET = {WINDOW_PANEL_BUDGET}")

    def windowed(t):
        return f(t) * np.exp(-t * t * tau_c / 4)

    return integrate_segment_refined(windowed, 0.0 if side > 0 else -T, 0.0 if side < 0 else T,
                                     WINDOW_RTOL, start, WINDOW_PANEL_BUDGET,
                                     floor=0.0)
