"""Composite Gauss-Legendre quadrature over segments, and the Gaussian-window
kernel for oscillatory integrals against e^{-t^2 tau/4}.

tau is complex throughout the package, so fixed classical rules (Hermite,
Laguerre weights) do not apply; panels over explicitly truncated intervals
with analytic tail bounds are used instead.  The Gaussian window's panels
resolve both the integrand's oscillation and the chirp e^{-i t^2 Im tau/4} of
the Gaussian itself.  integrate_power_window adds an a posteriori error
estimate, and check_window_error raises QuadratureFailure when it misses the
stated tolerance.

integrate_segment and integrate_segment_refined also have a row form: with
1-D arrays of endpoints, row r of the nodes handed to f lies on row r's
segment, so one call integrates a family of integrands (one per grid point,
say) over segments of their own.  The refinement doubles the panels of all
rows together and keeps each row's value from the first doubling at which
that row alone meets the tolerance, which is what the scalar call on its
endpoints returns; a row that never does raises QuadratureFailure.

The rules are cached: `_gl_nodes(n)` (nodes and weights on [0, 1]) and
`_panel_rule(n_panels, n_nodes)` (the composite rule on [0, 1]) each build
their arrays once per process and hand every caller the same read-only
arrays, so a caller that wrote into them would corrupt every later integral;
a write raises ValueError instead.  Both caches hold at most 64 rules, and
`_panel_rule` caches only rules of at most MAX_CACHED_NODES nodes, so it
retains at most about 4 MB; wider rules are rebuilt on each call, which costs
little next to evaluating f on them.  The verify-numeric benchmark's task
lists (seeds 1-3) use at most 268 panels of 16 nodes (a doubled pass of a
window whose panels follow the chirp at Re tau near 0.5, |Im tau| near 1), so
two of their rules exceed MAX_CACHED_NODES.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure


_LOG_WINDOW_TOL = math.log(1e16)
# Most panels integrate_gaussian_window may use.  f is sampled on 16 nodes per
# panel for every grid point at once, so this also bounds memory per grid
# point; on the default `dist` grid (-3..3) it admits tau down to about 6e-5.
WINDOW_PANEL_BUDGET = 4096
# Relative error integrate_power_window's callers accept (see check_window_error).
WINDOW_RTOL = 1e-10
# Most nodes (n_panels * n_nodes) of a composite rule that _panel_rule caches.
MAX_CACHED_NODES = 4096


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    # map to [0, 1]
    return _read_only((x + 1.0) / 2.0, w / 2.0)


def _build_panel_rule(n_panels: int, n_nodes: int):
    x, w = _gl_nodes(n_nodes)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    ts = (edges[:-1, None] + np.diff(edges)[:, None] * x[None, :]).ravel()
    ws = (np.diff(edges)[:, None] * w[None, :]).ravel()
    return _read_only(ts, ws)


_cached_panel_rule = lru_cache(maxsize=64)(_build_panel_rule)


def _panel_rule(n_panels: int, n_nodes: int):
    """Nodes and weights of n_panels equal Gauss-Legendre panels on [0, 1];
    cached up to MAX_CACHED_NODES nodes."""
    if n_panels * n_nodes > MAX_CACHED_NODES:
        return _build_panel_rule(n_panels, n_nodes)
    return _cached_panel_rule(n_panels, n_nodes)


def integrate_segment(f, a, b, n_panels: int = 8, n_nodes: int = 16):
    """Integrate vectorized f along the straight segment a->b (complex endpoints ok).

    a and b may instead be 1-D arrays of per-row endpoints: f then receives the
    nodes of row r in row r of a (rows, nodes) array, and the result has one
    value per row."""
    ts, ws = _panel_rule(n_panels, n_nodes)
    lo, span = a, b - a
    if np.ndim(span):
        lo, span = np.asarray(a)[:, None], span[:, None]
    vals = f(lo + span * ts)
    return (b - a) * np.sum(vals * ws, axis=-1)


def integrate_segment_refined(f, a, b, tol: float = 1e-12, n_nodes: int = 16,
                              start_panels: int = 8, max_panels: int = 512):
    """Panel-doubling refinement; raises QuadratureFailure if tol is not met.

    With scalar endpoints the whole value (every entry of a vector-valued f) is
    refined until the largest change is within tol times max(1, largest entry).
    With 1-D arrays of per-row endpoints (the row form of integrate_segment) all
    rows are refined together, and each row keeps the value of the first doubling
    at which its own change is within tol times max(1, |row value|): the value a
    scalar call on that row's endpoints returns.  Any row that has not met tol
    once the panels exceed max_panels raises."""
    rows = np.ndim(b - a) > 0
    prev = integrate_segment(f, a, b, start_panels, n_nodes)
    if rows:
        out, done = np.empty_like(prev), np.zeros(prev.shape, bool)
    n = start_panels
    while n <= max_panels:
        n *= 2
        cur = integrate_segment(f, a, b, n, n_nodes)
        if rows:
            met = ~done & (np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur)))
            out[met] = cur[met]
            done |= met
            if done.all():
                return out
        else:
            scale = max(1.0, abs(np.asarray(cur)).max() if np.ndim(cur) else abs(cur))
            if np.max(np.abs(np.asarray(cur) - np.asarray(prev))) <= tol * scale:
                return cur
        prev = cur
    raise QuadratureFailure(f"segment quadrature did not reach tol={tol}")


def gaussian_halfwidth(re_inv_scale: float, tol: float = 1e-16) -> float:
    """T with exp(-T^2 * re_inv_scale) < tol; re_inv_scale > 0."""
    if re_inv_scale <= 0:
        raise QuadratureFailure("nonpositive Gaussian decay rate")
    return float(np.sqrt(np.log(1.0 / tol) / re_inv_scale))


def _window_halfwidth(rate: float, g: float, p: int) -> float:
    """T beyond the peak t_p = sqrt(p / (2 rate)) of t^p e^{-rate t^2} at which the
    log-envelope  E(t) = p log t - rate t^2 + g t  has fallen log(1e16) below E(t_p).

    For p = 0 (t_p = 0) this is the root of rate T^2 - g T = log(1e16).  For p > 0,
    E is concave, so Newton's method from a point past the root descends onto it."""
    if p == 0:
        return (g + math.sqrt(g * g + 4 * rate * _LOG_WINDOW_TOL)) / (2 * rate)
    tp = math.sqrt(p / (2 * rate))

    def drop(t):        # E(t) - E(t_p) + log(1e16)
        return p * math.log(t / tp) - rate * (t * t - tp * tp) + g * (t - tp) + _LOG_WINDOW_TOL

    step = 1.0
    while drop(tp + step) >= 0:
        step *= 2
    t = tp + step
    for _ in range(100):
        nxt = t - drop(t) / (p / t - 2 * rate * t + g)
        if t - nxt <= 1e-12 * t:
            return nxt
        t = nxt
    return t


def _window(f, tau, side: int, osc: float, shift: float, power: int):
    """(windowed integrand, lo, hi, panels) of a Gaussian window; see integrate_gaussian_window."""
    tau_c = complex(tau)
    rate = tau_c.real / 4
    if rate <= 0:
        raise QuadratureFailure("nonpositive Gaussian decay rate")
    T = _window_halfwidth(rate, abs(shift), power)
    # e^{-t^2 tau/4} carries the chirp e^{-i t^2 Im tau/4}, whose frequency
    # reaches |Im tau| T/2 at the cut
    waves = 2 * (osc + abs(tau_c.imag) * T / 2) * T / math.pi
    if not waves + 8 <= WINDOW_PANEL_BUDGET:
        raise QuadratureFailure(f"Gaussian window needs {waves + 8:.3g} panels at tau={tau}, "
                                f"more than WINDOW_PANEL_BUDGET = {WINDOW_PANEL_BUDGET}")

    def windowed(t):
        return f(t) * np.exp(-t * t * tau_c / 4)

    return windowed, 0.0 if side > 0 else -T, 0.0 if side < 0 else T, max(24, int(waves) + 8)


def integrate_gaussian_window(f, tau, side: int, osc: float, shift: float = 0.0):
    """Integral of f(t) e^{-t^2 tau/4} over t >= 0 (side=+1), t <= 0 (side=-1)
    or the whole line (side=0); f is vectorized over its last axis.

    The window is cut at the T solving rate*T^2 - |shift|*T = log(1e16),
    rate = Re tau/4, so a factor of f growing like e^{|shift| |t|} still leaves
    a tail below 1e-16.  max(24, int(2 (osc + |Im tau| T/2) T/pi) + 8) panels
    resolve an oscillation e^{i osc t} together with the Gaussian's chirp
    e^{-i t^2 Im tau/4}, whose frequency reaches |Im tau| T/2 at the cut, with at
    least four panels per wavelength of their summed frequency.  More
    than WINDOW_PANEL_BUDGET panels, or a sum that is not finite, raises
    QuadratureFailure.
    """
    windowed, lo, hi, n_panels = _window(f, tau, side, osc, shift, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        val = integrate_segment(windowed, lo, hi, n_panels)
    if not np.all(np.isfinite(val)):
        raise QuadratureFailure(f"Gaussian window integral is not finite at tau={tau}")
    return val


def integrate_power_window(f, tau, side: int, osc: float, power: int, shift: float = 0.0):
    """integrate_gaussian_window for an f of size |t|^power e^{|shift| |t|}: returns
    (value, error estimate), both over f's last axis.

    The window is cut where the weighted envelope power log t - t^2 Re tau/4 + |shift| t
    has fallen log(1e16) below its value at the weight's peak, not the bare Gaussian;
    at power = 0 that is integrate_gaussian_window's cut, and the value is its value.
    The error estimate is the difference from a pass on twice the panels plus
    machine epsilon times sum |f w|, the rounding left by cancellation in sum f w.
    check_window_error turns it into a QuadratureFailure.
    """
    windowed, lo, hi, n_panels = _window(f, tau, side, osc, shift, power)
    n_nodes = 16
    first_pass = []

    def sampled(t):
        vals = windowed(t)
        first_pass.append(vals)
        return vals

    with np.errstate(over="ignore", invalid="ignore"):
        val = integrate_segment(sampled, lo, hi, n_panels, n_nodes)
        mass = (hi - lo) * np.sum(np.abs(first_pass[0]) * _panel_rule(n_panels, n_nodes)[1],
                                  axis=-1)
        doubled = integrate_segment(windowed, lo, hi, 2 * n_panels, n_nodes)
        err = np.abs(doubled - val) + np.finfo(float).eps * mass
    if not (np.all(np.isfinite(val)) and np.all(np.isfinite(err))):
        raise QuadratureFailure(f"Gaussian window integral is not finite at tau={tau}")
    return val, err


def check_window_error(val, err):
    """val, after raising QuadratureFailure if the estimate err exceeds
    WINDOW_RTOL * max |val|."""
    worst, scale = float(np.max(err)), float(np.max(np.abs(val)))
    if not worst <= WINDOW_RTOL * scale:
        raise QuadratureFailure(f"Gaussian window error estimate {worst:.3g} exceeds "
                                f"{WINDOW_RTOL:g} relative to {scale:.3g}")
    return val
