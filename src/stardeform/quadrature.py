"""Composite Gauss-Legendre quadrature over segments, and the Gaussian-window
kernel for oscillatory integrals against e^{-t^2 tau/4}.

tau is complex throughout the package, so fixed classical rules (Hermite,
Laguerre weights) do not apply; panels over explicitly truncated intervals
with analytic tail bounds are used instead.
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


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    # map to [0, 1]
    return (x + 1.0) / 2.0, w / 2.0


def integrate_segment(f, a, b, n_panels: int = 8, n_nodes: int = 16):
    """Integrate vectorized f along the straight segment a->b (complex endpoints ok)."""
    x, w = _gl_nodes(n_nodes)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    ts = (edges[:-1, None] + np.diff(edges)[:, None] * x[None, :]).ravel()
    ws = (np.diff(edges)[:, None] * w[None, :]).ravel()
    pts = a + (b - a) * ts
    vals = f(pts)
    return (b - a) * np.sum(vals * ws, axis=-1)


def integrate_segment_refined(f, a, b, tol: float = 1e-12, n_nodes: int = 16,
                              start_panels: int = 8, max_panels: int = 512):
    """Panel-doubling refinement; raises QuadratureFailure if tol is not met."""
    prev = integrate_segment(f, a, b, start_panels, n_nodes)
    n = start_panels
    while n <= max_panels:
        n *= 2
        cur = integrate_segment(f, a, b, n, n_nodes)
        scale = max(1.0, abs(np.asarray(cur)).max() if np.ndim(cur) else abs(cur))
        err = np.max(np.abs(np.asarray(cur) - np.asarray(prev)))
        if err <= tol * scale:
            return cur
        prev = cur
    raise QuadratureFailure(f"segment quadrature did not reach tol={tol}")


def gaussian_halfwidth(re_inv_scale: float, tol: float = 1e-16) -> float:
    """T with exp(-T^2 * re_inv_scale) < tol; re_inv_scale > 0."""
    if re_inv_scale <= 0:
        raise QuadratureFailure("nonpositive Gaussian decay rate")
    return float(np.sqrt(np.log(1.0 / tol) / re_inv_scale))


def integrate_gaussian_window(f, tau, side: int, osc: float, shift: float = 0.0):
    """Integral of f(t) e^{-t^2 tau/4} over t >= 0 (side=+1), t <= 0 (side=-1)
    or the whole line (side=0); f is vectorized over its last axis.

    The window is cut at the T solving rate*T^2 - |shift|*T = log(1e16),
    rate = Re tau/4, so a factor of f growing like e^{|shift| |t|} still leaves
    a tail below 1e-16.  max(24, int(2 osc T/pi) + 8) panels resolve an
    oscillation e^{i osc t} with at least four panels per wavelength.  More
    than WINDOW_PANEL_BUDGET panels, or a sum that is not finite, raises
    QuadratureFailure.
    """
    tau_c = complex(tau)
    rate = tau_c.real / 4
    if rate <= 0:
        raise QuadratureFailure("nonpositive Gaussian decay rate")
    g = abs(shift)
    T = (g + math.sqrt(g * g + 4 * rate * _LOG_WINDOW_TOL)) / (2 * rate)
    waves = 2 * osc * T / math.pi
    if not waves + 8 <= WINDOW_PANEL_BUDGET:
        raise QuadratureFailure(f"Gaussian window needs {waves + 8:.3g} panels at tau={tau}, "
                                f"more than WINDOW_PANEL_BUDGET = {WINDOW_PANEL_BUDGET}")
    n_panels = max(24, int(waves) + 8)

    def windowed(t):
        return f(t) * np.exp(-t * t * tau_c / 4)

    with np.errstate(over="ignore", invalid="ignore"):
        val = integrate_segment(windowed, 0.0 if side > 0 else -T, 0.0 if side < 0 else T,
                                n_panels)
    if not np.all(np.isfinite(val)):
        raise QuadratureFailure(f"Gaussian window integral is not finite at tau={tau}")
    return val
