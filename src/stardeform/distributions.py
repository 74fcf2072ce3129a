"""Star-delta calculus: deltas, sided inverses, Heaviside/sign, v.p./Pf, combs.

The tau-expression of the delta element at shift a is the entire Gaussian
(pi tau)^{-1/2} exp(-(a+w)^2/tau), Re tau > 0.  Products of the non-polynomial
objects here are computed on the distribution side (multiply the underlying
densities, or convolve on the Fourier side) and then transformed; term-wise
differentiation series diverge for these objects and are never used.

Fourier conventions: densities transform with kernel e^{+itx},

    f_*(w)|_tau = (2pi)^{-1/2} integral f_hat(t) e^{-t^2 tau/4} e^{-itw} dt,
    f_hat(t) = (2pi)^{-1/2} integral f(x) e^{itx} dx,

which makes the delta law  transform(delta(x-a)) = delta_*(a-w)  hold.
"""

from __future__ import annotations

import math

import numpy as np

from . import theta
from .core import Poly, intertwine
from .errors import DomainError, QuadratureFailure
from .numeric import as_grid, worst_of
from .quadrature import (WINDOW_PANEL_BUDGET, integrate_gaussian_window, integrate_segment_refined,
                         x_window)
from .starexp import GaussPoly, star_poly_gauss, translate_action
from .theta import check_tau

TWO_PI = 2 * math.pi


def delta_tau(a, tau) -> GaussPoly:
    """Star-delta at shift a: (pi tau)^{-1/2} exp(-(a+w)^2/tau)."""
    check_tau(tau)
    a_c, tau_c = complex(a), complex(tau)
    return GaussPoly(Poly.const(1), -1 / tau_c, -2 * a_c / tau_c,
                     (math.pi * tau_c) ** -0.5, -a_c * a_c / tau_c, 1)


def delta_annihilation(a, tau) -> GaussPoly:
    """(a + w) * delta_*(a+w): identically zero in closed form."""
    return star_poly_gauss(Poly([a, 1]), delta_tau(a, tau), tau)


def delta_mass(a, tau):
    """integral over real w of the delta expression (1 for real a, tau).

    The window x_window(-a, tau) has half-width L, where the chirp of
    e^{-(w + a)^2/tau} turns at up to k = 2 |Im(1/tau)| L + 2 |Im a| Re(1/tau)
    rad per unit w; as integrate_gaussian_window counts its waves,
    waves = 2 k L/pi, and integrate_segment_refined starts from
    int(waves / 8) + 2 panels, rounded down to 8 2^j so that every pass stays
    on its default ladder 8, 16, 32, ...  (where that start is 8 the value is
    the one its defaults give).  It refines up to WINDOW_PANEL_BUDGET, and a
    start whose doubling exceeds that budget raises QuadratureFailure."""
    a_c, inv = complex(a), 1 / complex(tau)
    lo, hi = x_window(-a_c, tau)
    L = (hi - lo) / 2
    waves = 2 * (2 * abs(inv.imag) * L + 2 * abs(a_c.imag) * inv.real) * L / math.pi
    need = int(waves / 8) + 2 if waves < 8 * WINDOW_PANEL_BUDGET else WINDOW_PANEL_BUDGET
    start = 8 << max(0, (need // 8).bit_length() - 1)
    if 2 * start > WINDOW_PANEL_BUDGET:
        raise QuadratureFailure(f"delta mass window needs {2 * start} panels at tau={tau}, more "
                                f"than WINDOW_PANEL_BUDGET = {WINDOW_PANEL_BUDGET}")
    return integrate_segment_refined(delta_tau(a, tau), lo, hi, 1e-12, start, WINDOW_PANEL_BUDGET)


# ----------------------------------------------------------- sided inverses

def _halfline_integrand(a, w_grid, t_weight=None):
    """(f, osc) with f(t) = w(t) e^{it(a+w)} over the grid, and the oscillation
    rate the window must resolve: Im a adds growth e^{|Im a| |t|} to it."""
    a_c = complex(a)
    ws = as_grid(w_grid)
    osc = max(float(np.abs(ws + a_c).max()), abs(a_c.imag) + 1.0)

    def f(t):
        # in place: at complex tau the window's chirp makes these the largest
        # arrays of the suite
        base = np.multiply.outer(ws + a_c, t)
        base *= 1j
        np.exp(base, out=base)
        if t_weight is not None:
            base *= t_weight(t)
        return base

    return f, osc


def sided_inverse(a, side: str, tau, w_grid):
    """Two inverses of (a + w):  '+': i * integral_{-inf}^0,  '-': -i * integral_0^inf
    of e^{-t^2 tau/4} e^{it(a+w)} dt, the linear exponential's tau-expression, for
    each w in the grid.

    Im a shifts the Gaussian peak off t=0, so the window widens by it; the
    panels resolve both the e^{itw} oscillation and the growth from Im a.  It is
    sided_power at m = 1."""
    return sided_power(a, 1, side, tau, w_grid)


def sided_inverse_defect(a, side: str, tau, w_grid) -> float:
    """max over the grid of |(a+w) f + (tau/2) f' - 1| (the inverse property).

    Differentiating in w brings a factor it into f's integrand, so one window
    integrates both: each pass builds e^{it(a+w)} once and stacks it with its
    product by it."""
    check_tau(tau)
    tau_c, a_c = complex(tau), complex(a)
    sgn = +1 if side == "+" else -1
    f_t, osc = _halfline_integrand(a, w_grid)

    def both(t):
        base = f_t(t)
        vals = np.empty((2,) + base.shape, complex)
        vals[0] = base
        np.multiply(vals[0], 1j * t, out=vals[1])
        return vals

    f, fp = (1j if sgn > 0 else -1j) * integrate_gaussian_window(both, tau, -sgn, osc,
                                                                 shift=a_c.imag)
    resid = (a_c + as_grid(w_grid)) * f + tau_c / 2 * fp - 1.0
    return float(np.abs(resid).max())


def sided_power(a, m: int, side: str, tau, w_grid):
    """(a+w)^{-m}_{*(side)} from the (m-1)-th a-derivative of the inverse:
    the derivative pulls (it)^{m-1} into the integrand.

    m is at most 171, so that (m-1)! stays below the float maximum.  The window
    follows the weight's mass near |t| = sqrt(2(m-1)/Re tau).  A window whose error
    estimate misses WINDOW_RTOL times its largest value raises QuadratureFailure.
    """
    check_tau(tau)
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if not 1 <= m <= 171:
        raise DomainError(f"m must be in 1..171, got {m}")
    sgn = +1 if side == "+" else -1
    pref = (1j if side == "+" else -1j) * (-1) ** (m - 1) / math.factorial(m - 1)
    f, osc = _halfline_integrand(a, w_grid, t_weight=lambda t: (1j * t) ** (m - 1))
    return pref * integrate_gaussian_window(f, tau, -sgn, osc, complex(a).imag, m - 1)


def delta_difference_residual(a, tau, w_grid) -> float:
    """plus inverse - minus inverse = 2 pi i * delta expression."""
    plus = sided_inverse(a, "+", tau, w_grid)
    minus = sided_inverse(a, "-", tau, w_grid)
    target = TWO_PI * 1j * delta_tau(a, tau)(as_grid(w_grid))
    return float(np.abs(plus - minus - target).max())


# ------------------------------------------------------------- transforms

def tempered_transform(f_hat, tau, w_grid):
    """(2pi)^{-1/2} integral f_hat(t) e^{-t^2 tau/4} e^{-itw} dt on the grid.

    f_hat is vectorized."""
    check_tau(tau)
    ws = as_grid(w_grid)

    def f(t):
        return f_hat(t)[None, :] * np.exp(-1j * np.multiply.outer(ws, t))

    val = integrate_gaussian_window(f, tau, 0, float(np.abs(ws).max()) + 1.0)
    return val / math.sqrt(TWO_PI)


def slowly_increasing_transform(f, tau, w_grid, breakpoints):
    """x-side route: integral f(x) delta_expr(x - w) dx for slowly increasing f.

    f is elementwise.  breakpoints: x-locations of jumps/kinks of f (empty where
    f is smooth); panel edges
    are pinned there so the Gauss-Legendre refinement converges.  The grid points
    are the rows of one refinement per segment; a breakpoint outside a row's
    window gives that row a segment of zero length."""
    check_tau(tau)
    tau_c = complex(tau)
    ws = as_grid(w_grid)
    lo, hi = x_window(ws, tau_c)
    edges = np.column_stack([lo, np.clip(np.sort(breakpoints), lo[:, None], hi[:, None]), hi])

    def g(x, rows):
        return f(x) * np.exp(-(x - ws[rows, None]) ** 2 / tau_c) / np.sqrt(np.pi * tau_c)

    val = 0.0 + 0.0j
    for k in range(edges.shape[1] - 1):
        val = val + integrate_segment_refined(g, edges[:, k], edges[:, k + 1], tol=1e-13)
    return val


# ---------------------------------------------------------------- Y / sgn

def heaviside_y(tau, w_grid, reflected: bool = False):
    """Y(w) (or Y(-w)) by x-quadrature of the delta kernel over the half line;
    the grid points are the rows of one refinement."""
    check_tau(tau)
    tau_c = complex(tau)
    ws = as_grid(w_grid)
    lo, hi = x_window(ws, tau_c)
    zero = np.zeros(len(ws))
    lo, hi = (zero, np.maximum(hi, 0.5)) if not reflected else (np.minimum(lo, -0.5), zero)

    def g(x, rows):
        return np.exp(-(x - ws[rows, None]) ** 2 / tau_c) / np.sqrt(np.pi * tau_c)

    return integrate_segment_refined(g, lo, hi, tol=1e-13)


def heaviside_y_fourier(tau, w_grid):
    """Independent route: Y = 1/2 + (1/pi) integral_0^inf sin(tw)/t e^{-t^2 tau/4} dt.

    sin(tw)/t is written w * sinc(tw/pi) to stay finite at t = 0."""
    ws = as_grid(w_grid)

    def f(t):
        return ws[:, None] * np.sinc(np.multiply.outer(ws, t) / math.pi)

    val = integrate_gaussian_window(f, tau, +1, float(np.abs(ws).max()) + 1.0)
    return 0.5 + val / math.pi


def y_sgn_identity_residuals(tau, w_grid) -> dict:
    """Y(w)+Y(-w)=1 and sgn*sgn=1; the product through the underlying-density
    rule (pointwise multiplication, then transform)."""
    y = heaviside_y(tau, w_grid)
    y_ref = heaviside_y(tau, w_grid, reflected=True)
    sum_res = float(np.abs(y + y_ref - 1.0).max())

    # sgn * sgn = 1
    ss = slowly_increasing_transform(lambda x: np.sign(x) ** 2, tau, w_grid,
                                     breakpoints=(0.0,))
    ss_res = float(np.abs(ss - 1.0).max())
    return {"sum_to_one": sum_res, "sgn_star_sgn": ss_res}


# ------------------------------------------------------------ eval pairing

def eval_pairing_residual(f, a, tau, w_grid) -> float:
    """| f_*(w) * delta_*(a - w) - f(a) delta_*(a - w) | on the grid.

    Non-circular routes: polynomial f goes through the finite product rule with
    the intertwined polynomial; exponential f = e^{c x} through the translation
    action.  f is given as a Poly or as ('exp', c)."""
    check_tau(tau)
    tau_c = complex(tau)
    d = delta_tau(-complex(a), tau_c)   # delta_*(a - w)
    if isinstance(f, Poly):
        fstar = intertwine(f.to_complex(), 0.0, tau_c)
        lhs = star_poly_gauss(fstar, d, tau_c)
        fa = f.to_complex()(complex(a))
    elif isinstance(f, tuple) and f[0] == "exp":
        # f_* for e^{cx} is the deformed exponential at c (amplitude included);
        # its left product is the translation action at s = c/2
        c = complex(f[1])
        lhs = translate_action(c / 2, d, tau_c)
        fa = np.exp(c * complex(a))
    else:
        raise ValueError("f must be a Poly or ('exp', c)")
    ws = as_grid(w_grid)
    return float(np.abs(lhs(ws) - fa * d(ws)).max())


# ------------------------------------------------------------- v.p. / Pf.

def principal_value_inverse(m: int, tau, w_grid):
    """Transform of v.p. 1/x (m=1) or Pf. x^{-m}: the sgn(t)-weighted integral

        (i/2) integral (it)^{m-1}/(m-1)! sgn(t) e^{-t^2 tau/4} e^{-itw} dt.

    m is at most 171, so that (m-1)! stays below the float maximum.  The windows
    follow the weight's mass near |t| = sqrt(2(m-1)/Re tau).  A window whose error
    estimate misses WINDOW_RTOL times its largest value raises QuadratureFailure.
    """
    check_tau(tau)
    if not 1 <= m <= 171:
        raise DomainError(f"m must be in 1..171, got {m}")
    ws = as_grid(w_grid)
    osc = float(np.abs(ws).max()) + 1.0

    def f(t):
        wgt = (1j * t) ** (m - 1) / math.factorial(m - 1)
        return wgt * np.exp(-1j * np.multiply.outer(ws, t))

    return 0.5j * (integrate_gaussian_window(f, tau, +1, osc, power=m - 1)
                   - integrate_gaussian_window(f, tau, -1, osc, power=m - 1))


# ---------------------------------------------------------- periodic combs

def periodic_comb_residual(a, tau, w_grid) -> float:
    """Gaussian comb vs exponential series:

        sum_n delta_*(a + 2 pi n + w) = (1/2pi) sum_k e_*^{ik(a+w)}

    the x-side comb (period 2 pi) against the Fourier-side series over k in Z."""
    u = as_grid(w_grid) + complex(a)
    comb = theta.gaussian_comb(TWO_PI, tau, u) * (math.pi * complex(tau)) ** -0.5
    k = theta.lattice(tau, u)
    series = theta.lattice_sum(k, np.ones(len(k)), tau, u) / TWO_PI
    return float(np.abs(comb - series).max())


# ------------------------------------------------- constant-variation route

def constant_variation_defect(a, tau, w_grid) -> float:
    """|(a+w) g_a + (tau/2) g_a' - 1| on the grid for the inverse of (a+w)

        g_a(w) = (2/tau) integral_0^1 e^E w dt,  E = ((a+wt)^2 - (a+w)^2)/tau;

    adding C exp(-(a+w)^2/tau), which (a+w) annihilates, gives the others.
    g_a' is differentiated under the integral, (2/tau) integral_0^1 e^E (1 + w dE/dw) dt,
    and one row-form refinement takes both: row r < n is g_a at w_r, row n + r
    is g_a' there."""
    check_tau(tau)
    tau_c, a_c = complex(tau), complex(a)
    ws = as_grid(w_grid)
    n = len(ws)

    def f(t, rows):
        w_col = ws[rows % n, None]
        e = np.exp(((a_c + w_col * t) ** 2 - (a_c + w_col) ** 2) / tau_c)
        dE = (2 * t * (a_c + w_col * t) - 2 * (a_c + w_col)) / tau_c
        return e * np.where(rows[:, None] < n, w_col, 1 + w_col * dE)

    vals = integrate_segment_refined(f, np.zeros(2 * n), np.ones(2 * n), tol=1e-13) * 2 / tau_c
    resid = (a_c + ws) * vals[:n] + tau_c / 2 * vals[n:] - 1.0
    return float(np.abs(resid).max())


# ------------------------------------------- products of sided inverses

def _double_osc(tau, a, b, w_grid, side_a: int, side_b: int):
    """(i eps_a)(i eps_b) double integral over the two half-lines of
    e^{ita} e^{isb} e^{-(t+s)^2 tau/4} e^{i(t+s)w}.

    side=+1 is the t<=0 half (the '+' inverse).  The same-sign quadrants (+,+) and
    (-,-) converge for every a, b; (+,-) converges when Im a < Im b, and (-,+)
    only when Im a > Im b, so with Im a < 0 < Im b (-,+) grows along its flat
    direction t = -s and is not integrable.

    In the coordinates u = t + s, v = t - s (dt ds = du dv / 2) the integrand is

        e^{-u^2 tau/4} e^{iuw} e^{iu(a+b)/2} e^{iv(a-b)/2},

    so the Gaussian, and w, act on u alone.  The outer u-integral is a Gaussian
    window (integrate_gaussian_window: its cut and panel count, with the growth
    of the integrand along the quadrant's two edges as the shift), and at every
    u node an inner Gauss-Legendre rule integrates over v:
      - same-sign quadrants: u on the quadrant's half-line, v in [-|u|, |u|];
      - (+,-): u on both half-lines, split at the kink u = 0, and v in
        [-V, -|u|] with V = |u| + log(1e16)/d, where the v-factor decays at the
        rate d = (Im b - Im a)/2.
    Every inner integral is F(hi) - F(lo) for one cumulative integral
    F(x) = integral^x e^{iv(a-b)/2} dv: the driver in row form integrates between
    consecutive v-limits of all u nodes, one row each, and a cumulative sum
    gives F at every limit.  w enters only through the outer factor e^{iuw}, so
    the inner rule runs once per outer pass for the whole grid.

    The v-integrals are elementary, but none is taken in closed form: they are
    the algebra that derives the product law, so using them would turn the
    law's check into a restatement of it.  Both variables stay on quadrature."""
    tau_c, a_c, b_c = complex(tau), complex(a), complex(b)
    ws = as_grid(w_grid)
    if side_a < 0 and side_b > 0:
        raise DomainError("the (-,+) quadrant is not absolutely convergent")
    half_sum, half_diff = (a_c + b_c) / 2, (a_c - b_c) / 2
    if side_a == side_b:
        def v_limits(abs_u):
            return -abs_u, abs_u
    else:
        decay = -half_diff.imag
        if decay <= 0:
            raise DomainError("the (+,-) quadrant needs Im a < Im b")
        length = math.log(1e16) / decay

        def v_limits(abs_u):
            return -abs_u - length, -abs_u

    def f(u):
        limits, where = np.unique(np.concatenate(v_limits(np.abs(u))), return_inverse=True)
        steps = integrate_segment_refined(lambda v, rows: np.exp(1j * half_diff * v),
                                          limits[:-1], limits[1:], 1e-13, 1)
        F = np.concatenate(([0.0], np.cumsum(steps)))
        inner = F[where[len(u):]] - F[where[:len(u)]]
        return np.exp(1j * np.multiply.outer(ws, u)) * (np.exp(1j * half_sum * u) * inner / 2)

    # a quadrant edge runs along t (u has the sign -side_a) or along s; the
    # integrand's growth along u is largest on an edge
    edges = ((-side_a, side_a * a_c.imag), (-side_b, side_b * b_c.imag))
    osc = float(np.abs(ws).max()) + abs(half_sum) + abs(half_diff)
    total = 0.0
    for u_side in sorted({-side_a, -side_b}):
        growth = max(rate for sign, rate in edges if sign == u_side)
        total = total + integrate_gaussian_window(f, tau_c, u_side, osc, max(growth, 0.0))
    pref = (1j if side_a > 0 else -1j) * (1j if side_b > 0 else -1j)
    return pref * total


def product_of_inverses_residual(a, b, tau, w_grid) -> dict:
    """Checks around the product law for sided inverses at distinct a != b
    (Im a < 0 < Im b so three of the four sign pairs converge absolutely):

        (a+w)^{-1}_{*s} * (b+w)^{-1}_{*s'} = ((a+w)^{-1}_{*s} - (b+w)^{-1}_{*s'})/(b-a)

    verified by 2D quadrature for (+,+), (-,-), (+,-); the (-,+) pairing is the
    law's defining case and is taken from the right side.  The vanishing of
    (plus - minus at a) * (plus - minus at b) then follows from the four-term
    expansion and is reported as computed."""
    a_c, b_c = complex(a), complex(b)
    inv = {("a", "+"): sided_inverse(a, "+", tau, w_grid),
           ("a", "-"): sided_inverse(a, "-", tau, w_grid),
           ("b", "+"): sided_inverse(b, "+", tau, w_grid),
           ("b", "-"): sided_inverse(b, "-", tau, w_grid)}

    def law(sa, sb):
        return (inv[("a", sa)] - inv[("b", sb)]) / (b_c - a_c)

    prods = {}
    worst = 0.0
    for sa, sb in (("+", "+"), ("-", "-"), ("+", "-")):
        lhs = _double_osc(tau, a, b, w_grid,
                          +1 if sa == "+" else -1, +1 if sb == "+" else -1)
        prods[(sa, sb)] = lhs
        worst = worst_of((worst, float(np.abs(lhs - law(sa, sb)).max())))
    prods[("-", "+")] = law("-", "+")
    vanish = prods[("+", "+")] - prods[("+", "-")] - prods[("-", "+")] + prods[("-", "-")]
    return {"product_law": worst, "delta_pair_product": float(np.abs(vanish).max())}


# ------------------------------------- associativity-breaking demonstration

def associativity_break_gap(tau, w_grid) -> dict:
    """Associativity failure for the one-sided geometric inverses of
    B = 1 - e_*^{2iw}:  with A the plus inverse and C the minus inverse
    (theta.geometric_inverse_sum over the even lattice's cut n <= N),

        A*B = 1 - e_*^{2(N+1)iw} and B*C = 1 - e_*^{-2Niw}   (telescoped),
        so (A*B)*C = C while A*(B*C) = A, and the gap C - A is -theta3.

    Returns both inverse residuals (the largest telescoped boundary term on the
    grid) and the gap values on the grid."""
    ws = as_grid(w_grid)
    A = theta.geometric_inverse_sum("+", tau, ws)
    C = theta.geometric_inverse_sum("-", tau, ws)
    N = int(theta.lattice(tau, ws, 2).max()) // 2
    boundary = np.abs(theta.tau_basis([2 * (N + 1), -2 * N], tau, ws)).max(axis=0)
    return {"plus_inverse_residual": float(boundary[0]),
            "minus_inverse_residual": float(boundary[1]), "gap": C - A}
