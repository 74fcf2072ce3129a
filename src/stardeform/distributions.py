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

import cmath
import math
from functools import lru_cache, partial

import numpy as np

from . import theta
from .core import Poly, intertwine
from .errors import DomainError, QuadratureFailure
from .numeric import as_grid, exp_array, worst_of
from .quadrature import (WINDOW_PANEL_BUDGET, _read_only, integrate_gaussian_window,
                         integrate_segment_refined, x_window)
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

# Terms of Weideman's rational expansion of the Faddeeva function.
WEIDEMAN_N = 40
_RSQRT_PI = 1 / math.sqrt(math.pi)


@lru_cache(maxsize=1)
def _weideman_rule():
    """(L, p, p') of Weideman's expansion (SIAM J. Numer. Anal. 31, 1994) with
    N = WEIDEMAN_N: for Im z >= 0 and Z = (L + iz)/(L - iz),

        w_F(z) = 2 p(Z)/(L - iz)^2 + pi^{-1/2}/(L - iz),

    where L = (N/sqrt 2)^{1/2} and p's N coefficients (highest degree first, as
    np.vander's columns run) are the FFT of e^{-t^2}(L^2 + t^2) at
    t = L tan(k pi/2M), M = 2N; p' is p differentiated."""
    n = WEIDEMAN_N
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2))
    t = L * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    p = np.fft.fft(np.fft.fftshift(f)).real[n:0:-1] / (2 * m)
    return L, *_read_only(p, np.polyder(p))


def _faddeeva(z):
    """(w_F(z), w_F'(z)) of the Faddeeva function w_F(z) = e^{-z^2} erfc(-iz) over
    an array.  On Im z >= 0 both come from the rational form of _weideman_rule,
    w_F' by differentiating it (not by w_F' = -2z w_F + 2i/sqrt(pi), which would
    make the inverse property that sided_inverse_defect checks hold by
    construction); below, w_F(z) = 2 e^{-z^2} - w_F(-z), and a value outside
    the float range raises DomainError."""
    L, p, dp = _weideman_rule()
    lower = z.imag < 0
    up = np.where(lower, -z, z)
    d = L - 1j * up
    Z = (L + 1j * up) / d
    powers = np.vander(Z, WEIDEMAN_N)
    pz = powers @ p
    val = (2 * pz / d + _RSQRT_PI) / d
    der = (4j * (L * (powers[:, 1:] @ dp) / d + pz) / d + 1j * _RSQRT_PI) / d / d
    if lower.any():
        zl = z[lower]
        # one e^{-z^2} serves w_F and w_F', so that its rounding, a multiple of
        # e^{-z^2}, cancels in (a+w) f + (tau/2) f'
        e = exp_array(lambda: -zl * zl)
        with np.errstate(over="ignore", invalid="ignore"):
            val[lower] = 2 * e - val[lower]
            der[lower] -= 4 * zl * e
        if not (np.isfinite(val).all() and np.isfinite(der).all()):
            raise DomainError("the Faddeeva function is outside the float range")
    return val, der


def _sided_closed_form(a, side: str, tau, w_grid):
    """(f, f') over the grid, f the side's inverse of (a + w) and f' its
    w-derivative, with zeta = (a + w)/sqrt(tau):

        f_+ = i sqrt(pi/tau) w_F(-zeta),    f_- = -i sqrt(pi/tau) w_F(zeta)."""
    check_tau(tau)
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    root = cmath.sqrt(complex(tau))
    zeta = (complex(a) + as_grid(w_grid)) / root
    sgn = +1 if side == "+" else -1
    val, der = _faddeeva(-sgn * zeta)
    pref = sgn * 1j * math.sqrt(math.pi) / root
    with np.errstate(over="ignore", invalid="ignore"):
        f, fp = pref * val, -sgn * pref / root * der
    if not (np.isfinite(f).all() and np.isfinite(fp).all()):
        raise DomainError(f"a sided inverse at tau={tau} is outside the float range")
    return f, fp


def sided_inverse(a, side: str, tau, w_grid):
    """Two inverses of (a + w):  '+': i * integral_{-inf}^0,  '-': -i * integral_0^inf
    of e^{-t^2 tau/4} e^{it(a+w)} dt, the linear exponential's tau-expression, for
    each w in the grid.

    The integrals are read from their closed form through the Faddeeva function
    (_sided_closed_form), within max(1e-12, 8 eps |zeta|^2) relative: zeta^2 is
    rounded, and e^{-zeta^2} moves by eps |zeta|^2 relative with it.  A value
    outside the float range raises DomainError.  sided_power at m = 1 integrates
    the same half-lines over a Gaussian window: the second route, which the
    `verify dist` record sided-route-agreement compares with this one."""
    return _sided_closed_form(a, side, tau, w_grid)[0]


def sided_inverse_defect(a, side: str, tau, w_grid) -> float:
    """max over the grid of |(a+w) f + (tau/2) f' - 1| (the inverse property) for
    the closed form's f and f': the residual of the rational approximant in the
    equation.  It cannot see a multiple of e^{-(a+w)^2/tau}, which (a+w) + (tau/2) d/dw
    kills; sided-difference-delta checks that part."""
    f, fp = _sided_closed_form(a, side, tau, w_grid)
    resid = (complex(a) + as_grid(w_grid)) * f + complex(tau) / 2 * fp - 1.0
    return float(np.abs(resid).max())


def sided_power(a, m: int, side: str, tau, w_grid):
    """(a+w)^{-m}_{*(side)} from the (m-1)-th a-derivative of the inverse:
    the derivative pulls (it)^{m-1} into the integrand, and a Gaussian window
    integrates it for every m (at m = 1 it is the second route to sided_inverse).

    Im a shifts the Gaussian peak off t=0, so the window widens by it; the panels
    resolve both the e^{itw} oscillation and the growth from Im a.  m is at most
    171, so that (m-1)! stays below the float maximum.  The window follows the
    weight's mass near |t| = sqrt(2(m-1)/Re tau).  A window whose error
    estimate misses WINDOW_RTOL times its largest value raises QuadratureFailure.
    """
    check_tau(tau)
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if not 1 <= m <= 171:
        raise DomainError(f"m must be in 1..171, got {m}")
    sgn = +1 if side == "+" else -1
    pref = (1j if side == "+" else -1j) * (-1) ** (m - 1) / math.factorial(m - 1)
    a_c = complex(a)
    ws = as_grid(w_grid)
    osc = max(float(np.abs(ws + a_c).max()), abs(a_c.imag) + 1.0)

    def f(t):
        # in place: at complex tau the window's chirp makes these the largest
        # arrays of the suite
        base = np.multiply.outer(ws + a_c, t)
        base *= 1j
        np.exp(base, out=base)
        base *= (1j * t) ** (m - 1)
        return base

    return pref * integrate_gaussian_window(f, tau, -sgn, osc, a_c.imag, m - 1)


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
    """x-side route: integral f(x) delta_expr(x - w) dx for slowly increasing f,
    per segment of each grid point's x window: shape (segments, n), whose sum over
    axis 0 is the transform.  f is elementwise.  breakpoints: x-locations of
    jumps/kinks of f (empty where f is smooth); panel edges are pinned there so
    the Gauss-Legendre refinement converges.  Segment k of point r is row k n + r
    of one row-form refinement; a breakpoint outside a row's window gives that
    row a segment of zero length."""
    check_tau(tau)
    tau_c = complex(tau)
    ws = as_grid(w_grid)
    lo, hi = x_window(ws, tau_c)
    edges = np.column_stack([lo, np.clip(np.sort(breakpoints), lo[:, None], hi[:, None]), hi]).T

    def g(x, rows):
        return f(x) * np.exp(-(x - ws[rows % len(ws), None]) ** 2 / tau_c) / np.sqrt(np.pi * tau_c)

    vals = integrate_segment_refined(g, edges[:-1].ravel(), edges[1:].ravel(), tol=1e-13)
    return vals.reshape(-1, len(ws))


# ---------------------------------------------------------------- Y / sgn

def heaviside_pair(tau, w_grid):
    """(Y(-w), Y(w)): the x-side rule at f = 1 with breakpoint 0.  Its segments
    [lo, 0] and [0, hi] are where the indicators of x < 0 and x > 0 are 1, so the
    half-line an indicator zeroes is not integrated; sgn(x)^2 is 1 on both, so
    sgn * sgn through the density rule is Y(-w) + Y(w).

    Each of Y(-w) = erfc(w/sqrt(tau))/2 and Y(w) = erfc(-w/sqrt(tau))/2 is
    within 1e-13 max(1, |Y|), the tolerance integrate_segment_refined meets
    per segment, or the call raises QuadratureFailure, as at tau = 0.01 + 2i
    where the density's chirp outruns 512 panels.  No relative tolerance
    holds: Y underflows toward 0 on the far side of the step at a small tau."""
    return slowly_increasing_transform(np.ones_like, tau, w_grid, breakpoints=(0.0,))


def heaviside_y_fourier(tau, w_grid):
    """Independent route: Y = 1/2 + (1/pi) integral_0^inf sin(tw)/t e^{-t^2 tau/4} dt.

    sin(tw)/t is written w * sinc(tw/pi) to stay finite at t = 0."""
    ws = as_grid(w_grid)

    def f(t):
        return ws[:, None] * np.sinc(np.multiply.outer(ws, t) / math.pi)

    val = integrate_gaussian_window(f, tau, +1, float(np.abs(ws).max()) + 1.0)
    return 0.5 + val / math.pi


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


def product_of_inverses_residual(a, b, tau, w_grid) -> float:
    """The product law for sided inverses at distinct a != b,

        (a+w)^{-1}_{*s} * (b+w)^{-1}_{*s'} = ((a+w)^{-1}_{*s} - (b+w)^{-1}_{*s'})/(b-a),

    as its worst residual on the grid over the three sign pairs (+,+), (-,-) and
    (+,-), whose products _double_osc forms by 2D quadrature.  With
    Im a < 0 < Im b those three converge absolutely; the (-,+) quadrant does not
    (see _double_osc), and the law is that product's definition."""
    a_c, b_c = complex(a), complex(b)
    inv = {(c, s): sided_inverse(x, s, tau, w_grid) for c, x in (("a", a), ("b", b))
           for s in "+-"}
    worst = 0.0
    for sa, sb in (("+", "+"), ("-", "-"), ("+", "-")):
        lhs = _double_osc(tau, a, b, w_grid, +1 if sa == "+" else -1, +1 if sb == "+" else -1)
        law = (inv[("a", sa)] - inv[("b", sb)]) / (b_c - a_c)
        worst = worst_of((worst, float(np.abs(lhs - law).max())))
    return worst


# ------------------------------------- associativity-breaking demonstration

def associativity_break(tau, w_grid) -> dict:
    """The one-sided geometric inverses of B = 1 - e_*^{2iw} on the grid, A the
    plus inverse and C the minus inverse (theta.geometric_inverse_sum over the
    even lattice's cut), and their products with B.

    The product with e_*^{2iw} is the translation action at s = i, so
    B*X = X - translate_action(1j, X, tau), with X taken at w and at w + i tau.
    Both products are 1, yet C != A: (A*B)*C = C while A*(B*C) = A, and the gap
    C - A is -theta3.  Returns {"A", "C", "B*A", "B*C"} on the grid."""
    ws = as_grid(w_grid)
    out = {}
    for side, name in (("+", "A"), ("-", "C")):
        X = partial(theta.geometric_inverse_sum, side, tau)
        out[name] = X(ws)
        out["B*" + name] = out[name] - translate_action(1j, X, tau)(ws)
    return out
