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

from .core import Poly, intertwine
from .errors import DomainError, QuadratureFailure
from .quadrature import gaussian_halfwidth, integrate_gaussian_window, integrate_segment_refined
from .starexp import GaussPoly, star_poly_gauss, translate_action

TWO_PI = 2 * math.pi


def _check_tau(tau):
    if complex(tau).real <= 0:
        raise DomainError(f"Re tau must be positive, got {tau}")


def delta_tau(a, tau) -> GaussPoly:
    """Star-delta at shift a: (pi tau)^{-1/2} exp(-(a+w)^2/tau)."""
    _check_tau(tau)
    a_c, tau_c = complex(a), complex(tau)
    return GaussPoly(Poly.const(1), -1 / tau_c, -2 * a_c / tau_c,
                     (math.pi * tau_c) ** -0.5, -a_c * a_c / tau_c, 1)


def delta_annihilation(a, tau) -> GaussPoly:
    """(a + w) * delta_*(a+w): identically zero in closed form."""
    return star_poly_gauss(Poly([a, 1]), delta_tau(a, tau), tau)


def _x_window(centre, tau):
    """(lo, hi) of the x-side window of e^{-(x - centre)^2/tau} around Re centre, for
    a centre or an array of them: Im centre makes the Gaussian grow like
    e^{2 |Im centre Im(1/tau)| |x - Re centre|}."""
    c, inv = np.asarray(centre, complex), 1 / complex(tau)
    L = gaussian_halfwidth(inv.real, float(np.max(2 * np.abs(c.imag * inv.imag))))
    return c.real - L, c.real + L


def delta_mass(a, tau):
    """integral over real w of the delta expression (1 for real a, tau)."""
    d = delta_tau(a, tau)
    return integrate_segment_refined(d.values, *_x_window(-complex(a), tau))


# ----------------------------------------------------------- sided inverses

def _halfline_integrand(a, w_grid, t_weight=None):
    """(f, osc) with f(t) = w(t) e^{it(a+w)} over the grid, and the oscillation
    rate the window must resolve: Im a adds growth e^{|Im a| |t|} to it."""
    a_c = complex(a)
    ws = np.asarray([complex(w) for w in w_grid])
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


def _osc_halfline(tau, a, w_grid, side: int, t_weight=None):
    """integral over the half-line (side=+1: t in (-inf,0]; -1: [0,inf)) of
    w(t) e^{-t^2 tau/4} e^{it(a+w)} dt for each w in the grid.

    Im a shifts the Gaussian peak off t=0, so the window widens by it; the
    panels resolve both the e^{itw} oscillation and the growth from Im a."""
    f, osc = _halfline_integrand(a, w_grid, t_weight)
    return integrate_gaussian_window(f, tau, -side, osc, shift=complex(a).imag)


def sided_inverse(a, side: str, tau, w_grid):
    """Two inverses of (a + w):  '+': i * integral_{-inf}^0,  '-': -i * integral_0^inf
    of the linear exponential's tau-expression."""
    _check_tau(tau)
    if side == "+":
        return 1j * _osc_halfline(tau, a, w_grid, +1)
    if side == "-":
        return -1j * _osc_halfline(tau, a, w_grid, -1)
    raise ValueError("side must be '+' or '-'")


def sided_inverse_defect(a, side: str, tau, w_grid) -> float:
    """max over the grid of |(a+w) f + (tau/2) f' - 1| (the inverse property)."""
    tau_c, a_c = complex(tau), complex(a)
    sgn = +1 if side == "+" else -1
    f = sided_inverse(a, side, tau, w_grid)
    fp = (1j if sgn > 0 else -1j) * _osc_halfline(
        tau, a, w_grid, sgn, t_weight=lambda t: 1j * t)
    ws = np.asarray([complex(w) for w in w_grid])
    resid = (a_c + ws) * f + tau_c / 2 * fp - 1.0
    return float(np.abs(resid).max())


def sided_power(a, m: int, side: str, tau, w_grid):
    """(a+w)^{-m}_{*(side)} from the (m-1)-th a-derivative of the inverse:
    the derivative pulls (it)^{m-1} into the integrand.

    m is at most 171, so that (m-1)! stays below the float maximum.  The window
    follows the weight's mass near |t| = sqrt(2(m-1)/Re tau).  A window whose error
    estimate misses WINDOW_RTOL times its largest value raises QuadratureFailure.
    """
    _check_tau(tau)
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
    d = delta_tau(a, tau)
    target = TWO_PI * 1j * d.values(np.asarray([complex(w) for w in w_grid]))
    return float(np.abs(plus - minus - target).max())


# ------------------------------------------------------------- transforms

def tempered_transform(f_hat, tau, w_grid):
    """(2pi)^{-1/2} integral f_hat(t) e^{-t^2 tau/4} e^{-itw} dt on the grid.

    f_hat is vectorized."""
    _check_tau(tau)
    ws = np.asarray([complex(w) for w in w_grid])

    def f(t):
        return f_hat(t)[None, :] * np.exp(-1j * np.multiply.outer(ws, t))

    val = integrate_gaussian_window(f, tau, 0, float(np.abs(ws).max()) + 1.0)
    return val / math.sqrt(TWO_PI)


def slowly_increasing_transform(f, tau, w_grid, breakpoints=()):
    """x-side route: integral f(x) delta_expr(x - w) dx for slowly increasing f.

    f is elementwise.  breakpoints: x-locations of jumps/kinks of f; panel edges
    are pinned there so the Gauss-Legendre refinement converges.  The grid points
    are the rows of one refinement per segment; a breakpoint outside a row's
    window gives that row a segment of zero length."""
    _check_tau(tau)
    tau_c = complex(tau)
    ws = np.asarray([complex(w) for w in w_grid])
    lo, hi = _x_window(ws, tau_c)
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
    _check_tau(tau)
    tau_c = complex(tau)
    ws = np.asarray([complex(w) for w in w_grid])
    lo, hi = _x_window(ws, tau_c)
    zero = np.zeros(len(ws))
    lo, hi = (zero, np.maximum(hi, 0.5)) if not reflected else (np.minimum(lo, -0.5), zero)

    def g(x, rows):
        return np.exp(-(x - ws[rows, None]) ** 2 / tau_c) / np.sqrt(np.pi * tau_c)

    return integrate_segment_refined(g, lo, hi, tol=1e-13)


def heaviside_y_fourier(tau, w_grid):
    """Independent route: Y = 1/2 + (1/pi) integral_0^inf sin(tw)/t e^{-t^2 tau/4} dt.

    sin(tw)/t is written w * sinc(tw/pi) to stay finite at t = 0."""
    ws = np.asarray([complex(w) for w in w_grid])

    def f(t):
        return ws[:, None] * np.sinc(np.multiply.outer(ws, t) / math.pi)

    val = integrate_gaussian_window(f, tau, +1, float(np.abs(ws).max()) + 1.0)
    return 0.5 + val / math.pi


def heaviside_sgn(tau, w_grid):
    """(Y values, sgn values) on the grid; sgn = Y(w) - Y(-w)."""
    y = heaviside_y(tau, w_grid)
    y_ref = heaviside_y(tau, w_grid, reflected=True)
    return y, y - y_ref


def y_sgn_identity_residuals(tau, w_grid) -> dict:
    """Y(w)+Y(-w)=1, Y*Y=Y, Y(w)*Y(-w)=0, sgn*sgn=1; products through the
    underlying-density rule (pointwise multiplication, then transform)."""
    y = heaviside_y(tau, w_grid)
    y_ref = heaviside_y(tau, w_grid, reflected=True)
    sum_res = float(np.abs(y + y_ref - 1.0).max())

    # indicator * indicator = indicator -> transform equals Y again
    yy = slowly_increasing_transform(lambda x: (x > 0).astype(float), tau, w_grid,
                                     breakpoints=(0.0,))
    yy_res = float(np.abs(yy - y).max())

    # indicator(x>0) * indicator(x<0) = 0 a.e.
    zero = slowly_increasing_transform(lambda x: 0.0 * x, tau, w_grid)
    disjoint_res = float(np.abs(zero).max())

    # sgn * sgn = 1
    ss = slowly_increasing_transform(lambda x: np.sign(x) ** 2, tau, w_grid,
                                     breakpoints=(0.0,))
    ss_res = float(np.abs(ss - 1.0).max())
    return {"sum_to_one": sum_res, "y_star_y": yy_res,
            "disjoint_product": disjoint_res, "sgn_star_sgn": ss_res}


def sgn_star_sgn_fourier(tau, w_grid, eps: float = 1e-3):
    """Dual route for sgn * sgn through the Fourier-side convolution rule.

    With the damped regularization sgn_eps(x) = sgn(x) e^{-eps|x|}, the
    convolution of the transforms closes to a Lorentzian (contour integral):
    (2pi)^{-1/2} (sgn_eps-hat conv sgn_eps-hat)(t) = (2pi)^{-1/2} 4 eps/(t^2+4 eps^2),
    so only the final transform needs quadrature; tends to 1 as eps -> 0 with
    O(eps) error."""
    tau_c = complex(tau)
    ws = np.asarray([complex(w) for w in w_grid])
    T = gaussian_halfwidth(tau_c.real / 4)

    def integrand(t):
        kern = 4 * eps / (t * t + 4 * eps * eps)
        return kern * np.exp(-t * t * tau_c / 4 - 1j * np.multiply.outer(ws, t))

    # segments double in length away from the Lorentzian's peak of width 2 eps
    half = [40 * eps * 2.0 ** k for k in range(max(1, math.ceil(math.log2(T / (40 * eps)))))]
    edges = [-T] + [-e for e in reversed(half)] + half + [T]
    val = sum(integrate_segment_refined(integrand, lo, hi) for lo, hi in zip(edges, edges[1:]))
    return val / TWO_PI


# ------------------------------------------------------------ eval pairing

def eval_pairing_residual(f, a, tau, w_grid) -> float:
    """| f_*(w) * delta_*(a - w) - f(a) delta_*(a - w) | on the grid.

    Non-circular routes: polynomial f goes through the finite product rule with
    the intertwined polynomial; exponential f = e^{c x} through the translation
    action.  f is given as a Poly or as ('exp', c)."""
    _check_tau(tau)
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
    worst = 0.0
    for w in w_grid:
        worst = max(worst, abs(lhs(complex(w)) - fa * d(complex(w))))
    return worst


# ------------------------------------------------------------- v.p. / Pf.

def principal_value_inverse(m: int, tau, w_grid):
    """Transform of v.p. 1/x (m=1) or Pf. x^{-m}: the sgn(t)-weighted integral

        (i/2) integral (it)^{m-1}/(m-1)! sgn(t) e^{-t^2 tau/4} e^{-itw} dt.

    m is at most 171, so that (m-1)! stays below the float maximum.  The windows
    follow the weight's mass near |t| = sqrt(2(m-1)/Re tau).  A window whose error
    estimate misses WINDOW_RTOL times its largest value raises QuadratureFailure.
    """
    _check_tau(tau)
    if not 1 <= m <= 171:
        raise DomainError(f"m must be in 1..171, got {m}")
    ws = np.asarray([complex(w) for w in w_grid])
    osc = float(np.abs(ws).max()) + 1.0

    def f(t):
        wgt = (1j * t) ** (m - 1) / math.factorial(m - 1)
        return wgt * np.exp(-1j * np.multiply.outer(ws, t))

    return 0.5j * (integrate_gaussian_window(f, tau, +1, osc, power=m - 1)
                   - integrate_gaussian_window(f, tau, -1, osc, power=m - 1))


# ---------------------------------------------------------- periodic combs

def periodic_comb_residual(a, tau, w_grid, tol: float = 1e-13) -> float:
    """Gaussian comb vs exponential series:

        sum_n delta_*(a + 2 pi n + w) = (1/2pi) sum_k e_*^{ik(a+w)}

    (both sides tau-expressions, truncated adaptively)."""
    _check_tau(tau)
    tau_c = complex(tau)
    ws = np.asarray([complex(w) for w in w_grid])
    u = ws + complex(a)

    comb = np.zeros_like(u, dtype=complex)
    pref = (math.pi * tau_c) ** -0.5
    n = 0
    while True:
        term = np.exp(-(u + TWO_PI * n) ** 2 / tau_c)
        if n != 0:
            term = term + np.exp(-(u - TWO_PI * n) ** 2 / tau_c)
        comb = comb + term
        if n > 2 and float(np.abs(term).max()) * abs(pref) < tol:
            break
        n += 1
        if n > 10000:
            raise QuadratureFailure("comb did not settle")
    comb = pref * comb

    series = np.zeros_like(u, dtype=complex)
    k = 0
    while True:
        term = np.exp(-k * k * tau_c / 4 + 1j * k * u)
        if k != 0:
            term = term + np.exp(-k * k * tau_c / 4 - 1j * k * u)
        series = series + term
        if k > 2 and float(np.abs(term).max()) / TWO_PI < tol:
            break
        k += 1
    series = series / TWO_PI
    return float(np.abs(comb - series).max())


def fourier_series_transport(coeffs: dict, tau, w_grid):
    """sum a_n e_*^{inw} in tau-expression for a finite coefficient dict."""
    _check_tau(tau)
    tau_c = complex(tau)
    ws = np.asarray([complex(w) for w in w_grid])
    acc = np.zeros_like(ws, dtype=complex)
    for n, c in coeffs.items():
        acc = acc + c * np.exp(-n * n * tau_c / 4 + 1j * n * ws)
    return acc


# ------------------------------------------------- constant-variation route

def constant_variation_inverse(a, tau, w_grid, C=0.0):
    """g_a(w) = (2/tau) integral_0^1 exp(((a+wt)^2 - (a+w)^2)/tau) w dt
               + C exp(-(a+w)^2/tau):   a right/left inverse of (a+w)."""
    _check_tau(tau)
    tau_c, a_c = complex(tau), complex(a)
    ws = np.asarray([complex(w) for w in w_grid])

    def f(t, rows):
        w_col = ws[rows, None]
        return np.exp(((a_c + w_col * t) ** 2 - (a_c + w_col) ** 2) / tau_c) * w_col

    val = integrate_segment_refined(f, np.zeros(len(ws)), np.ones(len(ws)), tol=1e-13) * 2 / tau_c
    return val + C * np.exp(-(a_c + ws) ** 2 / tau_c)


def constant_variation_defect(a, tau, w_grid, C=0.0) -> float:
    """|(a+w) g_a + (tau/2) g_a' - 1| with g_a' by central differences (the
    C-term is annihilated exactly, checked separately in closed form)."""
    tau_c, a_c = complex(tau), complex(a)
    h = 1e-5
    ws = np.asarray([complex(w) for w in w_grid])
    g0 = constant_variation_inverse(a, tau, ws, C)
    gp = (constant_variation_inverse(a, tau, ws + h, C)
          - constant_variation_inverse(a, tau, ws - h, C)) / (2 * h)
    resid = (a_c + ws) * g0 + tau_c / 2 * gp - 1.0
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
    ws = np.asarray([complex(w) for w in w_grid])
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
        worst = max(worst, float(np.abs(lhs - law(sa, sb)).max()))
    prods[("-", "+")] = law("-", "+")
    vanish = prods[("+", "+")] - prods[("+", "-")] - prods[("-", "+")] + prods[("-", "-")]
    return {"product_law": worst, "delta_pair_product": float(np.abs(vanish).max())}


# ------------------------------------- associativity-breaking demonstration

def associativity_break_gap(tau, w_grid, n_terms: int = 40) -> dict:
    """Associativity failure for the one-sided geometric inverses of
    B = 1 - e_*^{2iw}:  with A the plus inverse and C the minus inverse,

        A*B = 1 and B*C = 1   (boundary terms e^{-(N+1)^2 tau} below 1e-300),
        so (A*B)*C = C while A*(B*C) = A, and the gap C - A is -theta3.

    Returns the numeric residuals of both inverse properties (the telescoped
    boundary term included) and the gap values on the grid."""
    tau_c = complex(tau)
    ws = np.asarray([complex(w) for w in w_grid])

    def basis(n):
        return np.exp(-n * n * tau_c + 2j * n * ws)

    N = n_terms
    A = sum(basis(n) for n in range(N + 1))
    C = -sum(basis(-n) for n in range(1, N + 1))
    # telescoped products of the truncated series with B
    AB = 1.0 - basis(N + 1)
    BC = 1.0 - basis(-N)
    return {
        "plus_inverse_residual": float(np.abs(AB - 1.0).max()),
        "minus_inverse_residual": float(np.abs(BC - 1.0).max()),
        "gap": C - A,
    }
