"""Deformed Hermite, Bessel, Legendre, and Laguerre families.

Hermite: H_n(w, tau) = (sqrt2)^n P_n(w, tau) where P_n is the deformed power of
w; the rational reduced table P_n carries all polynomial identities exactly.

Bessel: J_n(a w, tau) defined through the generating relation; the deformed
table is the convolution of the classical table with the Fourier coefficients
(modified-Bessel type) of the correction factor exp(-(a^2 tau/16)(q^2+q^{-2})).

Legendre: coefficients of the t-expansion of a parametric half-line integral;
derivatives at t=0 are taken symbolically in t, the s-integral by quadrature
(with an exact half-integer-moment route as the dual code path).

Laguerre: t-coefficients of the quadratic exponential element
(1 - t tau)^{-1/2} exp(t x/(1 - t tau)), x = w^2; normalization d^n/dx^n L_n = 1.

Table construction is pure and embarrassingly parallel over the index.  The
exact tables need no numpy: numpy and quadrature are imported inside the float
routes only.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .core import ExactPoly, star_product, w_star_power
from .errors import DomainError, QuadratureFailure, TruncationFailure
from .exact import QC, as_qc, from_gaussian, gaussian_parts, gaussian_powers, is_exact
from .numeric import as_grid, worst_of

SQRT2 = math.sqrt(2.0)


# ----------------------------------------------------------------- Hermite

def hermite_table(N: int, tau) -> tuple:
    """H_0..H_N as float-coefficient Polys, H_n with leading coefficient (sqrt2)^n."""
    if N < 0:
        raise ValueError("N must be >= 0")
    tau = as_qc(tau)
    return tuple(w_star_power(n, tau).to_complex().scale(SQRT2 ** n) for n in range(N + 1))


def hermite_checks(N: int, tau) -> dict:
    """Recurrence, differential equation, derivative ladder of P_0..P_N, the
    table with the (sqrt2)^n factored out (ExactPoly for an exact tau): exact,
    so a zero residual means the polynomials cancel identically.

    reduced identities (the global (sqrt2)^n scales away):
        recurrence  w p_n + (tau/2) p_n' = p_{n+1}
        ODE         tau p_n'' + 2 w p_n' - 2n p_n = 0
        ladder      p_n' = n p_{n-1}
    """
    tau = as_qc(tau)
    reduced = [w_star_power(n, tau) for n in range(N + 1)]
    w = ExactPoly.x()
    rec_ok = ode_ok = ladder_ok = True
    for n in range(N):
        p = reduced[n]
        if w * p + p.deriv().scale(tau / 2) != reduced[n + 1]:
            rec_ok = False
    for n, p in enumerate(reduced):
        if not (p.deriv(2).scale(tau) + p.deriv().scale(2) * w - p.scale(2 * n)).is_zero():
            ode_ok = False
        if n >= 1 and p.deriv() != reduced[n - 1].scale(n):
            ladder_ok = False
    top_ok = all(p.deriv(n) == math.factorial(n) for n, p in enumerate(reduced))
    return {"recurrence": rec_ok, "ode": ode_ok, "ladder": ladder_ok,
            "top_derivative": top_ok}


def hermite_convolution_scale(n: int, tau) -> int | None:
    """Which scale makes sum_{k+l=n} binom(n,k) H_k * H_l equal c * H_n.

    Returns the integer log2 of c when the identity holds exactly (the
    exponential law forces c = 2^n); None if neither candidate matches.
    """
    acc = ExactPoly()
    for k in range(n + 1):
        term = star_product(w_star_power(k, tau), w_star_power(n - k, tau), tau)
        acc = acc + term.scale(math.comb(n, k))
    target = w_star_power(n, tau)
    if acc == target.scale(2 ** n):
        return n
    if acc == target:
        return 0
    return None


def hermite_orthogonality(n: int, m: int, tau):
    """Weighted pairing integral_R exp(w^2/tau) H_n H_m dw by quadrature (Re tau < 0).

    Diagonal value n!(-tau)^n sqrt(-tau) sqrt(pi); off-diagonal zero.
    """
    import numpy as np

    from .quadrature import gaussian_halfwidth, integrate_segment_refined

    tau_c = complex(tau)
    if tau_c.real >= 0:
        raise QuadratureFailure("Re tau must be negative for the weight to decay")
    L = gaussian_halfwidth(-(1 / tau_c).real, power=n + m)
    hn = hermite_table(max(n, m), tau_c)
    pn, pm = hn[n], hn[m]

    def f(w):
        return np.exp(w * w / tau_c) * pn(w) * pm(w)

    return integrate_segment_refined(f, -L, L, tol=1e-10)


def hermite_orthogonality_target(n: int, tau) -> complex:
    tau_c = complex(tau)
    return math.factorial(n) * (-tau_c) ** n * cmath.sqrt(-tau_c) * math.sqrt(math.pi)


# ------------------------------------------------------------------ Bessel

# Highest start index of the backward recurrence, i.e. |z| up to about 2e4.
BESSEL_RECURRENCE_BUDGET = 20_000
# Most correction-factor terms I_m(a^2 tau/8) bessel_table sums (to |I_{M+1}| <= 1e-14).
BESSEL_CORRECTION_BUDGET = 60
# Largest |a w| of bessel_table's ascending series; beyond it the series loses
# 1e-14..1e-13 to cancellation below |z| = 10, the backward recurrence < 3e-15.
BESSEL_SERIES_MAX = 6.0
# Most points in s of bessel_addition_residual's two-parameter transform, which
# forms one n x n complex array per grid point (16 MiB at 1024).
BESSEL_ADDITION_FFT_BUDGET = 1024
BESSEL_GENERATING_FFT_BUDGET = 4096     # most points in s of bessel_generating_fft


def _bessel_series(kmax: int, z):
    """J_0..J_kmax at the points z, a row per order: the ascending series, each
    entry stopped once its term falls below 1e-18 of its sum."""
    import numpy as np

    n = np.arange(kmax + 1)[:, None]
    half = z / 2
    # half^n / n!, as a running product that goes past the float range of n!
    term = np.cumprod(np.vstack([np.ones_like(half), half / np.arange(1, kmax + 1)[:, None]]), 0)
    acc = term.copy()
    live = np.ones(acc.shape, bool)
    for k in range(1, 80):
        term *= -(half * half) / (k * (n + k))
        np.add(acc, term, out=acc, where=live)
        live &= ~(np.abs(term) < 1e-18 * np.maximum(1e-300, np.abs(acc)))
        if not live.any():
            break
    return acc


def _bessel_miller(kmax: int, z: complex) -> list:
    """J_0..J_kmax at one point z: one backward sweep, normalised by J_0 + 2 sum J_2k = 1."""
    start = max(kmax, abs(z)) + 20 + 2 * math.sqrt(max(kmax, abs(z)) + 1)
    if not start <= BESSEL_RECURRENCE_BUDGET:
        raise TruncationFailure(f"J_0..J_{kmax}({z}) needs a recurrence from {start:.3g}, more "
                                f"than BESSEL_RECURRENCE_BUDGET = {BESSEL_RECURRENCE_BUDGET}")
    jp, jc, norm = 0j, 1e-30 + 0j, 0j
    out = [0j] * (kmax + 1)
    for k in range(int(start) + int(start) % 2, 0, -1):
        jp, jc = jc, (2 * k / z) * jc - jp
        if k - 1 <= kmax:
            out[k - 1] = jc
        if (k - 1) % 2 == 0:
            norm += jc if k - 1 == 0 else 2 * jc
        if abs(jc) > 1e250:
            jp, jc, norm = jp / 1e250, jc / 1e250, norm / 1e250
            out = [v / 1e250 for v in out]
    return [v / norm for v in out]


def bessel_i(m: int, z: complex) -> complex:
    """Modified Bessel I_m by ascending series (arguments here are small)."""
    m = abs(m)
    z = complex(z)
    half = z / 2
    term = half ** m / math.factorial(m)
    acc = term
    for k in range(1, 200):
        term *= (half * half) / (k * (m + k))
        acc += term
        if abs(term) < 1e-18 * max(1e-300, abs(acc)):
            break
    return acc


def bessel_table(a, tau, N: int, w_grid) -> dict:
    """{n: J_n(a w, tau) over the grid} for n = -N..N, in that order, via the
    correction-factor convolution

        J_n(a w, tau) = e^{-a^2 tau/8} sum_m I_m(a^2 tau/8) J_{n-2m}(a w),

    from the tau-expression exponent lambda(s)^2 tau/4 with lambda = i a sin s,
    whose constant and cos(2s) parts are -a^2 tau/8 and (a^2 tau/16)(q^2+q^{-2}).
    """
    import numpy as np

    a_c, tau_c = complex(a), complex(tau)
    x = a_c * a_c * tau_c / 8
    if not cmath.isfinite(x):
        raise TruncationFailure(f"the correction series needs a^2 tau/8, which is outside "
                                f"the float range at a = {a_c}, tau = {tau_c}")
    try:
        M, i_row = 0, [bessel_i(0, x)]      # I_0..I_M(x), each computed once
        while not abs(i_next := bessel_i(M + 1, x)) <= 1e-14 and M < BESSEL_CORRECTION_BUDGET:
            M += 1
            i_row.append(i_next)
    except OverflowError:                   # I_m(x) beyond the float range
        M = BESSEL_CORRECTION_BUDGET
    if M >= BESSEL_CORRECTION_BUDGET:
        raise TruncationFailure(f"the correction series at a^2 tau/8 = {x:.4g} needs more terms "
                                f"than BESSEL_CORRECTION_BUDGET = {BESSEL_CORRECTION_BUDGET}")
    kmax = N + 2 * M + 8
    ws = as_grid(w_grid)
    z = a_c * ws
    small = np.abs(z) <= BESSEL_SERIES_MAX
    pos = np.empty((kmax + 1, len(z)), complex)
    pos[:, small] = _bessel_series(kmax, z[small])
    for i in np.flatnonzero(~small):
        pos[:, i] = _bessel_miller(kmax, complex(z[i]))
    sign = (-1) ** np.arange(kmax, 0, -1)[:, None]    # orders -kmax..kmax, J_{-k} = (-1)^k J_k
    classical = np.concatenate([sign * pos[:0:-1], pos])
    acc = np.zeros((2 * N + 1, len(z)), complex)
    for m in range(-M, M + 1):              # row n + N gathers J_{n-2m}, n = -N..N
        acc = acc + i_row[abs(m)] * classical[kmax - N - 2 * m:kmax + N - 2 * m + 1]
    return dict(zip(range(-N, N + 1), np.exp(-a_c * a_c * tau_c / 8) * acc))


def bessel_table_to_tol(a, tau, n_min: int, tol: float, w_grid) -> dict:
    """bessel_table at the smallest N >= n_min whose dropped orders sum to
    below tol on the grid: max_w |sum_{|n| > N} J_n(a w, tau)| < tol.

    The sums are read from one table at twice the order, doubled until some N
    qualifies, and the result keeps its rows |n| <= N (each row of the
    ascending series is the same at any table order); past bessel_table's
    budgets the search ends in its TruncationFailure.  The first dropped
    order alone does not bound the sum: J_{N+1} and J_{-N-1} cancel for odd
    N + 1 and add for even N + 1."""
    import numpy as np

    hi = 2 * n_min
    while True:
        v = bessel_table(a, tau, hi, w_grid)
        pairs = np.array([v[n] + v[-n] for n in range(n_min + 1, hi + 1)])
        # tail[i]: the largest |sum| over the grid of the orders past n_min + i
        tail = np.abs(np.cumsum(pairs[::-1], axis=0)[::-1]).max(axis=1)
        ok = np.flatnonzero(tail < tol)
        if ok.size:
            N = n_min + int(ok[0])
            return {n: v[n] for n in range(-N, N + 1)}
        hi *= 2


def bessel_unit_sum_residual(table: dict) -> float:
    """max over the grid of |sum_n J_n - 1|, summed over the table's rows in
    their order, -N..N."""
    import numpy as np

    total = sum(table.values())
    return float(np.abs(total - 1.0).max())


def _generating_element(a: complex, tau: complex, ws, n_s: int):
    """lambda = i a sin s at s = 2 pi j / n_s, and the tau-expression
    e^{lambda^2 tau/4 + lambda w} of e^{lambda w}, a row per w (any tau)."""
    import numpy as np

    lam = 1j * a * np.sin(2 * np.pi * np.arange(n_s) / n_s)
    return lam, np.exp(lam * lam * tau / 4 + np.multiply.outer(ws, lam))


def bessel_generating_fft(a, tau, N: int, w_grid) -> dict:
    """Independent route: Fourier coefficients in s of the tau-expression of the
    generating element exp(lambda(s) w), lambda = i a sin s, at n_s points in s: the
    least 256 2^j with n_s - N >= N + (N - r)/2, r = max |a w|.  The orders
    |n| <= N alias onto n_s - N and beyond, and past an N where the orders sum to
    0.5e-10 (about 8 r^{1/3} past r) they fall below 1e-15 within (N - r)/3 more;
    a fixed 256 read 1.3e-5 at r = 100.  Past BESSEL_GENERATING_FFT_BUDGET
    (64 KiB per grid point) it raises TruncationFailure."""
    import numpy as np

    r = abs(complex(a)) * float(np.abs(as_grid(w_grid)).max())
    n_s = 256
    while n_s - N < N + max(0.0, N - r) / 2:
        n_s *= 2
    if n_s > BESSEL_GENERATING_FFT_BUDGET:
        raise TruncationFailure(f"the generating route at order {N} needs {n_s} points in s, "
                                f"more than {BESSEL_GENERATING_FFT_BUDGET}")
    _, F = _generating_element(complex(a), complex(tau), as_grid(w_grid), n_s)
    coef = np.fft.fft(F, axis=1) / n_s
    return {n: coef[:, n % n_s] for n in range(-N, N + 1)}


def bessel_addition_residual(a, b, tau, w_grid) -> float:
    """| J_n((a+b)w, tau) - sum_m J_m(a w, *) * J_{n-m}(b w, *) | on the grid, |n| <= 6.

    Left side: 1D table at a+b.  Right side: each individual deformed product
    is extracted by an n_s x n_s Fourier transform of the two-parameter
    generating product, then summed along the diagonal m + k = n over the
    window m in [-n_s/4, n_s/4).  J_m(x) falls off past m = |x|, so n_s is the
    least 128 2^j whose window holds the orders up to 2 r + 16, r the largest
    |a w| or |b w| on the grid: 128 up to r = 8 (a fixed 128 read 4.9e-14 at
    r = 14 and 1.6e-7 at r = 20, from the orders it dropped).  That product,
    e^{lambda^2 tau/4 + lambda w} at lambda = lambda_a + lambda_b, is the w-free
    e^{lambda_a lambda_b tau/2} times an outer product of the two one-parameter ones.
    Only the read band is transformed along lambda_a, after lambda_b (fft2's order).
    """
    import numpy as np

    a_c, b_c, tau_c = complex(a), complex(b), complex(tau)
    N, n_s = 6, 128
    ws = as_grid(w_grid)
    r = max(abs(a_c), abs(b_c)) * float(np.abs(ws).max())
    while n_s // 4 < 2 * r + 16 and n_s <= BESSEL_ADDITION_FFT_BUDGET:
        n_s *= 2
    if n_s > BESSEL_ADDITION_FFT_BUDGET:
        raise TruncationFailure(f"the addition check at |a w| = {r:.4g} needs {n_s} points "
                                f"in s, more than BESSEL_ADDITION_FFT_BUDGET = "
                                f"{BESSEL_ADDITION_FFT_BUDGET}")
    lhs = bessel_table(a_c + b_c, tau_c, N, w_grid)
    want = np.array(list(lhs.values()))
    (la, ea), (lb, eb) = (_generating_element(c, tau_c, ws, n_s) for c in (a_c, b_c))
    cross = np.exp(np.multiply.outer(la, lb) * tau_c / 2)
    # terms m in [-n_s/4, n_s/4), k = n - m: |k| <= n_s/4 + 6 stays below n_s/3, none aliased
    m = np.arange(-n_s // 4, n_s // 4)
    rows, cols = m % n_s, (np.arange(-N, N + 1)[:, None] - m) % n_s
    band, at = np.unique(cols, return_inverse=True)     # the columns k read, and where
    worst = 0.0
    for iw in range(len(ws)):               # one n_s x n_s array per point
        C = np.fft.fft(np.outer(ea[iw], eb[iw]) * cross, axis=1)
        C = np.fft.fft(C[:, band], axis=0)[rows, at.reshape(cols.shape)] / (n_s * n_s)
        worst = worst_of((worst, float(np.abs(want[:, iw] - C.sum(axis=1)).max())))
    return worst


# ---------------------------------------------------------------- Legendre

def legendre_star(N: int, a, tau, w_grid):
    """P_n(w + a, tau) for n = 0..N on the grid; Re tau < 0.

    The integrand's t-dependence exp(2 s t (w+a) + (tau s^2 - s) t^2) is
    differentiated symbolically at t=0; the s-integral over [0, inf) with
    weight s^{-1/2} e^{-s} is done by quadrature after s = u^2.
    """
    import numpy as np

    from .quadrature import gaussian_halfwidth, integrate_segment_refined

    tau_c = complex(tau)
    if tau_c.real >= 0:
        raise QuadratureFailure("Re tau must be negative")
    ws = np.asarray([complex(w) + complex(a) for w in w_grid])
    out = []
    for n in range(N + 1):
        def f(u):
            s = u * u
            c1 = 2 * s * ws[:, None]
            c2 = tau_c * s * s - s
            acc = np.zeros_like(c1, dtype=complex)
            for j in range(n // 2 + 1):
                acc += c2 ** j * c1 ** (n - 2 * j) \
                    / (math.factorial(j) * math.factorial(n - 2 * j))
            return 2.0 / math.sqrt(math.pi) * np.exp(-s) * acc

        # the n-th integrand is e^{-u^2} times a polynomial of degree 2n in u
        out.append(integrate_segment_refined(f, 0.0, gaussian_halfwidth(1.0, power=2 * n),
                                             tol=1e-11))
    return out


def legendre_star_exact(N: int, tau) -> list:
    """Exact dual route: P_n(., tau) as an ExactPoly in v = w + a for an exact
    tau (half-integer moments are rational).

    The s-integral of the (tau s^2 - s)^j term against s^{n-2j-1/2} e^{-s} is
    a half-integer moment (2k-1)!!/2^k.  With tau = T/t_d (T a Gaussian
    integer), the coefficient of v^(n-2j) is

        sum_i C(j,i) (-1)^(j-i) (2(n-j+i)-1)!! 2^(j-i) T^i t_d^(j-i)
            / (2^(2j) j! (n-2j)! t_d^j),

    summed in ints and canonicalised once per coefficient."""
    tau = as_qc(tau)
    if type(tau) is not QC:
        raise DomainError("legendre_star_exact needs an exact tau; legendre_star is the float route")
    ta, tb, td = gaussian_parts(tau)
    t_re, t_im = gaussian_powers(ta, tb, N // 2)    # T^i, i <= N/2
    td_pow = [td ** i for i in range(N // 2 + 1)]   # t_d^i
    odd_fact = [1]                                  # (2k-1)!!, k <= N
    for k in range(1, N + 1):
        odd_fact.append(odd_fact[-1] * (2 * k - 1))
    out = []
    for n in range(N + 1):
        coeffs = [QC(0)] * (n + 1)
        for j in range(n // 2 + 1):
            re = im = 0
            for i in range(j + 1):
                c = math.comb(j, i) * odd_fact[n - j + i] * (td_pow[j - i] << (j - i))
                if (j - i) % 2:
                    c = -c
                re += c * t_re[i]
                im += c * t_im[i]
            den = (td_pow[j] << (2 * j)) * math.factorial(j) * math.factorial(n - 2 * j)
            coeffs[n - 2 * j] = from_gaussian(re, im, den)
        out.append(ExactPoly(coeffs))
    return out


# ---------------------------------------------------------------- Laguerre

def laguerre_star(N: int, tau) -> list:
    """L_n(x, tau) for n = 0..N as degree-n polynomials in x = w^2:

        L_n = sum_k x^k/k! [t^(n-k)] (1 - t tau)^(-(k+1/2)),

    t-coefficients of (1-t tau)^{-1/2} exp(t x/(1-t tau)); d^n/dx^n L_n = 1.
    [t^m] (1 - t tau)^(-(k+1/2)) = c_m tau^m with c_m = (k+1/2)_m/m! =
    P_m/(2^m m!), and P_{m+1} = P_m (2k+1+2m) is carried across m.  The table
    is ExactPoly at tau = T/t_d, a float or complex tau read at its binary
    value: the numerator of x^k in L_n is C(n,k) P_(n-k) T^(n-k) (2 t_d)^k over
    2^n n! t_d^n.
    """
    tau = as_qc(tau) if is_exact(tau) else QC(tau.real, tau.imag)
    if tau == 0:
        raise DomainError("tau must be nonzero")
    poch = []                                       # poch[k][m] = P_m for alpha = k + 1/2
    for k in range(N + 1):
        row = [1]
        for m in range(N - k):
            row.append(row[-1] * (2 * k + 1 + 2 * m))
        poch.append(row)
    ta, tb, td = gaussian_parts(tau)
    t_re, t_im = gaussian_powers(ta, tb, N)         # T^m
    out = []
    for n in range(N + 1):
        re, im = [], []
        for k in range(n + 1):
            c = math.comb(n, k) * poch[k][n - k] * (2 * td) ** k
            re.append(c * t_re[n - k])
            im.append(c * t_im[n - k])
        out.append(ExactPoly.from_form(re, im, 2 ** n * math.factorial(n) * td ** n))
    return out


def laguerre_from_quad_expansion(N: int, tau, x) -> list:
    """Independent route: t-Taylor coefficients of the quadratic exponential
    element by a 256-node Cauchy circle of radius 0.4/|tau|, inside |t| < 1/|tau|."""
    import numpy as np

    tau_c = complex(tau)
    r = 0.4 / max(abs(tau_c), 1e-9)
    ts = r * np.exp(2j * np.pi * np.arange(256) / 256)
    vals = (1 - tau_c * ts) ** -0.5 * np.exp(ts / (1 - tau_c * ts) * x)
    coef = np.fft.fft(vals) / 256
    return [coef[n] / r ** n for n in range(N + 1)]


def laguerre_orthogonality(n: int, m: int, tau):
    """integral_0^inf x^{-1/2} e^{x/tau} L_n L_m dx (Re tau < 0), by quadrature.

    With the x^{-1/2} weight the family is orthogonal: the Rodrigues form
    x^{-1/2} e^{x/tau} L_n = (tau^n/n!) d^n/dx^n (x^{n-1/2} e^{x/tau}) (see
    laguerre_orthogonality_target) integrates by parts onto d^n/dx^n L_m, which
    vanishes for m < n.  (Substituting x = u^2 removes the endpoint singularity.)
    """
    import numpy as np

    from .quadrature import gaussian_halfwidth, integrate_segment_refined

    tau_c = complex(tau)
    if tau_c.real >= 0:
        raise QuadratureFailure("Re tau must be negative")
    polys = laguerre_star(max(n, m), tau_c)
    pn = polys[n].to_complex()
    pm = polys[m].to_complex()
    U = gaussian_halfwidth(-(1 / tau_c).real, power=2 * (n + m))

    def f(u):
        x = u * u
        return 2 * np.exp(x / tau_c) * pn(x) * pm(x)

    return integrate_segment_refined(f, 0.0, U, tol=1e-10)


def laguerre_orthogonality_target(n: int, tau) -> complex:
    """laguerre_orthogonality(n, n, tau) in closed form,
    tau^{2n} Gamma(n+1/2) (-tau)^{1/2} / n!  (Re tau < 0).

    With x = -tau y the table is L_n(x, tau) = tau^n L_n^{(-1/2)}(y), the classical
    Laguerre polynomial, whose Rodrigues form
    L_n^{(-1/2)}(y) = y^{1/2} e^y / n! d^n/dy^n (y^{n-1/2} e^{-y}) becomes
    x^{-1/2} e^{x/tau} L_n = (tau^n/n!) d^n/dx^n (x^{n-1/2} e^{x/tau}).  n integrations
    by parts move the derivatives onto L_n, whose n-th derivative is 1, so the
    pairing is (tau^n/n!) (-1)^n integral_0^inf x^{n-1/2} e^{x/tau} dx
    = (tau^n/n!) (-1)^n Gamma(n+1/2) (-tau)^{n+1/2}."""
    tau_c = complex(tau)
    return tau_c ** (2 * n) * (math.gamma(n + 0.5) * (-tau_c) ** 0.5 / math.factorial(n))
