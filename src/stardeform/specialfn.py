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
from dataclasses import dataclass
from fractions import Fraction

from .core import Poly, star_product, w_star_power
from .errors import DomainError, QuadratureFailure, TruncationFailure
from .exact import QC, as_qc

SQRT2 = math.sqrt(2.0)


# ----------------------------------------------------------------- Hermite

@dataclass(frozen=True)
class HermiteFamily:
    tau: complex
    table: tuple          # H_n as float-coefficient Poly, leading coeff (sqrt2)^n
    reduced: tuple        # P_n with the (sqrt2)^n factored out; exact if tau exact

    def __len__(self):
        return len(self.table)


def hermite_table(N: int, tau) -> HermiteFamily:
    """Build H_0..H_N.  With exact tau (QC/Fraction/int) the reduced table is over QC."""
    if N < 0:
        raise ValueError("N must be >= 0")
    tau = as_qc(tau)
    reduced = tuple(w_star_power(n, tau) for n in range(N + 1))
    table = tuple(p.to_complex().scale(SQRT2 ** n) for n, p in enumerate(reduced))
    return HermiteFamily(tau, table, reduced)


def hermite_checks(fam: HermiteFamily) -> dict:
    """Recurrence, differential equation, derivative ladder; exact on the reduced
    table: zero residual means the polynomials cancel identically.

    reduced identities (the global (sqrt2)^n scales away):
        recurrence  w p_n + (tau/2) p_n' = p_{n+1}
        ODE         tau p_n'' + 2 w p_n' - 2n p_n = 0
        ladder      p_n' = n p_{n-1}
    """
    tau = fam.tau
    rec_ok = ode_ok = ladder_ok = True
    for n in range(len(fam) - 1):
        p = fam.reduced[n]
        if Poly.x() * p + p.deriv().scale(tau / 2) != fam.reduced[n + 1]:
            rec_ok = False
    for n, p in enumerate(fam.reduced):
        if not (p.deriv(2).scale(tau) + p.deriv().scale(2) * Poly.x() - p.scale(2 * n)).is_zero():
            ode_ok = False
        if n >= 1 and p.deriv() != fam.reduced[n - 1].scale(n):
            ladder_ok = False
    top_ok = all(fam.reduced[n].deriv(n) == Poly.const(math.factorial(n))
                 for n in range(len(fam)))
    return {"recurrence": rec_ok, "ode": ode_ok, "ladder": ladder_ok,
            "top_derivative": top_ok}


def hermite_convolution_scale(n: int, tau) -> int | None:
    """Which scale makes sum_{k+l=n} binom(n,k) H_k * H_l equal c * H_n.

    Returns the integer log2 of c when the identity holds exactly (the
    exponential law forces c = 2^n); None if neither candidate matches.
    """
    acc = Poly()
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
    hn = hermite_table(max(n, m), tau_c).table
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


def bessel_j(n: int, z: complex) -> complex:
    """Classical J_n, ascending series for moderate |z|, backward recurrence beyond."""
    if n < 0:
        return (-1) ** n * bessel_j(-n, z)
    z = complex(z)
    if abs(z) <= 10.0:
        half = z / 2
        term = half ** n / math.factorial(n)
        acc = term
        for k in range(1, 80):
            term *= -(half * half) / (k * (n + k))
            acc += term
            if abs(term) < 1e-18 * max(1e-300, abs(acc)):
                break
        return acc
    return _bessel_miller(n, z)


def _bessel_miller(n: int, z: complex) -> complex:
    start = max(n, abs(z)) + 20 + 2 * math.sqrt(max(n, abs(z)) + 1)
    if not start <= BESSEL_RECURRENCE_BUDGET:
        raise TruncationFailure(f"J_{n}({z}) needs a recurrence from {start:.3g}, more than "
                                f"BESSEL_RECURRENCE_BUDGET = {BESSEL_RECURRENCE_BUDGET}")
    M = int(start)
    if M % 2:
        M += 1
    jp, jc = 0.0 + 0.0j, 1e-30 + 0.0j
    norm = 0.0 + 0.0j
    want = None
    for k in range(M, 0, -1):
        jm = (2 * k / z) * jc - jp
        jp, jc = jc, jm
        if k - 1 == n:
            want = jc
        if (k - 1) % 2 == 0:
            norm += jc if k - 1 == 0 else 2 * jc
        if abs(jc) > 1e250:
            jp, jc = jp / 1e250, jc / 1e250
            norm /= 1e250
            if want is not None:
                want /= 1e250
    return want / norm


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


@dataclass(frozen=True)
class BesselTable:
    a: complex
    tau: complex
    n_max: int
    w_grid: tuple
    values: dict  # n -> ndarray over w_grid


def bessel_table(a, tau, N: int, w_grid, tol: float = 1e-14) -> BesselTable:
    """J_n(a w, tau) for |n| <= N via the correction-factor convolution

        J_n(a w, tau) = e^{-a^2 tau/8} sum_m I_m(a^2 tau/8) J_{n-2m}(a w),

    from the tau-expression exponent lambda(s)^2 tau/4 with lambda = i a sin s,
    whose constant and cos(2s) parts are -a^2 tau/8 and (a^2 tau/16)(q^2+q^{-2}).
    """
    import numpy as np

    a_c, tau_c = complex(a), complex(tau)
    x = a_c * a_c * tau_c / 8
    ws = np.asarray([complex(w) for w in w_grid])
    M = 0
    try:
        while not abs(bessel_i(M + 1, x)) <= tol and M < 60:
            M += 1
    except OverflowError:                   # I_m(x) beyond the float range
        M = 60
    if M >= 60:
        raise TruncationFailure("correction-factor Fourier series did not decay")
    kmax = N + 2 * M + 8
    classical = {k: np.asarray([bessel_j(k, a_c * w) for w in ws]) for k in range(kmax + 1)}
    for k in range(1, kmax + 1):        # J_{-k} = (-1)^k J_k, as bessel_j itself reflects
        classical[-k] = (-1) ** k * classical[k]
    pref = np.exp(-a_c * a_c * tau_c / 8)
    vals = {}
    for n in range(-N, N + 1):
        acc = np.zeros_like(ws, dtype=complex)
        for m in range(-M, M + 1):
            acc = acc + bessel_i(m, x) * classical[n - 2 * m]
        vals[n] = pref * acc
    return BesselTable(a_c, tau_c, N, tuple(ws.tolist()), vals)


def bessel_unit_sum_residual(table: BesselTable) -> float:
    import numpy as np

    total = sum(table.values[n] for n in range(-table.n_max, table.n_max + 1))
    return float(np.abs(total - 1.0).max())


def bessel_symmetry_residual(table: BesselTable) -> float:
    import numpy as np

    worst = 0.0
    for n in range(1, table.n_max + 1):
        d = table.values[n] - (-1) ** n * table.values[-n]
        worst = max(worst, float(np.abs(d).max()))
    return worst


def bessel_generating_fft(a, tau, N: int, w_grid, n_s: int = 256) -> dict:
    """Independent route: Fourier coefficients in s of the tau-expression of the
    generating element exp(lambda(s) w), lambda = i a sin s."""
    import numpy as np

    a_c, tau_c = complex(a), complex(tau)
    s = 2 * np.pi * np.arange(n_s) / n_s
    lam = 1j * a_c * np.sin(s)
    ws = np.asarray([complex(w) for w in w_grid])
    F = np.exp(lam[None, :] ** 2 * tau_c / 4 + lam[None, :] * ws[:, None])
    coef = np.fft.fft(F, axis=1) / n_s
    out = {}
    for n in range(-N, N + 1):
        out[n] = coef[:, n % n_s]
    return out


def bessel_addition_residual(a, b, tau, w_grid, N: int = 8, n_s: int = 128) -> float:
    """| J_n((a+b)w, tau) - sum_m J_m(a w, *) * J_{n-m}(b w, *) | on the grid.

    Left side: 1D table at a+b.  Right side: each individual deformed product
    is extracted by a 2D Fourier transform of the two-parameter generating
    product, then summed along the diagonal m + k = n.
    """
    import numpy as np

    a_c, b_c, tau_c = complex(a), complex(b), complex(tau)
    ws = np.asarray([complex(w) for w in w_grid])
    lhs = bessel_table(a_c + b_c, tau_c, N, w_grid)
    s = 2 * np.pi * np.arange(n_s) / n_s
    la = 1j * a_c * np.sin(s)
    lb = 1j * b_c * np.sin(s)
    worst = 0.0
    for iw, w in enumerate(ws):
        lam = la[:, None] + lb[None, :]
        F = np.exp(lam * lam * tau_c / 4 + lam * w)
        C = np.fft.fft2(F) / (n_s * n_s)
        for n in range(-N, N + 1):
            rhs = 0.0 + 0.0j
            for m in range(-n_s // 4, n_s // 4):
                k = n - m
                if abs(k) > n_s // 3:
                    continue
                rhs += C[m % n_s, k % n_s]
            worst = max(worst, abs(lhs.values[n][iw] - rhs))
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


def _half_integer_moment(k: int) -> Fraction:
    """(1/sqrt(pi)) integral_0^inf s^{k-1/2} e^{-s} ds = (2k)! / (4^k k!)."""
    return Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))


def legendre_star_exact(N: int, tau) -> list:
    """Exact dual route: P_n(., tau) as a polynomial in v = w + a over QC for an
    exact tau (half-integer moments are rational)."""
    tau = as_qc(tau)
    if type(tau) is not QC:
        raise DomainError("legendre_star_exact needs an exact tau; legendre_star is the float route")
    tau_pows = [tau ** i for i in range(N // 2 + 1)]
    out = []
    for n in range(N + 1):
        coeffs = [QC(0)] * (n + 1)
        for j in range(n // 2 + 1):
            for i in range(j + 1):
                # (tau s^2 - s)^j term: binom(j,i) tau^i (-1)^(j-i) s^(j+i)
                power_v = n - 2 * j
                mom = _half_integer_moment(n - j + i)
                base = math.comb(j, i) * (-1) ** (j - i) * 2 ** power_v \
                    * mom / (math.factorial(j) * math.factorial(n - 2 * j))
                coeffs[power_v] = coeffs[power_v] + as_qc(base) * tau_pows[i]
        out.append(Poly(coeffs))
    return out


def legendre_classical(n: int) -> Poly:
    """Rodrigues: P_n(z) = 1/(2^n n!) d^n/dz^n (z^2-1)^n, exact coefficients."""
    p = Poly.const(Fraction(1))
    base = Poly([Fraction(-1), Fraction(0), Fraction(1)])
    for _ in range(n):
        p = p * base
    return p.deriv(n).scale(Fraction(1, 2 ** n * math.factorial(n)))


# ---------------------------------------------------------------- Laguerre

def _binom_series_coeff(alpha_num: int, m: int) -> Fraction:
    """[t^m] (1 - t tau)^(-alpha) / tau^m for alpha = alpha_num/2: pochhammer(alpha,m)/m!."""
    poch = Fraction(1)
    for i in range(m):
        poch *= Fraction(alpha_num, 2) + i
    return poch / math.factorial(m)


def laguerre_star(N: int, tau) -> list:
    """L_n(x, tau) for n = 0..N as degree-n polynomials in x = w^2, over QC for an exact tau:

        L_n = sum_k x^k/k! [t^(n-k)] (1 - t tau)^(-(k+1/2)),

    t-coefficients of (1-t tau)^{-1/2} exp(t x/(1-t tau)); d^n/dx^n L_n = 1.
    """
    tau = as_qc(tau)
    if tau == 0:
        raise DomainError("tau must be nonzero")
    # rationals lift to QC for an exact tau and to complex otherwise; the float
    # route rounds (1/k!) ((poch/m!) tau^m) in this order
    lift = as_qc if type(tau) is QC else complex
    tau_pows = [tau ** m for m in range(N + 1)]
    return [Poly([lift(Fraction(1, math.factorial(k)))
                  * (lift(_binom_series_coeff(2 * k + 1, n - k)) * tau_pows[n - k])
                  for k in range(n + 1)])
            for n in range(N + 1)]


def laguerre_from_quad_expansion(N: int, tau, x, radius: float | None = None,
                                 n_nodes: int = 256) -> list:
    """Independent route: t-Taylor coefficients of the quadratic exponential
    element by a Cauchy circle inside |t| < 1/|tau|."""
    import numpy as np

    tau_c = complex(tau)
    r = radius if radius is not None else 0.4 / max(abs(tau_c), 1e-9)
    ts = r * np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    vals = (1 - tau_c * ts) ** -0.5 * np.exp(ts / (1 - tau_c * ts) * x)
    coef = np.fft.fft(vals) / n_nodes
    return [coef[n] / r ** n for n in range(N + 1)]


def laguerre_orthogonality(n: int, m: int, tau):
    """integral_0^inf x^{-1/2} e^{x/tau} L_n L_m dx (Re tau < 0), by quadrature.

    The x^{-1/2} weight is the one the oracle confirms: with it the family is
    orthogonal and the integration-by-parts telescoping of the Rodrigues form
    x^{1/2} e^{-x/tau} L_n = (1/(n! tau^n)) d^n/dx^n (x^{n-1/2} e^{x/tau})
    closes.  (Substituting x = u^2 removes the endpoint singularity.)
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
    """Oracle-determined normalization Gamma(n+1/2) (-tau)^{1/2} / n!."""
    tau_c = complex(tau)
    return math.gamma(n + 0.5) * (-tau_c) ** 0.5 / math.factorial(n)
