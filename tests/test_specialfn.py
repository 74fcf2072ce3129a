"""Special-function families; scipy and generating-series Taylor expansions are
the independent oracles."""

import cmath
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

from stardeform.cli import main
from stardeform.core import ExactPoly, Poly
from stardeform.errors import DomainError, TruncationFailure
from stardeform.exact import QC
from stardeform.specialfn import (BesselTable, bessel_addition_residual, bessel_generating_fft,
                                  bessel_i, bessel_table,
                                  bessel_table_to_tol, bessel_unit_sum_residual, hermite_checks,
                                  hermite_convolution_scale, hermite_orthogonality,
                                  hermite_orthogonality_target, hermite_table,
                                  laguerre_from_quad_expansion, laguerre_orthogonality,
                                  laguerre_orthogonality_target, laguerre_star, legendre_star,
                                  legendre_star_exact, _generating_element)

W_GRID = [-1.0 + 0.1 * k for k in range(21)]


# ----------------------------------------------------------------- Hermite

def test_hermite_first_entries():
    fam = hermite_table(3, -1.0)
    assert fam.table[0].coeffs == (1,)
    got = fam.table[1]
    assert abs(got.coeffs[1] - math.sqrt(2)) < 1e-15 and abs(got.coeffs[0]) < 1e-15


def test_hermite_h2_matches_generating_series():
    # oracle: Taylor of exp(sqrt2 t w - t^2/2) in t to order 2, coefficient * 2!
    w = 0.63
    f = lambda t: mpmath.exp(mpmath.sqrt(2) * t * w - t * t / 2)  # noqa: E731
    c2 = complex(mpmath.taylor(f, 0, 2)[2]) * 2
    fam = hermite_table(2, -1.0)
    assert abs(fam.table[2](w) - c2) < 1e-12
    # frozen: H_2(w, -1) = 2w^2 - 1
    assert abs(fam.table[2](w) - (2 * w * w - 1)) < 1e-12


def test_hermite_classical_table_scipy():
    # substituting s = t/sqrt2 into the physicists' generating function shows
    # H_n(w, -1) = 2^{-n/2} H_n^phys(w)
    fam = hermite_table(6, -1.0)
    for n in range(7):
        for w in (-0.8, 0.3, 1.1):
            want = sps.eval_hermite(n, w) * 2.0 ** (-n / 2)
            assert abs(fam.table[n](w) - want) < 1e-11 * max(1.0, abs(want))
    checks = hermite_checks(hermite_table(12, QC(-1)))
    assert all(checks.values())


def test_hermite_checks_rational_tau():
    fam = hermite_table(12, QC(Fraction(-3, 2), Fraction(1, 3)))
    assert all(hermite_checks(fam).values())


def test_hermite_convolution_needs_2n():
    tau = QC(Fraction(-1))
    for n in (1, 2, 3, 5):
        assert hermite_convolution_scale(n, tau) == n  # scale 2^n, not 1


def test_hermite_orthogonality_diagonal():
    tau = -1.0
    for n in (0, 1, 3):
        got = hermite_orthogonality(n, n, tau)
        want = hermite_orthogonality_target(n, tau)
        assert abs(got - want) < 1e-8 * abs(want)
    assert abs(hermite_orthogonality(0, 0, tau) - math.sqrt(math.pi)) < 1e-10
    assert abs(hermite_orthogonality(3, 3, tau) - 6 * math.sqrt(math.pi)) < 1e-7


def test_hermite_orthogonality_offdiagonal():
    assert abs(hermite_orthogonality(1, 0, -1.0)) < 1e-10
    assert abs(hermite_orthogonality(4, 2, -1.0)) < 1e-8
    # complex tau with negative real part
    got = hermite_orthogonality(2, 2, -1.0 + 0.4j)
    want = hermite_orthogonality_target(2, -1.0 + 0.4j)
    assert abs(got - want) < 1e-8 * abs(want)


# ------------------------------------------------------------------ Bessel

def bessel_j(n: int, z: complex) -> complex:
    """Classical J_n one order and one point at a time: the ascending series for
    |z| <= 10, Miller's backward recurrence from above max(n, |z|) beyond.  The
    reference for bessel_table's whole-grid rows."""
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
    start = max(n, abs(z)) + 20 + 2 * math.sqrt(max(n, abs(z)) + 1)
    M = int(start) + int(start) % 2
    jp, jc, norm, want = 0j, 1e-30 + 0j, 0j, None
    for k in range(M, 0, -1):
        jp, jc = jc, (2 * k / z) * jc - jp
        if k - 1 == n:
            want = jc
        if (k - 1) % 2 == 0:
            norm += jc if k - 1 == 0 else 2 * jc
        if abs(jc) > 1e250:
            jp, jc, norm = jp / 1e250, jc / 1e250, norm / 1e250
            want = None if want is None else want / 1e250
    return want / norm


def test_bessel_j_vs_scipy():
    for n in (0, 1, 2, 5, -3):
        for z in (0.3, 2.0, 9.5, 14.0, 1.2 + 0.7j):
            if abs(z) > 10 and isinstance(z, complex):
                continue
            want = complex(sps.jv(n, z))
            assert abs(bessel_j(n, z) - want) < 1e-10 * max(1.0, abs(want))


def test_bessel_i_vs_scipy():
    for m in (0, 1, 4):
        for z in (0.2, -0.8, 0.3 + 0.1j):
            want = complex(sps.iv(m, z))
            assert abs(bessel_i(m, z) - want) < 1e-12 * max(1.0, abs(want))


def test_bessel_table_vs_fft_route():
    a, tau, N = 1.0, 1.0, 6
    tab = bessel_table(a, tau, N, W_GRID)
    fft = bessel_generating_fft(a, tau, N, W_GRID)
    for n in range(-N, N + 1):
        assert np.abs(np.asarray(tab.values[n]) - fft[n]).max() < 1e-12


@pytest.mark.parametrize("half", [90, 100, 120])
def test_bessel_generating_route_follows_the_order(half):
    """A fixed 256 points in s alias the orders |n| <= N onto orders 256 - N and
    beyond: at the table's N (126 at |w| = 90, 136 at 100) that read 1.1e-12
    and 1.3e-5 against bessel-generating-route's tol 1e-12; the transform sized
    from N and max |a w| stays near rounding."""
    ws = [-half, 0.0, half]
    tab = bessel_table_to_tol(1.0, 1.0, 18, 0.5e-10, ws)
    fft = bessel_generating_fft(1.0, 1.0, tab.n_max, ws)
    assert max(np.abs(tab.values[n] - fft[n]).max() for n in fft) < 1e-13


def test_bessel_generating_route_keeps_256_points_at_order_18():
    """At N = 18 on |w| <= 3, the default and bench grids, the coefficients
    are those of a 256-point transform bit for bit."""
    ws = grid(-3, 3, 65)
    fft = bessel_generating_fft(1.0, 1.0, 18, ws)
    coef = np.fft.fft(_generating_element(1.0, 1.0, np.asarray(ws, complex), 256)[1],
                      axis=1) / 256
    assert all(np.array_equal(fft[n], coef[:, n % 256]) for n in fft)


def test_bessel_generating_route_past_its_budget_raises():
    with pytest.raises(TruncationFailure, match="needs 8192 points in s"):
        bessel_generating_fft(1.0, 1.0, 2000, [0.0])


def test_bessel_unit_sum_and_symmetry():
    tab = bessel_table(1.0, 1.0, 14, W_GRID)
    assert bessel_unit_sum_residual(tab) < 1e-10
    assert all(np.abs(tab.values[n] - (-1) ** n * tab.values[-n]).max() < 1e-12
               for n in range(1, 15))


def test_bessel_unit_sum_fails_without_the_reflection_sign():
    """J_{-n} = (-1)^n J_n makes the odd orders cancel in the row sum; a table
    whose negative orders lack the sign sums to 1 + 2 sum_{n odd} J_n."""
    tab = bessel_table(1.0, 1.0, 14, W_GRID)
    unsigned = BesselTable(14, {n: tab.values[abs(n)] for n in tab.values})
    assert bessel_unit_sum_residual(unsigned) > 0.1


def grid(lo: float, hi: float, n: int) -> list:
    """The points of `--grid=lo,hi,n`, as verify.run_suite spaces them."""
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


@pytest.mark.parametrize("half, n, want", [(2, 17, 18), (3, 65, 18), (5, 41, 20), (15, 3, 36),
                                           (16, 3, 36)])
def test_bessel_order_follows_the_grid(half, n, want):
    """The least N >= 18 whose dropped orders sum to below the tol: 18 on
    |w| <= 3, whose rows are bessel_table's at N = 18 bit for bit; 20 on
    |w| <= 5; 36 at |w| = 15 (the first dropped order alone, J_{+-36}, is
    below the tol at N = 35, but the two add) and at |w| = 16 (past the
    first table, of order 36).  The row sum then meets the tol."""
    ws = grid(-half, half, n)
    tab = bessel_table_to_tol(1.0, 1.0, 18, 0.5e-10, ws)
    assert tab.n_max == want and sorted(tab.values) == list(range(-want, want + 1))
    assert bessel_unit_sum_residual(tab) <= 0.5e-10 + 1e-13
    if want == 18:
        direct = bessel_table(1.0, 1.0, 18, ws).values
        assert all(np.array_equal(tab.values[k], direct[k]) for k in direct)


def test_bessel_order_past_the_recurrence_budget_raises():
    with pytest.raises(TruncationFailure):
        bessel_table_to_tol(1.0, 1.0, 18, 0.5e-10, [-3e4, 0.0, 3e4])


def test_verify_special_passes_on_a_wider_grid(capsys):
    """On |w| <= 5 the Bessel row sum needs N = 20: with a fixed N = 18 the
    suite read 8.2e-10 against the tol 1e-10 and exited 1."""
    assert main(["verify", "special", "--grid=-5,5,41"]) == 0
    capsys.readouterr()


def test_verify_special_passes_on_a_grid_past_the_generating_transform(capsys):
    """bessel-generating-route read 1.3e-5 against its tol 1e-12 here, from a
    fixed 256 points in s, and the suite exited 1."""
    assert main(["verify", "special", "--grid=-100,100,3"]) == 0
    capsys.readouterr()


def test_bessel_tau_zero_recovers_classical():
    tab = bessel_table(1.0, 0.0, 4, [0.5, 1.0])
    for n in range(-4, 5):
        for i, w in enumerate((0.5, 1.0)):
            assert abs(tab.values[n][i] - complex(sps.jv(n, w))) < 1e-12


def test_bessel_table_negative_orders_reflect_bit_for_bit():
    """At tau = 0 the table is the classical row itself; its negative orders are
    (-1)^k times the positive ones bit for bit, and every order matches the
    one-point reference.  A complex a keeps every part nonzero, so no signed zero
    blurs the bytes, and the grid reaches |a w| > BESSEL_SERIES_MAX, where the
    rows recur backward."""
    a, ws = 1.3 + 0.4j, [-8.5, -2.5, -0.3, 0.7, 1.9]
    tab = bessel_table(a, 0.0, 12, ws)
    for k in range(1, 13):
        neg, pos = np.asarray(tab.values[-k]), np.asarray(tab.values[k])
        assert neg.tobytes() == ((-1) ** k * pos).tobytes()
    for k in range(-12, 13):
        want = np.asarray([bessel_j(k, a * w) for w in ws])
        assert np.abs(tab.values[k] - want).max() < 1e-13 * max(1.0, np.abs(want).max())


@settings(deadline=None, max_examples=60)
@given(re=st.floats(-20.0, 20.0), im=st.floats(-4.0, 4.0), n_max=st.integers(0, 60))
def test_bessel_table_at_tau_zero_matches_scipy(re, im, n_max):
    """Both sides of the |z| = BESSEL_SERIES_MAX switch, the ascending rows and
    the backward recurrence, against scipy's J_n(z) for every order up to n_max."""
    z = complex(re, im)
    tab = bessel_table(z, 0.0, n_max, [1.0])
    for n in range(n_max + 1):
        want = complex(sps.jv(n, z))
        assert abs(tab.values[n][0] - want) < 2e-13 * max(1.0, abs(want)), (n, z)


def test_bessel_table_orders_past_the_float_range_of_k_factorial():
    """Orders above 170, where k! is no float, on both sides of the series switch."""
    tab = bessel_table(1.0, 1.0, 200, [-1.0, 0.5, 12.0])
    assert all(np.isfinite(tab.values[n]).all() for n in range(-200, 201))
    assert bessel_unit_sum_residual(tab) < 1e-10
    assert np.abs(tab.values[200]).max() < 1e-200


def test_bessel_rows_near_the_series_switch_match_scipy():
    """The classical rows (tau = 0) on 4 <= |z| <= 12, |Im z| <= 4, orders
    0..60, against scipy, the error over max(1, |J|): the series up to |z| = 6
    and the backward recurrence beyond stay within a few ulps.  The ascending
    series summed up to |z| = 10 read 1.3e-13 here, its terms reaching 7e2."""
    radii = np.linspace(4.0, 12.0, 33)
    for phi in (0.0, 0.1, -0.2, 0.33, math.pi - 0.33):    # |Im z| <= 12 sin 0.33 < 4
        a = cmath.exp(1j * phi)
        ws = np.concatenate([-radii, radii])
        tab = bessel_table(a, 0.0, 60, ws)
        for n in range(61):
            want = sps.jv(n, a * ws)
            err = np.abs(tab.values[n] - want) / np.maximum(1.0, np.abs(want))
            assert err.max() < 1e-14, (n, phi)


def test_bessel_addition_formula():
    resid = bessel_addition_residual(1.0, 1.0, 1.0, [-1.0, -0.4, 0.0, 0.3, 1.0])
    assert resid < 1e-9


@pytest.mark.parametrize("half", [14, 20, 25, 40])
def test_bessel_addition_window_follows_the_grid(half):
    """A fixed 128-point transform drops orders |m| >= 32, which read 4.9e-14
    at |w| = 14, 1.6e-7 at 20 and 2.1e-2 at 40; the transform sized from
    max |a w| stays near rounding."""
    assert bessel_addition_residual(1.0, 1.0, 1.0, [-half, 0.0, half]) < 1e-12


def test_bessel_addition_past_the_transform_budget_raises():
    with pytest.raises(TruncationFailure):
        bessel_addition_residual(1.0, 1.0, 1.0, [-1e4, 1e4])


def test_verify_special_passes_on_a_grid_past_the_addition_window(capsys):
    """bessel-addition read 1.6e-7 against its tol 1e-9 here, with every other
    record passing, and the suite exited 1."""
    assert main(["verify", "special", "--grid=-20,20,5"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------- Legendre

def test_legendre_p0_is_one():
    vals = legendre_star(0, 0.0, -1.0, W_GRID[:5])
    assert np.abs(np.asarray(vals[0]) - 1.0).max() < 1e-10


def legendre_classical(n: int) -> Poly:
    """Rodrigues: P_n(z) = 1/(2^n n!) d^n/dz^n (z^2-1)^n, exact coefficients."""
    p = Poly.const(Fraction(1))
    base = Poly([Fraction(-1), Fraction(0), Fraction(1)])
    for _ in range(n):
        p = p * base
    return p.deriv(n).scale(Fraction(1, 2 ** n * math.factorial(n)))


def test_legendre_small_tau_limit_classical():
    grid = [-0.6, -0.1, 0.4, 0.9]
    vals = legendre_star(4, 0.2, -1e-8, grid)
    for n in range(5):
        cl = legendre_classical(n)
        want = np.asarray([complex(cl.to_complex()(w + 0.2)) for w in grid])
        assert np.abs(np.asarray(vals[n]) - want).max() < 1e-6


def test_legendre_exact_route_matches_quadrature():
    tau = -1.0
    grid = [-0.5, 0.3, 0.8]
    vals = legendre_star(4, 0.0, tau, grid)
    exact = legendre_star_exact(4, Fraction(-1))
    for n in range(5):
        pe = exact[n].to_complex()
        want = np.asarray([pe(w) for w in grid])
        assert np.abs(np.asarray(vals[n]) - want).max() < 1e-9


def test_legendre_exact_route_matches_quadrature_at_complex_tau():
    """Dual route off the real axis: the exact QC table, evaluated at v = w + a,
    against the float quadrature at the same tau."""
    tau, a = QC(Fraction(-1, 2), Fraction(1, 4)), 0.2
    grid = [-0.5, 0.3, 0.8]
    vals = legendre_star(4, a, tau.to_complex(), grid)
    exact = legendre_star_exact(4, tau)
    for n in range(5):
        pe = exact[n].to_complex()
        want = np.asarray([pe(w + a) for w in grid])
        assert np.abs(np.asarray(vals[n]) - want).max() < 1e-10


def legendre_star_exact_reference(N: int, tau) -> list:
    """The exact table term by term over Fraction and QC: the coefficient of
    v^(n-2j) sums C(j,i) tau^i (-1)^(j-i) 2^(n-2j) M(n-j+i) / (j! (n-2j)!),
    with the half-integer moment M(k) = (2k)!/(4^k k!)."""
    tau = QC(tau) if not isinstance(tau, QC) else tau
    out = []
    for n in range(N + 1):
        coeffs = [QC(0)] * (n + 1)
        for j in range(n // 2 + 1):
            for i in range(j + 1):
                k = n - j + i
                mom = Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))
                base = math.comb(j, i) * (-1) ** (j - i) * 2 ** (n - 2 * j) \
                    * mom / (math.factorial(j) * math.factorial(n - 2 * j))
                coeffs[n - 2 * j] = coeffs[n - 2 * j] + QC(base) * math.prod([tau] * i,
                                                                              start=QC(1))
        out.append(Poly(coeffs))
    return out


LEGENDRE_RATS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(deadline=None, max_examples=40)
@given(st.builds(QC, LEGENDRE_RATS, LEGENDRE_RATS), st.integers(0, 40))
def test_legendre_exact_matches_term_by_term_reference(tau, N):
    """The integer-sum table equals the Fraction/QC sum, coefficient for coefficient."""
    got = legendre_star_exact(N, tau)
    want = legendre_star_exact_reference(N, tau)
    assert [p.coeffs for p in got] == [p.coeffs for p in want]
    assert all(type(c) is QC for p in got for c in p.coeffs)


def test_legendre_exact_rejects_float_tau():
    """A float tau has no exact table; the message names the float route."""
    for tau in (-1.0, -0.5 + 0.25j):
        with pytest.raises(DomainError, match="legendre_star"):
            legendre_star_exact(3, tau)


def test_cli_legendre_keeps_im_tau(capsys):
    """`table legendre` tabulates at the complex tau it is given; a real tau
    keeps the rational output."""
    assert main(["table", "legendre", "3", "--tau=0.5,0.25"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[3] == '2,"3/2x^2 + QC(-1/8, 3/16)"'
    assert main(["table", "legendre", "3", "--tau=0.5,0"]) == 0
    assert capsys.readouterr().out.splitlines()[3] == '2,"3/2x^2 + -1/8"'


def test_legendre_fd_oracle():
    # independent oracle: finite differences in t of the outer quadrature
    import stardeform.quadrature as q
    tau, a, n = -1.0, 0.0, 2
    grid = [0.3]

    def outer(t):
        U = math.sqrt(math.log(1e20)) + 2.0

        def f(u):
            s = u * u
            return 2.0 / math.sqrt(math.pi) * np.exp(
                tau * s * s * t * t - s * (1 - 2 * t * (grid[0] + a) + t * t))

        return q.integrate_segment(f, 0.0, U, n_panels=64)

    h = 1e-3
    d2 = (outer(h) - 2 * outer(0.0) + outer(-h)) / h ** 2 / 2  # [t^2] coefficient
    got = legendre_star(n, a, tau, grid)[n][0]
    assert abs(got - d2) < 1e-5 * max(1.0, abs(d2))


# ---------------------------------------------------------------- Laguerre

def test_laguerre_low_orders():
    tab = laguerre_star(2, Fraction(-1))
    assert tab[0] == ExactPoly.const(Fraction(1))
    # L_1 = x + tau/2 evaluated at tau=-1
    assert tab[1] == ExactPoly([Fraction(-1, 2), Fraction(1)])


def _laguerre_pochhammer(n: int, tau: Fraction) -> list:
    """x^k coefficient of L_n: (k + 1/2)_(n-k) tau^(n-k) / ((n-k)! k!)."""
    out = []
    for k in range(n + 1):
        m = n - k
        poch = Fraction(1)
        for i in range(m):
            poch *= Fraction(2 * k + 1, 2) + i
        out.append(poch * tau ** m / (math.factorial(m) * math.factorial(k)))
    return out


def _parse_x_poly(text: str) -> dict:
    """'1/2x^2 + -3/2x + 3/8' -> {2: 1/2, 1: -3/2, 0: 3/8}."""
    out = {}
    for term in text.split(" + "):
        coeff, x, power = re.fullmatch(r"(-?[0-9/]*)(x(?:\^([0-9]+))?)?", term).groups()
        k = int(power) if power else (1 if x else 0)
        out[k] = Fraction(coeff + "1" if coeff in ("", "-") else coeff)
    return out


def test_laguerre_exact_scalar_and_cli_table(capsys):
    tab = laguerre_star(6, QC(-1))
    want = [_laguerre_pochhammer(n, Fraction(-1)) for n in range(7)]
    for n, p in enumerate(tab):
        assert p.degree == n
        assert all(p.coeffs[k] == QC(c) for k, c in enumerate(want[n]))
    assert main(["table", "laguerre", "6"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "n,polynomial_in_x" and len(rows) == 8
    for n, row in enumerate(rows[1:]):
        idx, poly = row.split(",", 1)
        assert int(idx) == n
        assert _parse_x_poly(poly.strip('"')) == {k: c for k, c in enumerate(want[n]) if c}


def test_laguerre_top_derivative_normalization():
    tab = laguerre_star(6, Fraction(2, 3))
    for n, p in enumerate(tab):
        assert p.deriv(n) == ExactPoly.const(Fraction(1))


def test_laguerre_classical_at_tau_minus_one():
    tab = laguerre_star(5, Fraction(-1))
    for n, p in enumerate(tab):
        pc = p.to_complex()
        for x in (0.2, 1.0, 2.5):
            want = (-1) ** n * sps.eval_genlaguerre(n, -0.5, x)
            assert abs(pc(x) - want) < 1e-10 * max(1.0, abs(want))


def test_laguerre_matches_quad_exponential_expansion():
    tau = 0.8 + 0.3j
    w = 0.7
    x = w * w
    tab = laguerre_star(6, tau)
    coef = laguerre_from_quad_expansion(6, tau, x)
    for n, p in enumerate(tab):
        assert abs(p.to_complex()(x) - coef[n]) < 1e-11 * max(1.0, abs(coef[n]))


def test_laguerre_cross_module_against_quad_exponential():
    # Cauchy coefficients of the starexp-module quadratic element itself
    from stardeform.starexp import star_exp_quadratic
    tau, w = 1.1, 0.6
    x = w * w
    r = 0.3 / abs(tau)
    n_nodes = 128
    ts = [r * np.exp(2j * np.pi * j / n_nodes) for j in range(n_nodes)]
    vals = np.asarray([star_exp_quadratic(t, tau)(w) for t in ts])
    coef = np.fft.fft(vals) / n_nodes
    tab = laguerre_star(5, tau)
    for n, p in enumerate(tab):
        want = coef[n] / r ** n
        assert abs(p.to_complex()(x) - want) < 1e-10 * max(1.0, abs(want))


def test_laguerre_orthogonality():
    tau = -1.0
    for n, m in ((0, 1), (2, 4), (1, 3)):
        assert abs(laguerre_orthogonality(n, m, tau)) < 1e-8
    for n in (0, 1, 3):
        got = laguerre_orthogonality(n, n, tau)
        want = laguerre_orthogonality_target(n, tau)
        assert abs(got - want) < 1e-8 * abs(want)


@pytest.mark.parametrize("tau", [-2.0, -0.5, -1 - 1j, -1.5 + 0.5j])
def test_laguerre_orthogonality_target_off_tau_minus_one(tau):
    """Away from tau = -1, where tau^{2n} = 1, the closed form carries its factor
    tau^{2n}: against mpmath.quad of the pairing (x = u^2, 30 digits), and the
    package's own quadrature against it.  Without the factor the (3, 3) pairing
    at tau = -2 is 64 times the target."""
    tab = laguerre_star(3, complex(tau))
    for n in range(4):
        want = laguerre_orthogonality_target(n, tau)
        with mpmath.workdps(30):
            t, cs = mpmath.mpc(tau), [mpmath.mpc(c) for c in tab[n].to_complex().coeffs]

            def pairing(u):
                x = u * u
                return 2 * mpmath.exp(x / t) * sum(c * x ** k for k, c in enumerate(cs)) ** 2

            ref = complex(mpmath.quad(pairing, [0, 2, 5, mpmath.inf]))
        assert abs(want - ref) <= 1e-14 * abs(ref)
        assert abs(laguerre_orthogonality(n, n, tau) - want) <= 1e-13 * abs(want)
