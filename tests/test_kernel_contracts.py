"""Kernel contracts: an approximate kernel meets its stated tolerance against an
mpmath oracle over the domain the CLI accepts, or raises a StarDeformError.

The sided-inverse properties draw tau with Re tau from 0.005 to 2 and
|Im tau| <= 6, the CLI's domain rather than the bench's; the Heaviside pair
property draws real tau up to 100 and complex tau with |Im tau| <= 10; the
Laurent series property draws within the range where its ascending series is
trusted.
`max_examples` is pinned; each property takes under 2 s.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stardeform import distributions, residue, specialfn
from stardeform.errors import StarDeformError

EPS = float(np.finfo(float).eps)


def _mp_faddeeva(z):
    """(w_F(z), w_F'(z)) at 30 digits: e^{-z^2} erfc(-iz), and -2z w_F + 2i/sqrt(pi)."""
    with mpmath.workdps(30):
        zm = mpmath.mpc(z)
        w = mpmath.exp(-zm * zm) * mpmath.erfc(-1j * zm)
        return complex(w), complex(-2 * zm * w + 2j / mpmath.sqrt(mpmath.pi))


def _mp_sided_inverse(a, side, tau, w):
    """f_+ = i sqrt(pi/tau) e^{-zeta^2} erfc(i zeta) and
    f_- = -i sqrt(pi/tau) e^{-zeta^2} erfc(-i zeta), zeta = (a + w)/sqrt(tau),
    at 30 digits from the float inputs as given."""
    sgn = 1 if side == "+" else -1
    with mpmath.workdps(30):
        tau_m = mpmath.mpc(tau)
        zeta = (mpmath.mpc(a) + mpmath.mpc(w)) / mpmath.sqrt(tau_m)
        return complex(sgn * 1j * mpmath.sqrt(mpmath.pi / tau_m) * mpmath.exp(-zeta * zeta)
                       * mpmath.erfc(sgn * 1j * zeta))


def _mp_laurent_series(k, nu, tau, w):
    """(c_{2k-1}, sum_q |term_q|) at 50 digits from the float inputs as given:
    the terms nu^{k+q} (-1)^q (w/tau)^{2q} / (q! (k+q)!), summed until one is
    below 1e-60 of the running magnitude sum."""
    with mpmath.workdps(50):
        nu_m, x2 = mpmath.mpc(nu), (mpmath.mpc(w) / mpmath.mpc(tau)) ** 2
        total, scale = mpmath.mpc(0), mpmath.mpf(0)
        q = max(0, -k)
        while True:
            term = (-1) ** q * nu_m ** (k + q) * x2 ** q \
                / (mpmath.factorial(q) * mpmath.factorial(k + q))
            total, scale = total + term, scale + abs(term)
            if q > max(10, 10 - k) and abs(term) <= mpmath.mpf(10) ** -60 * scale:
                return complex(total), float(scale)
            q += 1


def _mp_heaviside(tau, w):
    """(Y(-w), Y(w)) = (erfc(w/sqrt(tau))/2, erfc(-w/sqrt(tau))/2) at 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpf(w) / mpmath.sqrt(mpmath.mpc(tau))
        return complex(mpmath.erfc(z) / 2), complex(mpmath.erfc(-z) / 2)


def _relative_error(got, want):
    return abs(got - want) / abs(want)


TAUS = st.builds(complex, st.floats(0.005, 2.0), st.floats(-6.0, 6.0))
SHIFTS = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
POINTS = st.one_of(st.builds(complex, st.floats(-4.0, 4.0)),
                   st.builds(complex, st.floats(-4.0, 4.0), st.floats(-2.0, 2.0)))


@settings(deadline=None, max_examples=80)
@given(tau=TAUS, a=SHIFTS, w=POINTS, side=st.sampled_from("+-"))
def test_sided_inverse_meets_its_tolerance_or_raises(tau, a, w, side):
    """The closed form is within max(1e-12, 8 eps |zeta|^2) of the oracle,
    relative, as its docstring states: zeta^2 = (a + w)^2/tau is rounded, and
    e^{-zeta^2} moves by eps |zeta|^2 relative with it.  Over 24,000 draws
    from this domain the error reached 3.5 eps |zeta|^2 and 1.7e-12, where
    Re tau = 0.005 and |zeta|^2 is near 1e3.  About 80 draws take 0.3 s."""
    try:
        got = distributions.sided_inverse(a, side, tau, [w])[0]
    except StarDeformError:
        return
    tol = max(1e-12, 8 * EPS * abs(a + w) ** 2 / abs(tau))
    assert _relative_error(got, _mp_sided_inverse(a, side, tau, w)) <= tol


@settings(deadline=None, max_examples=200)
@given(tau=st.one_of(st.floats(-2.5, 2.0).map(lambda e: complex(10 ** e)),
                     st.builds(complex, st.floats(-2.5, 1.0).map(lambda e: 10 ** e),
                               st.floats(-10.0, 10.0))),
       w=st.floats(-3.0, 3.0))
@example(tau=0.003 + 0j, w=-3.0)
@example(tau=1 + 10j, w=2.5)
@example(tau=0.01 + 2j, w=1.0)      # raises QuadratureFailure
def test_heaviside_pair_meets_its_tolerance_or_raises(tau, w):
    """Y(-w) and Y(w) are each within 1e-13 max(1, |Y|) of erfc(+-w/sqrt(tau))/2,
    as heaviside_pair's docstring states, or the pair raises.  tau is real
    from 0.003 to 100, or has Re tau from 0.003 to 10 and |Im tau| <= 10; over
    10,000 such draws the error reached 2.2e-14, and about 12 % raised
    QuadratureFailure, each where |Im tau| exceeds 180 Re tau (Re tau below
    0.06).  200 draws take about 0.4 s."""
    try:
        got = distributions.heaviside_pair(tau, [w])[:, 0]
    except StarDeformError:
        return
    for y, want in zip(got, _mp_heaviside(tau, w)):
        assert abs(y - want) <= 1e-13 * max(1.0, abs(want))


@settings(deadline=None, max_examples=80)
@given(r=st.floats(0.0, 1e3), theta=st.floats(-math.pi, math.pi))
def test_faddeeva_helper_meets_its_tolerance_or_raises(r, theta):
    """w_F and its derivative at |z| <= 1e3 in both half-planes, within
    max(1e-12, 4 eps |z|^2) relative: in the upper half-plane the rational form
    is within 1e-14, and below it e^{-z^2} carries the rounding of z^2.  Where
    e^{-z^2} is outside the float range the helper raises DomainError."""
    z = complex(r * math.cos(theta), r * math.sin(theta))
    try:
        val, der = distributions._faddeeva(np.asarray([z]))
    except StarDeformError:
        assert z.imag < 0
        return
    want, want_der = _mp_faddeeva(z)
    tol = max(1e-12, 4 * EPS * abs(z) ** 2)
    assert _relative_error(val[0], want) <= tol
    assert _relative_error(der[0], want_der) <= tol


@settings(deadline=None, max_examples=200)
@given(k=st.integers(-4, 4), nu=st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       tau=st.one_of(st.floats(0.01, 100.0).map(complex),
                     st.builds(cmath.rect, st.floats(0.01, 100.0),
                               st.floats(-math.pi, math.pi))),
       w=st.one_of(st.builds(complex, st.floats(-3.0, 3.0)),
                   st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
# sums far below 1, where a stop on an absolute 1e-18 kept 5 digits
@example(k=4, nu=1e-5 + 0j, tau=0.01 + 0j, w=3 + 0j)
@example(k=4, nu=1e-5 + 0j, tau=1e-4 + 0j, w=0.0316 + 0j)
def test_laurent_series_meets_its_tolerance(k, nu, tau, w):
    """The ascending series is within 64 eps sum_q |term_q| + 2 SERIES_TOL
    max(1e-300, |c|) of a 50-digit sum c, as its docstring states, where
    |2 sqrt(nu) w/tau| <= specialfn.BESSEL_SERIES_MAX: a w beyond that is
    scaled onto the edge, where the terms cancel most.  Beyond the edge the
    cancellation grows like e^{|2 sqrt(nu) w/tau|}, and reading J_k through
    specialfn's backward recurrence there is the open Bessel route of the
    residue calculus down the real tau axis (ROADMAP).  Over 4,000 such draws
    the error reached 1/8 of this tolerance (8 eps sum_q |term_q|).  200 draws
    take about 0.9 s."""
    arg = abs(2 * cmath.sqrt(nu) * w / tau)
    if arg > specialfn.BESSEL_SERIES_MAX:
        w *= specialfn.BESSEL_SERIES_MAX / arg
    got = residue.laurent_series_coefficient(k, nu, tau, w)
    want, scale = _mp_laurent_series(k, nu, tau, w)
    assert abs(got - want) <= 64 * EPS * scale + 2 * residue.SERIES_TOL * max(1e-300, abs(want))


@pytest.mark.parametrize("z", [0j, 3.5, -3.5, 2j, 1e3j, 1e3, 0.5 - 0.5j, -4 - 4.5j,
                               1e3 * complex(math.cos(-math.pi / 4), math.sin(-math.pi / 4))])
def test_faddeeva_helper_in_both_half_planes(z):
    val, der = distributions._faddeeva(np.asarray([z]))
    want, want_der = _mp_faddeeva(z)
    tol = max(1e-13, 4 * EPS * abs(z) ** 2)
    assert _relative_error(val[0], want) <= tol
    assert _relative_error(der[0], want_der) <= tol


@pytest.mark.parametrize("z", [-30j, -math.sqrt(709) * 1j])
def test_faddeeva_helper_refuses_a_value_outside_the_float_range(z):
    """e^{-z^2} overflows at z = -30i; at z = -sqrt(709) i it is 8.2e307, and
    w_F' = w_F'(-z) - 4z e^{-z^2} overflows."""
    with pytest.raises(StarDeformError, match="outside the float range"):
        distributions._faddeeva(np.asarray([0.5, z]))


def test_sided_inverse_at_a_small_tau_where_the_window_failed():
    """At tau = 0.02, a = 1j, w = -3 the value is -0.300 - 0.100i; the Gaussian
    window printed 1.19e8 - 1.54e8i there."""
    got = distributions.sided_inverse(1j, "+", 0.02, [-3.0])[0]
    want = _mp_sided_inverse(1j, "+", 0.02, -3.0)
    assert abs(want - (-0.3002 - 0.1003j)) < 1e-4
    assert _relative_error(got, want) <= 1e-13
