"""Kernel contracts: an approximate kernel meets its stated tolerance against a
30-digit mpmath oracle over the domain the CLI accepts, or raises a
StarDeformError.

Each property draws tau with Re tau from 0.005 to 2 and |Im tau| <= 6, the
CLI's domain rather than the bench's.  `max_examples` is pinned; each property
takes under 2 s.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardeform import distributions
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
