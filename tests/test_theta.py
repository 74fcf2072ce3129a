"""Theta-series identities; mpmath.jtheta is the independent oracle."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from stardeform.errors import DomainError
from stardeform.theta import (constant_coefficient_kernel, delta_sum_representation,
                              imaginary_transform_residual, jacobi_relation_residual,
                              quasi_periodicity_residual, theta1_from_inverses,
                              theta3_from_inverses, theta4_from_inverses, theta_eigen_residual,
                              theta_eval, truncation_order)

W_GRID = [-1.0 + 0.1 * k for k in range(21)]


def theta_oracle(kind, w, tau):
    """mpmath jtheta with nome q = exp(-tau)."""
    q = mpmath.exp(-mpmath.mpc(tau))
    return complex(mpmath.jtheta(kind, mpmath.mpc(w), q))


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [1.0, 2.0, 1.0 + 0.5j, 0.6])
def test_theta_eval_vs_mpmath(kind, tau):
    for w in (-0.9, 0.0, 0.37, 1.2 + 0.3j):
        got = theta_eval(kind, w, tau)
        want = theta_oracle(kind, w, tau)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_theta3_at_zero_series():
    tau = 1.3
    q = math.exp(-tau)
    want = 1 + 2 * sum(q ** (n * n) for n in range(1, 40))
    assert abs(theta_eval(3, 0.0, tau) - want) < 1e-14


def test_theta1_vanishes_at_zero():
    assert abs(theta_eval(1, 0.0, 0.8)) < 1e-14


def test_theta3_pi_periodic_and_positive():
    tau = 0.9
    for w in W_GRID:
        a = theta_eval(3, w, tau)
        b = theta_eval(3, w + math.pi, tau)
        assert abs(a - b) < 1e-13
        assert a.real > 0 and abs(a.imag) < 1e-13


def test_domain_error():
    with pytest.raises(DomainError):
        theta_eval(3, 0.0, -1.0)
    with pytest.raises(DomainError):
        theta_eval(5, 0.0, 1.0)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_quasi_periodicity(kind):
    tau = 1.0
    worst = max(quasi_periodicity_residual(kind, w, tau) for w in W_GRID)
    assert worst < 1e-10


def test_quasi_periodicity_kind4_at_zero():
    # e^{-tau} theta4(i tau) = -theta4(0)
    tau = 0.7
    lhs = cmath.exp(-tau) * theta_eval(4, 1j * tau, tau)
    assert abs(lhs + theta_eval(4, 0.0, tau)) < 1e-12


def test_imaginary_transform():
    for tau in (1.0, 2.0):
        worst = max(imaginary_transform_residual(w, tau) for w in W_GRID)
        assert worst < 1e-10
    assert imaginary_transform_residual(0.7, 2.0) < 1e-10


def test_jacobi_relation():
    for tau in (1.0, 2.0, 1.0 + 0.5j):
        assert jacobi_relation_residual(tau, tol=1e-16) < 1e-12
    # fixed point tau = pi
    assert jacobi_relation_residual(math.pi) < 1e-13


def test_delta_sum_equals_theta3():
    for tau in (1.0, 2.0 + 0.6j):
        for w in W_GRID[::4]:
            assert abs(delta_sum_representation(w, tau) - theta_eval(3, w, tau)) < 1e-12


def test_delta_sum_at_zero_value():
    # sqrt(pi) * sum exp(-pi^2 n^2) = theta3(0, 1)
    got = delta_sum_representation(0.0, 1.0)
    want = math.sqrt(math.pi) * sum(math.exp(-math.pi ** 2 * n * n) for n in range(-6, 7))
    assert abs(got - want) < 1e-13
    assert abs(got - theta_eval(3, 0.0, 1.0)) < 1e-13


def test_delta_sum_single_term_dominance():
    # the n=0 Gaussian dominates when the neighbor ratio exp(-(pi^2+2 pi w)/tau)
    # is small, i.e. small Re tau (tail estimate; the relative tail below is
    # about exp(-pi^2/0.5) ~ 3e-9)
    tau = 0.5
    w = 0.2
    got = delta_sum_representation(w, tau)
    dominant = cmath.sqrt(math.pi / tau) * cmath.exp(-w * w / tau)
    assert abs(got - dominant) < 1e-7 * abs(dominant)


def test_delta_sum_periodicity():
    tau = 1.4
    for w in (-0.3, 0.8):
        assert abs(delta_sum_representation(w, tau)
                   - delta_sum_representation(w + math.pi, tau)) < 1e-12


@pytest.mark.parametrize("kind,sign", [(1, -1), (2, 1), (3, 1), (4, -1)])
def test_eigen_action(kind, sign):
    tau = 1.0
    assert theta_eigen_residual(kind, tau, W_GRID[::2]) < 1e-10


def test_eigen_negative_control():
    # a constant function is not fixed by the action
    from stardeform.starexp import translate_action
    tau = 1.0
    acted = translate_action(1j, lambda z: 1.0, tau)
    assert abs(acted(0.3) - 1.0) > 0.1


def test_truncation_honesty():
    tau = 0.8
    n0 = truncation_order(tau, 1e-14)
    for w in (0.0, 0.5):
        a = theta_eval(3, w, tau, n_start=n0)
        b = theta_eval(3, w, tau, n_start=2 * n0)
        assert abs(a - b) < 1e-15


def test_theta_from_sided_inverses():
    tau = 1.1
    for w in W_GRID[::5]:
        assert abs(theta3_from_inverses(w, tau) - theta_eval(3, w, tau)) < 1e-12
        assert abs(theta4_from_inverses(w, tau) - theta_eval(4, w, tau)) < 1e-12
        assert abs(theta1_from_inverses(w, tau) - theta_eval(1, w, tau)) < 1e-12


def test_constant_kernel_is_one_dimensional():
    dim, vec = constant_coefficient_kernel(8)
    assert dim == 1
    assert np.allclose(vec, np.ones_like(vec))


def test_theta_series_object():
    from stardeform.numeric import cabs
    from stardeform.theta import ThetaSeries, truncation_order
    tau = 1.2
    ts = ThetaSeries(3, tau, truncation_order(tau, 1e-14))
    assert abs(ts(0.4) - theta_eval(3, 0.4, tau)) < 1e-14
    assert abs(ts.q - math.exp(-tau)) < 1e-15
    with pytest.raises(DomainError):
        ThetaSeries(5, tau, 8)
    with pytest.raises(DomainError):
        ThetaSeries(3, -1.0, 8)
    # the series' tail test compares cabs(term) with a float tolerance
    assert type(cabs(-2.5)) is float and cabs(3 + 4j) == 5.0
