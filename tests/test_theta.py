"""Theta-series identities; mpmath.jtheta is the independent oracle."""

import cmath
import contextlib
import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardeform.cli import main
from stardeform.errors import DomainError
from stardeform.starexp import translate_action
from stardeform.theta import (constant_coefficient_kernel, delta_sum_representation,
                              geometric_inverse_sum, imaginary_transform_residual,
                              jacobi_relation_residual, jacobi_relation_rounding, lattice,
                              lattice_sum, quasi_periodicity_residual, theta_eval)

W_GRID = [-1.0 + 0.1 * k for k in range(21)]


def theta3_from_inverses(w, tau):
    """theta3 = (1 - e_*^{2iw})^{-1}_{*+} - (1 - e_*^{2iw})^{-1}_{*-}."""
    return geometric_inverse_sum("+", tau, w) - geometric_inverse_sum("-", tau, w)


def theta4_from_inverses(w, tau):
    """theta4 = (1 + e_*^{2iw})^{-1}_{*+} - (1 + e_*^{2iw})^{-1}_{*-}, the sums
    sum_{n>=0} (-1)^n e_*^{2niw} and -sum_{n>=1} (-1)^n e_*^{-2niw} over the even
    lattice's cut."""
    k = lattice(tau, w, 2)
    coef = 1.0 - 2.0 * (k // 2 % 2)
    plus, minus = k >= 0, k < 0
    return lattice_sum(k[plus], coef[plus], tau, w) - lattice_sum(k[minus], -coef[minus], tau, w)


def theta1_from_inverses(w, tau):
    """2i theta1 = (cos_* w)^{-1}_{*+} - (cos_* w)^{-1}_{*-}, the two sums
    sum_{n>=0} 2 (-1)^n e_*^{+-(2n+1)iw} over the odd lattice's cut."""
    k = lattice(tau, w, 2, 1)
    k = k[k > 0]
    coef = 2.0 * (1 - 2 * (k // 2 % 2))
    return (lattice_sum(k, coef, tau, w) - lattice_sum(-k, coef, tau, w)) / 2j


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
        assert jacobi_relation_residual(tau) < 1e-12
    # fixed point tau = pi
    assert jacobi_relation_residual(math.pi) < 1e-13


# a draw of test_verify_theta_passes_or_names_one_error: the transformed side
# sums about 2,000 terms whose phases reach 1e5 rad
WIDE_PHASE_TAU = 0.011108996538242306 + 36j


def test_jacobi_rounding_bound_is_far_below_the_tol_at_moderate_tau():
    for tau in (1.0, 2.0, 1.0 + 0.5j, 0.5 - 1j, math.pi, 1000.0):
        assert jacobi_relation_rounding(tau) < 1e-14


@pytest.mark.parametrize("tau", [1.0, WIDE_PHASE_TAU])
def test_jacobi_record_fails_a_flipped_sign_or_a_dropped_prefactor(tau):
    """The record passes under max(1e-12, rounding bound), and the identity
    with a flipped sign or without the prefactor sqrt(pi/tau) fails it, at the
    default tau and where the bound exceeds 1e-12."""
    tol = max(1e-12, jacobi_relation_rounding(tau))
    assert jacobi_relation_residual(tau) <= tol
    lhs = theta_eval(3, 0.0, tau)
    moved = theta_eval(3, 0.0, math.pi * math.pi / tau)
    pref = cmath.sqrt(math.pi / tau)
    assert abs(lhs + pref * moved) > 1e3 * tol
    assert abs(lhs - moved) > 1e3 * tol
    assert abs(lhs - cmath.sqrt(-math.pi / tau) * moved) > 1e3 * tol


def test_verify_theta_passes_at_a_wide_phase_draw(capsys):
    assert main(["verify", "theta", f"--tau={WIDE_PHASE_TAU.real!r},{WIDE_PHASE_TAU.imag!r}"]) == 0
    rec = next(r for r in json.loads(capsys.readouterr().out)["results"]
               if r["anchor"] == "theta-special-value-relation")
    assert rec["passed"] and 1e-12 < float(rec["tol"]) < 1e-10


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
    """Left product with e_*^{2iw}, the translation action at s = i, fixes theta2
    and theta3 and negates theta1 and theta4."""
    tau = 1.0
    theta_k = lambda z: theta_eval(kind, z, tau)  # noqa: E731
    w = np.asarray(W_GRID[::2], complex)
    assert np.abs(translate_action(1j, theta_k, tau)(w) - sign * theta_k(w)).max() < 1e-10


def test_eigen_negative_control():
    # a constant function is not fixed by the action
    tau = 1.0
    acted = translate_action(1j, lambda z: 1.0, tau)
    assert abs(acted(0.3) - 1.0) > 0.1


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


def _scale(kind, w, tau):
    """sum of |terms| of the kind's series at w: the size its rounding scales with."""
    q = mpmath.exp(-complex(tau).real)
    return float(abs(mpmath.jtheta(3 if kind in (3, 4) else 2, 1j * complex(w).imag, q)))


@pytest.mark.parametrize("tau", [0.01, 0.05 + 0.5j])
def test_series_meet_mpmath_at_small_and_chirped_tau(tau):
    """Each kind, and the Gaussian comb, at w and at w + i tau (where |Im w| widens
    the lattice's cut) against mpmath, within 1e-14 of the series' own scale."""
    for w0 in (0.37, 1.2 + 0.3j, -2.0 - 0.7j):
        for w in (w0, w0 + 1j * tau):
            for kind in (1, 2, 3, 4):
                err = abs(theta_eval(kind, w, tau) - theta_oracle(kind, w, tau))
                assert err <= 1e-14 * _scale(kind, w, tau), (kind, w, err)
            err = abs(delta_sum_representation(w, tau) - theta_oracle(3, w, tau))
            assert err <= 1e-14 * _scale(3, w, tau), ("comb", w, err)


def test_theta3_from_inverses_at_small_tau():
    """Both one-sided sums reach the lattice's cut: at tau = 0.01 forty terms of
    each leave a tail of about e^{-40^2 tau} = 1.1e-7."""
    tau = 0.01
    ws = np.asarray(W_GRID[::2]) * 1.5
    got = theta3_from_inverses(ws, tau)
    for w, g in zip(ws, got):
        assert abs(g - theta_oracle(3, w, tau)) <= 1e-14 * _scale(3, w, tau)


def test_long_grid_runs_in_blocks(monkeypatch):
    """A grid whose basis or comb matrix exceeds _BLOCK entries is summed block by
    block, with the values of a single block."""
    import stardeform.theta as theta_module

    tau, ws = 0.05 + 0.2j, np.linspace(-2, 2, 37) + 0.1j

    def values():
        return [theta_eval(1, ws, tau), theta_eval(3, ws, tau), delta_sum_representation(ws, tau)]

    whole = values()
    monkeypatch.setattr(theta_module, "_BLOCK", 40)
    for a, b in zip(whole, values()):
        assert a.shape == b.shape and np.abs(a - b).max() <= 1e-14


def test_grid_call_equals_scalar_calls():
    tau = 0.6 + 0.4j
    ws = np.asarray(W_GRID) + 0.2j
    for kind in (1, 2, 3, 4):
        grid = theta_eval(kind, ws, tau)
        assert isinstance(theta_eval(kind, 0.3, tau), complex)
        assert np.abs(grid - [theta_eval(kind, w, tau) for w in ws]).max() < 1e-14


@settings(deadline=None, max_examples=40)
@given(log_re=st.floats(math.log(1e-2), math.log(1e3)), im=st.floats(-50.0, 50.0))
def test_verify_theta_passes_or_names_one_error(log_re, im):
    """Across Re tau in [1e-2, 1e3] (log-uniform) and Im tau in [-50, 50],
    `verify theta` passes, or exits 1 or 2 with one error line and no failed
    record."""
    tau = f"--tau={math.exp(log_re)!r},{im!r}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "theta", tau])
    if code == 0:
        return
    lines = err.getvalue().splitlines()
    assert code in (1, 2) and len(lines) == 1, (tau, code, lines)
    assert lines[0].startswith(("error: ", "configuration error: ")), (tau, lines)
    if out.getvalue():
        failed = [r["anchor"] for r in json.loads(out.getvalue())["results"] if not r["passed"]]
        assert failed == [], (tau, failed)
