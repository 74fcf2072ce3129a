"""Residue calculus: dual-route coefficients, ladder, boundary solutions,
annihilation discontinuity, covariant flow."""

import cmath
import math

import numpy as np
import pytest

from stardeform import residue, verify
from stardeform.core import Poly
from stardeform.errors import DegenerateBoundary, DomainError, NodeCountError
from stardeform.exact import QC, SparseLaurent
from stardeform.residue import (_contour_mean, _density_on_nodes, closed_contour_vanishing,
                                covariant_evolution_residual, diffeqevol_exact_defect,
                                evolution_family, gamma_inverse_residual, gamma_path_integral,
                                laurent_coeff_closed, laurent_gausspoly, orphan_annihilation,
                                parallel_polynomial, phi_group_action_residual, phi_psi,
                                residue_contour, semigroup_on_delta, surface_derivative_exact,
                                ladder_residual)

W_GRID = [-1.5 + 0.25 * k for k in range(13)]


def test_laurent_closed_special_values():
    # k=0, nu=0, w=0: 1/sqrt(-tau)
    for tau in (1.0, 1 + 1j, 2.0 - 0.5j):
        got = laurent_coeff_closed(0, 0.0, tau, 0.0)
        assert abs(got - 1 / cmath.sqrt(-tau)) < 1e-14
    # nonnegative degrees vanish at nu=0
    for k in (1, 2, 3):
        assert abs(laurent_coeff_closed(k, 0.0, 1.0, 0.7)) < 1e-16
    # degrees <= -2 vanish at w=0
    for k in (0, -1, -2):
        if 2 * k - 1 <= -2:
            assert abs(laurent_coeff_closed(k, 1.3, 1.0, 0.0)) < 1e-16


def test_contour_matches_closed():
    cases = [(0, 0.0, 1.0, 0.0), (0, 0.0, 1 + 1j, 0.5), (1, 1.0, 1 + 1j, 0.3),
             (-1, 0.7, 2.0, 0.4), (2, 0.5j, 1.0, 0.2), (-2, 1.2, 1.5, 0.6)]
    for k, nu, tau, w in cases:
        closed = laurent_coeff_closed(k, nu, tau, w)
        cont = residue_contour(k, nu, tau, w, radius=1.0, n_nodes=256)
        assert abs(cont - closed) <= 1e-10 * max(1.0, abs(closed))


def test_contour_radius_independence():
    k, nu, tau, w = 1, 1.0, 1 + 1j, 0.3
    a = residue_contour(k, nu, tau, w, radius=0.5)
    b = residue_contour(k, nu, tau, w, radius=1.0)
    assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_even_coefficients_vanish():
    # a_{2j} is the contour mean of E(s) s^{-2j-1} s: the expansion has odd degrees only
    for j in (-1, 0, 1):
        assert abs(_contour_mean(-2 * j - 1, 0.8, 1 + 0.5j, 0.4, 1.0, 256)) < 1e-12


def test_reswsquar_value():
    # k=0, nu=0: (-tau)^{-1/2} e^{-w^2/tau}
    for tau in (1.0, 1 + 1j):
        for w in (0.0, 0.5):
            got = residue_contour(0, 0.0, tau, w)
            want = 1 / cmath.sqrt(-tau) * cmath.exp(-w * w / tau)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_gausspoly_form_matches_closed():
    for k, nu, tau in ((0, 0.7, 1 + 0.5j), (1, 1.0, 1.0), (-1, 0.3, 2.0)):
        g = laurent_gausspoly(k, nu, tau)
        for w in (0.0, 0.4, 1.1):
            assert abs(g(w) - laurent_coeff_closed(k, nu, tau, w)) < 1e-13
    for tau in (1e160, 1e160j, 1e-100):     # tau^(2q) overflows, or underflows to 0
        with pytest.raises(DomainError):
            laurent_gausspoly(0, 1.0, tau)


def test_ladder():
    assert ladder_residual(0, 0.0, 1.0, W_GRID)[0] < 1e-14   # both sides vanish
    for k, nu, tau in ((0, 1.0, 1.0), (1, 0.6, 1 + 1j), (-1, 1.2, 2.0), (2, 0.9, 1.0)):
        residual, bound = ladder_residual(k, nu, tau, W_GRID)
        assert residual < 1e-12 and bound < 1e-14


def test_ladder_rounding_bound_covers_the_cancelled_terms():
    """At tau = 1e12 the residual is eps-sized against terms |tau/2 a| ~ 5e5 that
    cancel: above an absolute 1e-12, within the bound carried with it."""
    residual, bound = ladder_residual(2, 1.0, 1e12, [0.0, 0.5])
    assert 1e-12 < residual <= bound < 1e-9


def test_closed_contour_vanishing():
    assert closed_contour_vanishing(1.0, 1.0, 0.0) < 1e-10
    assert closed_contour_vanishing(0.0, 1.0, 0.5) < 1e-12
    for w in (0.0, 0.4, 0.9):
        assert closed_contour_vanishing(0.8, 1 + 0.5j, w) < 1e-10


def test_closed_contour_unresolved_raises():
    # at tau = 0.1 the density e^{-w^2/(tau^2 s^2)} peaks near e^25 on |s| = 1, which
    # 256 nodes do not resolve: the sum read 0.31 (and nan at tau = 0.01) unchecked
    for tau in (0.1, 0.01):
        with pytest.raises(NodeCountError):
            closed_contour_vanishing(1.0, tau, 0.5)


def test_phi_psi_parity_and_boundary():
    pp = phi_psi(0.8, 1.0)
    assert abs(pp.phi(0.0) - 1) < 1e-13
    for w in (0.3, 1.1):
        assert abs(pp.phi(w) - pp.phi(-w)) < 1e-13     # even
    h = 1e-6
    assert abs((pp.phi(h) - pp.phi(-h)) / (2 * h)) < 1e-7


def test_phi_psi_degenerate():
    with pytest.raises(DegenerateBoundary):
        phi_psi(0.0, 1.0)


@pytest.mark.parametrize("tau", [1e7, 1e12])
def test_phi_psi_judges_singularity_against_its_rows(tau):
    """At tau = 1e7 det M is 7.6e-15, below an absolute 1e-14, as the delta
    values fall like (pi tau)^{-1/2}; scaled by Hadamard's bound
    |row 1| |row 2| the system is as well conditioned as at tau = 1."""
    pp = phi_psi(0.6, tau)
    assert abs(pp.phi(0.0) - 1) < 1e-12
    assert pp.phi(0.3) == pytest.approx(pp.phi(-0.3), rel=1e-12)


def test_eigen_equation_exact():
    # (alpha^2 - quad-element) * delta-member: polynomial prefactor cancels exactly
    from stardeform.distributions import delta_tau
    from fractions import Fraction
    alpha = QC(Fraction(3, 4))
    tau = QC(Fraction(3, 2))
    # exact member: alpha_exp = -1/tau, beta = -2a/tau over QC
    from stardeform.starexp import GaussPoly
    member = GaussPoly(Poly([QC(1)]), QC(-1) / tau, QC(-2) * alpha / tau, 1.0, 0.0, 1)
    from stardeform.starexp import star_poly_gauss
    out = star_poly_gauss(Poly([alpha * alpha - tau * QC(Fraction(1, 2)), QC(0), QC(-1)]),
                          member, tau)
    assert out.poly.is_zero()


def test_semigroup_on_delta():
    tau = 2.0
    for t, alpha in ((0.0, 0.5), (1.0, 1j), (1 / tau, 0.7), (0.5, 0.3 + 0.2j)):
        assert semigroup_on_delta(t, alpha, tau, W_GRID) < 1e-12


def test_phi_group_action_including_singular_t():
    tau = 1.5
    for t in (0.3, 1 / tau, 2.0):
        assert phi_group_action_residual(t, 0.6, tau, W_GRID) < 1e-12


def _phi_psi_solving_for_2_and_0_3(alpha, tau):
    """phi_psi with the boundary system solved for value 2 and slope 0.3."""
    from stardeform.distributions import delta_tau

    dp, dm = delta_tau(alpha, tau), delta_tau(-alpha, tau)
    M = [[dp(0.0), dm(0.0)], [dp.diff()(0.0), dm.diff()(0.0)]]
    a, b = np.linalg.solve(M, [2.0, 0.3])
    return residue.PhiPsi(complex(alpha), complex(tau), complex(a), complex(b),
                          (dp.scaled(a), dm.scaled(b)))


@pytest.mark.parametrize("tau", [1.0, 0.7 + 0.4j, 1.5 - 0.8j, 0.3])
def test_boundary_pair_group_action_fails_on_a_wrong_boundary_solve(monkeypatch, tau):
    """The flow scales every combination of the delta pair alike, so only the
    pins Phi(0) = 1 and Phi'(0) = 0 see the boundary solve."""
    def record():
        rec, = [r for r in verify.suite_residue(tau=complex(tau), nu=1 + 0j, grid=W_GRID)
                if r["anchor"] == "boundary-pair-group-action"]
        return rec

    assert record()["passed"] is True
    monkeypatch.setattr(residue, "phi_psi", _phi_psi_solving_for_2_and_0_3)
    assert record()["passed"] is False


def test_orphan_annihilation():
    nu, tau, k = 1.0, 1.0, 0
    for t in (0.1, 1.0):
        res = orphan_annihilation(t, k, nu, tau, [0.0, 0.5])
        assert res["annihilation"] < 1e-10
        assert np.abs(res["t_zero_values"]).max() > 1e-3   # ladder value nonzero
    # degenerate: k=0, nu=0 -> both members vanish
    res0 = orphan_annihilation(0.5, 0, 0.0, tau, [0.0, 0.5])
    assert res0["annihilation"] < 1e-12
    assert np.abs(res0["t_zero_values"]).max() < 1e-16


@pytest.mark.parametrize("tau", [1.0, 1e6])
def test_ladder_discontinuity_fails_on_a_zeroed_t_zero_value(monkeypatch, tau):
    """The t = 0 bracket falls like |tau|^(-1/2), to 5.0e-4 at tau = 1e6, and
    the record still sees it as nonzero; zeroed, it fails the record."""
    def record():
        rec, = [r for r in verify.suite_residue(tau=complex(tau), nu=1 + 0j, grid=W_GRID)
                if r["anchor"] == "ladder-discontinuity"]
        return rec

    assert record()["passed"] is True
    true = residue.orphan_annihilation
    monkeypatch.setattr(residue, "orphan_annihilation",
                        lambda *args: {**true(*args), "t_zero_values": np.zeros(2)})
    assert record()["passed"] is False


TAU_C = 0.9 + 0.3j


@pytest.mark.parametrize("residual", [
    lambda ws: ladder_residual(1, 0.7 - 0.2j, TAU_C, ws)[0],
    lambda ws: semigroup_on_delta(0.5, 0.6, TAU_C, ws),
    lambda ws: phi_group_action_residual(1 / TAU_C, 0.6, TAU_C, ws),
    lambda ws: orphan_annihilation(0.1, 0, 0.7, TAU_C, ws)["annihilation"],
], ids=["ladder", "semigroup", "phi-group", "annihilation"])
def test_grid_residual_is_the_largest_of_its_points(residual):
    """Evaluated over the grid at once, each residual is bit for bit its largest
    one-point value: no point's value depends on another's."""
    ws = [-1.0, -0.3, 0.0, 0.45, 1.0 + 0.2j]
    assert residual(ws) == max(residual([w]) for w in ws)


def test_orphan_ladder_values_are_their_points():
    ws = [-1.0, 0.0, 0.45, 1.0 + 0.2j]
    got = orphan_annihilation(0.1, 1, 0.7, TAU_C, ws)["t_zero_values"]
    want = [orphan_annihilation(0.1, 1, 0.7, TAU_C, [w])["t_zero_values"][0] for w in ws]
    assert got.tobytes() == np.asarray(want).tobytes()


def test_parallel_polynomials_exact_kernel():
    for k in range(-3, 4):
        for m in range(-3, 4):
            f = parallel_polynomial(k, m)
            assert surface_derivative_exact(f) == {}
    # products stay in the kernel
    f = parallel_polynomial(2, 1) * parallel_polynomial(-1, 3)
    assert surface_derivative_exact(f) == {}
    # negative control: plain z^2 tau is not parallel
    g = SparseLaurent({(2, 1): 1})
    assert surface_derivative_exact(g) != {}


def test_diffeqevol_exact():
    for k in range(-2, 3):
        assert diffeqevol_exact_defect(k).is_zero()


def test_covariant_evolution_residual():
    for H in (Poly([1.0]), Poly([0.5, -1.0, 2.0]), Poly([0.0, 1.0, 0.0, 0.7, 0.3])):
        for z in (1.0, 0.8 + 0.4j, 2.0):
            assert covariant_evolution_residual(H, 0.7, z, W_GRID) < 1e-12


def test_covariant_evolution_solution_is_parallel():
    # the closed family satisfies nabla F = (nu + quad-element) * F: check the
    # covariant derivative against the polynomial star product on a grid
    from stardeform.starexp import star_poly_gauss
    nu = 0.7
    H = Poly([1.0, 0.5, 0.25])
    F, dF = evolution_family(H, nu)
    z0 = 1.2
    tau = 1 / z0
    # surface covariant derivative: d/dz F + (1/(4 z^2)) d^2/dw^2 F
    dz, dww = dF(z0), F(z0).diff().diff()
    rhs = star_poly_gauss(Poly([nu + tau / 2, 0.0, 1.0]), F(z0), tau)
    for w in W_GRID:
        nab = dz(w) + dww(w) / (4 * z0 * z0)
        assert abs(nab - rhs(w)) < 1e-10 * max(1.0, abs(rhs(w)))


def test_covariant_evolution_boundary_display():
    # with boundary F(1,1) = 1 the solution is sqrt(z) e^{z(nu-w^2)} e^{-(nu - z^2 w^2)}
    nu = 0.4
    zs = (1.0, 1.5, 0.7)
    for z in zs:
        for w in (0.0, 0.6):
            want = cmath.sqrt(z) * cmath.exp(z * (nu - w * w)) \
                * cmath.exp(-(nu - z * z * w * w))
            # family with H(x) = e^{-nu + x^2}: evaluate via the generic form
            val = cmath.sqrt(z) * cmath.exp(z * (nu - w * w)) \
                * cmath.exp(-nu + (z * w) ** 2)
            assert abs(val - want) < 1e-14
    # and F(1,1) = 1
    assert abs(cmath.sqrt(1) * cmath.exp(1 * (nu - 0)) * cmath.exp(-nu + 0) - cmath.exp(nu) * cmath.exp(-nu)) < 1e-15


def test_laurent_density_recovery():
    # H(x,s) = (1/(is)) e^{nu s^2 - x^2/s^2} reproduces the Laurent density
    nu, tau, s = 0.8, 2.0, 0.6
    z = 1 / tau
    for w in (0.2, 0.7):
        H = (1 / (1j * s)) * cmath.exp(nu * s * s - (z * w) ** 2 / (s * s))
        got = cmath.sqrt(z) * cmath.exp(z * (nu - w * w)) * H
        want = _density_on_nodes(np.asarray([s], dtype=complex), nu, tau, w)[0]
        # (-1/z)^{-1/2} (1/s) = sqrt(z)/(i s) for the principal branch at z>0
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_gamma_path_inverse_and_difference():
    nu, tau = 1.0, 1.0    # branch point z = 1; Re nu > 0 so the tail decays
    lo = -30.0
    grid = W_GRID[:7]
    ws = np.asarray(grid)
    path_a = [lo, -2.0, 0.0]                                   # stays left of 1
    path_b = [lo, -2.0 + 2.5j, 2.5 + 2.5j, 2.5 - 2.5j, 0.0]    # swings around 1

    # the direct path gives a genuine inverse: (nu + quad-element) * F_a = 1
    assert gamma_inverse_residual(nu, tau, path_a, grid) < 1e-8

    # the encircling path arrives on the other sheet: boundary value -1
    fb = gamma_path_integral(nu, tau, path_b, grid)
    lhs_b = (nu + ws ** 2 + tau / 2) * fb[0] + tau * ws * fb[1] + tau ** 2 / 4 * fb[2]
    assert np.abs(lhs_b + 1.0).max() < 1e-8

    # the chain out along path_a and back along path_b (branch continued
    # through 0) has both endpoints at -inf, so it is annihilated, and it is
    # a nontrivial element (the two integrals differ)
    chain = path_a + list(reversed(path_b))[1:]
    ch = gamma_path_integral(nu, tau, chain, grid)
    lhs = (nu + ws ** 2 + tau / 2) * ch[0] + tau * ws * ch[1] + tau ** 2 / 4 * ch[2]
    assert np.abs(lhs).max() < 1e-8
    assert np.abs(ch[0]).max() > 1e-3
