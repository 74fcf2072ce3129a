"""Residue calculus: dual-route coefficients, ladder, boundary solutions,
annihilation discontinuity, covariant flow."""

import cmath
import math

import numpy as np
import pytest

from stardeform.core import Poly
from stardeform.errors import DegenerateBoundary, PathError
from stardeform.exact import QC, SparseLaurent
from stardeform.residue import (LaurentObj, closed_contour_vanishing, covariant_derivative,
                                covariant_evolution_residual, covariant_evolution_solve,
                                diffeqevol_exact_defect, even_coefficient_contour,
                                evolution_family, gamma_inverse_residual, gamma_path_integral,
                                laurent_coeff_closed, laurent_density_from_H, laurent_gausspoly,
                                orphan_annihilation, parallel_polynomial, phi_group_action_residual,
                                phi_psi, residue_contour, semigroup_on_delta,
                                surface_derivative_exact, ladder_residual)

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
    for j in (-1, 0, 1):
        assert abs(even_coefficient_contour(j, 0.8, 1 + 0.5j, 0.4)) < 1e-12


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


def test_ladder():
    assert ladder_residual(0, 0.0, 1.0, W_GRID) < 1e-14   # both sides vanish
    for k, nu, tau in ((0, 1.0, 1.0), (1, 0.6, 1 + 1j), (-1, 1.2, 2.0), (2, 0.9, 1.0)):
        assert ladder_residual(k, nu, tau, W_GRID) < 1e-12


def test_closed_contour_vanishing():
    assert closed_contour_vanishing(1.0, 1.0, 0.0) < 1e-10
    assert closed_contour_vanishing(0.0, 1.0, 0.5) < 1e-12
    for w in (0.0, 0.4, 0.9):
        assert closed_contour_vanishing(0.8, 1 + 0.5j, w) < 1e-10


def test_laurent_obj_build():
    obj = LaurentObj.build(range(-2, 3), 0.5, 1.0)
    assert set(obj.coeffs) == {-5, -3, -1, 1, 3}


def test_phi_psi_parity_and_boundary():
    pp = phi_psi(0.8, 1.0)
    assert abs(pp.phi(0.0) - 1) < 1e-13
    assert abs(pp.psi(0.0)) < 1e-13
    for w in (0.3, 1.1):
        assert abs(pp.phi(w) - pp.phi(-w)) < 1e-13     # even
        assert abs(pp.psi(w) + pp.psi(-w)) < 1e-13     # odd
    h = 1e-6
    assert abs((pp.phi(h) - pp.phi(-h)) / (2 * h)) < 1e-7
    assert abs((pp.psi(h) - pp.psi(-h)) / (2 * h) - 1) < 1e-7


def test_phi_psi_degenerate():
    with pytest.raises(DegenerateBoundary):
        phi_psi(0.0, 1.0)


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


def test_parallel_polynomials_exact_kernel():
    for k in range(-3, 4):
        for m in range(-3, 4):
            f = parallel_polynomial(k, m)
            assert surface_derivative_exact(f) == {}
    # products stay in the kernel
    f = parallel_polynomial(2, 1) * parallel_polynomial(-1, 3)
    assert surface_derivative_exact(f) == {}
    # negative control: plain z^2 tau is not parallel
    g = SparseLaurent({(2, 1): QC(1)})
    assert surface_derivative_exact(g) != {}


def test_diffeqevol_exact():
    for k in range(-2, 3):
        assert diffeqevol_exact_defect(k, q_max=8).is_zero()


def test_covariant_derivative_plain_dz():
    # for families without w-dependence the covariant derivative is a plain d/dz
    from stardeform.starexp import GaussPoly

    def fam(z):
        return GaussPoly(Poly([z * z]), 0.0, 0.0)

    val = covariant_derivative(fam, 1.3 + 0.2j)(0.7)
    assert abs(val - 2 * (1.3 + 0.2j)) < 1e-8


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
    nab = covariant_derivative(F, z0, df_dz=dF)
    rhs = star_poly_gauss(Poly([nu + tau / 2, 0.0, 1.0]), F(z0), tau)
    for w in W_GRID:
        assert abs(nab(w) - rhs(w)) < 1e-10 * max(1.0, abs(rhs(w)))


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


def test_covariant_evolution_path_and_errors():
    H = Poly([1.0, 2.0])
    path = [1.0, 0.8 + 0.3j, 0.5 + 0.5j, 1.2]
    vals = covariant_evolution_solve(H, 0.5, path, W_GRID[:5])
    assert len(vals) == len(path)
    with pytest.raises(PathError):
        covariant_evolution_solve(H, 0.5, [1.0, 0.0], W_GRID[:3])
    assert covariant_evolution_solve(Poly(), 0.5, [1.0], W_GRID[:3])[0].tolist() == [0, 0, 0]


def test_laurent_density_recovery():
    # H(x,s) = (1/(is)) e^{nu s^2 - x^2/s^2} reproduces the Laurent density
    nu, tau, s = 0.8, 2.0, 0.6
    z = 1 / tau
    for w in (0.2, 0.7):
        got = laurent_density_from_H(s, nu, z, w)
        zz = z + s * s
        want = cmath.exp(zz * nu) / (cmath.sqrt(-tau) * s) \
            * cmath.exp(zz * w * w / (1 - zz * tau))
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
    fb = [gamma_path_integral(nu, tau, path_b, grid, deriv=d) for d in (0, 1, 2)]
    lhs_b = (nu + ws ** 2 + tau / 2) * fb[0] + tau * ws * fb[1] + tau ** 2 / 4 * fb[2]
    assert np.abs(lhs_b + 1.0).max() < 1e-8

    # the chain out along path_a and back along path_b (branch continued
    # through 0) has both endpoints at -inf, so it is annihilated, and it is
    # a nontrivial element (the two integrals differ)
    chain = path_a + list(reversed(path_b))[1:]
    ch = [gamma_path_integral(nu, tau, chain, grid, deriv=d) for d in (0, 1, 2)]
    lhs = (nu + ws ** 2 + tau / 2) * ch[0] + tau * ws * ch[1] + tau ** 2 / 4 * ch[2]
    assert np.abs(lhs).max() < 1e-8
    assert np.abs(ch[0]).max() > 1e-3
