"""Delta/inverse calculus; mpmath's erf supplies closed-form oracles for the
Gaussian half-line integrals."""

import cmath
import inspect
import json
import math
import textwrap

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardeform import distributions, theta as theta_module, verify
from stardeform.core import Poly
from stardeform.distributions import (associativity_break, constant_variation_defect,
                                      delta_annihilation, delta_difference_residual, delta_mass,
                                      delta_tau, eval_pairing_residual, heaviside_pair,
                                      heaviside_y_fourier, periodic_comb_residual,
                                      principal_value_inverse, product_of_inverses_residual,
                                      sided_inverse, sided_inverse_defect, sided_power,
                                      slowly_increasing_transform, tempered_transform)
from stardeform.cli import main
from stardeform.errors import DomainError, QuadratureFailure
from stardeform.quadrature import (MAX_CACHED_NODES, N_NODES, WINDOW_RTOL, _cached_panel_rule,
                                   _gl_rule, _panel_rule, _rounding_term, _truncation_term,
                                   gaussian_halfwidth,
                                   integrate_gaussian_window, integrate_segment,
                                   integrate_segment_refined)
from stardeform.starexp import star_poly_gauss
from stardeform.theta import theta_eval

W_GRID = [-3.0 + 0.15 * k for k in range(41)]
W_SMALL = [-2.0 + 0.5 * k for k in range(9)]


def test_delta_expression_and_mass():
    d = delta_tau(0.0, 1.0)
    for w in (-1.0, 0.0, 0.7):
        assert abs(d(w) - math.pi ** -0.5 * math.exp(-w * w)) < 1e-15
    assert abs(delta_mass(0.3, 1.2) - 1.0) < 1e-12
    assert abs(delta_mass(0.0, 2.0 + 0.8j) - 1.0) < 1e-12


def test_delta_annihilation_exact():
    for a, tau in ((0.4, 1.0), (1j, 2.0 + 0.5j)):
        z = delta_annihilation(a, tau)
        assert z.poly.is_zero() or max(abs(c) for c in z.poly.coeffs) < 1e-15


def test_delta_domain_error():
    with pytest.raises(DomainError):
        delta_tau(0.0, -1.0)


def test_sided_inverse_defect():
    for a in (0.0, 1.0, 1j):
        for side in "+-":
            assert sided_inverse_defect(a, side, 1.0, W_GRID) < 1e-8


def test_sided_inverse_far_field():
    # the inverse approaches the pointwise reciprocal where the Gaussian part
    # exp(-(a+w)^2/tau) is negligible, i.e. Re((a+w)^2) large positive; for
    # imaginary a that means complex w offsetting Im a (relative error
    # ~ tau/(2|a+w|^2)).  At real w the Gaussian part dominates instead.
    a, tau = 3j, 1.0
    for w in (8.0 - 3j, -8.0 - 3j):
        v = sided_inverse(a, "+", tau, [w])[0]
        assert abs(v - 1 / (a + w)) < 2e-2 * abs(1 / (a + w))
    # real-a version on the real line
    for w in (-1.0, 1.0):
        v = sided_inverse(6.0, "+", tau, [w])[0]
        assert abs(v - 1 / (6.0 + w)) < 3e-2 * abs(1 / (6.0 + w))


def test_delta_difference():
    for a in (0.0, 0.8, 0.5j):
        assert delta_difference_residual(a, 1.0, W_SMALL) < 1e-9


def test_tempered_transform_delta():
    # f = delta(x - a): f_hat(t) = (2pi)^{-1/2} e^{ita} -> delta_*(a-w)
    a, tau = 0.6, 1.0
    vals = tempered_transform(lambda t: np.exp(1j * t * a) / math.sqrt(2 * math.pi),
                              tau, W_SMALL)
    d = delta_tau(-a, tau)    # delta_*(a - w)
    assert max(abs(v - d(w)) for v, w in zip(vals, W_SMALL)) < 1e-12


def test_tempered_transform_constant():
    # f = 1: f_hat = sqrt(2pi) delta(t); realized on the x side instead
    vals, = slowly_increasing_transform(lambda x: np.ones_like(x), 1.0, W_SMALL, ())
    assert np.abs(vals - 1.0).max() < 1e-12


def test_tempered_transform_reciprocal():
    # f = 1/(a-x) with Im a < 0 transforms to the plus inverse of (a - w):
    # i integral_{-inf}^0 e^{-t^2 tau/4} e^{it(a-w)} dt, which after t -> -t is
    # -(( -a)+w)^{-1}_{*-} in the (a+w) parameterization
    a, tau = 0.4 - 0.7j, 1.0
    got, = slowly_increasing_transform(lambda x: 1.0 / (a - x), tau, W_SMALL, ())
    want = -sided_inverse(-a, "-", tau, W_SMALL)
    assert np.abs(got - want).max() < 1e-9


def test_heaviside_identities():
    y_neg, y = heaviside_pair(1.0, W_GRID)
    assert np.abs(y + y_neg - 1.0).max() < 1e-10
    # sgn * sgn: the density rule on sgn(x)^2 is the pair's sum bit for bit
    ss = slowly_increasing_transform(lambda x: np.sign(x) ** 2, 1.0, W_GRID, (0.0,)).sum(axis=0)
    assert np.array_equal(ss, y_neg + y)
    # Y * Y = Y: the density-rule product against the Fourier route
    assert np.abs(y - heaviside_y_fourier(1.0, W_GRID)).max() < 1e-9


def test_heaviside_two_routes_and_erf_oracle():
    tau = 1.3
    y_neg, y_x = heaviside_pair(tau, W_SMALL)
    y_t = heaviside_y_fourier(tau, W_SMALL)
    assert np.abs(y_x - y_t).max() < 1e-10
    for yv, yn, w in zip(y_x, y_neg, W_SMALL):
        want = complex(mpmath.erfc(-w / mpmath.sqrt(tau))) / 2
        assert abs(yv - want) < 1e-12
        assert abs(yn - (1 - want)) < 1e-12


def test_heaviside_limit_one():
    y = heaviside_pair(1.0, [4.5, 6.0])[1]
    assert abs(y[0] - 1) < 1e-5 and abs(y[1] - 1) < 1e-8


@pytest.mark.parametrize("tau", [1.0, 0.5 + 1j, 2 - 1j, 0.1])
def test_heaviside_pair_is_the_indicator_transforms_on_every_sub_grid(tau):
    """verify dist reads Y at grid[1::2] and grid[::4] from the pair on the
    full grid: the pair there is the full pair's rows bit for bit, and its
    rows are the x-side rule on the indicators of x < 0 and x > 0, whose
    zeroed half-lines add exactly 0."""
    grid = [-3 + 6 * k / 64 for k in range(65)]
    full = heaviside_pair(tau, grid)
    for sub in (slice(1, None, 2), slice(None, None, 4)):
        assert np.array_equal(heaviside_pair(tau, grid[sub]), full[:, sub])
    for row, inside in zip(full, (lambda x: x < 0, lambda x: x > 0)):
        sides = slowly_increasing_transform(lambda x: inside(x).astype(float), tau, grid, (0.0,))
        assert np.array_equal(sides.sum(axis=0), row)


def test_heaviside_pair_where_the_window_misses_zero():
    """At tau = 0.1 the windows of |w| > 1.92 miss x = 0: the segment on the
    side away from w has zero length, and that member of the pair is 0."""
    y_neg, y = heaviside_pair(0.1, [-3.0, -2.0, 2.0, 3.0])
    assert np.all(y[:2] == 0) and np.all(y_neg[2:] == 0)
    assert np.abs(y_neg[:2] - 1).max() < 1e-12 and np.abs(y[2:] - 1).max() < 1e-12


def test_eval_pairing():
    tau = 1.0
    # f = x^2, a = 1
    assert eval_pairing_residual(Poly([0, 0, 1]), 1.0, tau, W_SMALL) < 1e-13
    # f = 1 exact
    assert eval_pairing_residual(Poly([1]), 0.3, tau, W_SMALL) < 1e-15
    # f = e^x
    assert eval_pairing_residual(("exp", 1.0), 0.5, tau, W_SMALL) < 1e-13


@pytest.mark.parametrize("f, a", [(Poly([0, 0, 1]), 1.0), (("exp", 1.0), 0.5)])
def test_eval_pairing_residual_is_the_largest_of_its_points(f, a):
    ws = [a - 0.5, a, a + 0.5, 0.2 + 0.3j]
    tau = 0.8 + 0.4j
    assert eval_pairing_residual(f, a, tau, ws) \
        == max(eval_pairing_residual(f, a, tau, [w]) for w in ws)


def test_principal_value_average_of_sides():
    tau = 1.0
    vp = principal_value_inverse(1, tau, W_SMALL)
    avg = (sided_inverse(0.0, "+", tau, W_SMALL) + sided_inverse(0.0, "-", tau, W_SMALL)) / 2
    assert np.abs(vp - avg).max() < 1e-9
    # odd in w
    sym = principal_value_inverse(1, tau, [-1.0, 1.0])
    assert abs(sym[0] + sym[1]) < 1e-12


def test_pf_second_power():
    # under the self-consistent transform conventions (the ones that make the
    # delta law and the m=1 average identity hold), the relation carries no
    # alternating sign: transform(Pf x^{-m}) = (1/2)(w^{-m}_+ + w^{-m}_-).
    # Asymptotics confirm: the smeared Pf x^{-2} must approach +1/w^2.
    tau = 1.0
    pf2 = principal_value_inverse(2, tau, W_SMALL)
    target = 0.5 * (sided_power(0.0, 2, "+", tau, W_SMALL)
                    + sided_power(0.0, 2, "-", tau, W_SMALL))
    assert np.abs(pf2 - target).max() < 1e-9
    far = principal_value_inverse(2, 0.5, [6.0])
    assert abs(far[0] - 1 / 36.0) < 2e-3


def test_periodic_comb():
    assert periodic_comb_residual(0.0, 1.0, W_SMALL) < 1e-10
    # shifting a by 2 pi changes nothing
    r1 = periodic_comb_residual(0.7, 1.5, W_SMALL)
    r2 = periodic_comb_residual(0.7 + 2 * math.pi, 1.5, W_SMALL)
    assert r1 < 1e-10 and r2 < 1e-10


def test_fourier_series_transport_triangle():
    # triangle wave on [-pi, pi]: f(x) = |x|; a_0 = pi/2, a_n = (cos(n pi)-1) * 2/(pi n^2)
    tau = 1.0
    coeffs = {0: math.pi / 2}
    for n in range(1, 60):
        c = (math.cos(math.pi * n) - 1) / (math.pi * n * n)
        if c:
            coeffs[n] = c
            coeffs[-n] = c
    ws = np.asarray(W_SMALL)
    series = sum(c * np.exp(-n * n * tau / 4 + 1j * n * ws) for n, c in coeffs.items())

    def tri(x):
        y = np.mod(x + math.pi, 2 * math.pi) - math.pi
        return np.abs(y)

    kinks = [k * math.pi for k in range(-4, 5)]
    direct = slowly_increasing_transform(tri, tau, W_SMALL, breakpoints=kinks).sum(axis=0)
    assert np.abs(series - direct).max() < 1e-8


def test_constant_variation_inverse():
    assert constant_variation_defect(0.4, 1.0, W_SMALL) < 1e-8
    # the C-term of the other inverses is annihilated exactly in closed form
    g = star_poly_gauss(Poly([0.4, 1.0]),
                        delta_tau(0.4, 1.0), 1.0)
    assert g.poly.is_zero() or max(abs(c) for c in g.poly.coeffs) < 1e-15


def test_product_of_inverses_and_vanishing():
    """The product law holds, and the product of the delta pairs (plus - minus
    at a) * (plus - minus at b), expanded in the three quadrant products and the
    law's (-,+) term, vanishes."""
    a, b, tau = 0.3 - 0.6j, -0.2 + 0.5j, 1.0
    assert product_of_inverses_residual(a, b, tau, W_SMALL) < 1e-8
    prods = {sides: distributions._double_osc(tau, a, b, W_SMALL, *sides)
             for sides in ((1, 1), (-1, -1), (1, -1))}
    prods[(-1, 1)] = (sided_inverse(a, "-", tau, W_SMALL)
                      - sided_inverse(b, "+", tau, W_SMALL)) / (b - a)
    vanish = prods[(1, 1)] - prods[(1, -1)] - prods[(-1, 1)] + prods[(-1, -1)]
    assert np.abs(vanish).max() < 1e-8


def _double_osc_per_point(tau, a, b, w_grid, side_a, side_b, panel_width=2.0):
    """The quadrant integral in its own (t, s) coordinates, point by point: the
    full mesh of e^{i(t+s)w} for every w, on composite 16-node Gauss-Legendre
    panels over [0, T] per axis (a single 400-node rule from numpy carries
    about 1e-12 of its own error)."""
    tau_c, a_c, b_c = complex(tau), complex(a), complex(b)
    decay = max(min(abs(a_c.imag), abs(b_c.imag)), 0.25)
    T = gaussian_halfwidth(tau_c.real / 4) + math.log(1e16) / decay
    n_panels = math.ceil(T / panel_width)
    xs, wts = np.polynomial.legendre.leggauss(16)
    half = T / n_panels / 2
    x = ((xs[None, :] + 1) * half + 2 * half * np.arange(n_panels)[:, None]).ravel()
    wx = np.tile(wts * half, n_panels)
    t = x * (1 if side_a < 0 else -1)
    s = x * (1 if side_b < 0 else -1)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    base = np.exp(1j * tt * a_c + 1j * ss * b_c - (tt + ss) ** 2 * tau_c / 4)
    pref = (1j if side_a > 0 else -1j) * (1j if side_b > 0 else -1j)
    return np.asarray([pref * (wx @ (base * np.exp(1j * (tt + ss) * w)) @ wx)
                       for w in w_grid])


@pytest.mark.parametrize("n_points", [5, 17])
@pytest.mark.parametrize("tau", [1.0, 0.6 + 0.9j, 2 - 0.7j])
@pytest.mark.parametrize("sides", [(1, 1), (-1, -1), (1, -1)])
def test_double_osc_matches_per_point_rule(sides, tau, n_points):
    a, b = 0.3 - 0.6j, -0.2 + 0.5j
    ws = np.linspace(-2.0, 2.0, n_points)
    got = distributions._double_osc(tau, a, b, ws, *sides)
    want = _double_osc_per_point(tau, a, b, ws, *sides)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("tau", [1.0, 0.6 + 0.9j, 2 - 0.7j, 0.5 + 1j, 0.5 - 1j, 2 + 1j])
@pytest.mark.parametrize("sides", [(1, 1), (-1, -1), (1, -1)])
def test_double_osc_quadrants_match_the_law(sides, tau):
    """Each absolutely convergent quadrant of the 2-D rule against the law's right
    side ((a+w)^{-1}_{*s} - (b+w)^{-1}_{*s'})/(b-a), built from the closed form of
    the half-line integrals."""
    a, b = 0.3 - 0.6j, -0.2 + 0.5j
    ws = np.linspace(-3.0, 3.0, 17)

    def inverse(c, side):
        sign, pref = (-1, 1j) if side > 0 else (1, -1j)
        return np.asarray([pref * _mp_halfline(0, tau, c + w, sign) for w in ws])

    want = (inverse(a, sides[0]) - inverse(b, sides[1])) / (b - a)
    got = distributions._double_osc(tau, a, b, ws, *sides)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 5e-13 * np.abs(want).max()


def test_double_osc_rejects_divergent_quadrant():
    with pytest.raises(DomainError):
        distributions._double_osc(1.0, 0.3 - 0.6j, -0.2 + 0.5j, W_SMALL, -1, 1)
    # (+,-) decays along t = -s only when Im a < Im b
    with pytest.raises(DomainError):
        distributions._double_osc(1.0, -0.2 + 0.5j, 0.3 - 0.6j, W_SMALL, 1, -1)


def test_product_rule_nodes_are_computed_once(monkeypatch):
    a, b = 0.3 - 0.6j, -0.2 + 0.5j
    product_of_inverses_residual(a, b, 1.0, W_SMALL)
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    product_of_inverses_residual(a, b, 1.0, W_SMALL)
    assert calls == []


def test_inverse_product_law_record_detects_a_perturbed_inverse(monkeypatch):
    """The law compares the 2-D rule against the sided inverses; a relative
    error of 1e-6 in those inverses must fail the record."""
    def record():
        rec, = [r for r in verify.suite_dist(tau=1 + 0j, grid=[-2 + k / 4 for k in range(17)])
                if r["anchor"] == "inverse-product-law"]
        return rec

    assert record()["passed"] is True
    sided_inverse_ = distributions.sided_inverse
    monkeypatch.setattr(distributions, "sided_inverse",
                        lambda *args: sided_inverse_(*args) * (1 + 1e-6))
    assert record()["passed"] is False


def _mutated(func, old, new):
    """func recompiled from its source with the one occurrence of old replaced by
    new, in a copy of its module's namespace."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
    return namespace[func.__name__]


def _weideman_l_off_by_one_percent():
    L, p, dp = distributions._weideman_rule()
    return lambda: (1.01 * L, p, dp)


# name: (attribute of distributions, its replacement, records that must fail)
CLOSED_FORM_MUTANTS = {
    "f-plus-at-plus-zeta": (
        "_sided_closed_form",
        lambda: _mutated(distributions._sided_closed_form, "_faddeeva(-sgn * zeta)",
                         "_faddeeva(zeta)"),
        ("sided-inverse-defect",)),
    "reflection-without-2exp": (
        "_faddeeva",
        lambda: _mutated(distributions._faddeeva, "e = exp_array", "e = 0 * exp_array"),
        ("sided-difference-delta",)),
    "weideman-l-off-by-1-percent": (
        "_weideman_rule", _weideman_l_off_by_one_percent,
        ("sided-inverse-defect", "sided-route-agreement")),
    "window-scaled-by-1e-6": (
        "sided_power",
        lambda: (lambda *args, true=distributions.sided_power: true(*args) * (1 + 1e-6)),
        ("sided-route-agreement",)),
}


@pytest.mark.parametrize("tau", [1 + 0j, 0.7 + 0.4j])
@pytest.mark.parametrize("mutant", list(CLOSED_FORM_MUTANTS))
def test_sided_inverse_records_fail_on_a_mutant(monkeypatch, mutant, tau):
    """f_+ read at +zeta, the reflection without its 2 e^{-z^2}, Weideman's L
    off by 1 % where the rational form is evaluated, and the m = 1 window
    scaled by 1 + 1e-6 each fail the records named, at a real and a complex
    tau; unmutated, all three records pass."""
    anchors = ("sided-inverse-defect", "sided-difference-delta", "sided-route-agreement")

    def passed():
        return {r["anchor"]: r["passed"] for r in verify.suite_dist(tau=tau, grid=W_SMALL)
                if r["anchor"] in anchors}

    assert passed() == dict.fromkeys(anchors, True)
    name, make, failing = CLOSED_FORM_MUTANTS[mutant]
    monkeypatch.setattr(distributions, name, make())
    got = passed()
    assert [a for a in failing if got[a]] == []


def test_associativity_break_matches_theta():
    tau = 1.0
    res = associativity_break(tau, W_SMALL)
    # both one-sided series are inverses of B = 1 - e_*^{2iw}, formed as products ...
    assert np.abs(res["B*A"] - 1).max() < 1e-14
    assert np.abs(res["B*C"] - 1).max() < 1e-14
    # ... so the two groupings collapse to C and A, and the gap is -theta3
    theta = theta_eval(3, np.asarray(W_SMALL), tau)
    assert np.abs(res["C"] - res["A"] + theta).max() < 1e-8


# name: (module, attribute, wrapper of the true function)
ASSOCIATIVITY_MUTANTS = {
    "A-without-n0": (theta_module, "geometric_inverse_sum",
                     lambda true: lambda side, tau, w: true(side, tau, w) - (side == "+")),
    "translation-by-minus-i": (distributions, "translate_action",
                               lambda true: lambda s, f, tau: true(-s, f, tau)),
    # adds back the n = 1 term e_*^{-2iw}, whose tau-expression is e^{-tau - 2iw}
    "C-from-n2": (theta_module, "geometric_inverse_sum",
                  lambda true: lambda side, tau, w:
                  true(side, tau, w) + (side == "-") * np.exp(-tau - 2j * np.asarray(w))),
    "C-is-A": (theta_module, "geometric_inverse_sum",
               lambda true: lambda side, tau, w: true("+", tau, w)),
}


@pytest.mark.parametrize("mutant", list(ASSOCIATIVITY_MUTANTS))
def test_associativity_break_fails_on_a_mutant(monkeypatch, mutant):
    """A without its n = 0 term, the product with e_*^{-2iw} in place of
    e_*^{2iw}, and C starting at n = 2 each leave B*A or B*C away from 1; a C
    equal to A is an inverse, but the groupings then do not break."""
    def record():
        rec, = [r for r in verify.suite_dist(tau=0.7 + 0.4j, grid=W_SMALL)
                if r["anchor"] == "associativity-break"]
        return rec

    assert record()["passed"] is True
    target, name, wrap = ASSOCIATIVITY_MUTANTS[mutant]
    monkeypatch.setattr(target, name, wrap(getattr(target, name)))
    assert record()["passed"] is False


@pytest.mark.parametrize("m", [0, 172, 200])
def test_sided_power_order_range(m):
    """(m-1)! must stay below the float maximum, as for principal_value_inverse."""
    for side in "+-":
        with pytest.raises(DomainError, match="1..171"):
            sided_power(0.0, m, side, 1.0, W_SMALL)


# ------------------------------------------------------- cached panel rules

def _linspace_rule(n_panels):
    """The composite rule as integrate_segment built it on every call before it was cached."""
    x, w = np.polynomial.legendre.leggauss(N_NODES)
    x, w = (x + 1.0) / 2.0, w / 2.0
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    ts = (edges[:-1, None] + np.diff(edges)[:, None] * x[None, :]).ravel()
    ws = (np.diff(edges)[:, None] * w[None, :]).ravel()
    return ts, ws


@pytest.mark.parametrize("n_panels, n_rows", [(1, 5), (8, 16), (24, 16), (37, 16), (64, 12)])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.5 + 0.3j, 1.0 - 0.7j), (3j, -1.5)])
def test_integrate_segment_is_bit_identical_to_the_uncached_rule(n_panels, n_rows, a, b):
    """The scalar form, on a vector-valued f, and the row form, on n_rows rows
    whose endpoints spread from (a, b), both against the uncached rule."""
    ws_grid = np.asarray([-1.0, 0.25, 2.0 + 0.5j])

    def f(t):
        return np.exp(1j * np.multiply.outer(ws_grid, t) - 0.3 * t * t)

    ts, wts = _linspace_rule(n_panels)
    want = (b - a) * np.sum(f(a + (b - a) * ts) * wts, axis=-1)
    got = integrate_segment(f, a, b, n_panels)
    assert got.tobytes() == want.tobytes()

    lo, hi = a + 0.1 * np.arange(n_rows), b - 0.2j * np.arange(n_rows)

    def g(x):
        return np.exp(1j * x - 0.3 * x * x)

    want = (hi - lo) * np.sum(g(lo[:, None] + (hi - lo)[:, None] * ts) * wts, axis=-1)
    assert integrate_segment(g, lo, hi, n_panels).tobytes() == want.tobytes()


def test_cached_rules_are_read_only_and_shared():
    for rule in (_gl_rule(), _panel_rule(24)):
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.5
            with pytest.raises(ValueError):
                arr *= 2.0
    assert _gl_rule() is _gl_rule() and _panel_rule(24) is _panel_rule(24)
    assert all(x is y for x, y in zip(_panel_rule(24), _panel_rule(24)))


def test_wide_panel_rules_are_built_uncached():
    """A rule of more than MAX_CACHED_NODES nodes is rebuilt on each call, so the
    cache retains no window rule of up to 2 * WINDOW_PANEL_BUDGET panels; the
    rebuilt arrays equal the uncached rule and are read-only too."""
    n_panels = MAX_CACHED_NODES // N_NODES + 1
    before = _cached_panel_rule.cache_info().currsize
    first, second = _panel_rule(n_panels), _panel_rule(n_panels)
    assert _cached_panel_rule.cache_info().currsize == before
    assert first[0] is not second[0]
    for got, want in zip(first, _linspace_rule(n_panels)):
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[0] = 0.5
    assert _panel_rule(MAX_CACHED_NODES // N_NODES) is _panel_rule(MAX_CACHED_NODES // N_NODES)


# ------------------------------------------- segment refinement by rows

@pytest.mark.parametrize("tol", [1e-8, 1e-13])
def test_segment_rows_match_scalar_calls(tol):
    """Row r of the row form is the scalar call on row r's endpoints, whatever
    doubling the other rows need: rows of different widths, peaks and sizes
    converge at different panel counts (the kink |x - 0.3|^2.5 only slowly), and
    the large row sets no other row's scale.  A doubling pass hands f the rows
    not yet accepted only."""
    a = np.asarray([-9.0, -1.0, 0.0, 2.5, -0.3, 0.0])
    b = np.asarray([9.0, 30.0, 0.5, 2.5, 40.0, 1.0])
    centres = np.asarray([0.0, 1.5, 0.25, 2.5, -0.5 + 0.3j, 0.0])
    widths = np.asarray([1.0, 0.05, 2.0, 1.0, 0.4, 1.0])
    sizes = np.asarray([1e6, 1.0, 1.0, 1.0, 1.0, 0.0])
    kinks = np.asarray([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

    def row(c, h, size, kink):
        return lambda x: size * np.exp(-(x - c) ** 2 / h + 1j * x) + kink * np.abs(x - 0.3) ** 2.5

    seen = []

    def rows_f(x, rows):
        seen.append(len(rows))
        return row(*(p[rows, None] for p in (centres, widths, sizes, kinks)))(x)

    got = integrate_segment_refined(rows_f, a, b, tol=tol)
    assert got.shape == a.shape
    assert seen[0] == len(a) and seen[-1] < len(a) and seen == sorted(seen, reverse=True)
    for r in range(len(a)):
        want = integrate_segment_refined(row(centres[r], widths[r], sizes[r], kinks[r]),
                                         a[r], b[r], tol=tol)
        assert got[r] == want


@settings(deadline=None, max_examples=60)
@given(rows=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 6.0), st.floats(0.05, 3.0),
                               st.floats(-2.0, 2.0)), min_size=1, max_size=8),
       data=st.data())
def test_segment_rows_of_a_subset_are_the_full_call_s_bit_for_bit(rows, data):
    """Each row is accepted on its own, so the rows of any subset, integrated
    alone, are those rows of the call on the whole set bit for bit; the
    Heaviside pair's sub-grid rows rest on this.  Rows differ in segment,
    zero length included, peak and chirp, so they settle at different passes."""
    lo, length, width, chirp = (np.asarray(p) for p in zip(*rows))
    keep = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))

    def integrand(r):
        return lambda x, rows: np.exp(-(x - lo[r][rows, None] - 1) ** 2 / width[r][rows, None]
                                      + 1j * chirp[r][rows, None] * x * x)

    full = integrate_segment_refined(integrand(slice(None)), lo, lo + length, tol=1e-13)
    sub = integrate_segment_refined(integrand(keep), lo[keep], lo[keep] + length[keep], tol=1e-13)
    assert np.array_equal(full[keep], sub)


def test_segment_rows_raise_when_any_row_misses_tol():
    """A row whose integrand has an endpoint singularity never settles; its
    refinement raises even though every other row converged."""
    a, b = np.zeros(3), np.ones(3)
    power = np.asarray([[2.0], [-0.5], [1.0]])
    with pytest.raises(QuadratureFailure, match="did not reach"):
        integrate_segment_refined(lambda x, rows: x ** power[rows], a, b, tol=1e-12,
                                  max_panels=64)
    vals = integrate_segment_refined(lambda x, rows: x ** power[[0, 2]][rows], a[:2], b[:2],
                                     tol=1e-12)
    assert np.abs(vals - [1 / 3, 1 / 2]).max() < 1e-15


@pytest.mark.parametrize("rate, growth, power", [(0.25, 0.0, 0), (3.0, 1.5, 0), (1.0, 0.0, 8),
                                                  (0.05, 0.7, 60), (0.6, 2.0, 3)])
def test_gaussian_halfwidth_drops_the_envelope_by_1e16(rate, growth, power):
    """Every cut, x-side or t-side, lies where the envelope
    E(t) = power log t + growth t - rate t^2 has fallen log(1e16) below its value
    at t_p = sqrt(power / (2 rate)), the peak without the growth, and so at least
    that far below its peak."""
    def env(t):
        return power * np.log(t) + growth * t - rate * t * t

    T, tp = gaussian_halfwidth(rate, growth, power), math.sqrt(power / (2 * rate))
    start = env(tp) if power else 0.0       # E(0) = 0 without the power
    assert start - env(T) == pytest.approx(math.log(1e16), abs=1e-6)
    ts = np.linspace(1e-9, T, 200001)
    assert env(ts).max() - env(T) >= math.log(1e16) - 1e-6
    assert T > ts[env(ts).argmax()]
    with pytest.raises(QuadratureFailure, match="nonpositive"):
        gaussian_halfwidth(-rate, growth, power)


def fix_error_terms(monkeypatch, trunc, rounding):
    """Make the driver's node estimate and rounding term of each pass the given
    functions of the node values it is formed from."""
    from stardeform import quadrature
    monkeypatch.setattr(quadrature, "_truncation_term", lambda vals, span, n: trunc(vals))
    monkeypatch.setattr(quadrature, "_rounding_term", lambda vals, span, n: rounding(vals))


def test_driver_accepts_on_the_sum_of_both_terms(monkeypatch):
    """A pass whose truncation and rounding terms each fit the bound but whose
    sum does not is refined; rounding alone beyond the bound raises at once."""
    truncs, roundings = iter([0.6e-12, 0.0]), iter([0.6e-12, 0.0])
    fix_error_terms(monkeypatch, lambda vals: next(truncs), lambda vals: next(roundings))
    panels = []
    integrate_segment_refined(lambda x: panels.append(x.size) or np.ones_like(x), 0.0, 1.0)
    assert panels == [8 * N_NODES, 16 * N_NODES]
    fix_error_terms(monkeypatch, lambda vals: 0.0, lambda vals: 2e-12)
    with pytest.raises(QuadratureFailure, match="rounding"):
        integrate_segment_refined(np.ones_like, 0.0, 1.0)


def _passes_of(values):
    """An f for the scalar driver whose k-th pass integrates the constant values[k]
    over [0, 1], and the list of the panel counts it was called with."""
    panels = []

    def f(x):
        panels.append(x.size // N_NODES)
        return np.full_like(x, values[len(panels) - 1])

    return f, panels


def test_driver_accepts_on_the_change_from_the_previous_pass(monkeypatch):
    """A pass that misses on its node estimate is accepted once its value is
    within the bound of the previous pass's: the value moves by 1e-9 from the
    first to the second pass, so the third pass, which moves by 0, returns."""
    fix_error_terms(monkeypatch, lambda vals: 1.0, lambda vals: 0.0)
    f, panels = _passes_of([1.0, 1.0 + 1e-9, 1.0 + 1e-9])
    assert integrate_segment_refined(f, 0.0, 1.0) == pytest.approx(1.0 + 1e-9, abs=1e-15)
    assert panels == [8, 16, 32]


def test_driver_never_accepts_a_first_pass_on_a_difference(monkeypatch):
    """With one pass allowed there is no previous pass, so a pass that misses
    on its node estimate is refused however settled its value."""
    fix_error_terms(monkeypatch, lambda vals: 1.0, lambda vals: 0.0)
    f, panels = _passes_of([1.0, 1.0])
    with pytest.raises(QuadratureFailure, match="did not reach"):
        integrate_segment_refined(f, 0.0, 1.0, max_panels=8)
    assert panels == [8]


def test_driver_adds_the_rounding_term_to_the_difference(monkeypatch):
    """A change of 0.6e-12 between passes fits the bound 1e-12 alone, but not
    with a rounding term of 0.6e-12 beside it."""
    fix_error_terms(monkeypatch, lambda vals: 1.0, lambda vals: 0.6e-12)
    f, panels = _passes_of([1.0, 1.0 + 0.6e-12, 1.0 + 0.6e-12])
    integrate_segment_refined(f, 0.0, 1.0)
    assert panels == [8, 16, 32]


def test_driver_rows_take_the_difference_against_their_own_previous_pass(monkeypatch):
    """Rows 0 and 2 hold their values from the first pass and are accepted on
    the second; row 1 moves from 2 to 3 and is accepted on the third pass, where
    its previous value is its own 3, not another row's."""
    fix_error_terms(monkeypatch, lambda vals: np.ones(vals.shape[:-1]),
                    lambda vals: np.zeros(vals.shape[:-1]))
    by_pass = [np.asarray([1.0, 2.0, 5.0]), np.asarray([1.0, 3.0, 5.0]),
               np.asarray([9.0, 3.0, 9.0]), np.asarray([9.0, 4.0, 9.0])]
    seen = []

    def f(x, rows):
        seen.append(rows.tolist())
        return np.broadcast_to(by_pass[len(seen) - 1][rows, None], x.shape)

    got = integrate_segment_refined(f, np.zeros(3), np.ones(3))
    assert seen == [[0, 1, 2], [0, 1, 2], [1]]
    assert np.abs(got - [1.0, 3.0, 5.0]).max() < 1e-14


def test_driver_forms_the_node_estimate_only_where_the_change_misses():
    """The node estimate of a pass is formed for the rows (entries) whose change
    from the previous pass, plus rounding, misses the bound, and for none of a
    pass the change accepts.  Rows 0 and 2 hold their values, so on the second
    pass only row 1 takes the estimate, which accepts it there."""
    from stardeform import quadrature
    sizes = []

    def trunc(vals, span, n):
        sizes.append(vals.shape[:-1])
        return np.full(vals.shape[:-1], 1.0 if len(sizes) == 1 else 0.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_truncation_term", trunc)
        by_pass = [np.asarray([1.0, 2.0, 5.0]), np.asarray([1.0, 3.0, 5.0])]
        seen = []

        def f(x, rows):
            seen.append(rows.tolist())
            return np.broadcast_to(by_pass[len(seen) - 1][rows, None], x.shape)

        got = integrate_segment_refined(f, np.zeros(3), np.ones(3))
        assert seen == [[0, 1, 2], [0, 1, 2]] and sizes == [(3,), (1,)]
        assert np.abs(got - [1.0, 3.0, 5.0]).max() < 1e-14
        # a vector-valued f on scalar endpoints: the second pass, whose change
        # is 0, is accepted with no estimate formed
        sizes.clear()
        passes = []

        def g(x):
            passes.append(x.size)
            return np.stack([np.ones_like(x), 2 * np.ones_like(x)])

        integrate_segment_refined(g, 0.0, 1.0)
        assert len(passes) == 2 and sizes == [(2,)]


@pytest.mark.parametrize("tau, osc, panels", [(1.0, 1.0, 4), (1.0, 4.0, 5), (0.5 + 1j, 4.0, 19),
                                               (2 - 1j, 3.0, 6), (0.1 + 4j, 1.3, 240)])
def test_window_start_is_an_eighth_of_the_summed_waves(tau, osc, panels):
    """A Gaussian window's first pass has max(4, int(waves / 8) + 2) panels, waves
    being the panel count of four per wavelength of the summed frequency; at
    kh/2 about 2 pi the 16-node rule resolves it, and one doubling confirms it."""
    seen = []

    def f(t):
        seen.append(t.size // N_NODES)
        return np.ones_like(t)

    integrate_gaussian_window(f, tau, +1, osc)
    assert seen[0] == panels


# ------------------------------- the driver against closed forms

FINITE = dict(allow_nan=False, allow_infinity=False)


def _met_or_raised(run, want, bound):
    """run() lands within bound of want, or raises QuadratureFailure."""
    try:
        got = run()
    except QuadratureFailure:
        return
    assert np.all(np.abs(got - want) <= bound), (got, want, bound)


@settings(deadline=None, max_examples=60)
@given(coeffs=st.lists(st.floats(-2, 2, **FINITE), min_size=1, max_size=11),
       rate=st.floats(0.05, 50), centre=st.floats(-3, 3))
def test_driver_on_polynomial_times_gaussian(coeffs, rate, centre):
    """integral of p(x - c) e^{-rate (x - c)^2} over the x-side cut:
    sum_k p_k Gamma((k+1)/2) rate^{-(k+1)/2} over even k."""
    with mpmath.workdps(30):
        want = complex(sum(mpmath.mpf(p) * mpmath.gamma(mpmath.mpf(k + 1) / 2)
                           / mpmath.mpf(rate) ** (mpmath.mpf(k + 1) / 2)
                           for k, p in enumerate(coeffs) if k % 2 == 0))
    L = gaussian_halfwidth(rate, power=len(coeffs) - 1)
    poly = np.polynomial.Polynomial(coeffs)

    def f(x):
        return poly(x - centre) * np.exp(-rate * (x - centre) ** 2)

    _met_or_raised(lambda: integrate_segment_refined(f, centre - L, centre + L),
                   want, 1e-12 * max(1.0, abs(want)))


@settings(deadline=None, max_examples=40)
@given(re=st.floats(0.2, 4), im=st.floats(-4, 4), side=st.sampled_from([-1, 0, 1]),
       freqs=st.lists(st.floats(-6, 6, **FINITE), min_size=1, max_size=4))
def test_driver_on_windowed_oscillation(re, im, side, freqs):
    """integral of e^{i c t} e^{-t^2 tau/4} over a half-line or the line, each c
    a row of the grid, at complex tau, against the 1F1 closed form; the window
    rule bounds the error by WINDOW_RTOL times the largest value."""
    tau, cs = complex(re, im), np.asarray(freqs)
    want = np.asarray([sum(_mp_halfline(0, tau, c, sign) for sign in (-1, 1) if side != -sign)
                       for c in cs])

    def f(t):
        return np.exp(1j * np.multiply.outer(cs, t))

    _met_or_raised(lambda: integrate_gaussian_window(f, tau, side, float(np.abs(cs).max()) + 1),
                   want, WINDOW_RTOL * np.abs(want).max())


@settings(deadline=None, max_examples=60)
@given(rows=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-8, 8),
                               st.floats(-8, 8)), min_size=1, max_size=6))
def test_driver_on_per_row_endpoints(rows):
    """Row r integrates e^{c_r x} over [a_r, b_r]: e^{c_r a_r} (b_r - a_r) expm1(z)/z with
    z = c_r (b_r - a_r), each row within tol * max(1, |value|) of its own closed form."""
    a, b, re, im = (np.asarray(col) for col in zip(*rows))
    c = re + 1j * im

    def closed(ai, bi, ci):
        z = mpmath.mpc(ci) * (bi - ai)
        return mpmath.exp(mpmath.mpc(ci) * ai) * (bi - ai) * (mpmath.expm1(z) / z if z else 1)

    with mpmath.workdps(30):
        want = np.asarray([complex(closed(*row)) for row in zip(a, b, c)])
    _met_or_raised(lambda: integrate_segment_refined(lambda x, r: np.exp(c[r, None] * x), a, b),
                   want, 1e-12 * np.maximum(1.0, np.abs(want)))


# --------------------------------- sided powers and Pf. against mpmath

def _mp_halfline(p, tau, c, sign):
    """integral of (it)^p e^{-t^2 tau/4} e^{ict} over sign*t >= 0, in closed form.

    With a = tau/4 and h = (p+1)/2, splitting e^{ict} into its even and odd parts,
        integral_0^inf t^p e^{-a t^2 + ict} dt
          = (Gamma(h) 1F1(h; 1/2; -c^2/4a) + ic a^{-1/2} Gamma(h+1/2) 1F1(h+1/2; 3/2; -c^2/4a))
            / (2 a^h);
    t -> -t gives the other half-line.  (mpmath.quad over one infinite panel
    misses a peak far from 0 at large p; panel-split, it agrees with this.)"""
    with mpmath.workdps(30):
        a, c = mpmath.mpc(tau) / 4, mpmath.mpc(c) * sign
        h = mpmath.mpf(p + 1) / 2
        z = -c * c / (4 * a)
        val = (mpmath.gamma(h) * mpmath.hyp1f1(h, 0.5, z)
               + 1j * c / mpmath.sqrt(a) * mpmath.gamma(h + 0.5) * mpmath.hyp1f1(h + 0.5, 1.5, z)) \
            / (2 * a ** h)
        return complex((1j * sign) ** p * val)


def _mp_sided_power(a, m, side, tau, w):
    sign, pref = (-1, 1j) if side == "+" else (1, -1j)
    return pref * (-1) ** (m - 1) / math.factorial(m - 1) \
        * _mp_halfline(m - 1, tau, complex(a) + w, sign)


def _mp_principal_value(m, tau, w):
    return 0.5j / math.factorial(m - 1) * (_mp_halfline(m - 1, tau, -w, 1)
                                            - _mp_halfline(m - 1, tau, -w, -1))


@pytest.mark.parametrize("m", [1, 5, 21, 41, 61])
@pytest.mark.parametrize("tau", [1.0, 0.6 + 0.9j])
def test_large_order_transforms_meet_the_tolerance_or_raise(m, tau):
    """At w = 0.3 each value is within 1e-10 relative of mpmath.  Only the cases
    left unresolved, m >= 41 at tau = 0.6+0.9i, may raise instead; at real tau
    the weighted window resolves every case (the bare-Gaussian window was off
    by 0.5 at m = 61)."""
    w = 0.3
    cases = [(lambda: principal_value_inverse(m, tau, [w]), lambda: _mp_principal_value(m, tau, w)),
             (lambda: sided_power(0.0, m, "+", tau, [w]),
              lambda: _mp_sided_power(0.0, m, "+", tau, w)),
             (lambda: sided_power(0.5 - 0.4j, m, "-", tau, [w]),
              lambda: _mp_sided_power(0.5 - 0.4j, m, "-", tau, w))]
    for got, want in cases:
        try:
            val = complex(got()[0])
        except QuadratureFailure:
            assert complex(tau).imag != 0 and m >= 41
            continue
        ref = want()
        assert abs(val - ref) <= 1e-10 * abs(ref)


def test_window_panels_follow_the_chirp():
    """The Gaussian's own chirp e^{-i t^2 Im tau/4} reaches the frequency
    |Im tau| T/2 at the cut; sized from w alone, the window was off by 4e-7 at
    tau = 0.1+4i.  At 0.05+5i the window starts at 592 panels, so its doubling
    fits the budget (waves + 8 = 4.73e3, the count the budget once checked,
    did not).  At 0.01+5i the doubling needs 5.89e3, more than
    WINDOW_PANEL_BUDGET panels."""
    for tau in (0.1 + 4j, 0.05 + 5j):
        want = _mp_sided_power(0.0, 1, "+", tau, 0.3)
        assert abs(sided_power(0.0, 1, "+", tau, [0.3])[0] - want) <= 1e-13 * abs(want)
    with pytest.raises(QuadratureFailure, match="WINDOW_PANEL_BUDGET"):
        sided_power(0.0, 1, "+", 0.01 + 5j, [0.3])


def test_unresolved_large_order_transform_raises():
    """At tau = 0.6+0.9i the chirp of e^{-i t^2 Im tau/4} cancels the m = 61
    integrand by more than the tolerance allows; the estimate must refuse it."""
    with pytest.raises(QuadratureFailure, match="error estimate"):
        principal_value_inverse(61, 0.6 + 0.9j, [0.3])
    with pytest.raises(QuadratureFailure, match="error estimate"):
        sided_power(0.5 - 0.4j, 61, "-", 0.6 + 0.9j, [0.3])


def test_first_order_windows_are_unchanged():
    """At m = 1 the weighted window is the bare-Gaussian one and the returned
    value is its first pass, bit for bit."""
    ws = np.asarray(W_GRID)

    def f(t):
        return np.exp(-1j * np.multiply.outer(ws, t))

    osc = float(np.abs(ws).max()) + 1.0
    want = 0.5j * (integrate_gaussian_window(f, 1.5 + 0.5j, +1, osc)
                   - integrate_gaussian_window(f, 1.5 + 0.5j, -1, osc))
    assert principal_value_inverse(1, 1.5 + 0.5j, W_GRID).tobytes() == want.tobytes()
    for a in (0.0, 0.5 - 0.4j):
        u = ws + a
        osc = max(float(np.abs(u).max()), abs(a.imag) + 1.0)

        def g(t):
            return np.exp(1j * np.multiply.outer(u, t))

        for side, sgn in (("+", 1), ("-", -1)):
            want = sgn * 1j * integrate_gaussian_window(g, 1.0, -sgn, osc, a.imag)
            assert sided_power(a, 1, side, 1.0, W_GRID).tobytes() == want.tobytes()


def test_power_window_error_estimate_has_both_terms():
    """One pass's estimate from its node values.  On the single panel [0, 2],
    x^15 = (1+y)^15 has the Legendre coefficients c_15 = 2^15 (15!)^2/30! and
    c_14 = 15 * 2^14 (14!)^2/28!, so the truncation term is 2 (c_14 + c_15), and
    the rounding term is eps * integral_0^2 x^15 dx.  A kink at t = 1.37 never
    settles, so its window runs out of panels; e^{7it} against e^{-t^2/4} cancels
    to 2 sqrt(pi) e^{-49}, far below eps times its mass, so the rounding term
    alone refuses it, at once."""
    x = 2 * _panel_rule(1)[0]
    trunc, rounding = _truncation_term(x ** 15, 2.0, 1), _rounding_term(x ** 15, 2.0, 1)
    c15 = 2 ** 15 * math.factorial(15) ** 2 / math.factorial(30)
    c14 = 15 * 2 ** 14 * math.factorial(14) ** 2 / math.factorial(28)
    assert trunc == pytest.approx(2 * (c14 + c15), rel=1e-6)   # c_k cancel 1e-7 of x^15
    assert rounding == pytest.approx(np.finfo(float).eps * 2 ** 16 / 16, rel=1e-12)
    with pytest.raises(QuadratureFailure, match="did not reach"):
        integrate_gaussian_window(lambda t: np.sqrt(np.abs(t - 1.37)), 1.0, +1, 1.0)
    with pytest.raises(QuadratureFailure, match="rounding"):
        integrate_gaussian_window(lambda t: np.exp(7j * t), 1.0, 0, 8.0)
    val = integrate_gaussian_window(np.ones_like, 1.0, +1, 1.0)
    assert abs(val - math.sqrt(math.pi)) < 1e-15


def _run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_cli_pf_at_m61_prints_correct_values(capsys):
    code, out, err = _run(["dist", "--side", "pv", "--m", "61", "--w-grid=-0.6,0.6,3"], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    vals = np.asarray([complex(float(re), float(im)) for _, re, im in rows])
    refs = np.asarray([_mp_principal_value(61, 1.0, float(w)) for w, _, _ in rows])
    assert np.abs(vals - refs).max() <= 1e-10 * np.abs(refs).max()


def test_cli_pf_refused_with_one_error_line(capsys):
    code, out, err = _run(["dist", "--side", "pv", "--m", "61", "--tau=0.6,0.9",
                           "--w-grid=0.3,0.6,2"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_chirp_beyond_the_panel_budget_refused_with_one_error_line(capsys):
    code, out, err = _run(["dist", "--tau=0.01,5", "--w-grid=0.3,0.6,2"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "WINDOW_PANEL_BUDGET" in err
    code, out, err = _run(["dist", "--tau=0.05,5", "--w-grid=0.3,0.6,2"], capsys)
    assert code == 0 and err == "" and len(out.splitlines()) == 3


@pytest.mark.parametrize("tau", [0.05 + 5j, 0.04 + 5j, 0.05 + 6j, 0.02 + 5j])
def test_delta_mass_sizes_its_start_from_the_chirp(tau):
    """At these tau integrate_segment_refined's defaults (8 panels, at most
    512) did not reach 1e-12; the chirp-sized start does, within
    WINDOW_PANEL_BUDGET."""
    assert abs(delta_mass(0.3, tau) - 1) < 1e-13


def test_delta_mass_beyond_the_panel_budget_is_refused():
    with pytest.raises(QuadratureFailure, match="WINDOW_PANEL_BUDGET"):
        delta_mass(0.3, 0.005 + 5j)


@pytest.mark.parametrize("tau", ["0.05,5", "0.04,5", "0.05,6"])
def test_verify_dist_at_a_wide_chirp_is_refused_by_the_sided_inverses(tau, capsys):
    """delta-mass passes at these tau, and sided-inverse-defect reads the closed
    form; the suite still exits 1, refused with one error line by the Gaussian
    window of sided-route-agreement at a = 1j, whose shift widens it past
    WINDOW_PANEL_BUDGET."""
    code, out, err = _run(["verify", "dist", f"--tau={tau}"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: Gaussian window needs")



@pytest.mark.parametrize("grid", ["-10,-9,5", "5,6,2"])
def test_verify_dist_runs_on_grids_far_from_the_delta_point(grid, capsys):
    """delta-fourier-law and delta-evaluation evaluate on grids tied to their own
    point a, so a grid far from a neither aborts the suite nor changes them."""
    records = {}
    for argv in (["verify", "dist"], ["verify", "dist", f"--grid={grid}"]):
        code, out, err = _run(argv, capsys)
        assert code == 0 and err == ""
        records[len(argv)] = {r["anchor"]: r for r in json.loads(out)["results"]}
    for anchor in ("delta-fourier-law", "delta-evaluation"):
        assert records[3][anchor] == records[2][anchor]
