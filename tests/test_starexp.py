"""Gaussian-exponential family: products, exponential laws, sheets.

The series oracle here evaluates the defining sum
sum_k (tau/2)^k/k! f^(k) g^(k) truncated at k=60, following the derivative
recursion q_{k+1} = q_k' + (2 alpha w + beta) q_k for Gaussian factors, and is
kept independent of the closed-form product path.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from commands import SEEDS, run_in_process
from stardeform import cli, starexp, verify
from stardeform.core import Poly, w_star_power
from stardeform.errors import DomainError, SingularPoint, SingularProduct, StarDeformError
from stardeform.numeric import worst_of
from stardeform.starexp import (GaussPoly, PathParam, continue_sqrt, gauss_batch, gauss_star,
                                gauss_values, heat_apply, leg_path, nearest_branch_sqrt,
                                quad_exponential_law, quadexp_star, series_radius_probe,
                                sheet_transport, star_exp_linear, star_exp_quadratic,
                                star_poly_gauss, translate_action, triple_transport_sign)

W_GRID = [-2.0 + 0.25 * k for k in range(17)]


def max_abs_on(g: GaussPoly, ws) -> float:
    return float(np.abs(g(ws)).max())


def gp_sub_on_grid(f: GaussPoly, g: GaussPoly, ws) -> float:
    return float(np.abs(f(ws) - g(ws)).max())


def series_star_oracle(f: GaussPoly, g: GaussPoly, tau, w, kmax=60):
    """Truncated defining sum; converges when |2 alpha_f alpha_g tau| is small."""
    qf, qg = f.poly, g.poly
    chain_f = Poly([f.beta, 2 * f.alpha])
    chain_g = Poly([g.beta, 2 * g.alpha])
    acc = qf(w) * qg(w)
    scale = 1.0
    for k in range(1, kmax + 1):
        qf = qf.deriv() + qf * chain_f
        qg = qg.deriv() + qg * chain_g
        scale = scale * tau / (2 * k)
        acc += scale * qf(w) * qg(w)
    return acc * f(w) / f.poly(w) / cmath.exp(0) * g(w) / g.poly(w) / (f.poly(w) * g.poly(w)) \
        if False else acc * _envelope(f, w) * _envelope(g, w)


def _envelope(h: GaussPoly, w):
    return h.sheet * h.pref * cmath.exp(h.logamp + h.alpha * w * w + h.beta * w)


def test_star_exp_linear_fields():
    g = star_exp_linear(0.0, 1.3)
    assert g.poly.coeffs == (1,) and g.beta == 0 and abs(g.amp() - 1) < 1e-15

    s, a, tau = 1.4, 0.7, 0.9 + 0.2j
    g = star_exp_linear(2 * a, tau)
    assert abs(g.beta - 2 * a) < 1e-15
    assert abs(g.amp() - cmath.exp(a * a * tau)) < 1e-14

    # pure imaginary 2ni with Re tau > 0: amplitude exp(-n^2 tau) decays in n
    tau = 1.1
    amps = [abs(star_exp_linear(2j * n, tau).amp()) for n in range(1, 5)]
    for n, av in enumerate(amps, start=1):
        assert abs(av - math.exp(-n * n * tau)) < 1e-12 * av
    assert all(b < a for a, b in zip(amps, amps[1:]))


def test_linear_exponential_law_closed_form():
    rng = random.Random(11)
    for _ in range(25):
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tau = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        prod = gauss_star(star_exp_linear(s, tau), star_exp_linear(t, tau), tau)
        target = star_exp_linear(s + t, tau)
        assert prod.alpha == 0 and abs(prod.beta - target.beta) < 1e-15
        assert abs(prod.amp() / target.amp() - 1) < 1e-13


def test_heat_apply_matches_series():
    # spec-required validation of the closed heat-flow formula
    rng = random.Random(12)
    for _ in range(20):
        a = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        b = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        theta = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        p = Poly([rng.uniform(-1, 1) for _ in range(rng.randint(1, 4))])
        g = GaussPoly(p, a, b, 1.0, 0.0, 1)
        got = heat_apply(theta, g)
        for w in (-1.0, 0.3, 1.7):
            # series: sum theta^j / j! d^{2j} [p e^{aw^2+bw}]
            q = p
            chain = Poly([b, 2 * a])
            acc = q(w)
            scale = 1.0
            for j in range(1, 40):
                q = q.deriv() + q * chain
                q = q.deriv() + q * chain
                scale = scale * theta / j
                acc += scale * q(w)
            acc *= cmath.exp(a * w * w + b * w)
            assert abs(got(w) - acc) < 1e-10 * max(1.0, abs(acc))


def test_gauss_star_matches_series_oracle():
    rng = random.Random(13)
    for _ in range(40):
        a1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        a2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = GaussPoly(Poly.const(1), a1, 0.0, 1.0, 0.0, 1)
        g = GaussPoly(Poly.const(1), a2, 0.0, 1.0, 0.0, 1)
        prod = gauss_star(f, g, tau)
        for w in (-1.0, 0.0, 0.8):
            want = series_star_oracle(f, g, tau, w)
            assert abs(prod(w) - want) < 1e-10 * max(1.0, abs(want))


def test_gauss_star_identity():
    g = GaussPoly(Poly([0.3, 1.2]), 0.15 - 0.1j, 0.4, 1.0, 0.0, 1)
    one = GaussPoly(Poly.const(1), 0.0, 0.0, 1.0, 0.0, 1)
    prod = gauss_star(g, one, 0.7 + 0.3j)
    assert gp_sub_on_grid(prod, g, W_GRID) < 1e-12 * max_abs_on(g, W_GRID)


def test_prodexp_product_of_linears():
    a, b, tau = 0.6, -0.35, 1.2 + 0.4j
    prod = gauss_star(star_exp_linear(2 * a, tau), star_exp_linear(2 * b, tau), tau)
    for w in W_GRID:
        want = cmath.exp(2 * (a + b) * w + 2 * a * b * tau)
        # normalize out the tau-expression amplitudes of each factor
        want *= cmath.exp(a * a * tau) * cmath.exp(b * b * tau)
        assert abs(prod(w) - want) < 1e-12 * abs(want)


def test_translate_action_consistency():
    tau = 0.8 + 0.3j
    s = 0.4 - 0.2j
    f = GaussPoly(Poly([1.0, 0.5]), 0.12, -0.3, 1.0, 0.0, 1)
    via_translate = translate_action(s, f, tau)
    via_product = gauss_star(star_exp_linear(2 * s, tau), f, tau)
    assert gp_sub_on_grid(via_translate, via_product, W_GRID) \
        < 1e-12 * max_abs_on(via_translate, W_GRID)

    # polynomial case: e^{2sw+s^2 tau} p(w + s tau)
    p = Poly([0.2, -1.0, 0.7])
    fp = GaussPoly(p, 0.0, 0.0, 1.0, 0.0, 1)
    acted = translate_action(s, fp, tau)
    for w in W_GRID:
        want = cmath.exp(2 * s * w + s * s * tau) * p(w + s * tau)
        assert abs(acted(w) - want) < 1e-12 * max(1.0, abs(want))

    # s = 0 is the identity
    assert gp_sub_on_grid(translate_action(0.0, f, tau), f, W_GRID) < 1e-15


def test_translate_action_callable():
    tau = 0.5
    s = 0.3
    f = lambda w: cmath.exp(-w * w)  # noqa: E731
    acted = translate_action(s, f, tau)
    for w in (-1.0, 0.2):
        want = cmath.exp(2 * s * w + s * s * tau) * cmath.exp(-(w + s * tau) ** 2)
        assert abs(acted(w) - want) < 1e-14


def test_intertwiner_consistency_linear():
    # pushing the linear exponential from tau to tau' reproduces the tau' expression
    s, tau1, tau2 = 0.9 - 0.4j, 0.6, 1.4 + 0.2j
    pushed = heat_apply((tau2 - tau1) / 4, star_exp_linear(s, tau1))
    target = star_exp_linear(s, tau2)
    assert abs(pushed.beta - target.beta) < 1e-15
    assert abs(pushed.amp() / target.amp() - 1) < 1e-14


def test_star_exp_quadratic_values_and_singularity():
    t, tau = 0.25, 1.1
    g = star_exp_quadratic(t, tau)
    assert g.sheet == 1
    for w in (0.0, 1.0):
        want = (1 - tau * t) ** -0.5 * cmath.exp(t / (1 - tau * t) * w * w)
        assert abs(g(w) - want) < 1e-14 * abs(want)
    assert abs(star_exp_quadratic(0.0, tau)(0.7) - 1) < 1e-15
    with pytest.raises(SingularPoint):
        star_exp_quadratic(1 / tau + 1e-9, tau)
    with pytest.raises(SingularPoint):
        # straight path from 0 to 2/tau passes through the branch point
        star_exp_quadratic(2 / tau, tau)


def test_quadratic_loop_flips_sheet():
    tau = 1.0 + 0.0j
    bp = 1 / tau
    # polygon from 0 around the branch point once, ending at t0 = 0.2
    t0 = 0.2
    loop = PathParam([0, t0, t0 - 0.6j, bp.real + 0.5 - 0.6j, bp.real + 0.5 + 0.6j,
                      t0 + 0.6j, t0])
    g = star_exp_quadratic(t0, tau, loop)
    assert g.sheet == -1
    direct = star_exp_quadratic(t0, tau)
    assert abs(abs(g(0.5)) - abs(direct(0.5))) < 1e-12
    assert abs(g(0.5) + direct(0.5)) < 1e-12  # same magnitude, opposite sign


def test_quad_exponential_law_samples():
    rng = random.Random(14)
    cases = []
    for _ in range(100):
        s = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        t = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        tau = cmath.exp(2j * math.pi * rng.random()) * rng.random()
        cases.append((s, t, tau))
    laws = quad_exponential_law(cases)
    assert max(law for law in laws if law is not None) < 1e-12
    assert laws.count(None) < 10

    assert quad_exponential_law([(0.0, 0.0, 0.9)])[0] < 1e-15
    # 1/tau = 1/0.9 lies on the straight path to s + t = 1.2
    assert quad_exponential_law([(0.6, 0.6, 0.9), (0.1, 0.1, 0.9)])[0] is None
    assert quad_exponential_law([(0.6, 0.6, 0.9)]) == [None]
    # the straight paths keep off 1/tau = 1, but E(0.999) at tau = 1 is
    # outside the float range on LAW_GRID
    assert quad_exponential_law([(0.999, 0.0, 1.0)]) == [None]


def quad_exponential_law_reference(cases) -> list:
    """The per-case loop that quad_exponential_law batches: each case's target
    and product evaluated by its own GaussPoly call, None where a case raises."""
    paths = []
    for s, t, tau in cases:
        try:
            paths.append([starexp._quadratic_path(p, tau, None) for p in (s, t, s + t)])
        except SingularPoint:
            paths.append([])
    cs = [complex(tau) for (_, _, tau), legs in zip(cases, paths) for _ in legs]
    roots = iter(continue_sqrt(cs, [leg for legs in paths for leg in legs]))
    out = []
    for (s, t, tau), legs in zip(cases, paths):
        out.append(None)
        if legs:
            es, et, est = [starexp._quadratic_on_sheet(p, tau, next(roots)) for p in (s, t, s + t)]
            try:
                target = est(starexp.LAW_GRID)
                scale = max(float(np.abs(target).max()), 1e-300)
                prod = gauss_star(es, et, tau)(starexp.LAW_GRID)
                out[-1] = float(np.abs(prod - target).max()) / scale
            except StarDeformError:
                pass
    return out


def series_radius_probe_reference(ell: int, tau, n_max: int):
    """The per-polynomial loop that series_radius_probe batches: each deformed
    power evaluated on the circle by its own Poly call."""
    th = 2 * np.pi * np.arange(64) / 64
    circle = np.cos(th) + 1j * np.sin(th)
    cs = []
    fact = 1.0
    for n in range(n_max + 1):
        if n > 0:
            fact *= n
        p = w_star_power(n * ell, tau).to_complex()
        cs.append(float(np.abs(p(circle)).max()) / fact)
    return [cs[n + 1] / cs[n] for n in range(n_max)]


def gauss_values_reference(gs, ws):
    """Each element evaluated by its own call, the rows stacked."""
    return np.asarray([g(ws) for g in gs])


def test_quad_exponential_law_is_its_per_case_loop():
    rng = random.Random(5)
    cases = [(0.0, 0.0, 0.9), (0.6, 0.6, 0.9), (0.1, 0.1, 0.9), (0.999, 0.0, 1.0)]
    for _ in range(100):
        s, t = (0.5 * cmath.exp(2j * math.pi * rng.random()) * rng.random() for _ in "st")
        cases.append((s, t, 1.2 * cmath.exp(2j * math.pi * rng.random()) * rng.random()))
    want = quad_exponential_law_reference(cases)
    assert None in want and quad_exponential_law(cases) == want
    assert quad_exponential_law([]) == []


@pytest.mark.parametrize("ell, tau", [(3, 1.0), (2, 1.0), (3, 0.0), (4, 0.3 + 0.8j)])
def test_series_radius_probe_is_its_per_polynomial_loop(ell, tau):
    assert same_bits(series_radius_probe(ell, tau, 16), series_radius_probe_reference(ell, tau, 16))


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_starexp_reports_as_the_per_element_references_do(seed, monkeypatch):
    """`verify starexp` prints the same report with the quadratic law, the
    series oracle's products and the radius probe evaluated one element at a
    time."""
    argv = f"verify starexp --seed {seed}"
    got = run_in_process(cli.main, argv)
    monkeypatch.setattr(starexp, "quad_exponential_law", quad_exponential_law_reference)
    monkeypatch.setattr(starexp, "gauss_values", gauss_values_reference)
    monkeypatch.setattr(starexp, "series_radius_probe", series_radius_probe_reference)
    assert run_in_process(cli.main, argv) == got


def test_a_long_segment_gives_its_distance():
    """|d|^2 overflows past |d| = 1.3e154; such a segment is measured on a copy
    scaled by 2^-600, so star_exp_quadratic(1e200, 1e-201) keeps its path off
    1/tau = 1e201 and returns where it raised OverflowError."""
    assert starexp._segment_distance(1e201, 0j, 1e200 + 0j) == pytest.approx(9e200)
    assert starexp._segment_distance(1e200 + 3e199j, 0j, 2e200 + 0j) == pytest.approx(3e199)
    g = star_exp_quadratic(1e200, 1e-201)
    assert g.sheet == 1 and g.alpha == pytest.approx(1e200 / 0.9)
    with pytest.raises(SingularPoint):
        PathParam([0, 2e200]).validate_avoids(1e200)
    assert starexp._segment_distance(1 + 1j, 0j, 3 + 0j) == 1.0


def test_quad_law_sheet_mismatch_doubles():
    s, t, tau = 0.21, 0.12, 1.0
    es = star_exp_quadratic(s, tau)
    et = star_exp_quadratic(t, tau)
    est = star_exp_quadratic(s + t, tau)
    flipped = GaussPoly(est.poly, est.alpha, est.beta, est.pref, est.logamp, -est.sheet)
    prod = gauss_star(es, et, tau)
    for w in (0.0, 0.9):
        assert abs(prod(w) - flipped(w)) > 1.9 * abs(est(w))


def test_quadexp_star_matches_gauss_star_generic():
    t, tau = 0.2, 0.9 + 0.1j
    g = GaussPoly(Poly.const(1), 0.11 - 0.05j, 0.3 + 0.2j, 0.8, 0.1, 1)
    got = quadexp_star(t, tau, g)
    want = gauss_star(star_exp_quadratic(t, tau), g, tau)
    assert gp_sub_on_grid(got, want, W_GRID) < 1e-12 * max_abs_on(want, W_GRID)


def test_star_poly_gauss_matches_gauss_star():
    tau = 0.7 - 0.2j
    p = Poly([0.5, -1.0, 2.0, 1.0])
    g = GaussPoly(Poly([1.0, 0.2]), 0.1, -0.4, 1.0, 0.0, 1)
    got = star_poly_gauss(p, g, tau)
    want = gauss_star(GaussPoly(p, 0.0, 0.0, 1.0, 0.0, 1), g, tau)
    assert gp_sub_on_grid(got, want, W_GRID) < 1e-12 * max_abs_on(want, W_GRID)


def test_heat_singular_pullback_raises():
    tau = 1.0
    delta_like = GaussPoly(Poly.const(1), -1 / tau, 0.0, 1.0, 0.0, 1)
    with pytest.raises(SingularProduct):
        gauss_star(delta_like, delta_like, tau)


def test_series_radius_probe_growth():
    r3 = series_radius_probe(3, 1.0, 16)
    # ratios grow without bound; monotone from n=5 on
    assert all(b > a for a, b in zip(r3[5:], r3[6:]))
    assert r3[-1] > r3[5] > 1.0
    # cumulative coefficient growth passes 1e3 well before n=15
    prod = 1.0
    for r in r3[:15]:
        prod *= r
    assert prod > 1e3

    r2 = series_radius_probe(2, 1.0, 16)
    assert max(r2) < 10.0  # bounded, consistent with radius 1/|tau|

    r0 = series_radius_probe(3, 0.0, 10)
    assert max(r0) <= 1.0 + 1e-12  # undeformed: c_n = 1/n!, ratios 1/(n+1)


def test_continue_sqrt_closed_loop_winding():
    # sqrt(1 - t) around its branch point t = 1 once: flips sign; not enclosing: no flip
    sq = PathParam([0, 1 - 1j, 2, 1 + 1j, 0])
    tri = PathParam([0, -1, -1 - 1j, 0])
    v, v2 = continue_sqrt(1.0, [sq, tri])
    assert abs(v + 1) < 1e-6
    assert abs(v2 - 1) < 1e-6


def nearest_branch_sqrt_reference(vals, prev):
    """The per-node loop: each principal root, or its negative when that is
    nearer the root before it."""
    out = []
    for v in vals:
        r = cmath.sqrt(v)
        prev = r if abs(r - prev) <= abs(r + prev) else -r
        out.append(prev)
    return out


def continue_sqrt_reference(c, paths, steps):
    """continue_sqrt as a per-node loop over the reference, path by path,
    through the nodes a + (b - a) (j / steps), j = 1..steps, of each segment a -> b,
    each node and value formed in Python's complex arithmetic.  With steps = 1 it
    is continue_sqrt's own route; the last node of a segment is the same float
    for every steps."""
    out = []
    for k, path in enumerate(paths):
        ck = c[k] if isinstance(c, (list, tuple)) else c
        val = cmath.sqrt(1 - ck * path.waypoints[0])
        for a, b in zip(path.waypoints[:-1], path.waypoints[1:]):
            for j in range(1, steps + 1):
                t = a + (b - a) * (j / steps)
                val, = nearest_branch_sqrt_reference([1 - ck * t], val)
        out.append(val)
    return out


def continue_sqrt_sampled(c, paths):
    """The continuation through 64 nodes per segment: the route that
    continue_sqrt's one decision per segment must agree with."""
    return continue_sqrt_reference(c, paths, 64)


def _upper(u: complex) -> bool:
    """Whether u lies on the upper side of the cut u <= 0 as cmath.sqrt sees it:
    a zero imaginary part counts by its sign."""
    return math.copysign(1.0, u.imag) > 0


def continued_sheet_exact(c, path) -> int:
    """The sheet (+1 principal, -1 its negative) of sqrt(1 - c t) at the end of
    the path, continued from the principal root at its first waypoint, decided
    exactly.  The values u = 1 - c t are formed at continue_sqrt's nodes (the
    first waypoint, then each segment's end a + (b - a)), part by part as it forms
    them.  The root flips where the straight image of a segment, between two such
    floats, crosses the cut u <= 0: where the two ends lie on opposite sides and
    the crossing of the real axis is left of 0.  That crossing is left of 0 when
    the cross product u_a x u_b, formed in Fractions on the floats' exact values,
    has the sign of the start's side; a segment along the axis (both imaginary
    parts zero, of opposite signs) flips where it lies on the cut."""
    c = complex(c)
    ws = path.waypoints
    ts = [ws[0]] + [a + (b - a) for a, b in zip(ws[:-1], ws[1:])]
    us = [complex(1.0 - (c.real * t.real - c.imag * t.imag),
                  0.0 - (c.real * t.imag + c.imag * t.real)) for t in ts]
    sheet = 1
    for ua, ub in zip(us, us[1:]):
        if _upper(ua) == _upper(ub):
            continue
        if ua.imag == ub.imag == 0:
            flip = ua.real < 0
        else:
            cross = Fraction(ua.real) * Fraction(ub.imag) - Fraction(ua.imag) * Fraction(ub.real)
            assert cross != 0, "the segment's image passes through the branch point"
            flip = (cross > 0) == _upper(ua)
        sheet = -sheet if flip else sheet
    return sheet


def sheet_of(root: complex, c, path) -> int:
    """+1 where root is the principal root at the path's end node, -1 where it
    is that root's negative, bit for bit."""
    a, b = path.waypoints[-2:]
    principal = cmath.sqrt(1 - complex(c) * (a + (b - a)))
    assert same_bits(root, principal) or same_bits(root, -principal)
    return 1 if same_bits(root, principal) else -1


def same_bits(got, want) -> bool:
    return np.asarray(got, dtype=complex).tobytes() == np.asarray(want, dtype=complex).tobytes()


# Node values: the squares of 1, 1j, 1+1j, ... give sign flips and exact ties
# (consecutive roots 1 and 1j are equally near both branches); the imaginary
# axis is where np.sqrt and cmath.sqrt round apart; inf - inf makes a nan.
NODE = st.one_of(
    st.sampled_from([1, -1, 1j, -1j, 4, -4, 2j, -2j, 0j, complex(-0.0, -0.0),
                     complex(-1, -0.0), complex(0.0, -0.3), complex("inf"),
                     complex(0, float("-inf")), complex("nan")]),
    st.floats(-1e6, 1e6).map(lambda y: complex(0.0, y)),
    st.complex_numbers(max_magnitude=1e6),
    st.complex_numbers(),
)


@settings(deadline=None, max_examples=300)
@given(vals=st.lists(NODE, max_size=40), start=NODE,
       turn=st.sampled_from([1, -1, 1j, -1j]), first_is_start=st.booleans())
def test_nearest_branch_sqrt_matches_the_loop_bit_for_bit(vals, start, turn, first_is_start):
    """prev is a root of start, or that root turned by a quarter: an exact tie
    with the first node when that node's value is start."""
    prev = turn * cmath.sqrt(start)
    if vals and first_is_start:
        vals[0] = start
    assert same_bits(nearest_branch_sqrt(vals, prev), nearest_branch_sqrt_reference(vals, prev))


def test_nearest_branch_sqrt_ties_take_the_principal_root():
    # roots 1, 1j, 1, 1j: each a quarter turn from the one before, a tie
    assert same_bits(nearest_branch_sqrt([1, -1, 1, -1], 1), [1, 1j, 1, 1j])
    # after a tie the nearer branch is kept again: sqrt(-1j) is nearer -1j than 1j
    got = nearest_branch_sqrt([1, -1, -1j], 1j)
    assert same_bits(got, [1, 1j, -cmath.sqrt(-1j)])
    assert same_bits(got, nearest_branch_sqrt_reference([1, -1, -1j], 1j))


PARAM = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
GAUSS = st.builds(GaussPoly, st.lists(PARAM, min_size=1, max_size=5).map(Poly),
                  PARAM, PARAM, PARAM, PARAM, st.sampled_from([1, -1]))
GRID_POINT = st.one_of(st.floats(-4.0, 4.0),
                       st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                          allow_infinity=False))
GRID = st.lists(GRID_POINT, min_size=1, max_size=20)


@settings(deadline=None, max_examples=200)
@given(g=GAUSS, ws=GRID)
def test_a_scalar_call_is_its_grid_entry_bit_for_bit(g, ws):
    entries = [g(w) for w in ws]
    assert same_bits(g(ws), entries)
    assert same_bits(g(np.asarray(ws)), entries)


@settings(deadline=None, max_examples=200)
@given(g=GAUSS, ws=GRID, lift=st.floats(660.0, 760.0))
def test_overflow_raises_for_a_scalar_and_a_grid_alike(g, ws, lift):
    """Re logamp lifted by 660 to 760, against |alpha w^2 + beta w + logamp| <= 42,
    overflows the exponential (past 709.78) at some, all or none of the points:
    the grid call raises where any point's call does, and otherwise holds their
    values.  The prefactors are 1, so only the exponential can overflow."""
    g = GaussPoly(Poly.const(1), g.alpha, g.beta, 1.0, g.logamp + lift, g.sheet)
    entries = []
    for w in ws:
        try:
            entries.append(g(w))
        except DomainError:
            entries.append(None)
    if None in entries:
        with pytest.raises(DomainError):
            g(ws)
    else:
        assert same_bits(g(ws), entries)


REAL = st.floats(-2.0, 2.0)
COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
SCALAR = st.one_of(REAL, COMPLEX)
# degrees 0 to 4 (less where the top coefficient is 0), all real or all complex
PREFACTOR = st.one_of(st.lists(REAL, min_size=1, max_size=5),
                      st.lists(COMPLEX, min_size=1, max_size=5)).map(Poly)
# Re logamp lifted by 660 to 760 takes some points, all or none past the
# float range, for the exponential (past 709.78) or the product alone
ELEMENT = st.builds(
    lambda poly, alpha, beta, pref, logamp, lift, sheet:
        GaussPoly(poly, alpha, beta, pref, logamp + lift, sheet),
    PREFACTOR, SCALAR, SCALAR, SCALAR, SCALAR,
    st.one_of(st.just(0.0), st.floats(660.0, 760.0)), st.sampled_from([1, -1]))
RANGE_ERRORS = {1: "a tau-expression is outside the float range",
                2: "a Gaussian's value is outside the float range"}


@settings(deadline=None, max_examples=150)
@given(gs=st.lists(ELEMENT, min_size=1, max_size=6),
       ws=st.one_of(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=20), GRID))
def test_a_batch_row_is_its_element_call_bit_for_bit(gs, ws):
    """Each row of a batch, real and complex parameters mixed, is its element's
    call on the grid bit for bit; a row whose call raises is flagged with the
    kind of its error, with no RuntimeWarning, and gauss_values raises the
    first flagged row's error."""
    ws = np.asarray(ws)
    values, fails = gauss_batch(gs, ws)
    assert values.shape == (len(gs), len(ws))
    first = None
    for g, row, fail in zip(gs, values, fails):
        try:
            want = g(ws)
        except DomainError as exc:
            assert str(exc) == RANGE_ERRORS[fail]
            first = first or str(exc)
            continue
        assert fail == 0 and same_bits(row, want)
    if first is None:
        assert same_bits(gauss_values(gs, ws), values)
    else:
        with pytest.raises(DomainError) as raised:
            gauss_values(gs, ws)
        assert str(raised.value) == first


def test_overflow_raises_on_a_grid_as_at_a_point():
    g = GaussPoly(Poly.const(1), 1000.0, 0.0, 1.0, 0.0, 1)
    assert g(0.0) == 1
    with pytest.raises(DomainError):
        g(10.0)
    with pytest.raises(DomainError):
        g(np.asarray([10.0, 0.0]))


def test_a_product_past_the_float_range_raises_for_a_scalar_and_a_grid_alike():
    """exp(709) is a float but 10 exp(709) is not: the scalar and the grid call
    raise DomainError on the product, not inf, and no RuntimeWarning (an error
    under the test configuration) escapes.  Where only some points overflow,
    the grid raises and the finite points still evaluate."""
    g = GaussPoly(Poly([10.0]), 0.0, 0.0, 1.0, 709.0, 1)
    with pytest.raises(DomainError):
        g(0.0)
    with pytest.raises(DomainError):
        g(np.asarray([0.0, 1.0]))
    ramp = GaussPoly(Poly([0.0, 10.0]), 0.0, 0.0, 1.0, 709.0, 1)
    assert ramp(0.0) == 0
    with pytest.raises(DomainError):
        ramp(1.0)
    with pytest.raises(DomainError):
        ramp(np.asarray([0.0, 1.0]))
    assert GaussPoly(Poly([1.0]), 0.0, 0.0, 1.0, 709.0, 1)(0.0) == pytest.approx(math.exp(709))


PART3 = st.floats(-3.0, 3.0).map(lambda x: round(x, 3))
POINT = st.builds(complex, PART3, PART3)


@settings(deadline=None, max_examples=60)
@given(t=POINT, tau=POINT, detour=st.lists(POINT, max_size=3))
def test_quadratic_sheet_matches_the_reference_continuation(t, tau, detour):
    path = PathParam([0, *detour, t])
    try:
        g = star_exp_quadratic(t, tau, path)
    except SingularPoint:
        assume(False)
    root, = continue_sqrt(tau, [path])
    want, = continue_sqrt_sampled(tau, [path])
    assert same_bits(root, want)
    principal = cmath.sqrt(1 - tau * t)
    assert g.sheet == (1 if abs(want - principal) <= abs(want + principal) else -1)


@settings(deadline=None, max_examples=30)
@given(t=POINT, taus=st.tuples(POINT, POINT, POINT))
def test_triple_transport_sign_matches_the_reference_continuation(t, taus):
    got = triple_transport_sign(t, taus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(starexp, "continue_sqrt", continue_sqrt_sampled)
        assert triple_transport_sign(t, taus) == got


# Waypoints on a grid of quarters and c among a few exact values put nodes on
# exact ties (1 - 64 t at t = 1/32 is -1, whose root 1j is a quarter turn from
# the root 1 before it) and on the imaginary axis (1 - t at Re t = 1).
QUARTER = st.integers(-12, 12).map(lambda k: k / 4)
WAYPOINT = st.one_of(st.builds(complex, QUARTER, QUARTER), POINT)
PATH = st.lists(WAYPOINT, min_size=2, max_size=5).map(PathParam)
C = st.one_of(st.sampled_from([1, -1, 1j, 0.5, 64, 2 + 2j, 0.25j]).map(complex), POINT)


@settings(deadline=None, max_examples=150)
@given(paths=st.lists(PATH, min_size=1, max_size=8), cs=st.lists(C, min_size=8, max_size=8),
       per_path=st.booleans())
@example(paths=[PathParam([0, 2]), PathParam([0, 1 - 1j, 1 + 1j])], cs=[64, 1] + [0] * 6,
         per_path=True)
@example(paths=[PathParam([0, 2]), PathParam([0.5, 1 - 1j, 1 + 1j, 3, 0])], cs=[1] * 8,
         per_path=False)
def test_continue_sqrt_batch_matches_the_loop_bit_for_bit(paths, cs, per_path):
    """A batch of 1-8 paths of 1-4 segments, with c one value or one per path,
    ends each path on the per-segment loop's root, also where a path runs
    through a branch point."""
    c = cs[:len(paths)] if per_path else cs[0]
    assert same_bits(continue_sqrt(c, paths), continue_sqrt_reference(c, paths, 1))


@st.composite
def admitted_paths(draw):
    """(c, path): c in [-3, 3]^2 on a grid of 0.001, and a path from 0 through
    1-7 more waypoints, each within 10^-5.9 to 10^0.5 of the branch point 1/c
    or, as often, in a +-50 box, that validate_avoids admits."""
    c = draw(POINT)
    assume(c != 0)
    bp = 1 / c
    ws = [0j]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            r, phi = 10 ** draw(st.floats(-5.9, 0.5)), draw(st.floats(0.0, 2 * math.pi))
            ws.append(bp + r * cmath.exp(1j * phi))
        else:
            ws.append(complex(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))))
    path = PathParam(ws)
    try:
        path.validate_avoids(bp)
    except SingularPoint:
        assume(False)
    return c, path


# 300 examples take about 0.8 s (2-core x86-64 VM, Python 3.11)
@settings(deadline=None, max_examples=300)
@given(admitted_paths())
@example((1 + 0j, PathParam([0, 1 - 1j, 2, 1 + 1j, 0.5])))
@example((1j, PathParam([0, -1j + 1e-5, -1j + 1e-5 + 1e3j])))
def test_one_decision_per_segment_is_the_sampled_and_the_exact_sheet(case):
    """On a path that validate_avoids admits, the end root of continue_sqrt is
    the 64-node loop's bit for bit, and its sheet is the exact route's."""
    c, path = case
    root, = continue_sqrt(c, [path])
    assert same_bits(root, continue_sqrt_sampled(c, [path]))
    assert sheet_of(root, c, path) == continued_sheet_exact(c, path)


@pytest.mark.parametrize("c", [1.0, 1j, -0.7 + 2.1j])
def test_a_segment_grazing_the_branch_point_raises_or_decides_right(c):
    """A segment of length L whose nearest point lies 1e-9 L from 1/c, on
    either side: star_exp_quadratic raises SingularPoint where that is within
    the margin (L = 1e-3, 1), and elsewhere (L = 1e4, 1e7) puts each side on the
    exact route's sheet, the two sides on opposite sheets."""
    bp, d = 1 / c, cmath.exp(0.3j)
    for length, admitted in ((1e-3, False), (1.0, False), (1e4, True), (1e7, True)):
        sheets = []
        for side in (1, -1):
            mid = bp + side * 1e-9 * length * 1j * d
            a, b = mid - 0.5 * length * d, mid + 0.5 * length * d
            path = PathParam([0, a, b])
            if not admitted:
                with pytest.raises(SingularPoint):
                    star_exp_quadratic(b, c, path)
                continue
            sheets.append(star_exp_quadratic(b, c, path).sheet)
            assert sheets[-1] == continued_sheet_exact(c, path)
        assert sheets in ([], [1, -1], [-1, 1])


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_starexp_reports_as_the_sampled_continuation_does(seed, monkeypatch):
    """`verify starexp` prints the same report with continue_sqrt as with the
    64-node continuation in its place."""
    argv = f"verify starexp --seed {seed}"
    got = run_in_process(cli.main, argv)
    monkeypatch.setattr(starexp, "continue_sqrt", continue_sqrt_sampled)
    assert run_in_process(cli.main, argv) == got


def test_quadratic_family_maps_parameter_to_parameter():
    # the heat map between expression parameters carries the quadratic element
    # at (t, tau1) to the quadratic element at the same t and tau2
    t = 0.15
    tau1, tau2 = 0.8, 1.6 + 0.4j
    pushed = heat_apply((tau2 - tau1) / 4, star_exp_quadratic(t, tau1))
    target = star_exp_quadratic(t, tau2)
    assert gp_sub_on_grid(pushed, target, W_GRID) < 1e-12 * max_abs_on(target, W_GRID)
    assert pushed.sheet == target.sheet == 1


def test_triple_transport_has_mixed_flip_set():
    taus = (1.0, 2.0, 4.0)
    signs = {}
    for t in [0.05, 0.3, 0.35, 0.6, 0.9, 1.3, 2.0, 3.0, -0.5, 0.5j]:
        signs[t] = triple_transport_sign(t, taus)
    vals = set(signs.values())
    assert vals == {1, -1}, f"flip set degenerate: {signs}"


@pytest.mark.parametrize("skipped, passes", [(0, True), (20, True), (21, False), (40, False)])
def test_quadratic_law_record_needs_half_its_cases(skipped, passes, monkeypatch):
    """The record fails once fewer than 20 of its 40 cases evaluate."""
    seen = []

    def law(cases):
        seen.extend(cases)
        return [None] * skipped + [0.0] * (len(cases) - skipped)

    monkeypatch.setattr(starexp, "quad_exponential_law", law)
    rec, = [r for r in verify.suite_starexp(seed=7)
            if r["anchor"] == "quadratic-exponential-law"]
    assert len(seen) == 40
    assert rec["passed"] is passes
    assert rec["residual"] == (0.0 if passes else math.inf)


def test_quadratic_law_record_propagates_untyped_errors(monkeypatch):
    """The law skips a case on a StarDeformError only: an untyped error in a
    product of quadratic elements reaches the caller."""
    gauss_star_ = starexp.gauss_star

    def gauss_star(f, g, tau):
        if f.alpha != 0:    # a quadratic element; the linear law's have alpha 0
            raise RuntimeError("defect")
        return gauss_star_(f, g, tau)

    monkeypatch.setattr(starexp, "gauss_star", gauss_star)
    with pytest.raises(RuntimeError, match="defect") as caught:
        verify.suite_starexp(seed=7)
    assert "quad_exponential_law" in [entry.name for entry in caught.traceback]


def test_series_oracle_record_detects_a_perturbed_product(monkeypatch):
    """The truncated defining sum must tell a product that is off by a
    relative 1e-6 from the closed Gaussian product."""
    def record():
        rec, = [r for r in verify.suite_starexp(seed=7)
                if r["anchor"] == "gaussian-product-series-oracle"]
        return rec

    assert record()["passed"] is True
    gauss_star_ = starexp.gauss_star
    monkeypatch.setattr(starexp, "gauss_star",
                        lambda *args: gauss_star_(*args).scaled(1 + 1e-6))
    assert record()["passed"] is False


def _poly_derivative_factors(alpha, beta, w, n):
    """q_k(w) for k < n, where q_k is the polynomial of the recursion
    q_{k+1} = q_k' + q_k (2 alpha w + beta), q_0 = 1: the reference the series
    oracle used before its value recurrence."""
    q, chain = Poly.const(1.0), Poly([beta, 2 * alpha])
    out = []
    for _ in range(n):
        out.append(q(w))
        q = q.deriv() + q * chain
    return out


def _term_sizes(alpha, beta, w, n):
    """Q_k, the sum of the magnitudes of the terms that make up q_k(w): both
    routes round relative to it, and q_k itself can be 1e5 times smaller."""
    d, out = abs(beta) + 2 * abs(alpha) * abs(w), [1.0]
    prev = 0.0
    for k in range(n - 1):
        prev, cur = out[-1], d * out[-1] + 2 * abs(alpha) * k * prev
        out.append(cur)
    return out


# inputs rounded to 3 decimals: tinier nonzero alpha, beta or w drive q_k into
# the subnormal range, where no relative bound holds
PART = st.floats(-0.5, 0.5).map(lambda x: round(x, 3))
BOX = st.builds(complex, PART, PART)


@settings(deadline=None, max_examples=80)
@given(BOX, BOX, st.floats(-3.0, 3.0).map(lambda x: round(x, 3)))
def test_series_oracle_value_recurrence_matches_poly_recursion(alpha, beta, w):
    """q_{k+1}(w) = phi'(w) q_k(w) + 2 alpha k q_{k-1}(w) gives the values of the
    polynomial recursion for every k <= 59."""
    got = verify._gauss_derivative_factors(1.0, alpha, beta, w, 60)
    want = _poly_derivative_factors(alpha, beta, w, 60)
    sizes = _term_sizes(alpha, beta, w, 60)
    assert len(got) == 60
    for k, (val, size) in enumerate(zip(want, sizes)):
        assert abs(got[k] - val) <= 1e-12 * size, k


def test_a_nan_law_residual_fails_its_record(monkeypatch):
    """One nan among the quadratic law's residuals reaches the record, which
    fails; a fold through Python's max kept the running 0.0 and passed."""
    monkeypatch.setattr(starexp, "quad_exponential_law",
                        lambda cases: [0.0, math.nan] + [0.0] * 38)
    rec, = (r for r in verify.suite_starexp(seed=1)
            if r["anchor"] == "quadratic-exponential-law")
    assert math.isnan(rec["residual"]) and not rec["passed"]


@given(st.lists(st.floats(allow_nan=False), min_size=1), st.data())
def test_worst_of_is_max_or_nan(values, data):
    assert worst_of(values) is max(values)
    at = data.draw(st.integers(0, len(values)))
    assert math.isnan(worst_of(values[:at] + [math.nan] + values[at:]))
