"""Named identity suites behind `stardeform verify`.

Each check returns a record {anchor, description, residual, tol, passed};
anchors are stable identity slugs for machine consumption.  Exact checks
(rational arithmetic) report residual 0.0 on success.  Suites are
deterministic for a fixed seed.  A suite's parameters are the options of
`stardeform verify` that it reads (`tau`, `nu`, `tol`, `grid` as its points,
`seed`), and `run_suite` passes each suite those and no others.
"""

from __future__ import annotations

import cmath
import inspect
import math
import random
from fractions import Fraction

import numpy as np

from . import core, distributions, halfseries, residue, specialfn, starexp, theta, vertex
from .errors import DomainError
from .exact import QC, from_gaussian
from .numeric import exp_array, worst_of
from .quadrature import WINDOW_RTOL


def _rec(anchor: str, description: str, residual: float, tol: float) -> dict:
    return {"anchor": anchor, "description": description,
            "residual": float(residual), "tol": float(tol),
            "passed": bool(residual <= tol)}


def _bool_rec(anchor: str, description: str, ok: bool) -> dict:
    return {"anchor": anchor, "description": description,
            "residual": 0.0 if ok else 1.0, "tol": 0.0, "passed": bool(ok)}


_NUMS, _DENS = range(-6, 7), range(1, 6)


def _rand_parts(rng) -> tuple:
    """(a d, c b, b d), the parts of a/b + (c/d) i, with a, c in [-6, 6] and b, d
    in [1, 5].  choice over a range draws as randint(lo, hi) does (one
    _randbelow of the width), so every seed draws the values
    QC(Fraction(randint, randint), Fraction(randint, randint)) drew."""
    a, b, c, d = rng.choice(_NUMS), rng.choice(_DENS), rng.choice(_NUMS), rng.choice(_DENS)
    return a * d, c * b, b * d


def _rand_qc(rng):
    return from_gaussian(*_rand_parts(rng))


def _rand_poly(rng, deg):
    """ExactPoly of deg + 1 values of _rand_qc's stream, built as one form over
    the lcm of their denominators, with no QC per value; from_form divides out
    the gcd, so it is the lowest-terms form of those values."""
    parts = [_rand_parts(rng) for _ in range(deg + 1)]
    L = math.lcm(*[e for _, _, e in parts])
    return core.ExactPoly.from_form([x * (L // e) for x, _, e in parts],
                                    [y * (L // e) for _, y, e in parts], L)


def suite_core(seed) -> list:
    rng = random.Random(seed)
    out = []
    worst_comm = worst_assoc = worst_cocycle = worst_hom = 0
    for _ in range(50):
        f = _rand_poly(rng, rng.randint(0, 8))
        g = _rand_poly(rng, rng.randint(0, 8))
        h = _rand_poly(rng, rng.randint(0, 6))
        t1, t2, t3 = (_rand_qc(rng) for _ in range(3))
        # f *_t1 g and f taken to t2 each serve three and two laws; the other
        # side of every law is formed on its own
        fg = core.star_product(f, g, t1)
        f12 = core.intertwine(f, t1, t2)
        if fg != core.star_product(g, f, t1):
            worst_comm = 1
        if core.star_product(fg, h, t1) != core.star_product(f, core.star_product(g, h, t1), t1):
            worst_assoc = 1
        if core.intertwine(f, t1, t3) != core.intertwine(f12, t2, t3):
            worst_cocycle = 1
        if core.intertwine(fg, t1, t2) != \
                core.star_product(f12, core.intertwine(g, t1, t2), t2):
            worst_hom = 1
    out.append(_rec("product-commutativity", "deformed product commutes (exact)",
                    worst_comm, 0.0))
    out.append(_rec("product-associativity", "deformed product associates (exact)",
                    worst_assoc, 0.0))
    out.append(_rec("intertwiner-cocycle", "parameter-change maps compose (exact)",
                    worst_cocycle, 0.0))
    out.append(_rec("intertwiner-homomorphism", "parameter change is an algebra map (exact)",
                    worst_hom, 0.0))
    tau = QC(Fraction(2, 3), Fraction(1, 5))
    p = core.ExactPoly.const(1)
    rec_ok = True
    for n in range(12):
        nxt = core.ExactPoly.x() * p + p.deriv().scale(tau / 2)
        if nxt != core.w_star_power(n + 1, tau):
            rec_ok = False
        p = nxt
    out.append(_bool_rec("deformed-power-recurrence",
                         "P_{n+1} = w P_n + (tau/2) P_n' (exact)", rec_ok))
    f = core.Poly([0.3, -1.2, 0.0, 2.0, 1.0])
    want = core.infinitesimal_intertwiner(f)
    fd = (core.intertwine(f, 0.4, 0.4 + 1e-6) - f).scale(1e6)
    resid = worst_of([0.0, *(abs(c) for c in (fd - want).coeffs)])
    out.append(_rec("infinitesimal-intertwiner", "quarter second derivative vs finite difference",
                    resid, 1e-4))
    return out


ORACLE_W = np.array([-0.8, 0.5])   # the series oracle's w points


def _gauss_derivative_factors(q0, alpha, beta, w, n: int) -> list:
    """[q_0(w), ..., q_{n-1}(w)] with d^k/dw^k (q0 e^phi) = q_k e^phi, phi = alpha w^2 + beta w,
    at scalars or elementwise over arrays of alpha, beta and w.

    The prefactor q0 must be constant.  Differentiating gives q_{k+1} = q_k' + q_k phi',
    and q_k' = 2 alpha k q_{k-1}: true at k = 0 (q0 is constant), and inductively
    q_{k+1}' = 2 alpha k (q_{k-1}' + q_{k-1} phi') + q_k phi'' = 2 alpha (k+1) q_k.
    So the values obey  q_{k+1}(w) = phi'(w) q_k(w) + 2 alpha k q_{k-1}(w),  q_{-1} = 0;
    no polynomial is formed, and nothing is taken from gauss_star's closed form.
    """
    dphi = beta + 2 * alpha * w
    out = [q0]
    prev, cur = 0.0, q0
    for k in range(n - 1):
        prev, cur = cur, dphi * cur + 2 * alpha * k * prev
        out.append(cur)
    return out


def suite_starexp(seed) -> list:
    rng = random.Random(seed)
    out = []
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tau = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        prod = starexp.gauss_star(starexp.star_exp_linear(s, tau),
                                  starexp.star_exp_linear(t, tau), tau)
        target = starexp.star_exp_linear(s + t, tau)
        worst = worst_of((worst, abs(prod.beta - target.beta),
                          abs(prod.amp() / target.amp() - 1)))
    out.append(_rec("linear-exponential-law", "product of linear exponentials in closed form",
                    worst, 1e-12))

    cases = []
    for _ in range(40):
        s = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        t = 0.3 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        tau = cmath.exp(2j * math.pi * rng.random()) * rng.random()
        cases.append((s, t, tau))
    # a singular case (None) is skipped
    evaluated = [r for r in starexp.quad_exponential_law(cases) if r is not None]
    worst = worst_of([0.0, *evaluated])
    if len(evaluated) < 20:     # too few cases ran for the law to be checked
        worst = math.inf
    out.append(_rec("quadratic-exponential-law", "square-root composition law on sheets",
                    worst, 1e-12))

    draws, prods = [], []
    for _ in range(30):
        a1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        a2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = starexp.GaussPoly(core.Poly.const(1), a1, 0.0)
        g = starexp.GaussPoly(core.Poly.const(1), a2, 0.0)
        prods.append(starexp.gauss_star(f, g, tau)(ORACLE_W))
        draws.append((a1, a2, tau))
    # the defining sum  sum_k tau^k / (2^k k!) f^(k) g^(k),  truncated at k = 59,
    # over a (draws x w) array; f and g have the constant prefactor 1 that
    # _gauss_derivative_factors needs and no linear term
    a1, a2, tau = (np.asarray(col)[:, None] for col in zip(*draws))
    qf = _gauss_derivative_factors(1.0, a1, 0.0, ORACLE_W, 60)
    qg = _gauss_derivative_factors(1.0, a2, 0.0, ORACLE_W, 60)
    scls = [1.0]
    for k in range(1, 60):
        scls.append(scls[-1] * tau / (2 * k))
    acc = sum(scl * a * b for scl, a, b in zip(scls, qf, qg))
    acc *= exp_array(lambda: a1 * ORACLE_W * ORACLE_W) * exp_array(lambda: a2 * ORACLE_W * ORACLE_W)
    worst = np.max(np.abs(np.asarray(prods) - acc) / np.maximum(1.0, np.abs(acc)))
    out.append(_rec("gaussian-product-series-oracle",
                    "closed Gaussian product vs truncated defining sum", worst, 1e-10))

    pushed = starexp.heat_apply((1.4 + 0.2j - 0.6) / 4, starexp.star_exp_linear(0.9 - 0.4j, 0.6))
    target = starexp.star_exp_linear(0.9 - 0.4j, 1.4 + 0.2j)
    resid = worst_of((abs(pushed.beta - target.beta), abs(pushed.amp() / target.amp() - 1)))
    out.append(_rec("intertwiner-consistency", "parameter change of linear exponentials",
                    resid, 1e-12))

    loop = starexp.PathParam([0, 0.2, 0.2 - 0.6j, 1.7 - 0.6j, 1.7 + 0.6j, 0.2 + 0.6j, 0.2])
    direct = starexp.star_exp_quadratic(0.2, 1.0)
    around = starexp.star_exp_quadratic(0.2, 1.0, loop)
    out.append(_bool_rec("branch-loop-sheet-flip",
                         "continuation once around the branch point flips the sheet",
                         direct.sheet == 1 and around.sheet == -1))

    signs = {starexp.triple_transport_sign(t, (1.0, 2.0, 4.0))
             for t in (0.05, 0.3, 0.6, 1.3, 0.5j)}
    out.append(_bool_rec("two-to-two-monodromy",
                         "sheet transport round trip is neither identity nor global flip",
                         signs == {1, -1}))

    r3 = starexp.series_radius_probe(3, 1.0, 16)
    growth = 1.0
    for r in r3[:15]:
        growth *= r
    mono = all(b > a for a, b in zip(r3[5:], r3[6:]))
    r2 = starexp.series_radius_probe(2, 1.0, 16)
    out.append(_bool_rec("cubic-power-series-divergence",
                         "cubic-power coefficient ratios grow monotonically without bound",
                         mono and growth > 1e3 and max(r2) < 10))
    return out


def suite_special(grid) -> list:
    out = []
    checks = specialfn.hermite_checks(specialfn.hermite_table(12, QC(-1)))
    out.append(_bool_rec("hermite-recurrence", "three-term recurrence (exact)",
                         checks["recurrence"]))
    out.append(_bool_rec("hermite-ode", "second-order differential equation (exact)",
                         checks["ode"]))
    out.append(_bool_rec("hermite-derivative-ladder", "derivative lowers the index (exact)",
                         checks["ladder"]))
    scale_ok = all(specialfn.hermite_convolution_scale(n, QC(-1)) == n for n in (1, 2, 3))
    out.append(_bool_rec("hermite-convolution-scale",
                         "binomial self-convolution equals 2^n times the table", scale_ok))
    worst = 0.0
    for n, m in ((0, 0), (1, 0), (3, 3), (2, 4)):
        got = specialfn.hermite_orthogonality(n, m, -1.0)
        want = specialfn.hermite_orthogonality_target(n, -1.0) if n == m else 0.0
        worst = worst_of((worst, abs(got - want) / max(1.0, abs(want))))
    out.append(_rec("hermite-orthogonality", "weighted pairing matches n!(-tau)^n sqrt(-tau pi)",
                    worst, 1e-8))

    # the row sum drops the orders past N: N is the least N >= 18 at which
    # they sum to below half the record's tol on the grid, the other half
    # left to the rounding of the rows
    tab = specialfn.bessel_table_to_tol(1.0, 1.0, 18, 0.5e-10, grid)
    out.append(_rec("bessel-unit-sum", "deformed Bessel row sums to one",
                    specialfn.bessel_unit_sum_residual(tab), 1e-10))
    fft = specialfn.bessel_generating_fft(1.0, 1.0, tab.n_max, grid)
    out.append(_rec("bessel-generating-route", "table vs FFT of the generating element",
                    worst_of(float(np.abs(tab.values[n] - fft[n]).max()) for n in fft), 1e-12))
    resid = specialfn.bessel_addition_residual(1.0, 1.0, 1.0, grid[::4])
    out.append(_rec("bessel-addition", "argument addition via pairwise products", resid, 1e-9))

    xs = np.asarray([-0.5, 0.1, 0.7])
    vals = specialfn.legendre_star(3, 0.0, -1.0, xs)
    exact = specialfn.legendre_star_exact(3, Fraction(-1))
    worst = worst_of(float(np.abs(vals[n] - exact[n].to_complex()(xs)).max())
                     for n in range(4))
    out.append(_rec("legendre-dual-route", "quadrature vs exact moment table", worst, 1e-9))

    tabL = specialfn.laguerre_star(6, Fraction(2, 3))
    norm_ok = all(p.deriv(n) == core.ExactPoly.const(1) for n, p in enumerate(tabL))
    out.append(_bool_rec("laguerre-normalization", "top derivative equals one (exact)", norm_ok))
    x = 0.49
    coef = specialfn.laguerre_from_quad_expansion(6, 0.8 + 0.3j, x)
    worst = worst_of(abs(p.to_complex()(x) - c) / max(1.0, abs(c))
                     for p, c in zip(specialfn.laguerre_star(6, 0.8 + 0.3j), coef))
    out.append(_rec("laguerre-cauchy-route", "table vs Cauchy coefficients of the quadratic "
                    "exponential", worst, 1e-11))
    worst = 0.0
    for n, m in ((0, 1), (2, 2), (1, 3)):
        got = specialfn.laguerre_orthogonality(n, m, -1.0)
        want = specialfn.laguerre_orthogonality_target(n, -1.0) if n == m else 0.0
        worst = worst_of((worst, abs(got - want) / max(1.0, abs(want))))
    out.append(_rec("laguerre-orthogonality", "half-line weighted pairing", worst, 1e-8))
    return out


def suite_theta(tau, tol, grid) -> list:
    out = []
    worst = worst_of(float(theta.quasi_periodicity_residual(k, grid[::2], tau).max())
                     for k in (1, 2, 3, 4))
    out.append(_rec("theta-quasi-periodicity", "lattice shift with exponential factor",
                    worst, tol))
    out.append(_rec("theta-imaginary-transform", "modular-type relation between expressions",
                    float(theta.imaginary_transform_residual(grid[::2], tau).max()), tol))
    out.append(_rec("theta-special-value-relation", "value identity at w = 0",
                    theta.jacobi_relation_residual(tau),
                    max(1e-12, theta.jacobi_relation_rounding(tau))))
    worst = np.abs(theta.delta_sum_representation(grid[::2], tau)
                   - theta.theta_eval(3, grid[::2], tau))
    out.append(_rec("theta-gaussian-comb", "delta-comb representation", worst.max(), tol))
    dim, vec = theta.constant_coefficient_kernel(8)
    out.append(_bool_rec("theta-kernel-unique", "eigen-equation kernel is one-dimensional",
                         dim == 1 and np.allclose(vec, np.ones_like(vec))))
    return out


def suite_dist(tau, grid) -> list:
    out = []
    z = distributions.delta_annihilation(0.4, tau)
    resid = worst_of([0.0, *(abs(c) for c in z.poly.coeffs)])
    out.append(_rec("delta-annihilation", "(a+w) kills its delta in closed form", resid, 1e-14))
    out.append(_rec("delta-mass", "delta expression integrates to one",
                    abs(distributions.delta_mass(0.3, tau) - 1), 1e-11))
    # the sided inverses are read from their closed form; only
    # sided-route-agreement integrates their Gaussian windows
    worst = worst_of(distributions.sided_inverse_defect(a, s, tau, grid)
                     for a in (0.0, 1.0, 1j) for s in "+-")
    out.append(_rec("sided-inverse-defect", "closed-form sided inverses invert (a+w)", worst,
                    1e-8))
    # at real tau, a and w every zeta is real; a = 0.3i sends one side through
    # the reflection w_F(z) = 2 e^{-z^2} - w_F(-z)
    worst = worst_of(distributions.delta_difference_residual(a, tau, grid[::2])
                     for a in (0.0, 0.8, 0.3j))
    out.append(_rec("sided-difference-delta", "inverse difference equals 2 pi i delta",
                    worst, 1e-9))
    worst = worst_of(float(np.abs(distributions.sided_power(a, 1, s, tau, grid[::4])
                                  / distributions.sided_inverse(a, s, tau, grid[::4]) - 1).max())
                     for a in (0.0, 1.0, 1j) for s in "+-")
    out.append(_rec("sided-route-agreement",
                    "Gaussian window vs closed form of the sided inverses (relative per point)",
                    worst, 1e-9))
    # one refinement gives the pair that the next two records read
    y_neg, y = distributions.heaviside_pair(tau, grid)
    out.append(_rec("heaviside-partition", "Y(w) + Y(-w) = 1",
                    float(np.abs(y + y_neg - 1.0).max()), 1e-10))
    out.append(_rec("heaviside-dual-route", "x-side vs Fourier-side Heaviside",
                    float(np.abs(y - distributions.heaviside_y_fourier(tau, grid)).max()), 1e-9))
    vp = distributions.principal_value_inverse(1, tau, grid[::4])
    avg = (distributions.sided_inverse(0.0, "+", tau, grid[::4])
           + distributions.sided_inverse(0.0, "-", tau, grid[::4])) / 2
    out.append(_rec("principal-value-average", "v.p. transform is the sided average",
                    float(np.abs(vp - avg).max()), 1e-9))
    out.append(_rec("periodic-comb", "Gaussian comb equals exponential series",
                    distributions.periodic_comb_residual(0.0, tau, grid[::2]), 1e-10))
    inv = distributions.associativity_break(tau, grid[::4])
    worst = worst_of(float(np.abs(inv[p] - 1.0).max()) for p in ("B*A", "B*C"))
    # the groupings break only where the two inverses differ
    if not np.abs(inv["C"] - inv["A"]).max() > 1e-3 * np.abs(inv["A"]).max():
        worst = math.inf
    out.append(_rec("associativity-break",
                    "one-sided inverses A != C of 1 - e_*^{2iw}: B*A = B*C = 1", worst, 1e-8))
    out.append(_rec("constant-variation-inverse", "variation-of-constants inverse",
                    distributions.constant_variation_defect(0.4, tau, grid[::4]), 1e-8))
    out.append(_rec("inverse-product-law", "resolvent law for sided inverses",
                    distributions.product_of_inverses_residual(0.3 - 0.6j, -0.2 + 0.5j, tau,
                                                               grid[::4]), 1e-8))
    # grids tied to a, so that delta_*(a - w) peaks on them at every tau and grid
    ws = np.asarray([0.1, 0.6, 1.1], dtype=complex)
    law = distributions.tempered_transform(lambda t: np.exp(0.6j * t) / math.sqrt(2 * math.pi),
                                           tau, ws)
    delta = distributions.delta_tau(-0.6, tau)(ws)
    out.append(_rec("delta-fourier-law", "transform of (2 pi)^{-1/2} e^{iat} is delta_*(a - w)",
                    float(np.abs(law - delta).max() / np.abs(delta).max()), WINDOW_RTOL))
    worst = worst_of(distributions.eval_pairing_residual(f, a, tau, [a - 0.5, a, a + 0.5])
                     for f, a in ((core.Poly([0, 0, 1]), 1.0), (("exp", 1.0), 0.5)))
    out.append(_rec("delta-evaluation", "f * delta_*(a - w) = f(a) delta_*(a - w)", worst, 1e-13))
    return out


def suite_residue(tau, nu, grid) -> list:
    out = []
    worst = 0.0
    for k, w in ((0, 0.0), (0, 0.5), (1, 0.3), (-1, 0.4)):
        closed = residue.laurent_coeff_closed(k, nu, tau, w)
        cont = residue.residue_contour(k, nu, tau, w)
        worst = worst_of((worst, abs(cont - closed) / max(1.0, abs(closed))))
    out.append(_rec("residue-dual-route", "contour vs closed Laurent coefficients",
                    worst, 1e-10))
    a = residue.residue_contour(1, nu, tau, 0.3, radius=0.5)
    b = residue.residue_contour(1, nu, tau, 0.3, radius=1.0)
    out.append(_rec("contour-radius-independence", "Cauchy independence of the radius",
                    abs(a - b), 1e-12))
    W_unit = [w for w in grid if abs(complex(w)) <= 1.0] or [0.0, 0.5]
    ladder = [residue.ladder_residual(k, nu, tau, W_unit) for k in (-1, 0, 1, 2)]
    out.append(_rec("coefficient-ladder", "quadratic element raises the Laurent index",
                    worst_of(r for r, _ in ladder), max(1e-12, *(b for _, b in ladder))))
    out.append(_rec("double-turn-vanishing", "closed double-cover contour vanishes",
                    worst_of(residue.closed_contour_vanishing(nu, tau, w) for w in (0.0, 0.5)),
                    1e-10))
    worst = worst_of(residue.semigroup_on_delta(t, 0.6, tau, grid[::4])
                     for t in (0.0, 0.5, 1 / complex(tau)))
    out.append(_rec("delta-one-parameter-group", "quadratic flow acts on deltas for all t",
                    worst, 1e-12))
    res = residue.orphan_annihilation(0.1, 0, nu, tau, [0.0, 0.5])
    out.append(_rec("flow-annihilation", "nonzero flow time kills Laurent coefficients",
                    res["annihilation"], 1e-10))
    # a_{2k+1} falls like |tau|^(-1/2): nonzero against the same contours' t != 0 residual
    out.append(_bool_rec("ladder-discontinuity", "t = 0 bracket is nonzero (discontinuity)",
                         float(np.abs(res["t_zero_values"]).max()) > res["annihilation"]))
    ok = all(residue.surface_derivative_exact(residue.parallel_polynomial(k, m)) == {}
             for k in range(-3, 4) for m in range(-3, 4))
    out.append(_bool_rec("parallel-polynomials", "two-index family lies in the kernel (exact)",
                         ok))
    ok = all(residue.diffeqevol_exact_defect(k).is_zero() for k in range(-2, 3))
    out.append(_bool_rec("covariant-evolution-exact",
                         "Laurent coefficients satisfy the surface equation (symbolic)", ok))
    worst = worst_of(residue.covariant_evolution_residual(core.Poly([0.5, -1.0, 2.0]), nu, z,
                                                          grid[::4])
                     for z in (1.0, 0.8 + 0.4j))
    out.append(_rec("covariant-first-order", "closed family solves the first-order equation",
                    worst, 1e-12))
    worst = worst_of(residue.phi_group_action_residual(t, 0.6, tau, grid[::4])
                     for t in (0.5, 1 / complex(tau)))
    out.append(_rec("boundary-pair-group-action",
                    "quadratic flow scales the boundary-value pair for all t; Phi(0) = 1, "
                    "Phi'(0) = 0", worst, 1e-12))
    # fixed nu = tau = 1: the path's tail decays only for Re nu > 0
    out.append(_rec("quadratic-inverse-path", "gamma-path integral inverts nu + w-element^2",
                    residue.gamma_inverse_residual(1.0, 1.0, [-30.0, -2.0, 0.0],
                                                   [0.0, 0.5, 1.0]), 1e-8))
    return out


def suite_halfseries(seed, grid) -> list:
    out = []
    E = halfseries.euler_numbers(5)
    out.append(_bool_rec("euler-numbers", "alternating secant numbers (exact)",
                         E == halfseries.euler_numbers_recurrence(5)
                         and E == [1, -1, 5, -61, 1385, -50521]))
    B = halfseries.bernoulli_numbers(5)
    out.append(_bool_rec("bernoulli-numbers", "even Bernoulli numbers (exact)",
                         B == halfseries.bernoulli_numbers_recurrence(5)))
    out.append(_bool_rec("replacement-principle", "formal-basis twin gives identical sequences",
                         E == halfseries.euler_numbers_formal(5)
                         and B == halfseries.bernoulli_numbers_formal(5)))
    rng = random.Random(seed)
    ok = True
    for _ in range(6):
        cs = [QC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(13)]
        if not cs[0]:
            cs[0] = QC(1)
        f = halfseries.HalfSeries.from_list(cs, 12)
        inv = halfseries.hs_inverse(f)
        if halfseries.hs_mul(f, inv) != halfseries.HalfSeries.one(12):
            ok = False
        if halfseries.hs_inverse(inv) != f:
            ok = False
        # a sum at two truncations is cut at the lower one
        if inv + halfseries.HalfSeries.one(8) != \
                halfseries.HalfSeries.from_list((inv.poly + 1).coeffs, 8):
            ok = False
    out.append(_bool_rec("inverse-unique-involutive", "inversion is exact and involutive", ok))
    K = 24
    lhs = halfseries.hs_to_tau_expression(halfseries.euler_combination(K), 2.0,
                                          grid[::4])
    basis = theta.tau_basis(2 * np.arange(K // 2 + 1), 2.0, grid[::4])
    Efull = halfseries.euler_numbers(K // 2)
    rhs = sum(complex(Fraction(Efull[n]) / math.factorial(2 * n)) * basis[:, n]
              for n in range(K // 2 + 1))
    out.append(_rec("euler-grid-identity", "tau_basis column weighting: the Euler series "
                    "over columns k = n and k = 2n", float(np.abs(lhs - rhs).max()), 1e-10))
    zero, *nonzero = (halfseries.HalfSeries.from_list(cs, 8)
                      for cs in ([0] * 9, [1, 2, 3], [0] * 8 + [1]))
    out.append(_bool_rec("zero-detection", "vanishing expression forces zero coefficients; "
                         "1 + 2q + 3q^2 and q^8 are not zero",
                         halfseries.zero_detection(zero, 1.0)
                         and not any(halfseries.zero_detection(f, 1.0) for f in nonzero)))
    return out


def suite_vertex() -> list:
    out = []
    witt = vertex.witt_identity_check(vertex.INDEX_MAX, K=6)
    out.append(_bool_rec("witt-identity", "operator commutators close (exact sweep)", witt))
    ok = all(vertex.y_eigen_defect(n, m).is_zero()
             for n in range(-2, 3) for m in range(-3, 4))
    out.append(_bool_rec("normalized-generator-eigen",
                         "dressed generators transform with weight m (exact)", ok))
    rep = vertex.central_constraint_check(K=vertex.STABILITY_GRADES[0])
    out.append(_bool_rec("central-antisymmetry", "bracket matrix is antisymmetric (exact)",
                         rep["antisymmetry"]))
    out.append(_bool_rec("central-parity", "odd total index brackets vanish (exact)",
                         rep["odd_parity_vanishing"]))
    out.append(_bool_rec("central-diagonal-proportionality",
                         "diagonal central charges are proportional to the index (exact)",
                         rep["diagonal_proportionality"] and rep["c1_closed_form_matches"]))
    out.append(_bool_rec("central-remainder-annihilates",
                         "Witt remainder operator annihilates the span (exact)",
                         vertex.y_centrality_check(K=6) and witt))
    out.append(_bool_rec("gamma-dictionary",
                         "coefficient ring reproduces numeric Laurent values",
                         abs(vertex.laurent_coefficient_ring(-1, 40).evaluate(1 + 0.3j, 0.7, 0.4)
                             - residue.laurent_coeff_closed(0, 0.7, 1 + 0.3j, 0.4)) < 1e-10))
    out.append(_bool_rec("truncation-stability",
                         "raising the grade budget preserves low grades (exact)",
                         vertex.truncation_stability(rep["C"])))
    out.append(_bool_rec("bracket-antisymmetry-jacobi",
                         "generator brackets are antisymmetric; Jacobi holds (central values)",
                         vertex.jacobi_x_check()))
    return out


SUITES = {
    "core": suite_core,
    "starexp": suite_starexp,
    "special": suite_special,
    "theta": suite_theta,
    "dist": suite_dist,
    "residue": suite_residue,
    "halfseries": suite_halfseries,
    "vertex": suite_vertex,
}


def run_suite(name: str, tau, nu, tol, grid, seed) -> list:
    """The records of suite `name`, or of every suite in turn for 'all'.

    grid is (lo, hi, n); its n evenly spaced points are formed once, and each
    suite is called with the options its signature names, `grid` as those
    points."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    if grid[2] < 2:
        raise DomainError("grid count must be >= 2")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    lo, hi, n = grid
    options = {"tau": tau, "nu": nu, "tol": tol, "seed": seed,
               "grid": [lo + (hi - lo) * k / (n - 1) for k in range(int(n))]}
    out = []
    for suite in SUITES.values() if name == "all" else [SUITES[name]]:
        out.extend(suite(**{p: options[p] for p in inspect.signature(suite).parameters}))
    return out
