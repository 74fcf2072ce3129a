"""Kernel probes: microseconds per call of single kernels on fixed inputs.

They time work that a span cannot see cheaply (one QC multiply-add is far
shorter than a span's own cost) and are run beside the traced pass, never
inside the end-to-end timing.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction as F

import numpy as np

from stardeform import core, halfseries, quadrature, residue, starexp, theta, vertex
from stardeform.exact import QC


def _per_call_us(fn, batch_s: float = 0.02, batches: int = 7) -> float:
    """Median over batches of the mean time per call; each batch runs >= batch_s."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def _exact_poly(deg: int, shift: int) -> core.Poly:
    return core.Poly([QC(F(i + shift, i + 2), F(i - 3, 5 + shift)) for i in range(deg + 1)])


def probes() -> dict:
    a, b, c = QC(F(3, 7), F(-2, 5)), QC(F(-5, 11), F(1, 3)), QC(F(7, 13), F(2, 9))
    f8, g8 = _exact_poly(8, 1), _exact_poly(8, 2)
    t1, t2 = QC(F(2, 3), F(1, 5)), QC(F(-1, 4), F(1, 2))
    f40 = core.Poly([complex((i % 7) - 3, (i % 5) - 2) * 0.1 for i in range(41)])
    g40 = core.Poly([complex((i % 3) - 1, (i % 4) - 1.5) * 0.1 for i in range(41)])
    tau = 0.7 + 0.2j
    e1, e2 = starexp.star_exp_linear(0.3 - 0.2j, tau), starexp.star_exp_linear(-0.1 + 0.4j, tau)
    hs = halfseries.HalfSeries.one(24) + halfseries.exp_series(2, 24)
    y1, y2 = vertex.y_generator(-1, 6), vertex.y_generator(1, 6)

    def gauss_osc(x):
        return np.exp(-x * x) * np.cos(3 * x)

    kernels = {
        "exact.qc_muladd_us": lambda: a * b + c,
        "core.star_product_exact8_us": lambda: core.star_product(f8, g8, t1),
        "core.star_product_float40_us": lambda: core.star_product(f40, g40, tau),
        "core.intertwine_exact8_us": lambda: core.intertwine(f8, t1, t2),
        "starexp.gauss_star_us": lambda: starexp.gauss_star(e1, e2, tau),
        "theta.theta_eval_us": lambda: theta.theta_eval(3, 0.3, 1.0 + 0.5j),
        "quadrature.integrate_segment_us": lambda: quadrature.integrate_segment(
            gauss_osc, -4.0, 4.0),
        "residue.residue_contour_us": lambda: residue.residue_contour(1, 0.5 + 0.1j, 1 + 1j, 0.3),
        "halfseries.hs_inverse_k24_us": lambda: halfseries.hs_inverse(hs),
        "vertex.bracket_elems_us": lambda: vertex.bracket_elems(y1, y2),
    }
    return {name: _per_call_us(fn) for name, fn in kernels.items()}
