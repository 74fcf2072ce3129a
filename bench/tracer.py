"""Span tracer that wraps named stardeform functions from outside the library.

`Tracer.install()` replaces each function in SPANS with a wrapper that
records one span per call: (name, start_ns, end_ns, parent span index, task
id).  Modules bind functions by name (`from .quadrature import
integrate_segment`) and `verify` keeps its suites in the `SUITES` dict, so the
wrapper is put in place of every reference held by a `stardeform.*` module's
globals, by a module-level dict, or by a class namespace.  Self time of a span
is its duration minus the durations of its direct children.

Run as a script, it traces one CLI call in a fresh process and writes the
per-name summary as JSON to the file descriptor given first:

    python3 bench/tracer.py FD table euler 40
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# span name -> (module, attribute path, workload on which it must record calls)
SPANS = {
    "verify.core": ("stardeform.verify", "suite_core", "verify-exact"),
    "verify.halfseries": ("stardeform.verify", "suite_halfseries", "verify-exact"),
    "verify.vertex": ("stardeform.verify", "suite_vertex", "verify-exact"),
    "verify.starexp": ("stardeform.verify", "suite_starexp", "verify-numeric"),
    "verify.special": ("stardeform.verify", "suite_special", "verify-numeric"),
    "verify.theta": ("stardeform.verify", "suite_theta", "verify-numeric"),
    "verify.dist": ("stardeform.verify", "suite_dist", "verify-numeric"),
    "verify.residue": ("stardeform.verify", "suite_residue", "verify-numeric"),
    "cli.main": ("stardeform.cli", "main", "cli-tables"),
    "core.star_product": ("stardeform.core", "star_product", "verify-exact"),
    "core.intertwine": ("stardeform.core", "intertwine", "verify-exact"),
    "core.Poly.__mul__": ("stardeform.core", "Poly.__mul__", "verify-numeric"),
    "core.Poly.__add__": ("stardeform.core", "Poly.__add__", "verify-numeric"),
    "starexp.gauss_star": ("stardeform.starexp", "gauss_star", "verify-numeric"),
    "starexp.heat_apply": ("stardeform.starexp", "heat_apply", "verify-numeric"),
    "starexp.continue_sqrt": ("stardeform.starexp", "continue_sqrt", "verify-numeric"),
    "specialfn.hermite_table": ("stardeform.specialfn", "hermite_table", "verify-numeric"),
    "specialfn.bessel_table": ("stardeform.specialfn", "bessel_table", "verify-numeric"),
    "specialfn.legendre_star": ("stardeform.specialfn", "legendre_star", "verify-numeric"),
    "theta.theta_eval": ("stardeform.theta", "theta_eval", "verify-numeric"),
    "distributions.sided_inverse": ("stardeform.distributions", "sided_inverse",
                                    "verify-numeric"),
    "distributions.product_of_inverses_residual": (
        "stardeform.distributions", "product_of_inverses_residual", "verify-numeric"),
    "residue.residue_contour": ("stardeform.residue", "residue_contour", "verify-numeric"),
    "residue.diffeqevol_exact_defect": ("stardeform.residue", "diffeqevol_exact_defect",
                                        "verify-numeric"),
    "halfseries.hs_mul": ("stardeform.halfseries", "hs_mul", "verify-exact"),
    "halfseries.hs_inverse": ("stardeform.halfseries", "hs_inverse", "verify-exact"),
    "vertex.bracket_elems": ("stardeform.vertex", "bracket_elems", "verify-exact"),
    "vertex.witt_identity_check": ("stardeform.vertex", "witt_identity_check", "verify-exact"),
    "quadrature.integrate_segment": ("stardeform.quadrature", "integrate_segment",
                                     "verify-numeric"),
    "quadrature.integrate_segment_refined": ("stardeform.quadrature",
                                             "integrate_segment_refined", "verify-numeric"),
}


def module_of(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.task = None
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        for name, (modname, path, _) in SPANS.items():
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for container, key in _references(orig, owner):
                self._patches.append((container, key, orig))
                _put(container, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            container, key, orig = self._patches.pop()
            _put(container, key, orig)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.task)
        return traced

    def summary(self) -> dict:
        """{span name: [calls, self time in ns]}."""
        covered = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0])
            agg[0] += 1
            agg[1] += t1 - t0 - covered[i]
        return out


def _references(orig, owner) -> list:
    """Every (container, key) in stardeform modules and the owner that holds orig."""
    found = []
    containers = [owner] if isinstance(owner, type) else []
    containers += [m for n, m in list(sys.modules.items())
                   if n == "stardeform" or n.startswith("stardeform.")]
    for c in containers:
        ns = vars(c)
        for key, val in list(ns.items()):
            if val is orig:
                found.append((c, key))
            elif isinstance(val, dict) and not isinstance(c, type):
                found.extend((val, k) for k, v in val.items() if v is orig)
    return found


def _put(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def merge(into: dict, summary: dict) -> None:
    for name, (calls, self_ns) in summary.items():
        agg = into.setdefault(name, [0, 0])
        agg[0] += calls
        agg[1] += self_ns


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    out_fd = int(sys.argv[1])
    import stardeform.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = stardeform.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with os.fdopen(out_fd, "w") as fh:
            json.dump(tracer.summary(), fh)
    sys.exit(rc)
