"""`stardeform` command line: verification suites, tables, and evaluators.

Exit codes: 0 success; 1 identity failure, or a kernel failure reported as one
`error:` line; 2 bad input of any kind, reported as one `configuration error:`
line.  Option values are parsed by the argparse converters below, and `main`
is the only place that turns an exception into an exit code.
Output is CSV (header row; complex values as re,im column pairs) or JSON
(schema 1, snake_case keys, residuals as decimal strings).  Reports are
byte-identical for identical configurations including the seed.
Each command accepts only the options it reads.  The exact commands (the exact
tables, `eval star`, `vertex`) read numbers exactly as written (`exact_number`)
and do not load numpy, and only `verify` loads the suites.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .core import ExactPoly, Poly, star_product, w_star_power
from .errors import DomainError, StarDeformError
from .exact import QC

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    """Usage errors (bad choices, missing arguments, rejected option values)
    raise DomainError, so `main` reports them like any other bad input."""

    def error(self, message):
        raise DomainError(message)

    def _get_values(self, action, arg_strings):
        # argparse before 3.12 drops the value of '--opt=--' and stores [],
        # skipping the converter; reject it like a missing value.
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def exact_number(text: str) -> Fraction:
    """Decimal text read exactly as written.  Its float must be finite, and zero
    only where the text is, so that no exponent runs past the float range."""
    try:
        x, d = float(text), Decimal(text)
        if math.isfinite(x) and (x == 0) == d.is_zero():
            return Fraction(d)
    except ArithmeticError:             # an exponent past Decimal's own range
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite number in the float range")


def exact_scalar(text: str) -> QC:
    """Option value 're' or 're,im', each part read by exact_number."""
    return QC(*map(exact_number, text.split(",")))


def scalar(text: str) -> complex:
    """Option value of a float command: exact_scalar's value to the nearest complex."""
    return complex(exact_scalar(text))


def grid(text: str) -> tuple:
    """Option value 'lo,hi,n': a finite span hi - lo (so finite ends) and
    n >= 2 points."""
    lo, hi, n = text.split(",")
    lo, hi, n = float(lo), float(hi), int(n)
    if not (math.isfinite(hi - lo) and n >= 2):
        raise argparse.ArgumentTypeError(
            f"grid must be 'lo,hi,n' with a finite span hi - lo and n >= 2, got {text!r}")
    return (lo, hi, n)


def count(text: str) -> int:
    """Option value: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {text!r}")
    return n


def order(text: str) -> int:
    """Option value: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"order must be >= 1, got {text!r}")
    return n


def positive(text: str) -> float:
    """Option value: a finite float > 0."""
    x = float(text)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"value must be finite and positive, got {text!r}")
    return x


_DECIMAL = r"[\d.]+(?:[eE][-+]?\d+)?"
_TERM_RE = re.compile(
    rf"^(?P<coeff>\((?P<re>[-+]?{_DECIMAL})(?P<im>[-+]{_DECIMAL})i\)|[-+]?{_DECIMAL})?"
    r"\*?(?P<var>w(\^(?P<pow>\d+))?)?$")


def parse_poly(text: str) -> ExactPoly:
    """Minimal polynomial grammar: terms 'c', 'c*w^k', 'w^k', 'w' joined by +/-;
    complex coefficients parenthesized as '(a+bi)'; numbers ('1e-05' too) are
    read by exact_number."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split at top-level +/- (not inside parentheses, not leading)
    terms = []
    depth = 0
    cur = ""
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "+-(*^eE":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict = {}
    for t in terms:
        sign = 1
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        m = _TERM_RE.match(t)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {t!r}")
        c = 1
        raw = m.group("coeff")
        if raw is not None:
            if raw.startswith("("):
                c = QC(exact_number(m.group("re")), exact_number(m.group("im")))
            else:
                c = exact_number(raw)
        power = 0
        if m.group("var"):
            power = int(m.group("pow") or 1)
        coeffs[power] = coeffs.get(power, 0) + sign * c
    deg = max(coeffs)
    return ExactPoly([coeffs.get(i, 0) for i in range(deg + 1)])


def _float_str(x: float) -> str:
    """An integer as one, any other float as its repr, which reads back to it."""
    return str(int(x)) if x.is_integer() else repr(x)


def poly_to_str(p: Poly) -> str:
    """The float coefficients without loss: parse_poly reads them back."""
    if p.is_zero():
        return "0"
    bits = []
    for k in range(p.degree, -1, -1):
        c = complex(p.coeffs[k])
        if c == 0:
            continue
        num_s = _float_str(c.real)
        if c.imag:
            num_s = f"({num_s}{'+' * (c.imag > 0)}{_float_str(c.imag)}i)"
        if k == 0:
            bits.append(num_s)
        else:
            var = "w" if k == 1 else f"w^{k}"
            bits.append(var if num_s == "1" else
                        (f"-{var}" if num_s == "-1" else f"{num_s}{var}"))
    out = " + ".join(bits)
    return out.replace("+ -", "- ")


def _fmt_resid(x: float) -> str:
    return f"{x:.17e}"


def emit_json(payload: dict):
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, sort_keys=True, ensure_ascii=False))


def emit_csv(header, rows):
    print(",".join(header))
    for row in rows:
        print(",".join(str(x) for x in row))


def cmd_verify(args) -> int:
    from .verify import run_suite

    records = run_suite(args.suite, args.tau, args.nu, args.tol, args.grid, args.seed)
    ok = all(r["passed"] for r in records)
    if args.format == "csv":
        emit_csv(["anchor", "description", "residual", "tol", "passed"],
                 [(r["anchor"], r["description"].replace(",", ";"),
                   _fmt_resid(r["residual"]), _fmt_resid(r["tol"]), r["passed"])
                  for r in records])
    else:
        emit_json({
            "suite": args.suite,
            "config": {"tau": [args.tau.real, args.tau.imag], "nu": [args.nu.real, args.nu.imag],
                       "tol": _fmt_resid(args.tol),
                       "grid": list(args.grid), "seed": args.seed},
            "results": [{"anchor": r["anchor"], "description": r["description"],
                         "residual": _fmt_resid(r["residual"]),
                         "tol": _fmt_resid(r["tol"]), "passed": r["passed"]}
                        for r in records],
            "passed": ok,
        })
    return 0 if ok else 1


def cmd_table(args) -> int:
    fam, N = args.family, args.count
    if fam in ("euler", "bernoulli"):
        from .halfseries import bernoulli_numbers, euler_numbers

        # count is the top index: E_0, E_2, ..., E_{2 floor(count/2)}
        numbers = euler_numbers if fam == "euler" else bernoulli_numbers
        print(", ".join(str(v) for v in numbers(N // 2)))
        return 0
    if fam == "hermite":
        emit_csv(["n", "reduced_polynomial(leading (sqrt2)^n factored out)"],
                 [(n, f"\"{_exact_poly_str(w_star_power(n, args.tau))}\"")
                  for n in range(N + 1)])
        return 0
    if fam == "laguerre":
        from .specialfn import laguerre_star

        tab = laguerre_star(N, args.tau)
        emit_csv(["n", "polynomial_in_x"],
                 [(n, f"\"{_exact_poly_str(p)}\"") for n, p in enumerate(tab)])
        return 0
    if fam == "legendre":
        from .specialfn import legendre_star_exact

        tab = legendre_star_exact(N, args.tau)
        emit_csv(["n", "polynomial_in_(w+a)"],
                 [(n, f"\"{_exact_poly_str(p)}\"") for n, p in enumerate(tab)])
        return 0
    import numpy as np

    from .specialfn import bessel_table

    ws = list(np.linspace(*args.grid))
    tab = bessel_table(args.a, args.tau, N, ws)
    cols = [tab.values[n] for n in range(-N, N + 1)]
    emit_csv(["w"] + [f"J{n}_re,J{n}_im" for n in range(-N, N + 1)],
             [[f"{w:.12g}"] + [f"{c[i].real:.12e},{c[i].imag:.12e}" for c in cols]
              for i, w in enumerate(ws)])
    return 0


def _exact_poly_str(p: ExactPoly) -> str:
    bits = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        try:
            cs = str(c)
        except ValueError as exc:       # an int past sys.get_int_max_str_digits()
            raise StarDeformError(f"coefficient of x^{k}: {exc}") from None
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if var and cs == "1":
            bits.append(var)
        elif var and cs == "-1":
            bits.append(f"-{var}")
        else:
            bits.append(f"{cs}{var}" if var else cs)
    return " + ".join(bits) if bits else "0"


def cmd_eval(args) -> int:
    if args.rational:
        result = star_product(args.f, args.g, args.tau)
        print(_exact_poly_str(result).replace("x", "w"))
        return 0
    result = star_product(args.f.to_complex(), args.g.to_complex(), complex(args.tau))
    if not all(cmath.isfinite(c) for c in result.coeffs):
        raise DomainError("the float product is not finite; use --rational for exact arithmetic")
    print(poly_to_str(result))
    return 0


def cmd_theta(args) -> int:
    import numpy as np

    from .theta import quasi_periodicity_residual, theta_eval

    ws = np.linspace(*args.w_grid)
    rows = zip(ws, theta_eval(args.kind, ws, args.tau),
               quasi_periodicity_residual(args.kind, ws, args.tau))
    emit_csv(["w", "re_theta", "im_theta", "quasi_periodicity_residual"],
             [(f"{w:.12g}", f"{v.real:.15e}", f"{v.imag:.15e}", _fmt_resid(r))
              for w, v, r in rows])
    return 0


def cmd_residue(args) -> int:
    from .residue import laurent_coeff_closed, residue_contour

    tau, nu, w = args.tau, args.nu, args.w
    closed = laurent_coeff_closed(args.k, nu, tau, w)
    contour = residue_contour(args.k, nu, tau, w, radius=args.radius, n_nodes=args.nodes)
    err = abs(closed - contour)
    emit_json({
        "closed": [f"{closed.real:.17e}", f"{closed.imag:.17e}"],
        "contour": [f"{contour.real:.17e}", f"{contour.imag:.17e}"],
        "abs_err": _fmt_resid(err),
    })
    return 0 if err <= args.tol else 1


def cmd_dist(args) -> int:
    import numpy as np

    from .distributions import principal_value_inverse, sided_power

    ws = np.linspace(*args.w_grid)
    if args.side == "pv":
        if args.a != 0:
            raise DomainError("--a does not apply to --side pv (v.p./Pf is taken at a = 0)")
        vals = principal_value_inverse(args.m, args.tau, ws)
        label = f"pf_m{args.m}"
    else:
        vals = sided_power(args.a, args.m, args.side, args.tau, ws)
        label = f"inverse_{args.side}" + (f"_m{args.m}" if args.m > 1 else "")
    emit_csv(["w", f"{label}_re", f"{label}_im"],
             [(f"{w:.12g}", f"{v.real:.15e}", f"{v.imag:.15e}") for w, v in zip(ws, vals)])
    return 0


def cmd_vertex(args) -> int:
    from . import vertex as vx

    K = args.K
    if args.check == "witt":
        ok = vx.witt_identity_check(4, K=K)
        emit_json({"check": "witt", "k": K, "passed": ok})
        return 0 if ok else 1
    if args.check == "central":
        rep = vx.central_constraint_check(K=K)
        payload = {k: v for k, v in rep.items() if k not in ("C",)}
        payload["offdiagonal_nonzero_pairs"] = [list(p) for p in
                                                payload["offdiagonal_nonzero_pairs"]]
        ok = rep["antisymmetry"] and rep["odd_parity_vanishing"] \
            and rep["diagonal_proportionality"] and rep["delta_support"]
        emit_json({"check": "central", "k": K, **payload, "passed": ok})
        return 0 if ok else 1
    ok = vx.k_centrality_check(K=K)
    emit_json({"check": "kcentral", "k": K, "passed": ok})
    return 0 if ok else 1


@functools.cache                # parse_args keeps no state on the tree
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="stardeform", description="deformed-product function algebra toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run an identity suite")
    v.add_argument("suite", choices=["core", "starexp", "special", "theta", "dist",
                                     "residue", "halfseries", "vertex", "all"])
    v.add_argument("--tau", type=scalar, default="1,0")
    v.add_argument("--nu", type=scalar, default="1,0")
    v.add_argument("--tol", type=positive, default=1e-10)
    v.add_argument("--grid", type=grid, default="-2,2,17")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--format", choices=["json", "csv"], default="json")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", help="emit coefficient tables")
    families = t.add_subparsers(dest="family", required=True)
    for fam in ("hermite", "laguerre", "legendre", "bessel", "euler", "bernoulli"):
        f = families.add_parser(fam)
        f.add_argument("count", type=count)
        if fam == "bessel":
            f.add_argument("--tau", type=scalar, default="-1,0")
            f.add_argument("--a", type=scalar, default="1,0")
            f.add_argument("--grid", type=grid, default="-1,1,11")
        elif fam not in ("euler", "bernoulli"):
            f.add_argument("--tau", type=exact_scalar, default="-1,0")
    t.set_defaults(func=cmd_table)

    e = sub.add_parser("eval", help="evaluate expressions")
    esub = e.add_subparsers(dest="what", required=True)
    est = esub.add_parser("star", help="deformed product of two polynomials")
    est.add_argument("--f", type=parse_poly, required=True)
    est.add_argument("--g", type=parse_poly, required=True)
    est.add_argument("--tau", type=exact_scalar, default="1,0")
    est.add_argument("--rational", action="store_true")
    est.set_defaults(func=cmd_eval)

    th = sub.add_parser("theta", help="theta values and residuals (CSV)")
    th.add_argument("--tau", type=scalar, default="1,0")
    th.add_argument("--kind", type=int, default=3, choices=[1, 2, 3, 4])
    th.add_argument("--w-grid", type=grid, default="-1,1,21")
    th.set_defaults(func=cmd_theta)

    r = sub.add_parser("residue", help="Laurent coefficient, dual routes (JSON)")
    r.add_argument("--k", type=int, default=0)
    r.add_argument("--nu", type=scalar, default="0,0")
    r.add_argument("--tau", type=scalar, default="1,1")
    r.add_argument("--w", type=scalar, default="0,0")
    r.add_argument("--radius", type=positive, default=1.0)
    r.add_argument("--nodes", type=int, default=256)
    r.add_argument("--tol", type=positive, default=1e-10)
    r.set_defaults(func=cmd_residue)

    d = sub.add_parser("dist", help="sided inverses and v.p./Pf transforms (CSV)")
    d.add_argument("--a", type=scalar, default="0,0")
    d.add_argument("--tau", type=scalar, default="1,0")
    d.add_argument("--side", default="+", choices=["+", "-", "pv"])
    d.add_argument("--m", type=order, default=1)
    d.add_argument("--w-grid", type=grid, default="-3,3,41")
    d.set_defaults(func=cmd_dist)

    vx = sub.add_parser("vertex", help="formal bracket checks (JSON)")
    vx.add_argument("--check", required=True, choices=["witt", "central", "kcentral"])
    vx.add_argument("--K", type=count, default=6)
    vx.set_defaults(func=cmd_vertex)

    return ap


def main(argv=None) -> int:
    """Run one command; the only place an error becomes an exit code.  A
    closed stdout (the reader of a pipe has exited) is a normal end."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StarDeformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
