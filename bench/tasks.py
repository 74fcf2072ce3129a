"""Seeded task lists for the benchmark workloads, and the checks on their outputs.

A task is a dict with the argv handed to `stardeform` (the only thing the
library sees) plus the parameters its check needs.  Every workload is a
sequence of *cycles*: each cycle holds every task kind of the workload once,
in a seeded order, so the mix is the same for every seed and per-run
statistics do not drift with how the draws fall.  Numeric parameters that
change the cost of a task are drawn stratified across consecutive cycles.

Checks are independent of the code under test:
- Euler and Bernoulli tables against `mpmath.eulernum` / `mpmath.bernfrac`;
- `eval star` (exact and float) against the defining sum in `Fraction`s;
- `table laguerre` against its defining coefficient formula in `Fraction`s;
- other CSV/JSON outputs against the reference outputs in `golden.json`,
  recorded from the library at the commit that introduced the benchmark,
  within each command's own tolerance (exact outputs by hash);
- verify reports must exit 0 with `"passed": true` on every record.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("verify-exact", "verify-numeric", "cli-tables")

# core twice per cycle: the median task then falls amid the core latencies
# (the star-product path) and averages over twice as many core seeds.
EXACT_CYCLE = ("halfseries", "core", "core", "vertex")
NUMERIC_SUITES = ("starexp", "special", "theta", "dist", "residue")
NUMERIC_SHAPES = tuple((n, half) for n in (17, 33, 65) for half in (2, 3))  # --grid=-h,h,n

# cli-tables parameter catalogue.  Outputs compared against golden.json must
# come from this catalogue; make_golden.py records every entry.
TABLE_N = (40, 120)                       # euler / bernoulli top index range
HERMITE_N = (20, 30, 40, 50, 60)
HERMITE_TAU = ("-1,0", "0.5,0.25")
LEGENDRE_N = (20, 30, 40, 50, 60)
LEGENDRE_TAU = ("-1,0", "0.5,0")
LAGUERRE_N = (4, 12)
STAR_DEGREE = (10, 40)
THETA_KINDS = (1, 2, 3, 4)
THETA_TAU = ("1,0", "1.5,0.5")
THETA_POINTS = (101, 201, 401)            # every grid is a sub-grid of the 401 master
DIST_SIDES = ("+", "-", "pv")
DIST_A = ("0,0", "1,0")
DIST_TAU = ("1,0", "1.5,0.5")
DIST_POINTS = (41, 81)                    # sub-grids of the 81 master
RESIDUE_K = (-1, 0, 1, 2)
RESIDUE_NU = ("0,0", "0.5,0")
RESIDUE_TAU = ("1,1", "2,0")
WITT_K = (4, 6, 8)

# Tolerances a reference comparison allows: the tolerance each command states
# or uses internally for the quantity it prints.
THETA_TOL = 1e-12         # theta_eval truncates its series at 1e-14
THETA_RESID_TOL = 1e-10   # verify's default tol for the quasi-periodicity identity
DIST_TOL = 1e-10
RESIDUE_TOL = 1e-10       # `residue --tol` default
STAR_FLOAT_REL = 1e-10    # relative to the magnitude sum of the defining series

# `table laguerre` exits 1 today: specialfn.laguerre_star calls complex() on
# the exact QC parameter that cli.cmd_table passes.  The benchmark keeps the
# task in the mix and counts it as failed; this signature marks that failure
# as the known one, so any other failure still makes the run incorrect.
LAGUERRE_DEFECT = "TypeError: complex() first argument must be a string or a number, not 'QC'"


# ------------------------------------------------------------------ draws

def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k integers in [lo, hi], one from each of k equal-width strata, shuffled."""
    width = (hi - lo + 1) / k
    vals = [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(k)]
    rng.shuffle(vals)
    return vals


def _verify_exact_cycles(rng: random.Random, n_cycles: int) -> list:
    cycles = []
    for _ in range(n_cycles):
        tasks = [{"kind": "verify", "suite": s,
                  "argv": ["verify", s, "--seed", str(rng.randrange(2 ** 31))]}
                 for s in EXACT_CYCLE]
        rng.shuffle(tasks)
        cycles.append(tasks)
    return cycles


def _verify_numeric_cycles(rng: random.Random, n_cycles: int) -> list:
    # Grid points, grid half-width and Re tau set the cost of a suite.  Each
    # block of len(NUMERIC_SHAPES) cycles runs every grid shape once per suite,
    # and each shape's Re tau is stratified over the blocks of the run.
    k = len(NUMERIC_SHAPES)
    n_blocks = -(-n_cycles // k)
    plan = {}
    for s in NUMERIC_SUITES:
        re_taus = {}
        for shape in NUMERIC_SHAPES:
            re_taus[shape] = [0.5 + 1.5 * (b + rng.random()) / n_blocks for b in range(n_blocks)]
            rng.shuffle(re_taus[shape])
        plan[s] = [(shape, re_taus[shape][b])
                   for b in range(n_blocks) for shape in rng.sample(NUMERIC_SHAPES, k)]
    cycles = []
    for c in range(n_cycles):
        tasks = []
        for s in NUMERIC_SUITES:
            (n, half), re_tau = plan[s][c]
            tau = f"{re_tau:.6f},{rng.uniform(-1.0, 1.0):.6f}"
            nu = f"{rng.uniform(-1.0, 1.0):.6f},{rng.uniform(-1.0, 1.0):.6f}"
            tasks.append({"kind": "verify", "suite": s,
                          "argv": ["verify", s, f"--tau={tau}", f"--nu={nu}",
                                   "--seed", str(rng.randrange(2 ** 31)),
                                   f"--grid=-{half},{half},{n}"]})
        rng.shuffle(tasks)
        cycles.append(tasks)
    return cycles


def _poly_text(coeffs: list) -> str:
    """Integer coefficients (index = power) in the CLI's polynomial grammar."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        term = f"{abs(c)}*w^{k}" if k else str(abs(c))
        out += ("-" if c < 0 else ("+" if out else "")) + term
    return out


def _rand_int_poly(rng: random.Random, degree: int) -> list:
    cs = [rng.randint(-9, 9) for _ in range(degree)]
    return cs + [rng.choice([c for c in range(-9, 10) if c])]


def _quarter(rng: random.Random, nonzero: bool = False) -> Fraction:
    choices = [Fraction(i, 4) for i in range(-8, 9) if i or not nonzero]
    return rng.choice(choices)


def _star_task(rng: random.Random, degrees: tuple, rational: bool) -> dict:
    f = _rand_int_poly(rng, degrees[0])
    g = _rand_int_poly(rng, degrees[1])
    if rational:
        tau = (_quarter(rng), _quarter(rng, nonzero=True))
    else:
        tau = (_quarter(rng, nonzero=True), Fraction(0))
    argv = ["eval", "star", f"--f={_poly_text(f)}", f"--g={_poly_text(g)}",
            f"--tau={float(tau[0])},{float(tau[1])}"]
    if rational:
        argv.append("--rational")
    return {"kind": "star_rational" if rational else "star_float", "argv": argv,
            "f": f, "g": g, "tau": [str(tau[0]), str(tau[1])]}


def _cli_cycles(rng: random.Random, n_cycles: int) -> list:
    return [_cli_cycle(rng, block) for block in _cli_blocks(rng, n_cycles)]


def _cli_blocks(rng: random.Random, n_cycles: int):
    """Per cycle, the stratified draws: table sizes and product degrees are
    stratified over blocks of CLI_BLOCK cycles."""
    block: dict = {}
    for _ in range(n_cycles):
        if not block.get("euler"):
            k = CLI_BLOCK
            block = dict(euler=_strata(rng, *TABLE_N, k), bernoulli=_strata(rng, *TABLE_N, k),
                         deg=list(zip(_strata(rng, *STAR_DEGREE, k),
                                      _strata(rng, *STAR_DEGREE, k))),
                         deg_float=list(zip(_strata(rng, *STAR_DEGREE, k),
                                            _strata(rng, *STAR_DEGREE, k))))
        yield block


def _cli_cycle(rng: random.Random, block: dict) -> list:
    tasks = []
    for fam in ("euler", "bernoulli"):
        n = block[fam].pop()
        tasks.append({"kind": fam, "n": n, "argv": ["table", fam, str(n)]})
    n, tau = rng.choice(HERMITE_N), rng.choice(HERMITE_TAU)
    tasks.append({"kind": "hermite", "argv": ["table", "hermite", str(n), f"--tau={tau}"]})
    n, tau = rng.choice(LEGENDRE_N), rng.choice(LEGENDRE_TAU)
    tasks.append({"kind": "legendre", "argv": ["table", "legendre", str(n), f"--tau={tau}"]})
    n = rng.randint(*LAGUERRE_N)
    tasks.append({"kind": "laguerre", "n": n, "argv": ["table", "laguerre", str(n)]})
    tasks.append(_star_task(rng, block["deg"].pop(), rational=True))
    tasks.append(_star_task(rng, block["deg_float"].pop(), rational=False))
    kind, tau, n = rng.choice(THETA_KINDS), rng.choice(THETA_TAU), rng.choice(THETA_POINTS)
    tasks.append({"kind": "theta", "key": theta_key(kind, tau), "points": n,
                  "argv": ["theta", "--kind", str(kind), f"--tau={tau}",
                           f"--w-grid=-1,1,{n}"]})
    k, nu, tau = rng.choice(RESIDUE_K), rng.choice(RESIDUE_NU), rng.choice(RESIDUE_TAU)
    tasks.append({"kind": "residue", "key": residue_key(k, nu, tau),
                  "argv": ["residue", "--k", str(k), f"--nu={nu}", f"--tau={tau}"]})
    side, tau, n = rng.choice(DIST_SIDES), rng.choice(DIST_TAU), rng.choice(DIST_POINTS)
    a = DIST_A[0] if side == "pv" else rng.choice(DIST_A)
    tasks.append({"kind": "dist", "key": dist_key(side, a, tau), "side": side, "points": n,
                  "argv": ["dist", f"--a={a}", "--side", side, f"--tau={tau}",
                           f"--w-grid=-3,3,{n}"]})
    K = rng.choice(WITT_K)
    tasks.append({"kind": "witt", "K": K, "argv": ["vertex", "--check", "witt", "--K", str(K)]})
    rng.shuffle(tasks)
    return tasks


# Runs use whole blocks: the cycles over which cost-setting draws are stratified.
CLI_BLOCK = 3
BLOCK_CYCLES = {"verify-exact": 1, "verify-numeric": len(NUMERIC_SHAPES), "cli-tables": CLI_BLOCK}

_CYCLES = {"verify-exact": _verify_exact_cycles, "verify-numeric": _verify_numeric_cycles,
           "cli-tables": _cli_cycles}


def theta_key(kind, tau) -> str:
    return f"{kind} {tau}"


def dist_key(side, a, tau) -> str:
    return f"{side} {a} {tau}"


def residue_key(k, nu, tau) -> str:
    return f"{k} {nu} {tau}"


# One untimed task per workload, fixed so set-up time does not depend on the seed.
WARMUP = {
    "verify-exact": {"kind": "verify", "suite": "halfseries", "argv": ["verify", "halfseries"]},
    "verify-numeric": {"kind": "verify", "suite": "theta", "argv": ["verify", "theta"]},
    "cli-tables": {"kind": "residue", "key": residue_key(0, "0,0", "1,1"),
                   "argv": ["residue", "--k", "0", "--nu=0,0", "--tau=1,1"]},
}


def make_cycles(workload: str, seed: int, n_cycles: int) -> list:
    """n_cycles cycles (lists of tasks) of a workload; the draws depend only on
    the seed and n_cycles."""
    return _CYCLES[workload](random.Random(f"{workload}:{seed}"), n_cycles)


def task_list_hash(tasks: list) -> str:
    """sha256 over the argv lists, the only input the library receives."""
    blob = json.dumps([t["argv"] for t in tasks], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------- checks

OK = "ok"
KNOWN_DEFECT = "known-defect"


def check(task: dict, rc, out: str, err: str, golden: dict) -> str:
    """OK, KNOWN_DEFECT, or a one-line reason the output is wrong."""
    if task["kind"] == "laguerre" and rc == 1 and LAGUERRE_DEFECT in err:
        return KNOWN_DEFECT
    if rc != 0:
        detail = err.strip().splitlines()[-1] if err.strip() else out.strip()[:160]
        return f"exit code {rc}: {detail}"
    try:
        return _CHECKS[task["kind"]](task, out, golden)
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


def _check_verify(task, out, golden):
    rep = json.loads(out)
    if rep.get("suite") != task["suite"]:
        return f"suite {rep.get('suite')!r} reported for {task['suite']!r}"
    bad = [r["anchor"] for r in rep["results"] if r["passed"] is not True]
    if bad or rep["passed"] is not True or not rep["results"]:
        return f"failed checks: {bad}"
    return OK


def _check_euler(task, out, golden):
    import mpmath
    got = [int(v) for v in out.strip().split(", ")]
    want = [int(mpmath.eulernum(2 * n, exact=True)) for n in range(task["n"] // 2 + 1)]
    return OK if got == want else "Euler numbers differ from mpmath.eulernum"


def _check_bernoulli(task, out, golden):
    import mpmath
    got = [Fraction(v) for v in out.strip().split(", ")]
    want = [Fraction(*mpmath.bernfrac(2 * n)) for n in range(task["n"] // 2 + 1)]
    return OK if got == want else "Bernoulli numbers differ from mpmath.bernfrac"


def _check_hash(task, out, golden):
    key = " ".join(task["argv"])
    want = golden["sha256"][key]
    got = hashlib.sha256(out.encode()).hexdigest()
    return OK if got == want else f"output differs from reference for {key!r}"


_QC_RE = re.compile(r"^QC\(([^,]+), ([^)]+)\)")
_RAT_RE = re.compile(r"^-?\d+(/\d+)?")


def parse_exact_poly(text: str, var: str) -> dict:
    """Parse the CLI's exact polynomial format ('3/2x^2 + -1/8', 'QC(a, b)w^3 + ...')
    into {power: (re, im)} with Fraction parts."""
    out = {}
    text = text.strip()
    if text == "0":
        return out
    for bit in text.split(" + "):
        m = _QC_RE.match(bit)
        if m:
            c = (Fraction(m.group(1)), Fraction(m.group(2)))
            rest = bit[m.end():]
        elif bit.startswith(var) or bit.startswith("-" + var):
            c = (Fraction(-1 if bit[0] == "-" else 1), Fraction(0))
            rest = bit.lstrip("-")
        else:
            m = _RAT_RE.match(bit)
            c = (Fraction(m.group(0)), Fraction(0))
            rest = bit[m.end():]
        if rest == "":
            power = 0
        elif rest == var:
            power = 1
        elif rest.startswith(var + "^"):
            power = int(rest[len(var) + 1:])
        else:
            raise ValueError(f"bad term {bit!r}")
        if power in out:
            raise ValueError(f"repeated power {power}")
        out[power] = c
    return out


def star_oracle(f: list, g: list, tau: tuple):
    """Defining sum sum_k tau^k/(2^k k!) f^(k) g^(k) for integer f, g and
    complex-rational tau; returns ({power: (re, im)}, {power: magnitude sum})."""
    def deriv(p):
        return [i * p[i] for i in range(1, len(p))]

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    out[i + j] += a * b
        return out

    tr, ti = tau
    sr, si = Fraction(1), Fraction(0)          # tau^k / (2^k k!)
    mag = Fraction(1)                          # |tau|^k / (2^k k!) bound, via |re|+|im|
    res, bound = {}, {}
    fk, gk = list(f), list(g)
    k = 0
    while fk and gk:
        prod = mul(fk, gk)
        absprod = mul([abs(c) for c in fk], [abs(c) for c in gk])
        for p, (c, a) in enumerate(zip(prod, absprod)):
            re_, im_ = res.get(p, (Fraction(0), Fraction(0)))
            res[p] = (re_ + sr * c, im_ + si * c)
            bound[p] = bound.get(p, 0) + mag * a
        k += 1
        sr, si = (sr * tr - si * ti) / (2 * k), (sr * ti + si * tr) / (2 * k)
        mag = mag * (abs(tr) + abs(ti)) / (2 * k)
        fk, gk = deriv(fk), deriv(gk)
    res = {p: c for p, c in res.items() if c[0] or c[1]}
    return res, bound


def _tau(task):
    return (Fraction(task["tau"][0]), Fraction(task["tau"][1]))


def _check_star_rational(task, out, golden):
    want, _ = star_oracle(task["f"], task["g"], _tau(task))
    got = parse_exact_poly(out, "w")
    return OK if got == want else "exact product differs from the defining sum"


_FLOAT_TERM = re.compile(r"^(?P<c>-?(?:\d+(?:\.\d*)?(?:e[+-]?\d+)?|inf|nan))?(?P<v>-?w(?:\^\d+)?)?$")


def parse_float_poly(text: str) -> dict:
    """Parse cli.poly_to_str output with real coefficients into {power: float}."""
    text = text.strip()
    out = {}
    if text == "0":
        return out
    parts = re.split(r" ([+-]) ", text)
    signs = ["+"] + parts[1::2]
    for sign, term in zip(signs, parts[0::2]):
        m = _FLOAT_TERM.match(term)
        if not m or not (m.group("c") or m.group("v")):
            raise ValueError(f"bad term {term!r}")
        v = m.group("v") or ""
        c = float(m.group("c")) if m.group("c") else (-1.0 if v.startswith("-") else 1.0)
        v = v.lstrip("-")
        power = 0 if not v else (1 if v == "w" else int(v[2:]))
        out[power] = -c if sign == "-" else c
    return out


def _check_star_float(task, out, golden):
    want, bound = star_oracle(task["f"], task["g"], _tau(task))
    got = parse_float_poly(out)
    for p in set(got) | set(want):
        w = want.get(p, (Fraction(0), Fraction(0)))[0]
        if not math.isfinite(got.get(p, 0.0)):
            return f"non-finite coefficient at w^{p}"
        err = abs(Fraction(got.get(p, 0.0)) - w)
        if err > STAR_FLOAT_REL * bound.get(p, 0) + Fraction(1, 10 ** 300):
            return f"coefficient of w^{p} off by {float(err):.3e}"
    return OK


def laguerre_oracle(n: int, tau: Fraction) -> list:
    """L_n = sum_k x^k/k! [t^(n-k)] (1 - t tau)^(-(k+1/2)), coefficients by power."""
    out = []
    for k in range(n + 1):
        m = n - k
        poch = Fraction(1)
        for i in range(m):
            poch *= Fraction(2 * k + 1, 2) + i
        out.append(poch / math.factorial(m) * tau ** m / math.factorial(k))
    return out


def _check_laguerre(task, out, golden):
    rows = out.strip().splitlines()
    if rows[0] != "n,polynomial_in_x" or len(rows) != task["n"] + 2:
        return "unexpected table shape"
    for n, row in enumerate(rows[1:]):
        idx, poly = row.split(",", 1)
        got = parse_exact_poly(poly.strip('"'), "x")
        want = {p: (c, Fraction(0)) for p, c in enumerate(laguerre_oracle(n, Fraction(-1))) if c}
        if int(idx) != n or got != want:
            return f"L_{n} differs from its defining formula"
    return OK


def _csv_values(out: str, header: list, points: int) -> list:
    rows = out.strip().splitlines()
    if rows[0].split(",") != header or len(rows) != points + 1:
        raise ValueError("unexpected CSV shape")
    return [[float(x) for x in r.split(",")] for r in rows[1:]]


def _grid_rows(values: list, master: list, lo: float, hi: float, tol: float):
    """Compare sub-grid rows (w, re, im, ...) with the master reference rows (re, im)."""
    points, stride = len(values), (len(master) - 1) // (len(values) - 1)
    for i, row in enumerate(values):
        w = lo + (hi - lo) * i / (points - 1)
        if abs(row[0] - w) > 1e-9:
            return f"grid point {i} is {row[0]}, expected {w}"
        ref = complex(*master[i * stride])
        got = complex(row[1], row[2])
        if abs(got - ref) > tol * max(1.0, abs(ref)):
            return f"value at w={row[0]} off by {abs(got - ref):.3e}"
    return OK


def _check_theta(task, out, golden):
    vals = _csv_values(out, ["w", "re_theta", "im_theta", "quasi_periodicity_residual"],
                       task["points"])
    worst = max(r[3] for r in vals)
    if not worst <= THETA_RESID_TOL:
        return f"quasi-periodicity residual {worst:.3e}"
    return _grid_rows(vals, golden["theta"][task["key"]], -1.0, 1.0, THETA_TOL)


def _check_dist(task, out, golden):
    label = "pf_m1" if task["side"] == "pv" else f"inverse_{task['side']}"
    vals = _csv_values(out, ["w", f"{label}_re", f"{label}_im"], task["points"])
    return _grid_rows(vals, golden["dist"][task["key"]], -3.0, 3.0, DIST_TOL)


def _check_residue(task, out, golden):
    rep = json.loads(out)
    ref = golden["residue"][task["key"]]
    if not float(rep["abs_err"]) <= RESIDUE_TOL:
        return f"routes disagree by {rep['abs_err']}"
    for field in ("closed", "contour"):
        got, want = complex(*map(float, rep[field])), complex(*ref[field])
        if abs(got - want) > RESIDUE_TOL * max(1.0, abs(want)):
            return f"{field} value off by {abs(got - want):.3e}"
    return OK


def _check_witt(task, out, golden):
    rep = json.loads(out)
    want = {"schema": 1, "check": "witt", "k": task["K"], "passed": True}
    return OK if rep == want else f"unexpected report {rep}"


_CHECKS = {"verify": _check_verify, "euler": _check_euler, "bernoulli": _check_bernoulli,
           "hermite": _check_hash, "legendre": _check_hash, "laguerre": _check_laguerre,
           "star_rational": _check_star_rational, "star_float": _check_star_float,
           "theta": _check_theta, "dist": _check_dist, "residue": _check_residue,
           "witt": _check_witt}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
