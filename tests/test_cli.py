"""Command-line surface: subcommands, exit codes, output formats, determinism."""

import argparse
import ast
import cmath
import contextlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from commands import TABLE, failures, run_in_process
from hypothesis import given, settings, strategies as st

from stardeform import cli
from stardeform.cli import POLY_DEGREE_BUDGET, build_parser, main, parse_poly, poly_to_str
from stardeform.core import Poly
from stardeform.exact import QC
from stardeform.errors import DomainError
from stardeform.residue import CONTOUR_NODE_BUDGET, CONTOUR_NODES, CONTOUR_RADIUS
from stardeform.verify import run_suite


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "stardeform.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["verify", "core"], ["table", "euler", "6"]],
                         ids=["report", "line"])
def test_closed_stdout_is_a_normal_end(args, unbuffered):
    """The reader of the pipe exits before the output is written (as with
    `stardeform verify core | head -c 0`): exit 0, nothing on stderr, whether
    the write fails in the command or in the flush at interpreter exit."""
    import os
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "stardeform.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_parse_poly_round_trip():
    """Each number is read exactly as the decimal it writes."""
    p = parse_poly("w^2")
    assert p.coeffs == (0, 0, 1)
    q = parse_poly("2*w^3 - w + 0.5")
    assert q.coeffs == (Fraction(1, 2), -1, 0, 2)
    r = parse_poly("(1+2i)*w^2 + 3")
    assert r.coeffs[2] == QC(1, 2) and r.coeffs[0] == 3
    assert parse_poly("0.1*w + 1e-05").coeffs == (Fraction(1, 10 ** 5), Fraction(1, 10))
    with pytest.raises(ValueError):
        parse_poly("w**2")


@pytest.mark.parametrize("text", [f"w^{POLY_DEGREE_BUDGET + 1}", "1 + 2*w^1000000000000",
                                  f"w^{POLY_DEGREE_BUDGET} - w^{POLY_DEGREE_BUDGET + 1}"])
def test_parse_poly_refuses_a_degree_past_its_budget(text):
    """Refused as the term is read, before any coefficient list is built: a
    list for w^(10^12) would not fit in memory."""
    t0 = time.perf_counter()
    with pytest.raises(argparse.ArgumentTypeError, match="POLY_DEGREE_BUDGET = 300"):
        parse_poly(text)
    assert time.perf_counter() - t0 < 0.1
    assert parse_poly(f"w^{POLY_DEGREE_BUDGET}").degree == POLY_DEGREE_BUDGET


FLOAT = st.floats(allow_nan=False, allow_infinity=False)
COEFF = st.one_of(FLOAT, st.builds(complex, FLOAT, FLOAT), st.integers(-99, 99).map(float))


@given(st.lists(COEFF, max_size=6))
def test_a_printed_float_product_reads_back_to_itself(coeffs):
    """poly_to_str loses no bit that parse_poly can read: the text of any finite
    float polynomial parses back to its coefficients (a zero's sign aside)."""
    p = Poly(coeffs)
    assert parse_poly(poly_to_str(p)).to_complex().coeffs == p.to_complex().coeffs


@pytest.mark.parametrize("argv, out", [
    # six digits of a complex part
    ("--f=(0.123456789+1i)*w --g=w --tau=0,0", "(0.123456789+1i)w^2"),
    # a value near an integer
    ("--f=3.0000000000001 --g=1 --tau=0,0", "3.0000000000001"),
    # an imaginary part below 1e-15, and a coefficient below 1e-12
    ("--f=w^2 --g=w^2 --tau=0.3,1e-17", "w^4 + (0.6+2e-17i)w^2 + (0.045+3.0000000000000002e-18i)"),
    ("--f=w^2 --g=w^2 --tau=1e-12,0", "w^4 + 2e-12w^2 + 5e-25"),
], ids=["complex-digits", "near-integer", "tiny-imaginary", "tiny-coefficient"])
def test_eval_star_prints_the_float_product_without_loss(argv, out, capsys):
    assert main(["eval", "star", *argv.split()]) == 0
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize("argv, last", [
    ("table hermite 2 --tau=0.1234567,0", '2,"x^2 + 1234567/20000000"'),
    ("table hermite 2 --tau=1e-300,0", f'2,"x^2 + 1/{2 * 10 ** 300}"'),
    ("eval star --f=w^2 --g=w^2 --tau=1e-12,0 --rational",
     "w^4 + 1/500000000000w^2 + 1/2000000000000000000000000"),
    ("eval star --f=0.12345678901*w --g=1 --tau=0,0 --rational", "12345678901/100000000000w"),
], ids=["table-tau", "table-tiny-tau", "rational-tau", "rational-coefficient"])
def test_exact_commands_read_numbers_as_written(argv, last, capsys):
    """No exact command rounds its τ or coefficients to a nearby fraction."""
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last


@pytest.mark.parametrize("d", [99, 150, 300])
def test_float_eval_refuses_an_overflowing_top_term_before_the_loop(d, monkeypatch, capsys):
    """(d!)^2, the top coefficient of f^(d) g^(d) for f = g = w^d, passes 4x
    the float maximum from d = 99 on; the refusal is today's message."""
    monkeypatch.setattr(cli, "star_product", lambda *args: pytest.fail("the loop ran"))
    assert main(["eval", "star", f"--f=w^{d}", f"--g=w^{d}", "--tau=1,0"]) == 2
    assert capsys.readouterr().err == ("configuration error: the float product is not "
                                       "finite; use --rational for exact arithmetic\n")


LEAD = st.builds(lambda r, phase, e: complex(*phase) * r * 10.0 ** e,
                 st.floats(1, 9.99), st.sampled_from([(1, 0), (0, 1), (-0.6, 0.8)]),
                 st.integers(-300, 300))


@settings(deadline=None, max_examples=150)
@given(st.lists(COEFF, max_size=12), LEAD, st.lists(COEFF, max_size=12), LEAD, COEFF)
def test_an_early_float_refusal_is_one_the_loop_makes(f, lead_f, g, lead_g, tau):
    """Where the top-term test refuses, the loop's own result is not finite."""
    f, g = Poly([*f, lead_f]), Poly([*g, lead_g])
    if cli._top_term_overflows(f, g):
        result = cli.star_product(f, g, tau)
        assert not all(cmath.isfinite(c) for c in result.coeffs)


def test_poly_to_str_style():
    assert poly_to_str(Poly([0.5, 0.0, 2.0, 0.0, 1.0])) == "w^4 + 2w^2 + 0.5"


def test_eval_star_example():
    code, out, _ = run_cli(["eval", "star", "--f", "w^2", "--g", "w^2", "--tau", "1,0"])
    assert code == 0
    assert out.strip() == "w^4 + 2w^2 + 0.5"


def test_eval_star_rational():
    code, out, _ = run_cli(["eval", "star", "--f", "w^2", "--g", "w^2",
                            "--tau", "1,0", "--rational"])
    assert code == 0 and out.strip() == "w^4 + 2w^2 + 1/2"


# Commands whose work is exact QC/Fraction arithmetic, or float Poly
# arithmetic in core: they must start without the float stack or the suites.
EXACT_COMMANDS = [
    ["table", "euler", "6"],
    ["table", "bernoulli", "6"],
    ["table", "hermite", "4"],
    ["table", "legendre", "4"],
    ["table", "laguerre", "4"],
    ["eval", "star", "--f", "w^2", "--g", "w", "--tau", "1,0.5"],
    ["eval", "star", "--f", "w^2", "--g", "w", "--tau", "1,0.5", "--rational"],
    ["vertex", "--check", "witt", "--K", "4"],
]

_LOADED_AFTER = """\
import contextlib, io, json, sys
from stardeform.cli import main
heavy = ("numpy", "mpmath", "stardeform.verify")
report = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report.append([argv, code, out.getvalue(), [m for m in heavy if m in sys.modules]])
print(json.dumps(report))
"""


def loaded_after(commands):
    """[argv, exit code, stdout, heavy modules loaded so far] per command, all
    run in one fresh interpreter, in order."""
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_load_no_numpy_mpmath_or_suites():
    for argv, code, _, loaded in loaded_after(EXACT_COMMANDS):
        assert code == 0 and loaded == [], (argv, loaded)


def test_float_commands_load_what_they_use():
    """The probe above sees a load: float commands bring numpy, `verify` the
    suites."""
    (_, code, _, loaded), = loaded_after([["theta", "--w-grid=-1,1,3"]])
    assert code == 0 and loaded == ["numpy"]
    (_, code, _, loaded), = loaded_after([["verify", "core"]])
    assert code == 0 and "stardeform.verify" in loaded


# One small run of each subcommand; mpmath is a test and bench oracle only.
EVERY_SUBCOMMAND = [
    ["verify", "core"],
    ["table", "bessel", "2", "--grid=-1,1,3"],
    ["theta", "--w-grid=-1,1,3"],
    ["residue"],
    ["dist", "--w-grid=-1,1,3"],
    ["eval", "star", "--f", "w^2", "--g", "w", "--tau", "1,0.5"],
    ["vertex", "--check", "witt", "--K", "4"],
]


def test_no_command_loads_mpmath():
    for argv, code, _, loaded in loaded_after(EVERY_SUBCOMMAND):
        assert code == 0 and "mpmath" not in loaded, (argv, loaded)


def test_verify_core_exit_zero():
    code, out, _ = run_cli(["verify", "core"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1 and payload["passed"] is True
    assert all(r["passed"] for r in payload["results"])
    assert all("anchor" in r for r in payload["results"])


def run_main(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("suite", ["core", "starexp", "special", "theta", "dist", "residue",
                                   "halfseries", "vertex"])
def test_every_suite_passes_at_default_settings(suite):
    code, out = run_main(["verify", suite])
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    assert payload["results"] and all(r["passed"] for r in payload["results"])


@pytest.mark.parametrize("tau", ["0.5,-1", "0.5,1", "2,-1", "2,1"])
def test_dist_suite_passes_at_the_corners_of_the_bench_draw(tau):
    """verify-numeric draws Re tau in [0.5, 2] and Im tau in [-1, 1]; at the
    corners the Gaussian windows are widest (Re tau = 0.5) or their chirp is
    fastest relative to the decay."""
    code, out = run_main(["verify", "dist", f"--tau={tau}", "--grid=-3,3,65"])
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    assert payload["results"] and all(r["passed"] for r in payload["results"])


def check(entry, monkeypatch) -> list:
    """What one in-process run of a command-table entry got wrong, at the 80
    columns of the help pins."""
    monkeypatch.setenv("COLUMNS", "80")
    return failures(entry, *run_in_process(main, entry.argv))


def entries(keep, name=lambda entry: entry.argv):
    """Parametrize over the command-table entries that keep selects: the pinned
    and error-line entries, split among tests whose names predate the table."""
    chosen = [entry for entry in TABLE if keep(entry)]
    return pytest.mark.parametrize("entry", chosen, ids=[name(entry) for entry in chosen])


@entries(lambda entry: entry.sha256 and not entry.argv.endswith("--help")
         and not entry.argv.startswith("vertex"))
def test_exact_report_bytes(entry, monkeypatch):
    """A kernel change that moves any byte of a pinned report fails here."""
    assert check(entry, monkeypatch) == []


@entries(lambda entry: entry.sha256 and entry.argv.startswith("vertex"))
def test_vertex_check_report_bytes(entry, monkeypatch):
    """A change to the span arithmetic that moves any byte fails here; central
    exits 1 on the delta-support failure it reports."""
    assert check(entry, monkeypatch) == []


@entries(lambda entry: entry.argv.endswith("--help"),
         name=lambda entry: entry.argv.removesuffix("--help").strip())
def test_help_bytes(entry, monkeypatch):
    assert check(entry, monkeypatch) == []


def test_the_command_table_checks_itself():
    """No two entries share an argv; every sha256 is 64 lowercase hex digits;
    every subcommand, table family and verify suite (and all) has an entry;
    and the table imports the standard library only, so that CI runs it
    without the test extra."""
    argvs = [entry.argv.split() for entry in TABLE]
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    assert all(re.fullmatch("[0-9a-f]{64}", entry.sha256)
               for entry in TABLE if entry.sha256 is not None)
    parser = build_parser()
    commands = subparsers(parser)
    families = subparsers(commands["table"])
    suites = next(action.choices for action in commands["verify"]._actions
                  if action.dest == "suite")
    covered = {tuple(argv[:2]) for argv in argvs}
    assert [c for c in commands if not any(key[0] == c for key in covered)] == []
    assert [f for f in families if ("table", f) not in covered] == []
    assert [s for s in suites if ("verify", s) not in covered] == []
    tree = ast.parse((Path(__file__).parent / "commands.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert sorted(m for m in imported if m.split(".")[0] not in sys.stdlib_module_names) == []


def subparsers(parser) -> dict:
    """{name: parser} of the parser's subcommands."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_no_option_carries_over_between_calls():
    """The parser is built once per process; every call starts from the defaults."""
    _, out = run_main(["verify", "special", "--grid=-3,3,33"])
    assert json.loads(out)["config"]["grid"] == [-3.0, 3.0, 33]
    _, out = run_main(["verify", "special"])
    assert json.loads(out)["config"]["grid"] == [-2.0, 2.0, 17]


def test_verify_theta_bad_tau_exit_two():
    code, _, err = run_cli(["verify", "theta", "--tau=-1,0"])
    assert code == 2
    assert "configuration error" in err


def test_verify_bad_tol_exit_two():
    code, _, _ = run_cli(["verify", "core", "--tol=-1"])
    assert code == 2


def test_verify_determinism():
    code1, out1, _ = run_cli(["verify", "halfseries", "--seed", "5"])
    code2, out2, _ = run_cli(["verify", "halfseries", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_table_euler_and_bernoulli():
    # the count is the top index
    code, out, _ = run_cli(["table", "euler", "6"])
    assert code == 0 and out.strip() == "1, -1, 5, -61"
    code, out, _ = run_cli(["table", "bernoulli", "4"])
    assert code == 0 and out.strip() == "1, 1/6, -1/30"


def test_table_hermite():
    code, out, _ = run_cli(["table", "hermite", "3", "--tau=-1,0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 5


def test_table_bad_family():
    code, *_ = run_cli(["table", "fourier", "3"])
    assert code == 2


def test_theta_csv():
    code, out, _ = run_cli(["theta", "--tau", "1,0", "--w-grid=-1,1,5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,re_theta,im_theta,quasi_periodicity_residual"
    assert len(lines) == 6


def test_theta_domain_error():
    code, _, err = run_cli(["theta", "--tau=-2,0"])
    assert code == 2 and "configuration" in err


def test_residue_json():
    code, out, _ = run_cli(["residue", "--k", "0", "--nu", "0,0", "--tau", "1,1"])
    assert code == 0
    payload = json.loads(out)
    assert float(payload["abs_err"]) <= 1e-10
    assert payload["schema"] == 1


def test_residue_parser_defaults_are_the_contour_constants():
    """The parser keeps its own copies of the contour radius and node count, so
    that building it loads no numpy; they equal the residue module's."""
    args = build_parser().parse_args(["residue"])
    assert (args.radius, args.nodes) == (CONTOUR_RADIUS, CONTOUR_NODES)


def test_dist_csv():
    code, out, _ = run_cli(["dist", "--a", "0,0", "--tau", "1,0", "--side", "+",
                            "--w-grid=-1,1,5"])
    assert code == 0
    assert out.splitlines()[0].startswith("w,inverse_+")


def test_dist_sided_power_route(capsys):
    """--m above 1 with --side +/- is the sided power at the given a."""
    import numpy as np

    from stardeform.distributions import sided_power

    for side in "+-":
        assert main(["dist", "--m", "2", "--side", side, "--a=1,0", "--w-grid=-1,1,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"w,inverse_{side}_m2_re,inverse_{side}_m2_im"
        want = sided_power(1 + 0j, 2, side, 1 + 0j, np.linspace(-1, 1, 3))
        assert [line.split(",")[1:] for line in lines[1:]] == \
            [[f"{v.real:.15e}", f"{v.imag:.15e}"] for v in want]


@pytest.mark.parametrize("check, K", [("central", 129), ("kcentral", 2000)])
def test_vertex_grade_budget_one_error_line(check, K, capsys):
    """Grades past vertex.GRADE_BUDGET are refused before any work."""
    t0 = time.perf_counter()
    assert main(["vertex", "--check", check, "--K", str(K)]) == 1
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    assert "GRADE_BUDGET = 128" in lines[0]


def test_vertex_checks():
    code, out, _ = run_cli(["vertex", "--check", "witt", "--K", "4"])
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run_cli(["vertex", "--check", "kcentral", "--K", "4"])
    assert code == 0
    # the central check honestly reports the delta-support failure
    code, out, _ = run_cli(["vertex", "--check", "central", "--K", "4"])
    payload = json.loads(out)
    assert code == 1 and payload["delta_support"] is False
    assert payload["diagonal_proportionality"] is True


def test_numbers():
    code, out, _ = run_cli(["table", "euler", "10"])
    assert code == 0 and out.strip().endswith("-50521")
    code, *_ = run_cli(["table", "euler"])
    assert code == 2


def test_main_callable_directly():
    assert main(["table", "euler", "4"]) == 0


def assert_config_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")


@pytest.mark.parametrize("args", [["--tau", "0,0"], ["--nodes", "0"],
                                  # refused before any node array is built
                                  ["--nodes", str(CONTOUR_NODE_BUDGET + 1)]])
def test_residue_bad_input_exit_two(args, capsys):
    assert_config_error(capsys, main(["residue", *args]))


@pytest.mark.parametrize("tau", ["1e160,0", "0,1e160", "-1e160,0",
                                 "1e308,1e308", "1e308,-1e308", "-1e308,1e308"])
def test_verify_residue_beyond_the_float_range_exit_two(tau, capsys):
    """The w^2q coefficients of the Laurent GaussPoly divide by tau^2q, which
    overflows at 1e160; at 1e308 the contour density's 1/tau underflows."""
    assert_config_error(capsys, main(["verify", "residue", f"--tau={tau}"]))


@entries(lambda entry: entry.stderr and entry.code == 2)
def test_bad_input_one_config_line(entry, monkeypatch):
    assert check(entry, monkeypatch) == []


@entries(lambda entry: entry.stderr and entry.code == 1)
def test_kernel_failure_one_error_line(entry, monkeypatch):
    """A kernel failure raises a typed error promptly: one `error:` line."""
    t0 = time.perf_counter()
    assert check(entry, monkeypatch) == []
    assert time.perf_counter() - t0 < 5.0


def test_exact_hermite_table_at_huge_tau(capsys):
    """The exact table never converts its coefficients to floats."""
    assert main(["table", "hermite", "5", "--tau=1e308"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith('5,"x^5 + 5')


def test_run_suite_rejects_nan_tol_and_one_point_grid():
    with pytest.raises(DomainError):
        run_suite("core", 1 + 0j, 1 + 0j, float("nan"), (-2.0, 2.0, 17), 7)
    with pytest.raises(DomainError):
        run_suite("core", 1 + 0j, 1 + 0j, 1e-10, (0.0, 1.0, 1), 7)


# --------------------------------------------------- generated option values

FINITE = st.sampled_from(["0", "1", "-1", "0.5", "-2.5", "3", "1e-3", "7.25"]) \
    | st.floats(-10, 10).map(repr)
EXTREME = st.sampled_from(["1e-300", "-1e-300", "1e308", "-1e308", "1e-400",
                           "0e99999999999999999999"])
NONFINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "+inf"])
MALFORMED = st.sampled_from(["", "abc", ",", "1,", ",1", "1,2,3,4", "1e", "--", "0x10", "w"]) \
    | st.text(max_size=6)
NUMBER = st.one_of(FINITE, EXTREME, NONFINITE)
SCALAR = st.one_of(NUMBER, st.tuples(NUMBER, NUMBER).map(",".join), MALFORMED)


def small_int(lo, hi):
    """Integers that set the cost of a command stay small; malformed text and
    the extreme tokens still reach the parser."""
    return st.one_of(st.integers(lo, hi).map(str), EXTREME, NONFINITE, MALFORMED)


INT = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str), EXTREME, NONFINITE, MALFORMED)
GRID = st.one_of(st.tuples(NUMBER, NUMBER, st.integers(-2, 9).map(str)).map(",".join),
                 st.tuples(NUMBER, NUMBER).map(",".join), MALFORMED)
POLY = st.one_of(st.sampled_from(["w", "w^2", "2*w^3 - w + 0.5", "(1+2i)*w^2 + 3",
                                  "9" * 400 + "*w", "w**2", ""]),
                 NUMBER.map(lambda c: f"{c}*w^2"), MALFORMED)

# Per subcommand: the fixed argv it starts from, and the options one draw varies.
COMMANDS = {
    "verify": (["verify", "theta"], {"--tau": SCALAR, "--nu": SCALAR, "--tol": NUMBER,
                                     "--grid": GRID, "--seed": INT, "--format": MALFORMED}),
    "verify-residue": (["verify", "residue"], {"--tau": SCALAR, "--nu": SCALAR}),
    "table": (["table", "bessel", "2"], {"--tau": SCALAR, "--a": SCALAR, "--grid": GRID}),
    "table-exact": (["table", "hermite", "3"], {"--tau": SCALAR}),
    "table-count": (["table"], {"hermite": small_int(-3, 12), "laguerre": small_int(-3, 12),
                                "legendre": small_int(-3, 12), "fourier": small_int(0, 3)}),
    "eval": (["eval", "star", "--f", "w^2", "--g", "w"],
             {"--tau": SCALAR, "--f": POLY, "--g": POLY}),
    "eval-rational": (["eval", "star", "--rational", "--f", "w^2", "--g", "w"],
                      {"--tau": SCALAR, "--f": POLY}),
    "theta": (["theta", "--w-grid=-1,1,5"], {"--tau": SCALAR, "--kind": INT, "--w-grid": GRID}),
    "residue": (["residue"], {"--k": INT, "--nu": SCALAR, "--tau": SCALAR, "--w": SCALAR,
                              "--radius": NUMBER, "--nodes": small_int(-2, 64),
                              "--tol": NUMBER}),
    "dist": (["dist", "--w-grid=-1,1,5"], {"--a": SCALAR, "--tau": SCALAR, "--m": INT,
                                           "--w-grid": GRID, "--side": MALFORMED}),
    "dist-pv": (["dist", "--side", "pv", "--w-grid=-1,1,5"], {"--tau": SCALAR, "--m": INT}),
    "vertex": (["vertex", "--check", "witt"], {"--K": small_int(-2, 4)}),
    # the Euler and Bernoulli number tables
    "numbers": (["table"], {"euler": small_int(-3, 60), "bernoulli": small_int(-3, 60)}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_any_option_value_gives_a_contract_exit(command, data):
    """Whatever text one option gets, main returns 0, 1 or 2 without raising,
    and a 2 comes with exactly one `configuration error:` line."""
    base, options = COMMANDS[command]
    name = data.draw(st.sampled_from(sorted(options)), label="option")
    value = data.draw(options[name], label="value")
    if not name.startswith("-"):        # a table family and its count
        argv = [*base, name, value]
    else:
        pair = [f"{name}={value}"] if data.draw(st.booleans(), label="joined") else [name, value]
        argv = [*base, *pair]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # a positional value read as -h/--help
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: "), (argv, lines)
        assert out.getvalue() == ""
