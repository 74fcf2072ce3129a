"""Command-line surface: subcommands, exit codes, output formats, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from stardeform.cli import main, parse_poly, poly_to_str
from stardeform.core import Poly
from stardeform.errors import DomainError
from stardeform.residue import CONTOUR_NODE_BUDGET
from stardeform.verify import RunConfig


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "stardeform.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["verify", "core"], ["numbers", "--euler", "3"]],
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
    p = parse_poly("w^2")
    assert p == Poly([0.0, 0.0, 1.0])
    q = parse_poly("2*w^3 - w + 0.5")
    assert q == Poly([0.5, -1.0, 0.0, 2.0])
    r = parse_poly("(1+2i)*w^2 + 3")
    assert r.coeffs[2] == 1 + 2j and r.coeffs[0] == 3
    with pytest.raises(ValueError):
        parse_poly("w**2")


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
    ["conjecture", "2"],
    ["eval", "star", "--f", "w^2", "--g", "w", "--tau", "1,0.5"],
    ["vertex", "--check", "witt", "--K", "4"],
    ["numbers", "--euler", "4"],
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


# sha256 of exact reports as the generic QC/Fraction loops printed them; a
# kernel change that moves any byte of these reports fails here.
EXACT_REPORT_SHA256 = {
    "verify core --seed 1": "b318dde4cb170878990a0e32d5f8f80c46e762a95607873c687b0ffd5a34591c",
    "verify core --seed 2": "3b276fb028a371f097ab4035a603a27f4c5db16c2dfbff367142b115158089da",
    "verify core --seed 3": "c052f38348802223f0e2bffb48837f4ed996d9fa8a48b793d20df7d98c3d5c4f",
    "verify halfseries": "482f9d758716bf0eaab936f8884a423d99a48a12a29723074a3b195c2ca3df5f",
    "verify vertex": "62cd9dfaf6682f06a66582a9f797617f86fdbe890bdadbd26f68d5793e6a49d9",
    "table hermite 20 --tau=0.5,0.25":
        "d4b5b1210f7ec2815eb51470b6a9aca05bf59b3d5ad5f964a4503207949887ec",
    "table hermite 60 --tau=0.5,0.25":
        "685d19af116c9d7c1bb4d0b616e4968c3fa2ccdbce19ca851c023b79b91deb04",
    "table laguerre 6 --tau=0.6666666666666666,0":
        "5cb0878a800a6b24d3f220ce33632de79573f5408fbf4f46b1b504aedbe4290c",
    "table laguerre 12 --tau=0.5,0.25":
        "62ea892a6602600e99e3b5bb1133cbc5f36b04d7c413d2856054ddc3fc07f034",
    "table legendre 40 --tau=-1,0":
        "db3f06e2cc93407fa916c6571f91d65faebb37961f9c1f17d9304aa5d9bba8f7",
    "table legendre 6 --tau=0.5,0.5":
        "8107eebc68ead17328878abbe8b08d81bff5c652e8f0d3f3c7e3cc9855706448",
    "table laguerre 12 --tau=-1,0":
        "8cf5194f971335d7da10092f9aaefbd5daa3148ea452fd7ffa3b01e2edc218f4",
    "eval star --f w^3+2 --g w^2 --tau 1,0.5 --rational":
        "47e148d1589adb8c7d3396bc061c921184ef33fbce21d033a62fd986d91cc62f",
}


@pytest.mark.parametrize("line", sorted(EXACT_REPORT_SHA256))
def test_exact_report_bytes(line):
    code, out = run_main(line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_REPORT_SHA256[line]


# (exit code, sha256 of stdout) of `vertex --check` reports; a change to the
# span arithmetic that moves any byte fails here.  central exits 1 on the
# delta-support failure it reports.
VERTEX_CHECK_SHA256 = {
    "vertex --check witt --K 4":
        (0, "383cad6e0d7c51550c0493597184813989ae36043fd939eba8c064629f0f4676"),
    "vertex --check central --K 6":
        (1, "8fb997e83939cae42b2b0ae87e5d8d6b7f0a5e5fa11d7a3192c011d6a5daf7ad"),
    "vertex --check central --K 8":
        (1, "d7f3316b9a5781964e7175c92340b53b194f7a9d4b9a67bd9ca17538116af84b"),
    "vertex --check central --K 32":
        (1, "7fe3efacf59147659d4b7b1ce0d2dae1ceb98732d8a0fba59a967ba01da720d4"),
    "vertex --check kcentral --K 32":
        (0, "cc4f9253deef291c9491fbcb52ec9da1b0ba9ec34684aae9daaed53136ef0797"),
}


@pytest.mark.parametrize("line", sorted(VERTEX_CHECK_SHA256))
def test_vertex_check_report_bytes(line):
    code, out = run_main(line.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERTEX_CHECK_SHA256[line]


# sha256 of `stardeform [command] --help` at 80 columns, as printed when the
# parser was built on every call (Python 3.11 argparse)
HELP_SHA256 = {
    "": "e8794a53c1001cef086604f94e57365e1c485bf018b509aadd2c6117d5619b0d",
    "verify": "c95f3fc91042682020a9307d144fae905ed7a1587d0de915593e066013c61a44",
    "table": "e1bce30bc2d83ad6e01326a5d1fb9d13e9b9fc8633842205788f76b912fed3e7",
    "eval": "2191e2f86f96b0d86ce22af292fd311d0a5668258e8cefd803231696671e6ab0",
    "eval star": "cf209edef299ffc70e6ddf9df4ec47f1e928b0ddb23ce302b4411ee8037934ff",
    "theta": "8fd0ba2d31b957a4559404ba3631ec8e09d6c47a919a819319da33dc5d77181c",
    "residue": "bdfce3e08f2c12b5b291333bbf7e3fc211e22b219ceb9424ed801259de9dc430",
    "dist": "bb3b90ffed0e552d7b15e662e1bfd44abf67c16ae281d28cfdf7bc338e5707d6",
    "vertex": "c39077f50548542bf36a6aeb08ae57d62a650740c0631ad96e984cf43e8d78bd",
    "numbers": "bccf10dafcb1c2c01c1c89a8c40afa941ad1f32ce319f969e32d90676b52c4de",
    "conjecture": "51c2d9e4ce034e47b02dd1d6d27429a92c7707895664a618148d4f60ba1926a9",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_bytes(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == HELP_SHA256[command]


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
    code, out, _ = run_cli(["numbers", "--euler", "5"])
    assert code == 0 and out.strip().endswith("-50521")
    code, *_ = run_cli(["numbers"])
    assert code == 2


def test_conjecture_runs():
    code, out, _ = run_cli(["conjecture", "3", "--tau", "3,0", "--tau-prime", "1,0"])
    assert code == 0
    assert out.splitlines()[0] == "n,a2n_re,a2n_im"


def test_main_callable_directly():
    assert main(["numbers", "--euler", "2"]) == 0


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


# Each input misbehaved before option values were typed at the parser: a
# traceback, a printed nan, a silent pass or a message in another format.
BAD_INPUTS = [
    "table hermite 5 --tau abc",
    "table legendre 3 --tau abc",
    "table bessel 2 --grid 0,1",
    "table bessel 2 --grid=-1e308,1e308,3",
    "table laguerre 3 --tau 0",
    "theta --w-grid 1,2",
    "theta --w-grid=-1e308,1e308,3",
    "dist --w-grid 0,1,0",
    "dist --w-grid=-1e308,1e308,3",
    "dist --a abc",
    "dist --tau nan,0",
    "dist --m 0",
    "dist --m -2",
    "dist --side pv --a 1,0",
    "conjecture 3 --tau abc",
    "conjecture -1",
    "conjecture 0",
    "eval star --f w --g w --tau nan,0",
    "eval star --f w --g w --tau inf",
    "eval star --f w^2 --g w^2 --tau 1e308,0",
    "verify core --tol nan",
    "vertex --check witt --K -1",
    "numbers --euler -3",
    "numbers",
]


@pytest.mark.parametrize("line", BAD_INPUTS)
def test_bad_input_one_config_line(line, capsys):
    assert_config_error(capsys, main(line.split()))


@pytest.mark.parametrize("line", [
    "residue --radius 1e-300",
    "theta --tau 1e-300,0 --w-grid=-1,1,3",
    "dist --tau 1e-300,0",
    "table euler 2000",
    "numbers --bernoulli 1000",
])
def test_kernel_failure_one_error_line(line, capsys):
    """A contour sum that overflows, a theta series past its term budget, a
    Gaussian window past its panel budget and a half-series inversion past its
    order budget each raise a typed error promptly."""
    t0 = time.perf_counter()
    code = main(line.split())
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    assert code == 1 and "nan" not in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("line, code", [
    ("theta --tau=--", 2),
    ("residue --k=171", 2),
    ("residue --nu=1,1e308", 2),
    ("theta --w-grid=-1e308,0,2", 2),
    ("conjecture 2 --tau=10,1e308", 2),
    ("dist --side pv --m 172", 2),
    ("dist --tau=1,1e308", 1),
    ("table bessel 2 --a=1e308", 1),
    ("table bessel 2 --tau=1e308", 1),
    ("table bessel 3 --a=1,1e300", 1),
])
def test_extreme_option_values_one_line(line, code, capsys):
    """Finite values at the edge of the float range end in a typed error: no
    traceback out of main, no nan on stdout or in the message."""
    assert main(line.split()) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    prefix = "configuration error: " if code == 2 else "error: "
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith(prefix)
    assert "nan" not in captured.err


def test_exact_hermite_table_at_huge_tau(capsys):
    """The exact table never converts its coefficients to floats."""
    assert main(["table", "hermite", "5", "--tau=1e308"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith('5,"x^5 + 5')


def test_run_config_rejects_nan_tol():
    with pytest.raises(DomainError):
        RunConfig(tol=float("nan"))
    with pytest.raises(DomainError):
        RunConfig(grid=(0.0, 1.0, 1))


# --------------------------------------------------- generated option values

FINITE = st.sampled_from(["0", "1", "-1", "0.5", "-2.5", "3", "1e-3", "7.25"]) \
    | st.floats(-10, 10).map(repr)
EXTREME = st.sampled_from(["1e-300", "-1e-300", "1e308", "-1e308"])
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
    "table-count": (["table"], {"hermite": small_int(-3, 12), "laguerre": small_int(-3, 12),
                                "legendre": small_int(-3, 12), "euler": small_int(-3, 40),
                                "fourier": small_int(0, 3)}),
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
    "numbers": (["numbers"], {"--euler": small_int(-3, 30), "--bernoulli": small_int(-3, 30)}),
    "conjecture": (["conjecture"], {"--tau": SCALAR, "--tau-prime": SCALAR}),
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
    if command == "table-count":
        argv = [*base, name, value]
    else:
        pair = [f"{name}={value}"] if data.draw(st.booleans(), label="joined") else [name, value]
        count = [str(data.draw(st.integers(0, 4), label="count"))] \
            if command == "conjecture" else []
        argv = [*base, *pair, *count]
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
