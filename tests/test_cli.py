"""Command-line surface: subcommands, exit codes, output formats, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stardeform.cli import main, parse_poly, poly_to_str
from stardeform.core import Poly
from stardeform.exact import QC
from stardeform.errors import DomainError
from stardeform.residue import CONTOUR_NODE_BUDGET
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
    # tau read exactly as 3333333333333333/5000000000000000, not rounded to 2/3
    "table laguerre 6 --tau=0.6666666666666666,0":
        "f7865a7656e39f295e32d4ebc5a8305f0c8b5fae79dbe98fb67f1f99025813e5",
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
    # a zero, a constant and int-only operands: prints 0, w^2 + 1, 6, w^4 + w^2 + 1/8
    "eval star --f 0 --g w^2 --tau 1,0.5 --rational":
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "eval star --f w --g w --tau 2,0 --rational":
        "27d070d55efeaccaa3884e2723a5f774ffdf3a06f46368b23fc97fa2f5a6aea0",
    "eval star --f 2 --g 3 --tau 0,0 --rational":
        "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
    "eval star --f w^2 --g w^2 --tau 0.5,0 --rational":
        "6c7821b63f37f8ede6a647848197ea124b3951a15bebe974e2242a58d0b7c7c2",
    # the half-series commands: hs_mul, hs_inverse and the Euler/Bernoulli extraction
    "table euler 120": "22d426a1ab0e4b0cce79f2fb5d7161b765edfa1ff742f8ada36ba73597cf7aad",
    "table bernoulli 120": "8156610c75b9ed2420388ae4aad3ce31f94ca9dff29691bb98492890a03e77a3",
    "table euler 60": "b42cfeb809e48e155fcb37a4aad11daff49b9139ddc8f3255b1e8bbb35f81214",
    "table bernoulli 60": "3871ad0ad206633b56c5ccd3b33b7df36db499ac520d3be14824661c179c427a",
    "verify halfseries --seed 1":
        "b26dfef3e2348e6b431baa0ea8f1026a4d97916aac21e6c726288a0f325b4da7",
    "verify halfseries --seed 20261018":
        "38f8e95010f6930c461cf0b75606f24d3e0131cf5259608ec7aa9366cd07bbe1",
    # sizes whose series truncation is 2N + 2 < 24, and a core draw at a second seed
    "table bernoulli 10": "d36b86499d016d165a2059b3bb0ecdcbba5ec90af8c5fedee0e181aa53bb190f",
    "table euler 20": "d64fefb7cdbac858dda5ffbc8f83907ca2f1f92f773f35d0a020ed0985316ef1",
    "table euler 10": "a43e60510e7b115bbe2f9bfe569ee6834795ec0022f01486cad17c917bfcf8fa",
    # an odd count prints the even count below it: the odd Euler numbers are 0
    "table euler 11": "a43e60510e7b115bbe2f9bfe569ee6834795ec0022f01486cad17c917bfcf8fa",
    "table bernoulli 21": "80d51e8a77b74358de90ee8ce591ed2b30ffe1c7717d66602564c69410a2c507",
    "verify core --seed 20261018":
        "3db18d4cf0c1871e781aafc67188141e0ade4759ecc6d77b42093e9cea101eb2",
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
    # central at the smallest grades (at K = 0 the ring cap K + 2 zeroes
    # a_{-7}, whose coefficient l - m is 0), at the verify grade and at
    # GRADE_BUDGET, as printed when central parts were compared as ring values
    "vertex --check central --K 0":
        (1, "7796051f682fc8f263df9200bb379acaec3cea1f280a995a707254954fd56d66"),
    "vertex --check central --K 1":
        (1, "636201f3a9b65a2f18440e2f3ab84bb0977d1d48a47bf3758ca85d6d2147cc0f"),
    "vertex --check central --K 2":
        (1, "121ac3ca0596ca7fa11aa2c32a6f8d1de29aba10a6ba3eac6551139ffd1c01b9"),
    "vertex --check central --K 6":
        (1, "8fb997e83939cae42b2b0ae87e5d8d6b7f0a5e5fa11d7a3192c011d6a5daf7ad"),
    "vertex --check central --K 128":
        (1, "6a03110fc52f8e9577164b11ff2adf72c12d35a81357f78d239a2eaca88c10a0"),
    "vertex --check central --K 8":
        (1, "d7f3316b9a5781964e7175c92340b53b194f7a9d4b9a67bd9ca17538116af84b"),
    "vertex --check central --K 32":
        (1, "7fe3efacf59147659d4b7b1ce0d2dae1ceb98732d8a0fba59a967ba01da720d4"),
    "vertex --check kcentral --K 32":
        (0, "cc4f9253deef291c9491fbcb52ec9da1b0ba9ec34684aae9daaed53136ef0797"),
    # the sweeps cut their probes at K: at K = 0 no grade rises past the
    # constant term, and K = 6 is the grade verify vertex compares
    "vertex --check witt --K 0":
        (0, "ecdc07f35dfafa80832d346629d3d00785ce7fb4bc7230e803e056c35d901301"),
    "vertex --check witt --K 8":
        (0, "509876ca36c39c7ee06409be8d793a08aa65aa694edd984c8981a15bb727bb5d"),
    "vertex --check kcentral --K 0":
        (0, "8725cc6f6b34ccb27584cb1e9ed4a878c00d8535da0862f28ed228b9fe0af4af"),
    "vertex --check kcentral --K 6":
        (0, "a75b9d99076fe3379a57000a4d133272e5b4812c572f2adae00d1eae9be8f03f"),
}


@pytest.mark.parametrize("line", sorted(VERTEX_CHECK_SHA256))
def test_vertex_check_report_bytes(line):
    code, out = run_main(line.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERTEX_CHECK_SHA256[line]


# sha256 of `stardeform [command] --help` at 80 columns, as printed when the
# parser was built on every call (Python 3.11 argparse); the top level and the
# table pins as printed once each table family took only the options it reads
HELP_SHA256 = {
    "": "cb54e25bdc86d5002af9ab0a40ceec89b1ce1190744808f13597e6aac411b067",
    "verify": "c95f3fc91042682020a9307d144fae905ed7a1587d0de915593e066013c61a44",
    "table": "6a8a72f8a3d6d7c3fdf05596b4f6321951c8b811536a3b2a8409f284a7e75d85",
    "table euler": "d0173ca380d004a4881f5b0b4c9ccd24525ee82198405468867a6ae550559004",
    "table hermite": "57f440ad85f7a89bba58b9e49d4fb57c5b5642b0c55c546eba02e43f62d4785b",
    "table bessel": "1a7da089cf7aa36e9fdf1a2b49b702a147b8286e72216a9ec2ed1b7e3ef08cd6",
    "eval": "2191e2f86f96b0d86ce22af292fd311d0a5668258e8cefd803231696671e6ab0",
    "eval star": "cf209edef299ffc70e6ddf9df4ec47f1e928b0ddb23ce302b4411ee8037934ff",
    "theta": "8fd0ba2d31b957a4559404ba3631ec8e09d6c47a919a819319da33dc5d77181c",
    "residue": "bdfce3e08f2c12b5b291333bbf7e3fc211e22b219ceb9424ed801259de9dc430",
    "dist": "bb3b90ffed0e552d7b15e662e1bfd44abf67c16ae281d28cfdf7bc338e5707d6",
    "vertex": "c39077f50548542bf36a6aeb08ae57d62a650740c0631ad96e984cf43e8d78bd",
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
    # not a subcommand
    "conjecture 3 --tau abc",
    "conjecture -1",
    "conjecture 0",
    "eval star --f w --g w --tau nan,0",
    "eval star --f w --g w --tau inf",
    "eval star --f w^2 --g w^2 --tau 1e308,0",
    "verify core --tol nan",
    "vertex --check witt --K -1",
    "table euler -3",
    "table euler",
    # options that the family does not read
    "table euler 12 --tau=0.5,0",
    "table hermite 6 --a=2",
    # a nonzero number below the float range, which an exact command would
    # otherwise read at any exponent
    "table hermite 3 --tau=1e-400",
    "table hermite 3 --tau=0e99999999999999999999",
    "eval star --f=1e-400*w --g=w --rational",
    # not subcommands since the tables took the numbers
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
    "table bernoulli 2000",
    # a coefficient past the interpreter's integer-to-text limit
    "table hermite 60 --tau=1e308",
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
    ("conjecture 2 --tau=10,1e308", 2),        # not a subcommand
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
