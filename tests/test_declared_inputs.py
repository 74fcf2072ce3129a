"""A verify suite's signature is the one statement of the options it reads.

`verify.run_suite` calls each suite with the options its signature names, so
the signatures are checked here against the option names of `stardeform
verify`, against the suite bodies, against the README's table of the options
each suite reads, and, for the float suites, against the reports.
"""

import argparse
import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from stardeform import verify
from stardeform.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

# the exact suites report 0.0 on success whatever their input, so only the
# float suites must show a declared option in their records
FLOAT_SUITES = ("starexp", "special", "theta", "dist", "residue")

# one alternative value per option, away from the parser's default
ALTERNATIVE = {"tau": 0.7 + 0.3j, "nu": 0.5 + 0.2j, "tol": 1e-9, "grid": (-3.0, 3.0, 33),
               "seed": 1}


def verify_parser() -> argparse.ArgumentParser:
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["verify"]


def options() -> set:
    """The options of `stardeform verify` that reach the suites."""
    return {a.dest for a in verify_parser()._actions if a.option_strings} - {"help", "format"}


def declared(suite) -> list:
    return list(inspect.signature(suite).parameters)


def names_read(fn) -> set:
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {n.id for n in ast.walk(tree.body[0])
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def readme_table(text: str) -> dict:
    """{option: set of suites} from the rows under '| Option | Suites that read
    it |', and '' -> the suites named as reading none of them."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if re.fullmatch(r"\| Option \| Suites that read it \|", line))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        option, suites = (cell.strip() for cell in line.strip("|").split("|"))
        table[option.strip("`").removeprefix("--")] = set(re.findall(r"`(\w+)`", suites))
    table[""] = set(re.findall(r"^`verify (\w+)` reads none of them", text, re.M))
    return table


def table_of_signatures() -> dict:
    table = {opt: {name for name, suite in verify.SUITES.items() if opt in declared(suite)}
             for opt in options()}
    table[""] = {name for name, suite in verify.SUITES.items() if not declared(suite)}
    return table


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_a_suite_declares_only_options_that_its_body_reads(name):
    suite = verify.SUITES[name]
    params = declared(suite)
    assert set(params) <= options(), f"suite_{name} takes a parameter that is no option"
    unread = set(params) - names_read(suite)
    assert not unread, f"suite_{name} declares {sorted(unread)} but never reads them"


def test_the_readme_table_equals_the_signatures():
    assert readme_table(README.read_text()) == table_of_signatures()


def test_the_parser_offers_every_suite():
    """The parser lists the suites by hand, so that it need not import numpy."""
    suite, = (a for a in verify_parser()._actions if a.dest == "suite")
    assert suite.choices == list(verify.SUITES) + ["all"]


@pytest.mark.parametrize("name, option", [(name, opt) for name in FLOAT_SUITES
                                          for opt in declared(verify.SUITES[name])])
def test_a_float_suite_report_moves_with_each_declared_option(name, option):
    args = vars(verify_parser().parse_args([name]))
    base = {opt: args[opt] for opt in options()}
    moved = {**base, option: ALTERNATIVE[option]}
    assert verify.run_suite(name, **base) != verify.run_suite(name, **moved)

