"""Every line of the package runs under some `stardeform` command.

The test runs every entry of the command table (`tests/commands.py`)
in-process through `cli.main`, with stdout and stderr captured and COLUMNS=80,
under a `sys.settrace` line trace of the package's frames (the trace in place
before is restored after).  It checks each entry's exit code, stdout sha256
and stderr line as the table's runner does, so a command that starts failing
early fails here rather than shrinking what the trace sees.

It then fails on any statement in a function body of the package that no
command ran.  Three kinds of statement are exempt: a `raise`, a
`return NotImplemented`, and the body of a `__repr__`, which only failure
reports call.  Any other statement that no command runs is deleted, or is
named in ALLOWLIST by (module, function, stripped first line of the
statement) with exactly one of these reasons:

- FAILURE: the failure branch of a check, naming the verify record (anchor)
  whose failure runs it;
- GUARD: a guard on degenerate or out-of-range input, naming the tier-1 test
  that feeds it;
- PLATFORM: an interpreter or platform path;
- REFERENCE: arithmetic that a tier-1 reference needs, naming the test;
- PENDING: the polynomial prefactor of the Gaussian heat flow, which no
  verify record multiplies yet.

An alias such as `__radd__ = __add__` shares its original's lines, so while
the commands run each one records its calls (`recorded_aliases`); an alias that
no command calls fails unless ALLOWLIST names it by (module, "Class.name",
"name = original").

An entry that names no statement or alias fails, and so does one (PLATFORM
aside, as those run on some interpreters only) that names a statement a
command runs or an alias a command calls.

Module-level tables and constants leave no line of their own, so the test also
fails on a module-level assigned name or class that no traced line reads.  A
read counts when it sits in a statement that ran, is exempt or is allowlisted;
in the header of a function that ran; or in the value of a module-level name
or class that is itself read.

The commands need numpy and the package only, and so does this module.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import stardeform
from commands import TABLE, failures, run_in_process
from stardeform import cli

PACKAGE = Path(stardeform.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

FAILURE, GUARD, PLATFORM, REFERENCE, PENDING = \
    "failure", "guard", "platform", "reference", "pending"

_HEAT_FLOW_PREFACTOR = "no verify record applies the heat flow to a non-constant prefactor"

# (module, function, stripped first line of the statement): (reason, what it names)
ALLOWLIST = {
    ("cli", "_Parser._get_values",
     'self.error(f"argument {action.option_strings[0]}: expected one argument")'):
        (PLATFORM, "argparse before 3.12 stores [] for '--opt=--'"),
    **{("cli", "main", line): (PLATFORM, "the reader of stdout closed the pipe")
       for line in ("devnull = os.open(os.devnull, os.O_WRONLY)",
                    "os.dup2(devnull, sys.stdout.fileno())", "os.close(devnull)",
                    "return 0")},
    ("core", "_intertwine_gaussian", "return ExactPoly.from_form([], [], 1)"):
        (GUARD, "test_core.py::test_intertwine_integer_route_equals_loop"),
    ("halfseries", "hs_mul", "return HalfSeries(ExactPoly.from_form([], [], 1), K)"):
        (GUARD, "test_halfseries.py::test_mul_equals_reference"),
    ("starexp", "_segment_distance", "return abs(p - a)"):
        (GUARD, "test_starexp.py::test_quad_exponential_law_samples"),
    ("starexp", "continue_sqrt", "return []"):
        (GUARD, "test_starexp.py::test_quad_exponential_law_samples"),
    ("starexp", "quad_exponential_law", "paths.append([])"):
        (GUARD, "test_starexp.py::test_quad_exponential_law_samples"),
    ("starexp", "quad_exponential_law", "continue"):
        (GUARD, "test_starexp.py::test_quad_exponential_law_samples"),
    ("starexp", "_segment_distance",
     "return _segment_distance(p * 2.0 ** -600, a * 2.0 ** -600, b * 2.0 ** -600) * 2.0 ** 600"):
        (GUARD, "test_starexp.py::test_a_long_segment_gives_its_distance"),
    **{("starexp", name, line):
       (GUARD, "test_starexp.py::test_a_batch_row_is_its_element_call_bit_for_bit")
       for name, line in (
           ("_range_error", 'return DomainError("a tau-expression is outside the float range" '
                            'if fail == 1'),
           ("gauss_batch", "z, e, vals = (x[None] for x in _gauss_formula(*members[0][1],"))},
    ("starexp", "leg_path", "return PathParam([p for _, p in pts])"):
        (GUARD, "test_starexp.py::test_triple_transport_sign_matches_the_reference_continuation"),
    **{("verify", "suite_core", f"{name} = 1"): (FAILURE, anchor) for name, anchor in (
        ("worst_comm", "product-commutativity"), ("worst_assoc", "product-associativity"),
        ("worst_cocycle", "intertwiner-cocycle"), ("worst_hom", "intertwiner-homomorphism"))},
    ("verify", "suite_core", "rec_ok = False"): (FAILURE, "deformed-power-recurrence"),
    ("verify", "suite_halfseries", "ok = False"): (FAILURE, "inverse-unique-involutive"),
    ("verify", "suite_starexp", "worst = math.inf"): (FAILURE, "quadratic-exponential-law"),
    ("verify", "suite_dist", "worst = math.inf"): (FAILURE, "associativity-break"),
    **{("specialfn", "hermite_checks", f"{name} = False"): (FAILURE, anchor)
       for name, anchor in (("rec_ok", "hermite-recurrence"), ("ode_ok", "hermite-ode"),
                            ("ladder_ok", "hermite-derivative-ladder"))},
    **{("specialfn", "hermite_convolution_scale", line): (FAILURE, "hermite-convolution-scale")
       for line in ("if acc == target:", "return 0", "return None")},
    ("vertex", "_commutator_sweep", "return False"): (FAILURE, "witt-identity"),
    ("vertex", "truncation_stability", "return False"): (FAILURE, "truncation-stability"),
    # the closed form of [y_l, y_m] holds a_j at even j for odd l + m
    ("vertex", "laurent_coefficient_ring", "return CoeffRing()"):
        (REFERENCE, "test_acceptance.py::test_criterion_13_delta_support_as_stated"),
    ("core", "Poly.x", "return Poly([0, 1])"): (PENDING, _HEAT_FLOW_PREFACTOR),
    **{("starexp", "heat_apply", line): (PENDING, _HEAT_FLOW_PREFACTOR) for line in (
        "def w_op(q: Poly) -> Poly:", "cs = g.poly.coeffs", "q = Poly.const(cs[-1])",
        "for c in reversed(cs[:-1]):", "q = w_op(q) + Poly.const(c)",
        "return GaussPoly(q, alpha2, beta2, pref2, logamp2, g.sheet)")},
    ("starexp", "heat_apply.w_op",
     "return Poly.x() * q + (q.deriv() + q * Poly([beta2, 2 * alpha2])).scale(2 * theta)"):
        (PENDING, _HEAT_FLOW_PREFACTOR),
}


def traced_lines(root: Path, run) -> set:
    """(file, line) of every line under root that run() runs, traced with
    sys.settrace; the trace in place before is restored."""
    prefix = str(root)
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(before)
    return hit


def run_table() -> list:
    """[(argv, what it got wrong)] for each TABLE entry that fails its checks,
    run in-process through cli.main.  The package's functools caches are
    emptied first, so that a cached body runs here whatever ran before in the
    process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("stardeform."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    return [(entry.argv, wrong) for entry in TABLE
            if (wrong := failures(entry, *run_in_process(cli.main, entry.argv)))]


@contextlib.contextmanager
def recorded_aliases(prefix: str):
    """Yield ({key: (class, name, function)}, the keys called) for each
    attribute of a class in the modules under prefix that is the same function
    as another attribute of its class, as `__radd__ = __add__` is, with key
    (module, "Class.name", "name = original").  Each is swapped for a wrapper
    that records its call while the block runs, and restored after."""
    found, called = {}, set()
    for name, module in list(sys.modules.items()):
        if not name.startswith(prefix):
            continue
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == name:
                for attr, value in vars(cls).items():
                    if inspect.isfunction(value) and attr != value.__name__ \
                            and vars(cls).get(value.__name__) is value:
                        found[(name[len(prefix):], f"{cls.__name__}.{attr}",
                               f"{attr} = {value.__name__}")] = (cls, attr, value)

    def recorder(key, func):
        def wrapper(*args, **kwargs):
            called.add(key)
            return func(*args, **kwargs)
        return wrapper

    for key, (cls, attr, func) in found.items():
        setattr(cls, attr, recorder(key, func))
    try:
        yield found, called
    finally:
        for cls, attr, func in found.values():
            setattr(cls, attr, func)


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Statement:
    """One statement of a function body, keyed by (module, function, stripped
    first line)."""

    def __init__(self, module: str, function: str, node, source: list):
        self.module, self.function, self.node = module, function, node
        self.key = (module, function, source[node.lineno - 1].strip())
        self.exempt = (isinstance(node, ast.Raise) or function.endswith("__repr__")
                       or (isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
                           and node.value.id == "NotImplemented"))

    def ran(self, lines: set) -> bool:
        """A line of the statement's own code ran: a compound statement's header
        (or its first body statement, as `try:` and `while True:` may leave no
        line of their own), a def's decorators and signature, all of a simple
        statement."""
        return any(n in lines for n in _own_lines(self.node)) or (
            isinstance(self.node, (ast.While, ast.Try))
            and any(n in lines for n in _own_lines(self.node.body[0])))


def _own_lines(stmt) -> range:
    end = stmt.end_lineno
    if isinstance(stmt, (ast.If, ast.While)):
        end = stmt.test.end_lineno
    elif isinstance(stmt, ast.For):
        end = stmt.iter.end_lineno
    elif isinstance(stmt, ast.With):
        end = stmt.items[-1].context_expr.end_lineno
    elif isinstance(stmt, (*FUNCS, ast.ClassDef)):
        end = stmt.body[0].lineno - 1
    elif isinstance(stmt, ast.Try):
        end = stmt.lineno
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    return range(first, end + 1)


def _assigned(node) -> list:
    """The names a module-level assignment binds, or the name of a class."""
    if isinstance(node, ast.ClassDef):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _resolver(module: str, tree):
    """resolve(node): the (module, name) a Name or `mod.name` read refers to,
    through the module's own top-level names and its `from .x import y` and
    `from . import x` bindings; None for any other node."""
    own = {n.name for n in tree.body if isinstance(n, (*FUNCS, ast.ClassDef))}
    own.update(name for n in tree.body for name in _assigned(n))
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imports[alias.asname or alias.name] = \
                    (alias.name, None) if node.module is None else (node.module, alias.name)

    def resolve(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in own:
                return module, node.id
            target = imports.get(node.id)
            return target if target and target[1] is not None else None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = imports.get(node.value.id)
            if target and target[1] is None:
                return target[0], node.attr
        return None
    return resolve


class Package:
    """From the source of each module under root: the function-body
    statements, the module-level names, and every read of one with its owner,
    the code that must run for the read to count."""

    def __init__(self, root: Path):
        self.statements, self.names, self.reads, self.paths = [], set(), [], {}
        for path in sorted(root.glob("*.py")):
            module, text = path.stem, path.read_text()
            tree = ast.parse(text)
            self.paths[module] = str(path)
            self._module, self._source = module, text.splitlines()
            self._resolve = _resolver(module, tree)
            self._walk(tree, None, "", ("always",))

    def _walk(self, node, function, prefix, owner):
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    self._visit(child, node, function, prefix, owner)

    def _visit(self, child, parent, function, prefix, owner):
        if isinstance(child, ast.stmt):
            if function is not None:
                if isinstance(parent, FUNCS) and child is parent.body[0] \
                        and isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                    return                              # a docstring runs no code
                self.statements.append(Statement(self._module, function, child, self._source))
                owner = ("stmt", self.statements[-1])
            elif isinstance(parent, ast.Module) and _assigned(child):
                names = [(self._module, n) for n in _assigned(child)]
                self.names.update(n for n in names if not n[1].startswith("__"))
                owner = ("names", names)
        target = self._resolve(child)
        if target:
            self.reads.append((owner, target))
        if isinstance(child, FUNCS):
            name = (function + "." if function else prefix) + child.name
            self._walk(child, name, prefix, owner if function else ("ran", name))
        elif isinstance(child, ast.ClassDef) and function is None:
            self._walk(child, None, prefix + child.name + ".", owner)
        else:
            self._walk(child, function, prefix, owner)

    def unreached(self, hit: set, allowlist: dict) -> tuple:
        """(statements that did not run, neither exempt nor allowlisted;
        module-level names that no counted read reads; statements that ran)."""
        lines = {m: {n for p, n in hit if p == path} for m, path in self.paths.items()}
        ran = {s for s in self.statements if s.ran(lines[s.module])}
        functions_ran = {s.function for s in ran}
        used = set()

        def holds(owner) -> bool:
            if owner[0] == "stmt":
                s = owner[1]
                return s in ran or s.exempt or s.key in allowlist
            if owner[0] == "ran":
                return owner[1] in functions_ran
            if owner[0] == "names":
                return any(n in used for n in owner[1])
            return True

        while new := {t for owner, t in self.reads if t not in used and holds(owner)}:
            used |= new
        missed = [s for s in self.statements
                  if s not in ran and not s.exempt and s.key not in allowlist]
        return missed, sorted(self.names - used), ran


def test_every_statement_and_name_is_reached_by_a_listed_command(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")             # the width of the help pins
    package = Package(PACKAGE)
    for module in pkgutil.iter_modules([str(PACKAGE)]):
        importlib.import_module(f"stardeform.{module.name}")
    wrong = []
    with recorded_aliases("stardeform.") as (found, called):
        hit = traced_lines(PACKAGE, lambda: wrong.extend(run_table()))
    assert wrong == []
    missed, unused, ran = package.unreached(hit, ALLOWLIST)
    assert sorted({s.key for s in missed}) == []
    assert unused == []
    assert sorted(k for k in found if k not in called and k not in ALLOWLIST) == []
    # each allowlist entry names a statement or an alias that no command runs,
    # PLATFORM aside
    assert sorted(set(ALLOWLIST) - {s.key for s in package.statements} - set(found)) == []
    never = {s.key for s in package.statements if s not in ran} | (set(found) - called)
    assert sorted(k for k, (reason, _) in ALLOWLIST.items()
                  if reason != PLATFORM and k not in never) == []


def test_every_allowlist_entry_gives_one_reason():
    """A FAILURE entry names a verify record, a GUARD or REFERENCE entry a
    tier-1 test; the PENDING entries are the heat flow's prefactor branch."""
    records = (PACKAGE / "verify.py").read_text()
    for key, (reason, what) in ALLOWLIST.items():
        assert reason in (FAILURE, GUARD, PLATFORM, REFERENCE, PENDING) and what, key
        if reason == FAILURE:
            assert f'"{what}"' in records, key
        if reason in (GUARD, REFERENCE):
            path, test = what.split("::")
            assert f"def {test}(" in (TESTS / path).read_text(), key
        if reason == PENDING:
            assert key[:2] in {("core", "Poly.x"), ("starexp", "heat_apply"),
                               ("starexp", "heat_apply.w_op")}, key


CONTROL_MAIN = '''\
from . import other
from .other import TABLE

UNUSED = 1
ONLY_UNRUN = 2
VIA_MODULE = 3


class Box:
    def __init__(self, x):
        self.x = x

    def twice(self):
        """Twice x."""
        return 2 * self.x

    def never(self):
        return ONLY_UNRUN

    def __add__(self, y):
        return Box(self.x + y)

    __radd__ = __add__

    def __mul__(self, k):
        return Box(self.x * k)

    __rmul__ = __mul__


def main(x):
    if x > 5:
        x = 5
    while True:
        break
    return (2 * Box(x) + 0).twice() + TABLE[0] + VIA_MODULE + other.via_attribute()


def unrun():
    raise ValueError(UNUSED)
'''

CONTROL_OTHER = '''\
BASE = 4
TABLE = [BASE]
DEAD = [BASE]


def via_attribute():
    return 0
'''


def _trace_control(tmp_path):
    """The control package ctlpkg (main.py and other.py), the lines that a
    call of main.main(1) runs in it, its aliases and those the call called."""
    pkg = tmp_path / "ctlpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "main.py").write_text(CONTROL_MAIN)
    (pkg / "other.py").write_text(CONTROL_OTHER)
    sys.path.insert(0, str(tmp_path))
    try:
        from ctlpkg import main
        with recorded_aliases("ctlpkg.") as (found, called):
            hit = traced_lines(pkg, lambda: main.main(1))
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m.startswith("ctlpkg")]:
            del sys.modules[name]
    return Package(pkg), hit, found, called


def test_the_trace_sees_branches_and_methods(tmp_path):
    """Control: an untaken branch and an unrun method are reported, a method
    run through an attribute and a raise are not, and an allowlisted statement
    is not reported."""
    package, hit, _, _ = _trace_control(tmp_path)
    missed, _, _ = package.unreached(hit, {})
    assert sorted(s.key for s in missed) == [("main", "Box.never", "return ONLY_UNRUN"),
                                             ("main", "main", "x = 5")]
    missed, _, _ = package.unreached(hit, {("main", "main", "x = 5"): (GUARD, "")})
    assert [s.key for s in missed] == [("main", "Box.never", "return ONLY_UNRUN")]


def test_the_trace_sees_reads_through_tables_and_imports(tmp_path):
    """Control: names read only in unrun code or in an unread table are
    reported; names read through a table, an import, a module attribute or a
    raise are not."""
    package, hit, _, _ = _trace_control(tmp_path)
    _, unused, _ = package.unreached(hit, {})
    assert unused == [("main", "ONLY_UNRUN"), ("other", "DEAD")]


def test_the_trace_sees_which_aliases_are_called(tmp_path):
    """Control: an alias reached through its reflected operator is recorded;
    one whose original alone is called is not, and both are restored after."""
    _, _, found, called = _trace_control(tmp_path)
    assert sorted(found) == [("main", "Box.__radd__", "__radd__ = __add__"),
                             ("main", "Box.__rmul__", "__rmul__ = __mul__")]
    assert sorted(called) == [("main", "Box.__rmul__", "__rmul__ = __mul__")]
    assert all(vars(cls)[attr] is func for cls, attr, func in found.values())
