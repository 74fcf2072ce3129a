"""No knob without a caller: every keyword default of the package is varied by
the package's own calls, and some package call uses it.

For each `def` in `src/stardeform` (methods included, constructors excepted)
and each of its parameters that has a default, the test collects the calls in
the package that name the function, by bare name (`f(...)`) or as an attribute
(`obj.f(...)`, `mod.f(...)`).  A call gives the parameter the source text of its
argument, or the default's text where it leaves the argument out.  Those calls
must give the parameter at least two distinct values; otherwise the default is a
fixed numerical choice and belongs in a module constant, or, where the argument
is data, in a required parameter.  At least one of them must also leave the
argument out; otherwise no package call reads the default, and the parameter
is required.  Tests, demos and `bench/` are not callers: a value that only they
pass, or a default that only they read, does not make a knob.

A second rule keeps the package's value types slotted classes: no module of
the package imports `dataclasses`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stardeform"

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# (module.function, parameter) pairs whose default is varied outside the package
EXEMPT = {
    # the console script calls main() bare; tests and bench/worker.py pass argv
    ("cli.main", "argv"),
    # bench/probes.py calls integrate_segment without n_panels, so the default
    # is part of the benchmark's interface
    ("quadrature.integrate_segment", "n_panels"),
}


def _defs(tree):
    """(qualified name, def node, implicit leading parameters) for every def of
    a module except constructors; a method's self or cls is implicit."""
    out = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, FUNCS):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if node.name != "__init__":
                    out.append((prefix + node.name, node, int(in_class and not static)))
                visit(node.body, f"{prefix}{node.name}.", False)
    visit(tree.body, "", False)
    return out


def _defaulted(node, implicit):
    """{parameter: (positional index or None, default text)}."""
    args = node.args
    positional = args.posonlyargs + args.args
    out = {}
    for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        out[arg.arg] = (positional.index(arg) - implicit, ast.unparse(default))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out[arg.arg] = (None, ast.unparse(default))
    return out


def _calls(trees):
    """{called name: [call node]} over every call in the package."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _value(call, param, index):
    """The source text a call gives a parameter, or None where it leaves the
    argument out; a starred argument that could reach it is a value of its own."""
    for kw in call.keywords:
        if kw.arg == param:
            return ast.unparse(kw.value)
    if index is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return ast.unparse(arg)
            if i == index:
                return ast.unparse(arg)
    if any(kw.arg is None for kw in call.keywords):
        return "**"
    return None


def unvaried(trees: dict) -> list:
    """'module.function(parameter)' for every defaulted parameter that the
    package's calls give fewer than two distinct values, or that every one of
    them passes."""
    calls = _calls(trees)
    out = []
    for mod, tree in trees.items():
        for qualname, node, implicit in _defs(tree):
            for param, (index, default) in _defaulted(node, implicit).items():
                if (f"{mod}.{qualname}", param) in EXEMPT:
                    continue
                given = [_value(call, param, index) for call in calls.get(node.name, [])]
                values = {default if v is None else v for v in given}
                if len(values) < 2 or None not in given:
                    out.append(f"{mod}.{qualname}({param})")
    return out


def test_every_keyword_default_is_varied_by_a_package_call():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    fixed = unvaried(trees)
    assert not fixed, f"{len(fixed)} keyword defaults that no package call both varies " \
        "and leaves out: " + ", ".join(fixed)


def imports_dataclasses(tree) -> bool:
    """Whether a module imports dataclasses, by `import` or `from ... import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            return True
    return False


def test_no_module_imports_dataclasses():
    """A frozen dataclass costs about 4 times a slotted class to build (0.94
    against 0.22 us for GaussPoly on a 2-core x86-64 host, Python 3.11), and
    verify starexp builds hundreds of GaussPolys."""
    assert [path.stem for path in sorted(PACKAGE.glob("*.py"))
            if imports_dataclasses(ast.parse(path.read_text()))] == []
    assert imports_dataclasses(ast.parse("def f():\n    import dataclasses\n"))
    assert imports_dataclasses(ast.parse("from dataclasses import dataclass, field\n"))
    assert not imports_dataclasses(ast.parse("from .core import Poly\nimport dataclass_like\n"))


def test_the_exemptions_name_live_parameters():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    live = {(f"{mod}.{qualname}", param) for mod, tree in trees.items()
            for qualname, node, implicit in _defs(tree)
            for param in _defaulted(node, implicit)}
    assert EXEMPT <= live


def test_a_knob_needs_two_values_from_the_package():
    """Negative and positive controls on a two-module package: Box.grow is
    varied, but every call passes k, so its default has no caller."""
    lib = ast.parse("def varied(x, n=4):\n    pass\n"
                    "def fixed(x, n=4):\n    pass\n"
                    "def never_called(x, n=4):\n    pass\n"
                    "class Box:\n"
                    "    def __init__(self, n=1):\n        pass\n"
                    "    def grow(self, k=2):\n        pass\n")
    cli = ast.parse("from . import lib\n"
                    "def main():\n"
                    "    lib.varied(1)\n    lib.varied(2, 8)\n"
                    "    lib.fixed(1, n=4)\n    lib.fixed(2)\n"
                    "    b = lib.Box()\n    b.grow(3)\n    b.grow(k=5)\n")
    assert sorted(unvaried({"cli": cli, "lib": lib})) == \
        ["lib.Box.grow(k)", "lib.fixed(n)", "lib.never_called(n)"]
