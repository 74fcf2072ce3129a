"""Every module-level function and class of the package serves the `stardeform`
command: an AST walk from `cli.main` reaches each one.

The walk follows, from a reached definition, every name in its body (methods,
decorators and defaults included) that resolves to a module-level definition:
a bare name defined in the same module, a name bound by `from .mod import name`
anywhere in the module, or `mod.name` for a module bound by `from . import mod`.
Reaching a module-level assignment (a table such as `verify.SUITES`) follows the
names in its value.  Code that only tests or demos use belongs in tests/ or
demos/, not in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stardeform"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _namespace(tree):
    """(definitions, imports) of a module: definitions map a module-level def,
    class or assigned name to its node; imports map a bound name to (module,
    attribute), attribute None for a bound module."""
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, DEFS):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                imports[bound] = (alias.name, None) if node.module is None \
                    else (node.module, alias.name)
    return defs, imports


def reachable(trees: dict) -> set:
    """(module, name) pairs reached from cli.main."""
    spaces = {mod: _namespace(tree) for mod, tree in trees.items()}
    seen, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod, name = key
        defs, imports = spaces[mod]
        for node in ast.walk(defs[name]):
            hit = None
            if isinstance(node, ast.Name):
                if node.id in defs:
                    hit = (mod, node.id)
                elif imports.get(node.id, (None, None))[1] is not None:
                    hit = imports[node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = imports.get(node.value.id)
                if target and target[1] is None:
                    hit = (target[0], node.attr)
            if hit and hit[0] in spaces and hit[1] in spaces[hit[0]][0]:
                todo.append(hit)
    return seen


def test_every_definition_is_reachable_from_the_cli():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    seen = reachable(trees)
    unreached = [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
                 if isinstance(node, DEFS) and (mod, node.name) not in seen]
    assert unreached == []


def test_the_walk_reaches_through_tables_and_module_imports():
    """Negative and positive controls on a two-module package."""
    cli = ast.parse("from . import lib\nfrom .lib import used\n"
                    "TABLE = {'x': lib.via_module}\n"
                    "def main():\n    return used(), TABLE\n")
    lib = ast.parse("def used():\n    return helper()\n"
                    "def helper():\n    pass\n"
                    "def via_module():\n    pass\n"
                    "def orphan():\n    pass\n")
    seen = reachable({"cli": cli, "lib": lib})
    assert {("lib", "used"), ("lib", "helper"), ("lib", "via_module")} <= seen
    assert ("lib", "orphan") not in seen
