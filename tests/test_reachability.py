"""Every module-level function and class of the package, and every method of a
package class, serves the `stardeform` command: an AST walk from `cli.main`
reaches each one.

The walk follows, from a reached definition, every name in its body (methods,
decorators and defaults included) that resolves to a module-level definition:
a bare name defined in the same module, a name bound by `from .mod import name`
anywhere in the module, or `mod.name` for a module bound by `from . import mod`.
Reaching a module-level assignment (a table such as `verify.SUITES`) follows the
names in its value.  Code that only tests or demos use belongs in tests/ or
demos/, not in the package.

A method is reached when its class is reached and its name appears as an
attribute (`obj.name`, `cls.name`, `super().name`) in reached code.  The walk
cannot tell the type of `obj`, so any reached attribute of that name reaches
every reached class's method of that name.  Dunder methods are not checked:
operators, `len()`, `str()`, f-strings and the like call them implicitly,
which the walk cannot see, so a reached class's dunders count as reached and
the walk follows their bodies.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stardeform"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# overrides that a base class outside the package calls: argparse's parser
# calls error() and _get_values() on cli's ArgumentParser subclass
CALLED_FROM_OUTSIDE = {("cli", "_Parser.error"), ("cli", "_Parser._get_values")}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _namespace(tree):
    """(definitions, imports) of a module: definitions map a module-level def,
    class or assigned name, and each non-dunder method as "Class.method", to its
    node; imports map a bound name to (module, attribute), attribute None for a
    bound module."""
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, DEFS):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCS) and not _is_dunder(item.name):
                    defs[f"{node.name}.{item.name}"] = item
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                imports[bound] = (alias.name, None) if node.module is None \
                    else (node.module, alias.name)
    return defs, imports


def _own_nodes(node):
    """The nodes of a definition, without the bodies of a class's non-dunder
    methods, which the walk reaches on their own."""
    todo = [node]
    while todo:
        n = todo.pop()
        yield n
        for child in ast.iter_child_nodes(n):
            if not (isinstance(n, ast.ClassDef) and isinstance(child, FUNCS)
                    and not _is_dunder(child.name)):
                todo.append(child)


def reachable(trees: dict, roots: list) -> set:
    """(module, name) pairs reached from the roots; a method's name is
    "Class.method"."""
    spaces = {mod: _namespace(tree) for mod, tree in trees.items()}
    seen, todo, attrs = set(), list(roots), set()
    while todo:
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            mod, name = key
            defs, imports = spaces[mod]
            for node in _own_nodes(defs[name]):
                hit = None
                if isinstance(node, ast.Name):
                    if node.id in defs:
                        hit = (mod, node.id)
                    elif imports.get(node.id, (None, None))[1] is not None:
                        hit = imports[node.id]
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                    if isinstance(node.value, ast.Name):
                        target = imports.get(node.value.id)
                        if target and target[1] is None:
                            hit = (target[0], node.attr)
                if hit and hit[0] in spaces and hit[1] in spaces[hit[0]][0]:
                    todo.append(hit)
        # methods whose class is reached and whose name is a reached attribute
        for mod, (defs, _) in spaces.items():
            for name in defs:
                cls, _, meth = name.partition(".")
                if meth in attrs and (mod, cls) in seen and (mod, name) not in seen:
                    todo.append((mod, name))
    return seen


def test_every_definition_is_reachable_from_the_cli():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    seen = reachable(trees, [("cli", "main"), *CALLED_FROM_OUTSIDE])
    unreached = [f"{mod}.{name}" for mod, tree in trees.items()
                 for name, node in _namespace(tree)[0].items()
                 if isinstance(node, DEFS) and (mod, name) not in seen]
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
    seen = reachable({"cli": cli, "lib": lib}, [("cli", "main")])
    assert {("lib", "used"), ("lib", "helper"), ("lib", "via_module")} <= seen
    assert ("lib", "orphan") not in seen


def test_the_walk_reaches_methods_by_attribute_name():
    """A method is reached through an attribute of its name in reached code,
    a dunder through its class alone; a method named only inside an unreached
    method, or only by an unreached class, stays unreached."""
    cli = ast.parse("from .lib import Box\n"
                    "def main():\n    return Box().used()\n")
    lib = ast.parse("class Box:\n"
                    "    def __add__(self, other):\n        return self.via_dunder()\n"
                    "    def used(self):\n        return self._helper()\n"
                    "    def _helper(self):\n        pass\n"
                    "    def via_dunder(self):\n        pass\n"
                    "    def orphan(self):\n        return self.only_from_orphan()\n"
                    "    def only_from_orphan(self):\n        pass\n"
                    "class Unused:\n"
                    "    def used(self):\n        pass\n")
    seen = reachable({"cli": cli, "lib": lib}, [("cli", "main")])
    assert {("lib", "Box.used"), ("lib", "Box._helper"), ("lib", "Box.via_dunder")} <= seen
    assert not {("lib", "Box.orphan"), ("lib", "Box.only_from_orphan"),
                ("lib", "Unused"), ("lib", "Unused.used")} & seen
