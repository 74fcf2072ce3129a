"""Source-snippet mutants of package functions, for tests that pin which
checks fail when one line of a kernel is wrong."""

import inspect
import textwrap


def kernel_mutant(module, name, old, new):
    """module.<name> with its one occurrence of the source snippet old replaced
    by new, compiled over a copy of the module's globals."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1
    namespace = dict(vars(module))
    exec(src.replace(old, new), namespace)
    return namespace[name]
