"""The checked exponentials, cexp on a scalar and exp_array on a grid, as_grid,
and worst_of, the one fold of residuals.

Kernels otherwise use plain arithmetic, abs, complex() (which rounds an exact
QC) and cmath.  The grid helpers import numpy when called, so the exact
commands never load it.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError


def cexp(x):
    """exp(x); raises DomainError where cmath.exp overflows or its argument
    is not finite."""
    try:
        return cmath.exp(complex(x))
    except (OverflowError, ValueError):
        raise DomainError(f"exp({x}) is outside the float range") from None


def exp_array(exponent):
    """np.exp(exponent()), the exponent formed with overflow warnings off; raises
    DomainError where the exponent or its exponential is not finite."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        z = exponent()
        out = np.exp(z)
    if not (np.isfinite(z).all() and np.isfinite(out).all()):
        raise DomainError("a tau-expression is outside the float range")
    return out


def as_grid(w_grid):
    """The points of w_grid as a complex array, each through complex()."""
    import numpy as np

    return np.asarray([complex(w) for w in w_grid])


def worst_of(values):
    """The largest of values, or nan if any value is nan.  Python's max keeps
    its running value against a nan that comes later, so a residual folded by
    max can drop a nan and pass; without a nan this is max(values)."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values)
