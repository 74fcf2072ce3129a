"""The one checked scalar call, cexp: cmath.exp with its overflow as a DomainError.

Kernels otherwise use plain arithmetic, abs, complex() (which rounds an exact
QC) and cmath.  A square root continued along a path (starexp.continue_sqrt)
samples each segment at 64 points and keeps each root on the branch nearer the
previous one; an exact tie takes the principal root.
"""

from __future__ import annotations

import cmath

from .errors import DomainError


def cexp(x):
    """exp(x); raises DomainError where cmath.exp overflows or its argument
    is not finite."""
    try:
        return cmath.exp(complex(x))
    except (OverflowError, ValueError):
        raise DomainError(f"exp({x}) is outside the float range") from None
