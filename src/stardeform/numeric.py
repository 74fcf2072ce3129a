"""Scalar helpers.

All analytic kernels are written against plain arithmetic plus the few
transcendental calls below, so they run over float complex (cmath); each
helper also accepts an exact QC, which it rounds to complex first.
"""

from __future__ import annotations

import cmath

from .errors import DomainError
from .exact import QC


def to_complex(x) -> complex:
    if isinstance(x, QC):
        return x.to_complex()
    return complex(x)


def cexp(x):
    """exp(x); raises DomainError where cmath.exp overflows or its argument
    is not finite."""
    try:
        return cmath.exp(to_complex(x))
    except (OverflowError, ValueError):
        raise DomainError(f"exp({x}) is outside the float range") from None


def csqrt(x):
    """Principal square root."""
    return cmath.sqrt(to_complex(x))


def cabs(x):
    """|x|."""
    if isinstance(x, QC):
        x = x.to_complex()
    return abs(x)
