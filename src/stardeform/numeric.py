"""Scalar backend shims.

All analytic kernels are written against plain arithmetic plus the few
transcendental calls below, so they run over float complex (cmath) or
mpmath.mpc (extended precision selected via STARDEFORM_PRECISION; callers scope
it with mpmath.workdps, the library never sets mpmath.mp.dps).  mpmath is
imported only on its own branches, so float work never loads it.
"""

from __future__ import annotations

import cmath
import math
import os
import sys

from .errors import DomainError
from .exact import QC


def is_mp(x) -> bool:
    """True for an mpmath number; with mpmath not loaded no value can be one."""
    if isinstance(x, (float, complex)):
        return False
    mpmath = sys.modules.get("mpmath")
    return mpmath is not None and isinstance(x, (mpmath.mpf, mpmath.mpc))


def to_complex(x) -> complex:
    if isinstance(x, QC):
        return x.to_complex()
    return complex(x)


def cexp(x):
    """exp(x); over float complex, raises DomainError where cmath.exp
    overflows or its argument is not finite."""
    if is_mp(x):
        import mpmath
        return mpmath.exp(x)
    try:
        return cmath.exp(to_complex(x))
    except (OverflowError, ValueError):
        raise DomainError(f"exp({x}) is outside the float range") from None


def csqrt(x):
    """Principal square root."""
    if is_mp(x):
        import mpmath
        return mpmath.sqrt(x)
    return cmath.sqrt(to_complex(x))


def cabs(x):
    """|x|: an mpmath.mpf for mpmath input, so it keeps its range and
    digits, else a float."""
    if is_mp(x):
        import mpmath
        return mpmath.fabs(x)
    if isinstance(x, QC):
        x = x.to_complex()
    return abs(x)


def pi_like(x):
    """Pi in the arithmetic of x."""
    if is_mp(x):
        import mpmath
        return mpmath.pi
    return math.pi


def env_precision_digits() -> int | None:
    """Extended-precision digit count from STARDEFORM_PRECISION, if set."""
    raw = os.environ.get("STARDEFORM_PRECISION")
    if not raw:
        return None
    try:
        d = int(raw)
    except ValueError:
        d = 0
    if d <= 0:
        raise DomainError(f"STARDEFORM_PRECISION must be a positive integer, got {raw!r}")
    return d
