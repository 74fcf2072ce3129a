"""Scalar backend shims.

All analytic kernels are written against plain arithmetic plus the few
transcendental calls below, so they run over float complex (cmath) or
mpmath.mpc (extended precision selected via STARDEFORM_PRECISION; callers scope
it with mpmath.workdps, the library never sets mpmath.mp.dps).
"""

from __future__ import annotations

import cmath
import math
import os

import mpmath

from .errors import DomainError
from .exact import QC


def is_mp(x) -> bool:
    return isinstance(x, (mpmath.mpf, mpmath.mpc))


def to_complex(x) -> complex:
    if isinstance(x, QC):
        return x.to_complex()
    if is_mp(x):
        return complex(x)
    return complex(x)


def cexp(x):
    if is_mp(x):
        return mpmath.exp(x)
    return cmath.exp(to_complex(x))


def csqrt(x):
    """Principal square root."""
    if is_mp(x):
        return mpmath.sqrt(x)
    return cmath.sqrt(to_complex(x))


def cabs(x) -> float:
    if is_mp(x):
        return float(mpmath.fabs(x))
    if isinstance(x, QC):
        x = x.to_complex()
    return abs(x)


def pi_like(x):
    """Pi in the arithmetic of x."""
    return mpmath.pi if is_mp(x) else math.pi


def finite(x) -> bool:
    z = to_complex(x)
    return math.isfinite(z.real) and math.isfinite(z.imag)


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
