"""stardeform: deformed products on one-variable function algebras.

Library layout:
    core           star product on exact and float polynomials, intertwiners, deformed powers
    starexp        Gaussian-exponential family, sheets/branch tracking, product laws
    specialfn      Hermite / Bessel / Legendre / Laguerre families
    theta          Jacobi theta functions as deformed exponential series
    distributions  star-delta calculus, sided inverses, Y/sgn, transforms
    residue        Laurent/residue calculus at the branching point, covariant flow
    halfseries     exact half-series algebra, Euler/Bernoulli numbers
    vertex         truncated formal bracket system (loop algebra / Witt action)
    verify         named identity suites behind the CLI
    cli            `stardeform` command line entry point
"""

from .core import (ExactPoly, Poly, star_product, intertwine, w_star_power,
                   infinitesimal_intertwiner)
from .exact import QC

__all__ = [
    "ExactPoly", "Poly", "star_product", "intertwine", "w_star_power",
    "infinitesimal_intertwiner", "QC",
]

__version__ = "0.1.0"
