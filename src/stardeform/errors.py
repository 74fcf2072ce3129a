"""Error types shared across modules."""


class StarDeformError(Exception):
    pass


class DomainError(StarDeformError, ValueError):
    """Input outside the operation's validity region (e.g. Re tau <= 0)."""


class SingularPoint(StarDeformError):
    """Evaluation requested at (or too close to) the branching singularity."""


class SingularProduct(StarDeformError):
    """A pullback/pushforward denominator vanished in a Gaussian product."""


class QuadratureFailure(StarDeformError):
    """A quadrature did not meet its tail or refinement bound."""


class TruncationFailure(StarDeformError):
    """A truncated series did not meet its tail bound."""


class NodeCountError(StarDeformError):
    """A contour integral did not converge under node doubling."""


class DegenerateBoundary(StarDeformError):
    """The boundary-value system for the delta-pair solutions is singular."""


class NonUnit(StarDeformError):
    """Attempted to invert a series with vanishing constant term."""
