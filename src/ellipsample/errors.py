"""Exception types shared across the package."""


class EllipsampleError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(EllipsampleError):
    """Operands have incompatible dimensions."""


class DimensionOutOfRange(EllipsampleError, ValueError):
    """Requested dimension is outside the supported range (also a ValueError)."""


class NotSymmetric(EllipsampleError):
    """Matrix is asymmetric beyond tolerance where symmetry is required."""


class NotPositiveDefinite(EllipsampleError):
    """A Cholesky pivot fell below the scale-aware positivity threshold."""


class SingularShape(EllipsampleError):
    """Shape matrix is singular (or numerically indistinguishable from it)."""


class NotARotation(EllipsampleError):
    """Matrix is not a proper rotation (orthogonal with determinant +1)."""


class NonpositiveRadius(EllipsampleError):
    """An ellipsoid radius is zero or negative."""


class InsufficientSamples(EllipsampleError):
    """Sample count is too small for the requested statistical procedure."""


class PointOutsideEllipsoid(EllipsampleError):
    """A batch point pulls back outside the unit ball; the batch is corrupt."""
