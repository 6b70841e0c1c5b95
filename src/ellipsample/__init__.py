"""Uniform random sampling from n-dimensional hyperellipsoids.

Points drawn uniformly from the unit n-ball stay uniform under any
invertible affine map, so an ellipsoid sample costs one ball sample and
that map, applied to a batch as one blocked matrix product.  This package
provides the geometry (constructors for the common matrix conventions,
membership, exact densities), the samplers (transform-based, rejection
oracles, a biased negative control), and the statistical machinery to
certify uniformity.
"""

from .errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    EllipsampleError,
    InsufficientSamples,
    NonpositiveRadius,
    NotARotation,
    NotPositiveDefinite,
    NotSymmetric,
    PointOutsideEllipsoid,
    SingularShape,
)
from .geometry import Ellipsoid, centre_from_foci, unit_ball_volume
from .sampling import RngStream, SampleBatch, random_rotation, sample_batch
from .validation import (
    BinPartition,
    TestReport,
    chi_square_two_sample,
    chi_square_uniformity,
    mc_volume,
    proof_identity_check,
    radial_ks,
    wilson_hilferty_critical,
)

__version__ = "0.1.0"

__all__ = [
    "BinPartition",
    "DimensionMismatch",
    "DimensionOutOfRange",
    "Ellipsoid",
    "EllipsampleError",
    "InsufficientSamples",
    "NonpositiveRadius",
    "NotARotation",
    "NotPositiveDefinite",
    "NotSymmetric",
    "PointOutsideEllipsoid",
    "RngStream",
    "SampleBatch",
    "SingularShape",
    "TestReport",
    "centre_from_foci",
    "chi_square_two_sample",
    "chi_square_uniformity",
    "mc_volume",
    "proof_identity_check",
    "radial_ks",
    "random_rotation",
    "sample_batch",
    "unit_ball_volume",
    "wilson_hilferty_critical",
]
