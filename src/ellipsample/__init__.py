"""Uniform random sampling from n-dimensional hyperellipsoids.

Points drawn uniformly from the unit n-ball stay uniform under any
invertible affine map, so an ellipsoid sample costs one ball sample and
that map, applied to a batch as one blocked matrix product.  This package
provides the geometry (constructors for the common matrix conventions,
membership, exact densities), the samplers (transform-based, rejection
oracles, a biased negative control), and the statistical machinery to
certify uniformity.

The namespace is lazy (PEP 562): a name in ``__all__`` is looked up on
first access in ``errors``, ``geometry``, ``sampling`` and ``validation``,
in that order, importing each in turn.  Each of them imports only from the
ones before it (and the private ``linalg``), so the first that holds the
name is its defining module, and an error class loads no numpy.  So
``import ellipsample`` loads no numpy either, and ``__main__`` can cap
OpenBLAS's threads before numpy starts them.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # what static tools see; at run time __getattr__ imports these
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

_MODULES = ("errors", "geometry", "sampling", "validation")


def __getattr__(name: str):
    if name in __all__:
        for module in _MODULES:
            namespace = vars(importlib.import_module(f".{module}", __name__))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
