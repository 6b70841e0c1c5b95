"""The package's public names: a new export, or a dropped one, must be deliberate."""

import ellipsample

PUBLIC_NAMES = {
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
}


def test_all_is_pinned():
    assert len(ellipsample.__all__) == len(PUBLIC_NAMES) == 25
    assert set(ellipsample.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in ellipsample.__all__:
        assert getattr(ellipsample, name) is not None, name
