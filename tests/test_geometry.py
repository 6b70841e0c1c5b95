"""Tests for ellipsoid geometry: constructors, transforms, densities."""

import hashlib
import math

import numpy as np
import pytest

from ellipsample import (
    DimensionMismatch,
    DimensionOutOfRange,
    Ellipsoid,
    NonpositiveRadius,
    NotARotation,
    RngStream,
    SingularShape,
    centre_from_foci,
    mc_volume,
    random_rotation,
    sample_batch,
    unit_ball_volume,
)
from ellipsample import geometry
from ellipsample.geometry import MEMBERSHIP_SLACK, _row_norms
from ellipsample.sampling import CHUNK_SIZE
from ellipsample.validation import PULLBACK_SLACK
from helpers import dense_shape, rand_ball_point, rand_ellipsoid


def rot2(degrees: float) -> np.ndarray:
    t = math.radians(degrees)
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


class TestUnitBallVolume:
    def test_interval(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)

    def test_disc(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)

    def test_3ball_closed_form(self):
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    def test_3ball_against_rejection_monte_carlo(self):
        # independent oracle: fraction of a 10^6-point cube sample inside the ball
        gen = np.random.default_rng(42)
        pts = gen.uniform(-1.0, 1.0, size=(1_000_000, 3))
        frac = ((pts * pts).sum(axis=1) <= 1.0).mean()
        estimate = 8.0 * frac
        stderr = 8.0 * math.sqrt(frac * (1.0 - frac) / 1_000_000)
        assert abs(unit_ball_volume(3) - estimate) <= 3.0 * stderr

    @pytest.mark.parametrize("n", [0, -1, 65])
    def test_dimension_range(self, n):
        with pytest.raises(DimensionOutOfRange):
            unit_ball_volume(n)


class TestConstructors:
    def test_from_shape_identity_is_unit_disc(self):
        e = Ellipsoid.from_shape(np.eye(2), [0.0, 0.0])
        assert e.contains([0.3, 0.4])
        assert not e.contains([2.0, 0.0])
        assert e.volume() == pytest.approx(math.pi, rel=1e-14)

    def test_from_shape_diagonal_scaling(self):
        e = Ellipsoid.from_shape(np.diag([2.0, 1.0]), [1.0, 0.0])
        np.testing.assert_allclose(e.bounding_halfwidths(), [2.0, 1.0])
        np.testing.assert_array_equal(e.centre, [1.0, 0.0])

    def test_from_shape_singular_rejected(self):
        with pytest.raises(SingularShape):
            Ellipsoid.from_shape([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_a_zero_row_is_singular_at_every_scale(self, scale):
        shape = scale * np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 1.0]])
        with pytest.raises(SingularShape, match="an LU pivot is exactly 0"):
            Ellipsoid.from_shape(shape, np.zeros(3))

    def test_a_determinant_that_underflows_is_stored_as_zero(self):
        # 40 radii of 1e-9: perfectly conditioned, |det| 1e-360.
        e = Ellipsoid.from_spec({"dim": 40, "radii": [1e-9] * 40})
        assert e.abs_det_shape == 0.0
        with pytest.raises(FloatingPointError, match="the volume underflows float64"):
            e.volume()
        batch = sample_batch(e, 100, 1)
        assert e.contains_many(batch.points).all()

    @pytest.mark.parametrize(
        "radii, centre",
        [([1e308], [0.0]), ([1.0], [1e308]), ([1e308], [1e308]), ([1e308, 1.0], [0.0, 0.0])],
    )
    def test_bounding_box_past_float64_rejected(self, radii, centre):
        # No point, or sum of two, may overflow; checked before the condition number.
        with pytest.raises(ValueError, match="not finite in float64"):
            Ellipsoid.from_spec({"dim": len(radii), "radii": radii, "centre": centre})

    def test_largest_finite_bounding_box_accepted(self):
        # 2 x (4e307 + 4e307) is finite, so the far end of the segment is too.
        e = Ellipsoid.from_spec({"dim": 1, "radii": [4e307], "centre": [4e307]})
        assert 2.0 * e.forward([1.0])[0] == 1.6e308

    @pytest.mark.parametrize("radius", [1e-320, 5e-309])
    def test_inverse_past_float64_rejected_as_not_finite(self, radius):
        # Perfectly conditioned, but 1 / radius overflows float64.
        with pytest.raises(ValueError, match="inverse of the shape is not finite in float64") as info:
            Ellipsoid.from_spec({"dim": 1, "radii": [radius]})
        assert not isinstance(info.value, SingularShape)

    def test_smallest_invertible_radius_accepted(self):
        e = Ellipsoid.from_spec({"dim": 1, "radii": [6e-309]})
        assert e.abs_det_shape == pytest.approx(6e-309, rel=1e-12)
        # Its volume, 1.2e-308, is below float64's normal range, so it is refused.
        with pytest.raises(FloatingPointError, match="the volume underflows float64"):
            e.volume()

    def test_from_shape_near_singular_rejected(self):
        with pytest.raises(SingularShape):
            Ellipsoid.from_shape([[1.0, 0.0], [0.0, 1e-13]], [0.0, 0.0])

    @pytest.mark.parametrize("n", [10, 64])
    def test_singularity_is_scale_free(self, n):
        # |det| is huge at scale 3 or tiny at unit scale with condition
        # number 1e6; neither shape is numerically singular
        for radii in ([3.0] + [2.0] * (n - 1), np.logspace(-6, 0, n)):
            e = Ellipsoid.from_radii_rotation(radii, random_rotation(n, RngStream(n)), np.zeros(n))
            assert e.abs_det_shape == pytest.approx(np.prod(radii), rel=1e-9)

    def test_from_shape_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ellipsoid.from_shape(np.eye(3), [0.0, 0.0])

    def test_cached_determinant_matches(self):
        e = rand_ellipsoid(4, RngStream(5))
        assert e.abs_det_shape == pytest.approx(abs(np.linalg.det(e.shape)), rel=1e-9)

    def test_immutable_after_construction(self):
        e = rand_ellipsoid(2, RngStream(6))
        with pytest.raises(ValueError):
            e.shape[0, 0] = 99.0
        with pytest.raises(ValueError):
            e.centre[0] = 99.0
        # the constructor copied its inputs, so mutating them is harmless
        shape = np.eye(2)
        e2 = Ellipsoid.from_shape(shape, [0.0, 0.0])
        shape[0, 0] = 5.0
        assert e2.shape[0, 0] == 1.0

    def test_from_quadratic_identity_is_unit_ball(self):
        e = Ellipsoid.from_quadratic(np.eye(3), np.zeros(3))
        np.testing.assert_allclose(e.shape, np.eye(3), atol=1e-14)

    def test_from_quadratic_quarter_form(self):
        # x^2/4 + y^2 <= 1 has radii (2, 1)
        e = Ellipsoid.from_quadratic(np.diag([0.25, 1.0]), np.zeros(2))
        np.testing.assert_allclose(e.bounding_halfwidths(), [2.0, 1.0], rtol=1e-12)
        assert e.contains([2.0, 0.0])
        assert not e.contains([2.0001, 0.0])

    def test_from_quadratic_membership_matches_form(self):
        m = np.diag([4.0, 1.0])
        e = Ellipsoid.from_quadratic(m, np.zeros(2))
        rng = RngStream(17)
        for _ in range(500):
            x = e.forward(rand_ball_point(2, rng))
            assert x @ m @ x <= 1.0 + 1e-9
        # the boundary point (1/2, 0) pulls back to the unit sphere
        assert np.linalg.norm(e.inverse([0.5, 0.0])) == pytest.approx(1.0, rel=1e-12)

    def test_from_cholesky_convention_identity(self):
        e = Ellipsoid.from_cholesky_convention(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(e.shape, np.eye(2))

    def test_from_cholesky_convention_radii_are_roots(self):
        e = Ellipsoid.from_cholesky_convention(np.diag([4.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(e.bounding_halfwidths(), [2.0, 1.0])

    def test_convention_discrepancy_documented(self):
        # same matrix, reciprocal radii: the two membership sets differ
        chol = Ellipsoid.from_cholesky_convention(np.diag([4.0, 1.0]), np.zeros(2))
        quad = Ellipsoid.from_quadratic(np.diag([4.0, 1.0]), np.zeros(2))
        probe = [1.5, 0.0]
        assert chol.contains(probe)
        assert not quad.contains(probe)

    def test_convention_duality(self):
        # from_quadratic(m) and from_cholesky_convention(m^-1) describe one set
        rng = RngStream(23)
        for n in [1, 2, 3, 5]:
            e_quad = rand_ellipsoid(n, rng.derive(n))
            m = np.linalg.inv(e_quad.shape @ e_quad.shape.T)
            a = Ellipsoid.from_quadratic(m, e_quad.centre)
            b = Ellipsoid.from_cholesky_convention(np.linalg.inv(m), e_quad.centre)
            child = rng.derive(100 + n)
            w = a.bounding_halfwidths()
            probes = (2.0 * np.asarray(child.uniforms((1000, n))) - 1.0) * (1.2 * w) + a.centre
            np.testing.assert_array_equal(a.contains_many(probes), b.contains_many(probes))

    def test_from_radii_rotation_unit_ball(self):
        e = Ellipsoid.from_radii_rotation([1.0, 1.0, 1.0], np.eye(3), np.zeros(3))
        np.testing.assert_allclose(e.shape, np.eye(3))

    def test_from_radii_rotation_quarter_turn_swaps_axes(self):
        e = Ellipsoid.from_radii_rotation([2.0, 1.0], rot2(90.0), np.zeros(2))
        np.testing.assert_allclose(e.bounding_halfwidths(), [1.0, 2.0], atol=1e-12)

    def test_reflection_rejected(self):
        with pytest.raises(NotARotation):
            Ellipsoid.from_radii_rotation([2.0, 1.0], np.diag([1.0, -1.0]), np.zeros(2))

    @pytest.mark.parametrize("radii", [[2.0, -1.0], [2.0, 0.0]])
    def test_nonpositive_radius_rejected(self, radii):
        with pytest.raises(NonpositiveRadius):
            Ellipsoid.from_radii_rotation(radii, np.eye(2), np.zeros(2))

    def test_centre_from_foci(self):
        np.testing.assert_array_equal(centre_from_foci([0.0, 0.0], [2.0, 0.0]), [1.0, 0.0])
        np.testing.assert_array_equal(centre_from_foci([1.5, -2.0], [1.5, -2.0]), [1.5, -2.0])
        np.testing.assert_array_equal(
            centre_from_foci([-1.0, 3.0, 5.0], [1.0, -3.0, -5.0]), [0.0, 0.0, 0.0]
        )
        with pytest.raises(DimensionMismatch):
            centre_from_foci([0.0, 0.0], [1.0, 2.0, 3.0])


class TestTransforms:
    def test_forward_identity(self):
        e = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(e.forward([0.3, 0.4]), [0.3, 0.4])

    def test_forward_direct_evaluation(self):
        e = Ellipsoid.from_shape(np.diag([2.0, 1.0]), [1.0, 0.0])
        np.testing.assert_allclose(e.forward([0.5, 0.5]), [2.0, 0.5])

    def test_forward_of_origin_is_centre(self):
        e = rand_ellipsoid(3, RngStream(7))
        np.testing.assert_array_equal(e.forward(np.zeros(3)), e.centre)

    def test_inverse_identity(self):
        e = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(e.inverse([0.3, 0.4]), [0.3, 0.4])

    def test_inverse_inverts_forward_example(self):
        e = Ellipsoid.from_shape(np.diag([2.0, 1.0]), [1.0, 0.0])
        np.testing.assert_allclose(e.inverse([2.0, 0.5]), [0.5, 0.5])

    def test_inverse_of_centre_is_origin(self):
        e = rand_ellipsoid(4, RngStream(8))
        np.testing.assert_allclose(e.inverse(e.centre), np.zeros(4), atol=1e-14)

    def test_dimension_mismatch(self):
        e = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            e.forward([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            e.inverse([1.0])
        with pytest.raises(DimensionMismatch):
            e.pullback(np.zeros((5, 3)))
        with pytest.raises(DimensionMismatch, match="rotation is 3x3 but there are 2 radii"):
            Ellipsoid.from_radii_rotation([2.0, 1.0], np.eye(3), np.zeros(2))

    def test_round_trip(self):
        rng = RngStream(33)
        for n in range(1, 11):
            e = rand_ellipsoid(n, rng.derive(n))
            for trial in range(20):
                u = rand_ball_point(n, rng.derive(1000 + 20 * n + trial))
                assert np.abs(e.inverse(e.forward(u)) - u).max() <= 1e-9

    def test_support(self):
        rng = RngStream(34)
        for n in [1, 2, 3, 6, 10]:
            e = rand_ellipsoid(n, rng.derive(n))
            for trial in range(50):
                u = rand_ball_point(n, rng.derive(500 + 50 * n + trial))
                assert e.contains(e.forward(u))

    def test_contains_trivials(self):
        disc = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        assert disc.contains(disc.centre)
        assert not disc.contains([2.0, 0.0])
        e = Ellipsoid.from_radii_rotation([2.0, 1.0], np.eye(2), np.zeros(2))
        assert e.contains([2.0, 0.0])  # boundary point on the major axis

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 10, 64])
    def test_contains_agrees_with_contains_many_at_boundary(self, n):
        # the unit ball pulls back exactly one by one and in a block, so
        # the membership rule alone decides points a few ulps off its edge
        ball = Ellipsoid.from_shape(np.eye(n), np.zeros(n))
        g = np.asarray(RngStream(190 + n).normals((50, n)))
        directions = g / np.linalg.norm(g, axis=1)[:, None]
        radii = (1.0 + MEMBERSHIP_SLACK) + np.arange(-8, 9) * np.finfo(float).eps
        pts = (directions[:, None, :] * radii[:, None]).reshape(-1, n)
        one_by_one = np.array([ball.contains(x) for x in pts])
        assert 0 < one_by_one.sum() < len(pts)
        np.testing.assert_array_equal(one_by_one, ball.contains_many(pts))

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 10, 17, 33, 64])
    def test_contains_agrees_with_contains_many_at_rotated_boundary(self, n):
        # a general ellipsoid pulls back inexactly, so a point within a few
        # ulps of its edge gets one verdict only if both paths round alike
        e = rand_ellipsoid(n, RngStream(90 + n))
        g = np.asarray(RngStream(190 + n).normals((200, n)))
        directions = g / np.linalg.norm(g, axis=1)[:, None]
        scale = (1.0 + MEMBERSHIP_SLACK) * (1.0 + np.arange(-8, 9) * 2.0**-52)
        pts = (directions[:, None, :] * scale[:, None]).reshape(-1, n) @ e.shape.T + e.centre
        one_by_one = np.array([e.contains(x) for x in pts])
        assert 0 < one_by_one.sum() < len(pts)
        np.testing.assert_array_equal(one_by_one, e.contains_many(pts))


# sha256 of the pull-back of CHUNK_SIZE + 37 rows on dense_shape(n), by dimension
PULLBACK_SHA256 = {
    17: "1db43b89715921423a61380158457cc9c016bf221bdc156af9cac0d0e6c303ef",
    33: "6771c946388529c0b71b3cd798d2870a2b20d5415651e80f30b37f46ff04172b",
    64: "13d3351779518835e6f9fe2ca841df940282f75a17aead23a3d7d883b1f4b6ea",
}


class TestPullbackKernel:
    """One row, a few rows, a chunk and a whole batch map to the same bits, either way."""

    # 17 and 33 are dimensions where BLAS rounds a small matrix product
    # differently from a large one, so block height must not matter there
    @pytest.mark.parametrize(
        "kind, n",
        [(kind, n) for kind in ("pullback", "forward") for n in (2, 10, 17, 33, 64)],
        ids=[f"{n}" for n in (2, 10, 17, 33, 64)] + [f"forward-{n}" for n in (2, 10, 17, 33, 64)],
    )
    def test_rows_independent_of_block_height(self, kind, n):
        if kind == "pullback":
            e = rand_ellipsoid(n, RngStream(70 + n))
            x = e.centre + np.asarray(RngStream(170 + n).normals((2 * CHUNK_SIZE + 7, n)))
            block, one_row = e.pullback, e.inverse
        else:
            e = rand_ellipsoid(n, RngStream(80 + n))
            x = np.asarray(RngStream(180 + n).normals((2 * CHUNK_SIZE + 7, n))) / math.sqrt(n)
            block, one_row = e._ball_image, e.forward
        whole = block(x)
        for start in (0, 1, 5, CHUNK_SIZE - 1):
            for k in (1, 2, 3, CHUNK_SIZE):
                rows = slice(start, start + k)
                np.testing.assert_array_equal(block(x[rows]), whole[rows])
            np.testing.assert_array_equal(one_row(x[start]), whole[start])

    @pytest.mark.parametrize("n", sorted(PULLBACK_SHA256))
    def test_bits_are_pinned(self, n):
        # the golden check cases use identity or 2-d shapes, which every
        # kernel maps exactly; a dense shape at these dims shows a kernel change
        gen = np.random.default_rng(1000 + n)
        e = Ellipsoid.from_shape(dense_shape(n), gen.standard_normal(n))
        pts = e.centre + gen.standard_normal((CHUNK_SIZE + 37, n))
        assert hashlib.sha256(e.pullback(pts).tobytes()).hexdigest() == PULLBACK_SHA256[n]

    def test_empty_block(self):
        e = rand_ellipsoid(3, RngStream(1))
        assert e.pullback(np.zeros((0, 3))).shape == (0, 3)
        assert e.contains_many(np.zeros((0, 3))).shape == (0,)
        assert e._ball_image(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("n", [10, 64])
    def test_boundary_accuracy_at_condition_1e6(self, n):
        radii = np.logspace(-6, 0, n)  # unit scale, condition number 1e6
        e = Ellipsoid.from_radii_rotation(radii, random_rotation(n, RngStream(7 + n)), np.zeros(n))
        g = np.asarray(RngStream(5).normals((2000, n)))
        edge = (g / np.linalg.norm(g, axis=1)[:, None]) @ e.shape.T
        norms = np.linalg.norm(e.pullback(edge), axis=1)
        assert np.abs(norms - 1.0).max() <= PULLBACK_SLACK


class TestForwardKernel:
    """The forward map writes into a caller's rows in place."""

    def test_fills_rows_of_a_larger_array_in_place(self):
        e = rand_ellipsoid(10, RngStream(3))
        u = np.asarray(RngStream(4).normals((CHUNK_SIZE + 5, 10))) / math.sqrt(10)
        out = np.full((CHUNK_SIZE + 20, 10), np.nan)
        rows = out[7 : 7 + u.shape[0]]
        assert e._ball_image(u, out=rows) is rows
        np.testing.assert_array_equal(rows, e._ball_image(u))
        assert np.isnan(out[:7]).all() and np.isnan(out[7 + u.shape[0] :]).all()

    def test_rejects_an_out_it_cannot_fill_in_place(self):
        e = rand_ellipsoid(3, RngStream(5))
        u = np.zeros((4, 3))
        with pytest.raises(ValueError):
            e._ball_image(u, out=np.empty((4, 6))[:, ::2])
        with pytest.raises(ValueError):
            e._ball_image(u, out=np.empty((5, 3)))
        with pytest.raises(DimensionMismatch):
            e._ball_image(np.zeros((4, 2)))


class TestVolumeAndDensity:
    def test_unit_disc_volume(self):
        assert Ellipsoid.from_shape(np.eye(2), np.zeros(2)).volume() == pytest.approx(math.pi)

    def test_ellipse_volume_against_monte_carlo(self):
        e = Ellipsoid.from_radii_rotation([2.0, 1.0], np.eye(2), np.zeros(2))
        # independent oracle: direct quadratic-form test, no package code
        gen = np.random.default_rng(7)
        x = gen.uniform(-2.0, 2.0, 1_000_000)
        y = gen.uniform(-1.0, 1.0, 1_000_000)
        frac = ((x / 2.0) ** 2 + y**2 <= 1.0).mean()
        estimate = 8.0 * frac
        stderr = 8.0 * math.sqrt(frac * (1.0 - frac) / 1_000_000)
        assert abs(e.volume() - estimate) <= 3.0 * stderr
        assert e.volume() == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_volume_rotation_invariant(self):
        for deg in [0.0, 17.0, 45.0, 90.0, 133.0]:
            e = Ellipsoid.from_radii_rotation([2.0, 1.0], rot2(deg), np.zeros(2))
            assert e.volume() == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_pdf_unit_disc(self):
        disc = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        assert disc.pdf([0.1, -0.2]) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert disc.pdf([5.0, 5.0]) == 0.0

    def test_pdf_matches_reciprocal_volume(self):
        e = Ellipsoid.from_radii_rotation([2.0, 1.0], rot2(30.0), [1.0, 0.0])
        assert e.pdf(e.centre) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        assert e.pdf(e.centre) == pytest.approx(1.0 / e.volume(), rel=1e-15)

    def test_pdf_constant_on_interior(self):
        rng = RngStream(44)
        e = rand_ellipsoid(3, rng)
        x1 = e.forward(rand_ball_point(3, rng))
        x2 = e.forward(rand_ball_point(3, rng))
        assert e.pdf(x1) == e.pdf(x2)  # exactly equal, same cached constant

    def test_normalization(self):
        rng = RngStream(45)
        for n in range(1, 11):
            e = rand_ellipsoid(n, rng.derive(n))
            assert abs(e.pdf(e.centre) * e.volume() - 1.0) <= 1e-12

    def test_rotation_invariance_of_density(self):
        rng = RngStream(46)
        radii = [1.7, 0.6, 2.4]
        c1 = random_rotation(3, rng.derive(1))
        c2 = random_rotation(3, rng.derive(2))
        e1 = Ellipsoid.from_radii_rotation(radii, c1, np.zeros(3))
        e2 = Ellipsoid.from_radii_rotation(radii, c2, np.zeros(3))
        assert e1.pdf(e1.centre) == pytest.approx(e2.pdf(e2.centre), rel=1e-12)

    def test_determinant_identity_for_radii(self):
        rng = RngStream(47)
        for n in range(1, 9):
            radii = 0.3 + 2.7 * np.asarray(rng.derive(n).uniforms(n))
            e = Ellipsoid.from_radii_rotation(radii, random_rotation(n, rng.derive(50 + n)), np.zeros(n))
            assert e.abs_det_shape == pytest.approx(float(np.prod(radii)), rel=1e-9)


class TestBoundingHalfwidths:
    def test_unit_ball(self):
        e = Ellipsoid.from_shape(np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(e.bounding_halfwidths(), [1.0, 1.0, 1.0])

    def test_axis_aligned(self):
        e = Ellipsoid.from_shape(np.diag([2.0, 1.0]), np.zeros(2))
        np.testing.assert_array_equal(e.bounding_halfwidths(), [2.0, 1.0])

    def test_rotated_against_grid_maximization(self):
        e = Ellipsoid.from_radii_rotation([2.0, 1.0], rot2(45.0), np.zeros(2))
        # oracle: maximize e_i . (shape @ u) over a fine grid of directions
        theta = np.linspace(0.0, 2.0 * math.pi, 200_001)
        boundary = np.asarray(e.shape) @ np.vstack([np.cos(theta), np.sin(theta)])
        oracle = np.abs(boundary).max(axis=1)
        np.testing.assert_allclose(e.bounding_halfwidths(), oracle, rtol=1e-8)
        np.testing.assert_allclose(e.bounding_halfwidths(), [math.sqrt(2.5)] * 2, rtol=1e-12)

    def test_box_contains_and_touches(self):
        rng = RngStream(55)
        e = rand_ellipsoid(3, rng)
        w = e.bounding_halfwidths()
        for trial in range(200):
            x = e.forward(rand_ball_point(3, rng.derive(trial)))
            assert np.all(np.abs(x - e.centre) <= w + 1e-12)
        # each face is touched: a unit direction along shape's row attains w_i
        shape = np.asarray(e.shape)
        for i in range(3):
            u = shape[i] / np.linalg.norm(shape[i])
            x = e.forward(u)
            assert abs(x[i] - e.centre[i]) == pytest.approx(w[i], rel=1e-12)

    def test_equals_the_unscaled_norm_where_its_squares_are_normal(self):
        rng = RngStream(57)
        for trial in range(400):
            n = 1 + trial % 64
            # entries within 1e+-100 square to normal floats; 10^+-(200/n) keeps
            # |det| inside float64, so every shape is accepted
            top = min(100.0, 200.0 / n)
            scale = 10.0 ** ((2.0 * float(rng.derive(trial).uniforms(1)[0]) - 1.0) * top)
            shape = scale * np.asarray(rng.derive(1000 + trial).normals((n, n)))
            e = Ellipsoid.from_shape(shape, np.zeros(n))
            np.testing.assert_array_equal(
                e.bounding_halfwidths(), np.sqrt((e.shape * e.shape).sum(axis=1))
            )

    def test_one_radius_is_its_own_halfwidth_at_every_scale(self):
        for j in range(-300, 301):
            r = 10.0**j
            assert Ellipsoid.from_shape([[r]], [0.0]).bounding_halfwidths()[0] == r

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_power_of_two_scaling_is_exact(self, n):
        # Past n = 1 the determinant of these shapes leaves float64, so the
        # ellipsoid is refused; bounding_halfwidths is _row_norms of its shape.
        shape = dense_shape(n)
        w = _row_norms(shape)
        for k in (-600, -500, 500, 600):
            np.testing.assert_array_equal(_row_norms(np.ldexp(shape, k)), np.ldexp(w, k))
        e = Ellipsoid.from_shape(shape, np.zeros(n))
        np.testing.assert_array_equal(e.bounding_halfwidths(), w)

    def test_computed_once_and_read_only(self, monkeypatch):
        e8 = rand_ellipsoid(8, RngStream(58))
        calls = []
        monkeypatch.setattr(geometry, "_row_norms", lambda m: calls.append(1) or _row_norms(m))
        mc_volume(e8, 100_000, RngStream(59))
        sample_batch(e8, 2000, 3, "ellipsoid_rejection")
        assert not calls
        with pytest.raises(ValueError):
            e8.bounding_halfwidths()[0] = 0.0


class TestSpecParsing:
    def test_shape_form(self):
        e = Ellipsoid.from_spec({"dim": 2, "shape": [[2.0, 0.0], [0.0, 1.0]], "centre": [1.0, 0.0]})
        np.testing.assert_array_equal(e.shape, [[2.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(e.centre, [1.0, 0.0])

    def test_quadratic_form(self):
        e = Ellipsoid.from_spec({"dim": 2, "quadratic": [[0.25, 0.0], [0.0, 1.0]]})
        np.testing.assert_allclose(e.bounding_halfwidths(), [2.0, 1.0], rtol=1e-12)
        np.testing.assert_array_equal(e.centre, [0.0, 0.0])

    def test_radii_with_default_rotation(self):
        e = Ellipsoid.from_spec({"dim": 2, "radii": [2.0, 1.0]})
        np.testing.assert_allclose(e.shape, np.diag([2.0, 1.0]))

    def test_radii_with_rotation(self):
        e = Ellipsoid.from_spec({"dim": 2, "radii": [2.0, 1.0], "rotation": rot2(90.0).tolist()})
        np.testing.assert_allclose(e.bounding_halfwidths(), [1.0, 2.0], atol=1e-12)

    def test_foci_override_centre(self):
        e = Ellipsoid.from_spec(
            {"dim": 2, "radii": [2.0, 1.0], "centre": [9.0, 9.0], "foci": [[0.0, 0.0], [2.0, 0.0]]}
        )
        np.testing.assert_array_equal(e.centre, [1.0, 0.0])

    @pytest.mark.parametrize(
        "spec",
        [
            {"dim": 2},  # no shape-defining key
            {"dim": 2, "shape": [[1, 0], [0, 1]], "radii": [1, 1]},  # two keys
            {"dim": 2, "shape": [[1, 0], [0, 1]], "rotation": [[1, 0], [0, 1]]},
            {"dim": 2, "radii": [1.0, 1.0], "bogus": 1},
            {"radii": [1.0, 1.0]},  # missing dim
            {"dim": 3, "radii": [1.0, 1.0]},  # dim disagrees
            {"dim": 2, "radii": [1.0, 1.0], "centre": [0.0]},
            {"dim": 2, "radii": [1.0, 1.0], "foci": [[0.0, 0.0]]},
            {"dim": 10**15, "radii": [1.0]},  # rejected before a default centre is allocated
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            Ellipsoid.from_spec(spec)

    @pytest.mark.parametrize("dim", [np.int64(2), np.int32(2), np.uint8(2)], ids=repr)
    def test_numpy_integer_dim_accepted(self, dim):
        assert Ellipsoid.from_spec({"dim": dim, "radii": [2.0, 1.0]}).dim == 2

    def test_provenance_round_trip(self):
        e = rand_ellipsoid(3, RngStream(66))
        rebuilt = Ellipsoid.from_spec(e.spec_dict())
        np.testing.assert_array_equal(rebuilt.shape, e.shape)
        np.testing.assert_array_equal(rebuilt.centre, e.centre)

