"""Tests for ball/ellipsoid samplers, the RNG stream, and batch generation."""

import math

import numpy as np
import pytest

from ellipsample import (
    DimensionOutOfRange,
    Ellipsoid,
    RngStream,
    SampleBatch,
    chi_square_two_sample,
    radial_ks,
    random_rotation,
    sample_batch,
    unit_ball_volume,
)
from ellipsample.linalg import is_rotation
from ellipsample.sampling import CHUNK_SIZE, METHODS, _ball_chunk, _box_rejection_chunk
from helpers import rand_ellipsoid


def ellipse_2x1_at_1_0() -> Ellipsoid:
    return Ellipsoid.from_radii_rotation([2.0, 1.0], np.eye(2), [1.0, 0.0])


def unit_ball(n: int) -> Ellipsoid:
    """The unit n-ball: its batch points are exactly the ball draws."""
    return Ellipsoid.from_shape(np.eye(n), np.zeros(n))


def ball_norms(n: int, count: int, seed: int) -> np.ndarray:
    return np.linalg.norm(sample_batch(unit_ball(n), count, seed).points, axis=1)


class TestRngStream:
    def test_equal_seeds_equal_sequences(self):
        a, b = RngStream(42), RngStream(42)
        np.testing.assert_array_equal(a.uniforms(5), b.uniforms(5))
        np.testing.assert_array_equal(a.normals(3), b.normals(3))

    def test_different_seeds_differ(self):
        assert RngStream(1).uniforms(1)[0] != RngStream(2).uniforms(1)[0]

    def test_derive_is_pure(self):
        # deriving depends only on (seed, path), not on consumed state
        a = RngStream(9)
        a.uniforms(100)
        assert a.derive(3).uniforms(1)[0] == RngStream(9).derive(3).uniforms(1)[0]

    def test_children_are_distinct(self):
        root = RngStream(5)
        vals = {root.derive(i).uniforms(1)[0] for i in range(10)}
        vals.add(RngStream(5).uniforms(1)[0])
        assert len(vals) == 11

    def test_nested_derivation(self):
        a, b = RngStream(7).derive(1).derive(2), RngStream(7).derive(1).derive(2)
        assert a.uniforms(1)[0] == b.uniforms(1)[0]

    def test_seed_range(self):
        RngStream(0)
        RngStream(2**64 - 1)
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)

    def test_negative_child_index(self):
        with pytest.raises(ValueError):
            RngStream(1).derive(-1)


class TestSampleUnitBall:
    def test_deterministic(self):
        np.testing.assert_array_equal(
            sample_batch(unit_ball(2), 100, 42).points, sample_batch(unit_ball(2), 100, 42).points
        )

    def test_all_inside(self):
        assert ball_norms(3, 10_000, 3).max() <= 1.0

    def test_radius_power_law(self):
        # r = u^(1/n) makes ||x||^n uniform on (0,1), mean 1/2
        n = 100_000
        t = ball_norms(4, n, 4) ** 4
        stderr = t.std(ddof=1) / math.sqrt(n)
        assert abs(t.mean() - 0.5) <= 3.0 * stderr

    @pytest.mark.parametrize("n", [0, 65])
    def test_dimension_range(self, n):
        with pytest.raises(DimensionOutOfRange):
            sample_batch(unit_ball(n), 1, 1)

    def test_zero_norm_gaussian_redrawn(self):
        class StubStream(RngStream):
            # first Gaussian block is all zeros; the sampler must redraw
            def __init__(self):
                super().__init__(123)
                self.gaussian_calls = 0

            def normals(self, size):
                self.gaussian_calls += 1
                if self.gaussian_calls == 1:
                    return np.zeros(size)
                return super().normals(size)

        stub = StubStream()
        point = _ball_chunk(3, 1, stub, 1.0 / 3.0)[0]
        assert stub.gaussian_calls >= 2
        assert 0.0 < np.linalg.norm(point) <= 1.0


class TestSampleEllipsoid:
    def test_unit_disc_equals_ball_sampler(self):
        x = sample_batch(unit_ball(2), 100, 42).points
        u = _ball_chunk(2, 100, RngStream(42).derive(0), 0.5)
        np.testing.assert_array_equal(x, u)

    def test_mean_is_centre(self):
        e = ellipse_2x1_at_1_0()
        pts = sample_batch(e, 100_000, 11).points
        stderr = pts.std(axis=0, ddof=1) / math.sqrt(pts.shape[0])
        assert np.all(np.abs(pts.mean(axis=0) - e.centre) <= 3.0 * stderr)

    def test_half_fraction_above_centre(self):
        e = ellipse_2x1_at_1_0()
        pts = sample_batch(e, 100_000, 12).points
        frac = (pts[:, 0] > e.centre[0]).mean()
        stderr = math.sqrt(0.25 / pts.shape[0])
        assert abs(frac - 0.5) <= 3.0 * stderr

    def test_all_contained(self):
        e = rand_ellipsoid(3, RngStream(13))
        assert bool(e.contains_many(sample_batch(e, 2000, 14).points).all())


class TestEllipsoidRejection:
    def test_1d_accepts_everything(self):
        # the bounding box of a segment is the segment itself
        seg = Ellipsoid.from_shape([[1.0]], [0.0])
        _, attempts, accepted = _box_rejection_chunk(seg, 10_000, RngStream(5))
        assert attempts == accepted

    def test_unit_disc_acceptance_rate(self):
        disc = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        _, attempts, accepted = _box_rejection_chunk(disc, 50_000, RngStream(15))
        rate = accepted / attempts
        stderr = math.sqrt(rate * (1.0 - rate) / attempts)
        assert abs(rate - math.pi / 4.0) <= 3.0 * stderr

    def test_acceptance_rate_matches_volume_ratio(self):
        e = rand_ellipsoid(2, RngStream(16))
        _, attempts, accepted = _box_rejection_chunk(e, 50_000, RngStream(17))
        box_volume = float(np.prod(2.0 * e.bounding_halfwidths()))
        expected = e.volume() / box_volume
        rate = accepted / attempts
        stderr = math.sqrt(rate * (1.0 - rate) / attempts)
        assert abs(rate - expected) <= 3.0 * stderr

    def test_outputs_contained(self):
        e = rand_ellipsoid(3, RngStream(18))
        batch = sample_batch(e, 1000, 19, "ellipsoid_rejection")
        assert bool(e.contains_many(batch.points).all())

    def test_dimension_cap(self):
        with pytest.raises(DimensionOutOfRange):
            sample_batch(unit_ball(13), 10, 1, "ellipsoid_rejection")


class TestBiasedSampler:
    def test_1d_identical_to_uniform(self):
        # u^(1/1) = u: in one dimension the bias vanishes
        seg = Ellipsoid.from_shape([[3.0]], [1.0])
        np.testing.assert_array_equal(
            sample_batch(seg, 100, 21, "biased").points, sample_batch(seg, 100, 21).points
        )

    def test_2d_mean_radius_is_half(self):
        e = ellipse_2x1_at_1_0()
        n = 100_000
        r_biased = np.linalg.norm(e.pullback(sample_batch(e, n, 22, "biased").points), axis=1)
        stderr = r_biased.std(ddof=1) / math.sqrt(n)
        assert abs(r_biased.mean() - 0.5) <= 3.0 * stderr  # E[u] = 1/2
        uniform = sample_batch(e, n, 23).points
        r_uniform = np.linalg.norm(e.pullback(uniform), axis=1)
        stderr_u = r_uniform.std(ddof=1) / math.sqrt(n)
        assert abs(r_uniform.mean() - 2.0 / 3.0) <= 3.0 * stderr_u  # E[u^(1/2)] = 2/3

    def test_outputs_contained(self):
        e = rand_ellipsoid(2, RngStream(24))
        assert bool(e.contains_many(sample_batch(e, 1000, 25, "biased").points).all())


class TestSampleBatch:
    def test_deterministic(self):
        e = ellipse_2x1_at_1_0()
        a = sample_batch(e, 100, 7)
        b = sample_batch(e, 100, 7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_seed_sensitivity(self):
        e = ellipse_2x1_at_1_0()
        assert not np.array_equal(sample_batch(e, 100, 7).points, sample_batch(e, 100, 8).points)

    def test_chunk_layout_prefix(self):
        # chunk i depends only on (seed, i): a shorter batch is a prefix at chunk boundaries
        e = rand_ellipsoid(3, RngStream(26))
        longer = sample_batch(e, 3 * CHUNK_SIZE + 5, 9)
        shorter = sample_batch(e, 2 * CHUNK_SIZE, 9)
        np.testing.assert_array_equal(longer.points[: 2 * CHUNK_SIZE], shorter.points)

    @pytest.mark.parametrize("method", METHODS)
    def test_all_points_contained(self, method):
        e = rand_ellipsoid(2, RngStream(27))
        batch = sample_batch(e, 20_000, 10, method)
        assert bool(e.contains_many(batch.points).all())

    def test_provenance(self):
        e = ellipse_2x1_at_1_0()
        batch = sample_batch(e, 50, 31, "transform")
        assert batch.seed == 31
        assert batch.method == "transform"
        assert batch.dim == 2
        assert batch.count == 50
        rebuilt = Ellipsoid.from_spec(batch.ellipsoid_spec)
        np.testing.assert_array_equal(rebuilt.shape, e.shape)
        np.testing.assert_array_equal(rebuilt.centre, e.centre)

    def test_points_immutable(self):
        batch = sample_batch(ellipse_2x1_at_1_0(), 10, 1)
        with pytest.raises(ValueError):
            batch.points[0, 0] = 99.0

    def test_invalid_method(self):
        with pytest.raises(ValueError, match=r"method must be one of .*'bogus'"):
            sample_batch(ellipse_2x1_at_1_0(), 10, 1, "bogus")
        with pytest.raises(ValueError):
            SampleBatch(2, np.zeros((1, 2)), 0, "bogus", {})

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_batch(ellipse_2x1_at_1_0(), 0, 1)

    def test_rejection_dimension_cap(self):
        # rejection refuses n = 13 whatever the shape
        with pytest.raises(DimensionOutOfRange):
            sample_batch(rand_ellipsoid(13, RngStream(20)), 10, 1, "ellipsoid_rejection")


class TestDistributionalInvariants:
    def test_pulled_back_radii_uniform(self):
        # ||inverse(x)||^n ~ U(0,1): KS D below 1.95/sqrt(N) at N = 1e5
        e = rand_ellipsoid(3, RngStream(28))
        batch = sample_batch(e, 100_000, 41)
        report = radial_ks(batch, e)
        assert report.passed, report.as_dict()

    @pytest.mark.parametrize("dim,shells", [(2, 8), (3, 4)])
    def test_transform_agrees_with_rejection_oracle(self, dim, shells):
        # 32-bin two-sample comparison in both dimensions
        e = rand_ellipsoid(dim, RngStream(29 + dim))
        a = sample_batch(e, 100_000, 51, "transform")
        b = sample_batch(e, 100_000, 52, "ellipsoid_rejection")
        report = chi_square_two_sample(a, b, e, shells=shells, alpha=0.001)
        assert report.dof == shells * 2**dim - 1
        assert report.passed, report.as_dict()

    def test_negative_control_fails_ks(self):
        e = ellipse_2x1_at_1_0()
        batch = sample_batch(e, 100_000, 61, "biased")
        report = radial_ks(batch, e)
        assert not report.passed
        # analytic sup gap between sqrt(t) and t is 0.25
        assert report.statistic > 0.2


class TestRandomRotation:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_proper_rotation(self, n):
        assert is_rotation(random_rotation(n, RngStream(70 + n)))

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_rotation(4, RngStream(71)), random_rotation(4, RngStream(71))
        )


def test_rejection_rate_constant_matches_volume():
    # on the unit ball, box rejection sizes its proposal blocks from this ratio; sanity-check it
    for n in range(1, 13):
        assert 0.0 < unit_ball_volume(n) / 2.0**n <= 1.0 + 1e-12
