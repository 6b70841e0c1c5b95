"""Tests for ball/ellipsoid samplers, the RNG stream, and batch generation."""

import math
import time

import numpy as np
import pytest

from ellipsample import (
    DimensionOutOfRange,
    Ellipsoid,
    RngStream,
    SampleBatch,
    chi_square_two_sample,
    chi_square_uniformity,
    mc_volume,
    radial_ks,
    random_rotation,
    sample_batch,
    unit_ball_volume,
)
from ellipsample import sampling
from ellipsample.linalg import is_rotation
from ellipsample.sampling import (
    CHUNK_SIZE, MAX_DRAWS, METHODS, PIECE_FLOATS, _box_rejection_chunk, _check_request,
    _transform_chunk,
)
from helpers import dense_shape, rand_ellipsoid


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

    def test_repr_names_seed_and_spawn_key(self):
        assert repr(RngStream(5).derive(3)) == "RngStream(seed=5, spawn_key=(3,))"


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
        point = _transform_chunk(unit_ball(3), stub, 1.0 / 3.0, np.empty((1, 3)))[0]
        assert stub.gaussian_calls >= 2
        assert 0.0 < np.linalg.norm(point) <= 1.0


class TestSampleEllipsoid:
    def test_unit_disc_equals_ball_sampler(self):
        # The identity map moves no bit of the ball points it is handed.
        x = sample_batch(unit_ball(2), 100, 42).points
        stream = RngStream(42).derive(0)
        g = stream.normals((100, 2))
        u = g * (stream.uniforms(100) ** 0.5 / np.linalg.norm(g, axis=1))[:, None]
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


def box_rejection_chunk(e: Ellipsoid, m: int, rng: RngStream) -> tuple[int, int]:
    """(attempts, accepted) of ``_box_rejection_chunk`` on m rows, at ``sample_batch``'s rate."""
    rate = _check_request(e, m, "ellipsoid_rejection")
    return _box_rejection_chunk(e, rng, rate, np.empty((m, e.dim)))


class TestEllipsoidRejection:
    def test_1d_accepts_everything(self):
        # the bounding box of a segment is the segment itself
        seg = Ellipsoid.from_shape([[1.0]], [0.0])
        attempts, accepted = box_rejection_chunk(seg, 10_000, RngStream(5))
        assert attempts == accepted

    def test_unit_disc_acceptance_rate(self):
        disc = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        attempts, accepted = box_rejection_chunk(disc, 50_000, RngStream(15))
        rate = accepted / attempts
        stderr = math.sqrt(rate * (1.0 - rate) / attempts)
        assert abs(rate - math.pi / 4.0) <= 3.0 * stderr

    def test_acceptance_rate_matches_volume_ratio(self):
        e = rand_ellipsoid(2, RngStream(16))
        attempts, accepted = box_rejection_chunk(e, 50_000, RngStream(17))
        box_volume = float(np.prod(2.0 * e.bounding_halfwidths()))
        expected = e.volume() / box_volume
        rate = accepted / attempts
        stderr = math.sqrt(rate * (1.0 - rate) / attempts)
        assert abs(rate - expected) <= 3.0 * stderr

    def test_outputs_contained(self):
        e = rand_ellipsoid(3, RngStream(18))
        batch = sample_batch(e, 1000, 19, "ellipsoid_rejection")
        assert bool(e.contains_many(batch.points).all())

    def test_stops_at_the_pass_that_fills_the_rows(self):
        disc = unit_ball(2)
        out = np.empty((50_000, 2))
        attempts, accepted = _box_rejection_chunk(disc, RngStream(15), math.pi / 4.0, out)
        # one rate-sized block would leave about 12.5k inside proposals over
        assert 0 <= accepted - 50_000 < PIECE_FLOATS // 2
        # the rows are the first inside proposals of one read of the stream
        props = 2.0 * RngStream(15).uniforms((attempts, 2)) - 1.0
        inside = props[disc.contains_many(props)]
        assert len(inside) == accepted
        np.testing.assert_array_equal(out, inside[:50_000])

    def test_dimension_cap(self):
        # the one 1..64 rule; past 12 dimensions only the draw budget limits rejection
        assert bool(unit_ball(13).contains_many(
            sample_batch(unit_ball(13), 10, 1, "ellipsoid_rejection").points
        ).all())
        with pytest.raises(ValueError, match="rejection needs 5.99e\\+39 draws"):
            sample_batch(unit_ball(64), 10, 1, "ellipsoid_rejection")

    def test_cost_past_the_draw_budget_rejected_at_once(self):
        # a dense 12-d shape accepts about 9.35e-5 of its box draws; a million
        # points would take ~1.07e10 draws, over an hour of sampling
        e = Ellipsoid.from_shape(dense_shape(12), np.zeros(12))
        rate = _check_request(e, 1, "ellipsoid_rejection")
        assert rate == pytest.approx(9.35e-5, rel=1e-2)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="rejection needs 1.07e\\+10 draws"):
            sample_batch(e, 1_000_000, 1, "ellipsoid_rejection")
        assert time.perf_counter() - start < 1.0
        # the budget is count / rate draws, the same MAX_DRAWS as mc_volume's
        fits = int(MAX_DRAWS * rate)
        assert _check_request(e, fits, "ellipsoid_rejection") == rate
        with pytest.raises(ValueError):
            _check_request(e, fits + 1, "ellipsoid_rejection")
        # every method draws within the budget, rate 1.0 but for rejection
        with pytest.raises(ValueError, match="^transform needs 1e\\+15 draws, over the 1000000000 cap$"):
            _check_request(e, 10**15, "transform")


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

    @pytest.mark.parametrize("reported, usable", [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity_is_the_cpu_count(self, reported, usable, monkeypatch):
        # Where the OS reports no affinity set (macOS, Windows), os.cpu_count
        # decides, and one CPU is assumed if it cannot tell.
        monkeypatch.delattr(sampling.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: reported)
        assert sampling._usable_cpus() == usable

    def test_chunk_layout_prefix(self):
        # chunk i depends only on (seed, i): a shorter batch is a prefix at chunk boundaries
        e = rand_ellipsoid(3, RngStream(26))
        longer = sample_batch(e, 3 * CHUNK_SIZE + 5, 9)
        shorter = sample_batch(e, 2 * CHUNK_SIZE, 9)
        np.testing.assert_array_equal(longer.points[: 2 * CHUNK_SIZE], shorter.points)

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_bytes_do_not_depend_on_piece_size(self, n, monkeypatch):
        # Radii 0.5..2 on the axes keep box rejection at its best rate, 2.5e-3
        # at 10-d.  Even so the full count there is 6.6e6 proposals, about 20 s
        # in the 9-row passes of 96-float pieces; 300 points take 13k passes.
        e = Ellipsoid.from_shape(np.diag(np.linspace(0.5, 2.0, n)), np.linspace(-1.0, 1.0, n))

        def run() -> list:
            out = []
            for method in METHODS:
                count = 300 if (n, method) == (10, "ellipsoid_rejection") else 2 * CHUNK_SIZE + 77
                out.append(sample_batch(e, count, 13, method).points)
            batch = sample_batch(e, 2 * CHUNK_SIZE + 77, 14)
            out.append(chi_square_uniformity(batch, e, shells=2).statistic)
            out.append(radial_ks(batch, e).statistic)
            out.append(mc_volume(e, 50_000, RngStream(15)))
            return out

        default = run()
        # At least n floats, so a piece holds at least one row.
        for piece_floats in (96, 200, 4096):
            monkeypatch.setattr(sampling, "PIECE_FLOATS", piece_floats)
            for got, want in zip(run(), default):
                np.testing.assert_array_equal(got, want)

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

    @pytest.mark.parametrize("method", METHODS)
    def test_a_chunk_held_by_the_caller_survives_the_next_draw(self, method):
        # Each draw returns an array of its own, so a caller may keep a chunk
        # while the same thread draws the next one.
        points = sampling._drawn_chunks(ellipse_2x1_at_1_0(), 2 * CHUNK_SIZE, 5, method)
        first = points(0, slice(0, CHUNK_SIZE))
        kept = first.copy()
        second = points(1, slice(CHUNK_SIZE, 2 * CHUNK_SIZE))
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(first, points(0, slice(0, CHUNK_SIZE)))

    def test_points_immutable(self):
        batch = sample_batch(ellipse_2x1_at_1_0(), 10, 1)
        with pytest.raises(ValueError):
            batch.points[0, 0] = 99.0

    def test_callers_array_stays_writable(self):
        a = np.zeros((3, 2))
        batch = SampleBatch(2, a, 0, "transform", {})
        assert np.shares_memory(batch.points, a)  # locked view, not a copy
        assert not batch.points.flags.writeable
        assert a.flags.writeable
        a[0, 0] = 1.0
        assert batch.points[0, 0] == 1.0

    def test_invalid_method(self):
        with pytest.raises(ValueError, match=r"method must be one of .*'bogus'"):
            sample_batch(ellipse_2x1_at_1_0(), 10, 1, "bogus")
        with pytest.raises(ValueError):
            SampleBatch(2, np.zeros((1, 2)), 0, "bogus", {})

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_batch(ellipse_2x1_at_1_0(), 0, 1)

    def test_rejection_dimension_cap(self):
        # rejection takes n = 13 whatever the shape; by Hadamard's inequality no
        # shape fills more of its box than the ball, V_n / 2^n
        e = rand_ellipsoid(13, RngStream(20))
        rate = _check_request(e, 10, "ellipsoid_rejection")
        assert 0.0 < rate < unit_ball_volume(13) / 2.0**13
        assert bool(e.contains_many(sample_batch(e, 10, 1, "ellipsoid_rejection").points).all())


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
    # on the unit ball, box rejection sizes its passes from this ratio; sanity-check it
    for n in range(1, 65):
        assert 0.0 < unit_ball_volume(n) / 2.0**n <= 1.0 + 1e-12
