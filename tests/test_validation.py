"""Tests for the uniformity certification machinery."""

import json
import math

import numpy as np
import pytest
import scipy.stats

from ellipsample import (
    DimensionMismatch,
    Ellipsoid,
    InsufficientSamples,
    PointOutsideEllipsoid,
    RngStream,
    SampleBatch,
    TestReport,
    chi_square_two_sample,
    chi_square_uniformity,
    mc_volume,
    proof_identity_check,
    radial_ks,
    random_rotation,
    sample_batch,
    unit_ball_volume,
    wilson_hilferty_critical,
)
from ellipsample.sampling import CHUNK_SIZE, MAX_DRAWS
from ellipsample import sampling
from ellipsample.validation import _bin_index, _bin_total, _pull_back_pass, certify
from helpers import rand_ellipsoid


def ellipse_2x1() -> Ellipsoid:
    return Ellipsoid.from_radii_rotation([2.0, 1.0], np.eye(2), [1.0, 0.0])


def batch_from_pullbacks(e: Ellipsoid, pullbacks: np.ndarray, method="transform") -> SampleBatch:
    """Wrap chosen ball-coordinate points as a batch over e."""
    pts = np.asarray(pullbacks) @ np.asarray(e.shape).T + e.centre
    return SampleBatch(e.dim, pts, 0, method, e.spec_dict())


def bins_of(u: np.ndarray, shells: int) -> np.ndarray:
    """Bin index of each ball-coordinate row of u."""
    return _bin_index(u, (u * u).sum(axis=1) ** (u.shape[1] / 2.0), shells)


class TestBinPartition:
    """The chi-square partition: radial shells x sign orthants of the unit ball."""

    def test_counts(self):
        assert _bin_total(3, 4) == 32

    def test_shell_boundaries_algebra(self):
        # shell k holds radii in [(k/K)^(1/n), ((k+1)/K)^(1/n)), so every
        # shell holds probability 1/K under the t = ||u||^n uniform law
        for n in [1, 2, 3, 7]:
            for k_shells in [1, 4, 8]:
                radii = ((np.arange(k_shells) + 0.5) / k_shells) ** (1.0 / n)
                u = np.zeros((k_shells, n))
                u[:, 0] = radii  # orthant code 0
                shells = _bin_index(u, radii**n, k_shells) // 2**n
                np.testing.assert_array_equal(shells, np.arange(k_shells))

    def test_assign_hand_cases(self):
        # t = ||u||^2: 0.02 -> shell 0; 0.9 -> shell 1; sign bits little-endian
        u = np.array([[0.1, 0.1], [-0.9, 0.3], [0.3, -0.9], [-0.6, -0.6]])
        np.testing.assert_array_equal(bins_of(u, 2), [0, 4 + 1, 4 + 2, 4 + 3])

    def test_assign_matches_scalar_loop(self):
        rng = RngStream(1)
        u = np.asarray(rng.normals((500, 3)))
        radii = np.asarray(rng.uniforms(500)) ** (1 / 3)
        u *= (radii / np.linalg.norm(u, axis=1))[:, None]
        expected = []
        for row in u:
            t = np.linalg.norm(row) ** 3
            shell = min(int(t * 4), 3)
            orthant = sum((1 << i) for i in range(3) if row[i] < 0)
            expected.append(shell * 8 + orthant)
        np.testing.assert_array_equal(bins_of(u, 4), expected)

    def test_boundary_point_clamped_to_last_shell(self):
        assert bins_of(np.array([[1.0, 0.0]]), 4)[0] == 3 * 4 + 0

    def test_bins_equiprobable_empirically(self):
        e = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        u = sample_batch(e, 64_000, 3).points  # unit ball: points are pullbacks
        bins = _bin_total(2, 4)
        counts = np.bincount(bins_of(u, 4), minlength=bins)
        expected = 64_000 / bins
        # 5 sigma guard band per bin
        assert np.all(np.abs(counts - expected) <= 5.0 * math.sqrt(expected))

    def test_validation(self):
        with pytest.raises(ValueError, match="dim must be in 1..62"):
            _bin_total(0, 4)
        with pytest.raises(ValueError, match="shells must be positive"):
            _bin_total(2, 0)

    def test_bin_total_past_62_dimensions_rejected(self):
        assert _bin_total(62, 1) == 2**62
        with pytest.raises(ValueError, match="dim must be in 1..62"):
            _bin_total(63, 1)

    @pytest.mark.parametrize("shells", [1, 2])
    def test_62d_last_orthant_of_last_shell_is_exact(self, shells):
        # radius 1 clamps to the last shell; every sign bit set is orthant 2^62 - 1
        u = np.full((1, 62), -1.0 / math.sqrt(62.0))
        index = _bin_index(u, np.ones(1), shells)
        assert index.dtype == np.int64
        assert int(index[0]) == (shells - 1) * 2**62 + 2**62 - 1


class TestTestReport:
    def test_pass_iff_below_critical(self):
        passing = TestReport("t", 1.0, 3, 2.0, 0.01, 100)
        failing = TestReport("t", 2.5, 3, 2.0, 0.01, 100)
        boundary = TestReport("t", 2.0, 3, 2.0, 0.01, 100)
        assert passing.passed
        assert not failing.passed
        assert not boundary.passed  # strict inequality

    def test_json_schema(self):
        report = TestReport("radial_ks", 0.01, None, 0.02, 0.001, 1000)
        doc = json.loads(report.to_json())
        assert doc == {
            "test": "radial_ks",
            "statistic": 0.01,
            "dof": None,
            "critical": 0.02,
            "alpha": 0.001,
            "pass": True,
            "n_samples": 1000,
        }


class TestWilsonHilferty:
    @pytest.mark.parametrize("dof", [7, 15, 31, 63, 127])
    @pytest.mark.parametrize("alpha", [0.01, 0.001])
    def test_against_scipy_quantile(self, dof, alpha):
        exact = scipy.stats.chi2.ppf(1.0 - alpha, dof)
        assert wilson_hilferty_critical(dof, alpha) == pytest.approx(exact, rel=0.01)

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError):
            wilson_hilferty_critical(10, 0.05)

    def test_bad_dof(self):
        with pytest.raises(ValueError):
            wilson_hilferty_critical(0, 0.01)


class TestChiSquareUniformity:
    def test_transform_sampler_passes(self):
        e = ellipse_2x1()
        batch = sample_batch(e, 100_000, 7)
        report = chi_square_uniformity(batch, e, shells=4, alpha=0.001)
        assert report.dof == 15  # 4 shells x 4 orthants - 1
        assert report.passed, report.as_dict()

    def test_equal_counts_give_zero_statistic(self):
        e = ellipse_2x1()
        reps = []
        for shell in range(4):
            radius = ((shell + 0.5) / 4.0) ** 0.5
            for orthant in range(4):
                sx = -1.0 if orthant & 1 else 1.0
                sy = -1.0 if orthant & 2 else 1.0
                reps.append([sx * radius / math.sqrt(2.0), sy * radius / math.sqrt(2.0)])
        pullbacks = np.repeat(np.asarray(reps), 10, axis=0)  # 160 points, 10 per bin
        batch = batch_from_pullbacks(e, pullbacks)
        report = chi_square_uniformity(batch, e, shells=4, alpha=0.01)
        assert report.statistic == 0.0
        assert report.passed

    def test_biased_sampler_fails_resoundingly(self):
        # shell probabilities under the radius-u bias grow like (k/K)^2
        # increments, pushing the expected statistic orders of magnitude
        # past the critical value at N = 1e5
        e = ellipse_2x1()
        batch = sample_batch(e, 100_000, 8, "biased")
        report = chi_square_uniformity(batch, e, shells=4, alpha=0.001)
        assert not report.passed
        assert report.statistic > 100.0 * report.critical_value

    def test_insufficient_samples(self):
        e = ellipse_2x1()
        batch = sample_batch(e, 64, 9)  # expected 64/16 = 4 < 5 per bin
        with pytest.raises(InsufficientSamples):
            chi_square_uniformity(batch, e, shells=4, alpha=0.001)

    def test_corrupted_batch_detected(self):
        e = ellipse_2x1()
        pts = sample_batch(e, 200, 10).points.copy()
        pts[17] = [50.0, 50.0]
        bad = SampleBatch(2, pts, 10, "transform", e.spec_dict())
        with pytest.raises(PointOutsideEllipsoid):
            chi_square_uniformity(bad, e, shells=1, alpha=0.001)

    def test_nan_point_detected(self):
        e = ellipse_2x1()
        pts = sample_batch(e, 1000, 10).points.copy()
        pts[5] = np.nan
        bad = SampleBatch(2, pts, 10, "transform", e.spec_dict())
        for test in (chi_square_uniformity, radial_ks):
            with pytest.raises(PointOutsideEllipsoid, match="pull-back norm nan"):
                test(bad, e)

    def test_alpha_validated(self):
        e = ellipse_2x1()
        batch = sample_batch(e, 10_000, 11)
        with pytest.raises(ValueError):
            chi_square_uniformity(batch, e, shells=4, alpha=0.5)


class TestChiSquareTwoSample:
    def test_identical_batches_zero_statistic(self):
        e = ellipse_2x1()
        batch = sample_batch(e, 5000, 12)
        report = chi_square_two_sample(batch, batch, e, shells=2)
        assert report.statistic == 0.0
        assert report.passed

    def test_transform_vs_rejection_passes(self):
        e = rand_ellipsoid(2, RngStream(90))
        a = sample_batch(e, 50_000, 13, "transform")
        b = sample_batch(e, 50_000, 14, "ellipsoid_rejection")
        report = chi_square_two_sample(a, b, e, shells=8, alpha=0.001)
        assert report.passed, report.as_dict()

    def test_transform_vs_biased_fails(self):
        e = ellipse_2x1()
        a = sample_batch(e, 50_000, 15, "transform")
        b = sample_batch(e, 50_000, 16, "biased")
        report = chi_square_two_sample(a, b, e, shells=4, alpha=0.001)
        assert not report.passed

    def test_empty_batch_is_insufficient(self):
        e = ellipse_2x1()
        empty = SampleBatch(2, np.zeros((0, 2)), 0, "transform", e.spec_dict())
        batch = sample_batch(e, 1000, 12)
        for a, b in ((empty, batch), (batch, empty)):
            with pytest.raises(InsufficientSamples):
                chi_square_two_sample(a, b, e)

    def test_unequal_sample_sizes(self):
        e = ellipse_2x1()
        a = sample_batch(e, 60_000, 17)
        b = sample_batch(e, 30_000, 18)
        report = chi_square_two_sample(a, b, e, shells=4, alpha=0.001)
        assert report.sample_count == 90_000
        assert report.passed, report.as_dict()


class TestRadialKs:
    def test_transform_sampler_passes(self):
        e = rand_ellipsoid(2, RngStream(91))
        batch = sample_batch(e, 100_000, 19)
        report = radial_ks(batch, e)
        assert report.critical_value == pytest.approx(1.95 / math.sqrt(100_000))
        assert report.passed, report.as_dict()

    def test_perfect_quantiles(self):
        e = ellipse_2x1()
        n = 1000
        radii = ((np.arange(1, n + 1) / n) ** 0.5)[:, None]
        pullbacks = radii * np.array([[1.0, 0.0]])
        report = radial_ks(batch_from_pullbacks(e, pullbacks), e)
        assert report.statistic <= 1.0 / n + 1e-12
        assert report.passed

    def test_biased_sampler_fails(self):
        # biased t = u^2 has CDF sqrt(t); sup gap vs t is 1/4
        e = ellipse_2x1()
        batch = sample_batch(e, 100_000, 20, "biased")
        report = radial_ks(batch, e)
        assert not report.passed
        assert report.statistic == pytest.approx(0.25, abs=0.02)

    def test_statistic_matches_scipy(self):
        e = rand_ellipsoid(3, RngStream(92))
        batch = sample_batch(e, 5000, 21)
        report = radial_ks(batch, e)
        t = np.linalg.norm(e.pullback(batch.points), axis=1) ** 3
        oracle = scipy.stats.kstest(t, "uniform").statistic
        assert report.statistic == pytest.approx(oracle, rel=1e-12)

    def test_minimum_count(self):
        e = ellipse_2x1()
        batch = sample_batch(e, 99, 22)
        with pytest.raises(InsufficientSamples):
            radial_ks(batch, e)


class TestChunkedPullBack:
    """The tests pull back chunk by chunk, in pieces; a partial last chunk included."""

    COUNT = 3 * CHUNK_SIZE + 5

    @staticmethod
    def assert_statistics_equal_one_shot_reference(e: Ellipsoid, batch: SampleBatch):
        dim = e.dim
        u = e.pullback(batch.points)
        n = batch.count
        t = np.sort(((u * u).sum(axis=1)) ** (dim / 2.0))
        grid = np.arange(1, n + 1) / n
        d = max(float((grid - t).max()), float((t - (grid - 1.0 / n)).max()))
        assert radial_ks(batch, e).statistic == d
        if dim > 10:  # too few points per chi2 bin (and 64-d is past 62-d): KS only
            return
        bins = _bin_total(dim, 4)
        expected = n / bins
        observed = np.bincount(bins_of(u, 4), minlength=bins)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi_square_uniformity(batch, e, shells=4).statistic == chi2

    @pytest.mark.parametrize("dim", [2, 10, 64])
    def test_statistics_equal_one_shot_reference(self, dim):
        e = rand_ellipsoid(dim, RngStream(93 + dim))
        self.assert_statistics_equal_one_shot_reference(e, sample_batch(e, self.COUNT, 23))

    @pytest.mark.parametrize("dim", [2, 10, 17, 64])
    def test_one_row_last_block_equals_one_shot_reference(self, dim):
        e = rand_ellipsoid(dim, RngStream(93 + dim))
        batch = sample_batch(e, 3 * CHUNK_SIZE + 1, 26)
        self.assert_statistics_equal_one_shot_reference(e, batch)

    # (2, 4096) has COUNTED_BINS bins, the most counted per chunk task; (2, 8192)'s are indices.
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("dim, shells", [(2, 4), (10, 4), (2, 4096), (2, 8192)])
    def test_bin_counts_equal_one_count_of_the_batch(self, dim, shells, workers, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
        e = rand_ellipsoid(dim, RngStream(95 + dim))
        batch = sample_batch(e, self.COUNT, 28)
        observed, _ = _pull_back_pass(e, batch.count, lambda i, rows: batch.points[rows], shells)
        bins = _bin_total(dim, shells)
        expected = np.bincount(bins_of(e.pullback(batch.points), shells), minlength=bins)
        assert observed.dtype == np.int64 and observed.tolist() == expected.tolist()

    def test_outside_point_in_last_partial_chunk_detected(self):
        e = ellipse_2x1()
        pts = sample_batch(e, self.COUNT, 24).points.copy()
        pts[-2] = e.centre + 1.01 * np.asarray(e.shape)[:, 0]  # pulls back to norm 1.01
        bad = SampleBatch(2, pts, 24, "transform", e.spec_dict())
        good = sample_batch(e, self.COUNT, 25)
        with pytest.raises(PointOutsideEllipsoid):
            chi_square_uniformity(bad, e)
        with pytest.raises(PointOutsideEllipsoid):
            radial_ks(bad, e)
        with pytest.raises(PointOutsideEllipsoid):
            chi_square_two_sample(good, bad, e)


class TestCertify:
    """One plan for the pull-back tests: rules first, then one pass, reports in the caller's order."""

    @staticmethod
    def refuse(i, rows):
        raise AssertionError("read a point")

    @pytest.mark.parametrize("dim", [2, 10])
    def test_reports_in_order_equal_the_library_tests(self, dim):
        e = rand_ellipsoid(dim, RngStream(94 + dim))
        batch = sample_batch(e, 2 * CHUNK_SIZE + 77, 27)
        ks, chi2 = certify(
            e, batch.count, lambda i, rows: batch.points[rows], ["ks", "chi2"], shells=2, alpha=0.01
        )
        assert ks.as_dict() == radial_ks(batch, e, alpha=0.01).as_dict()
        assert chi2.as_dict() == chi_square_uniformity(batch, e, shells=2, alpha=0.01).as_dict()

    @pytest.mark.parametrize("tests", [["anderson"], ["ks", "anderson"]])
    def test_unknown_test_name_rejected_before_any_point(self, tests):
        with pytest.raises(ValueError, match="tests must be 'chi2', 'ks' or 'identity'"):
            certify(ellipse_2x1(), 1000, self.refuse, tests)

    @pytest.mark.parametrize("tests", [["chi2"], ["ks"]])
    def test_unsupported_alpha_rejected_before_any_point(self, tests):
        with pytest.raises(ValueError, match="alpha must be one of"):
            certify(ellipse_2x1(), 1000, self.refuse, tests, alpha=0.5)

    def test_no_test_reads_no_point(self):
        assert certify(ellipse_2x1(), 1000, self.refuse, []) == []

    @staticmethod
    def binomial_bounds(n: int, p: float, tail: float) -> tuple[int, int]:
        """The shortest [lo, hi] with at most ``tail`` of Binomial(n, p) below lo and at most above hi."""
        pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
        lo = next(k for k in range(n + 1) if sum(pmf[: k + 1]) > tail)
        hi = next(k for k in range(n + 1) if sum(pmf[k + 1 :]) <= tail)
        return lo, hi

    # Size, not only power: under the null each test must reject about alpha of
    # the time.  KS runs on the asymptotic Kolmogorov quantile, so 200 points at
    # 10-d check its small-N size too (chi2 has too few points per bin there).
    @pytest.mark.parametrize("dim, count, tests", [(2, 1000, ["chi2", "ks"]),
                                                   (3, 1000, ["chi2", "ks"]), (10, 200, ["ks"])])
    def test_rejections_at_alpha_001_are_binomial(self, dim, count, tests):
        trials, alpha = 1000, 0.01
        lo, hi = self.binomial_bounds(trials, alpha, 1e-4)
        assert (lo, hi) == (1, 24)
        e = rand_ellipsoid(dim, RngStream(310 + dim))
        rejections = dict.fromkeys(tests, 0)
        for seed in range(trials):
            batch = sample_batch(e, count, seed)
            reports = certify(e, count, lambda i, rows: batch.points[rows], tests, alpha=alpha)
            for name, report in zip(tests, reports):
                rejections[name] += not report.passed
        assert all(lo <= n <= hi for n in rejections.values()), rejections


class TestMcVolume:
    def test_unit_disc(self):
        disc = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        estimate, stderr = mc_volume(disc, 1_000_000, RngStream(23))
        assert abs(estimate - math.pi) <= 3.0 * stderr

    def test_ellipse(self):
        e = ellipse_2x1()
        estimate, stderr = mc_volume(e, 1_000_000, RngStream(24))
        assert abs(estimate - 2.0 * math.pi) <= 3.0 * stderr

    def test_1d_interval_is_exact(self):
        seg = Ellipsoid.from_shape([[3.0]], [0.5])
        estimate, stderr = mc_volume(seg, 10_000, RngStream(25))
        assert estimate == 6.0
        assert stderr == 0.0

    def test_three_sigma_brackets_over_seeds(self):
        # ~99.7% coverage: allow a handful of misses in 100 repetitions
        disc = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        truth = disc.volume()
        hits = 0
        for seed in range(100):
            estimate, stderr = mc_volume(disc, 10_000, RngStream(1000 + seed))
            hits += abs(estimate - truth) <= 3.0 * stderr
        assert hits >= 96

    def test_minimum_count(self):
        with pytest.raises(InsufficientSamples):
            mc_volume(ellipse_2x1(), 9_999, RngStream(26))

    def test_draw_budget_shared_with_rejection_sampling(self):
        with pytest.raises(ValueError, match=f"at most {MAX_DRAWS} draws are supported"):
            mc_volume(ellipse_2x1(), MAX_DRAWS + 1, RngStream(26))

    def test_dimension_cap(self):
        # the one 1..64 rule: the 13-d ball fills 1.1e-4 of its box, about 110 hits
        e = Ellipsoid.from_shape(np.eye(13), np.zeros(13))
        estimate, stderr = mc_volume(e, 1_000_000, RngStream(27))
        assert 0.0 < abs(estimate - e.volume()) <= 3.0 * stderr
        # the 64-d ball fills 1.7e-39 of its box: no draw lands inside
        assert mc_volume(Ellipsoid.from_shape(np.eye(64), np.zeros(64)), 10_000, RngStream(27)) == (
            0.0, 0.0
        )


class TestProofIdentityCheck:
    def test_unit_ball_any_dimension(self):
        for n in [1, 2, 5]:
            ball = Ellipsoid.from_shape(np.eye(n), np.zeros(n))
            report = proof_identity_check(ball, {"dim": n, "shape": np.eye(n), "centre": np.zeros(n)})
            assert report.passed, report.as_dict()
            assert ball.pdf(np.zeros(n)) == pytest.approx(1.0 / unit_ball_volume(n), rel=1e-15)

    def test_random_3d_ellipsoid(self):
        e = rand_ellipsoid(3, RngStream(93))
        report = proof_identity_check(e, e.spec_dict())
        assert report.passed, report.as_dict()

    def test_rotated_2x1_density_and_jacobian(self):
        t = math.radians(30.0)
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        e = Ellipsoid.from_radii_rotation([2.0, 1.0], rot, np.zeros(2))
        assert e.pdf(e.centre) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        assert proof_identity_check(e, {"dim": 2, "radii": [2.0, 1.0], "rotation": rot}).passed
        # finite-difference Jacobian determinant of the pull-back is 1/(2*1)
        x = e.centre + 0.1
        h = 1e-6
        jac = np.empty((2, 2))
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            jac[:, j] = (e.inverse(x + step) - e.inverse(x - step)) / (2.0 * h)
        assert np.linalg.det(jac) == pytest.approx(0.5, abs=1e-6)

    def test_hundred_random_ellipsoids(self):
        rng = RngStream(94)
        for trial in range(100):
            n = 1 + trial % 10
            e = rand_ellipsoid(n, rng.derive(trial))
            report = proof_identity_check(e, e.spec_dict())
            assert report.passed, (trial, n, report.as_dict())

    @pytest.mark.parametrize("n", [2, 10, 64])
    def test_radii_against_a_transposed_rotation_fail(self, n):
        radii, rotation = np.geomspace(0.5, 2.0, n), random_rotation(n, RngStream(40 + n))
        source = {"dim": n, "radii": radii, "rotation": rotation, "centre": np.ones(n)}
        assert proof_identity_check(Ellipsoid.from_spec(source), source).statistic < 1e-3
        slip = Ellipsoid.from_radii_rotation(radii, rotation.T, np.ones(n))
        assert proof_identity_check(slip, source).statistic > 1e3

    def test_a_centre_other_than_the_foci_midpoint_fails(self):
        source = {"dim": 2, "radii": [3.0, 0.5], "foci": [[-1.0, 0.0], [1.0, 2.0]]}
        e = Ellipsoid.from_spec(source)
        np.testing.assert_array_equal(e.centre, [0.0, 1.0])
        assert proof_identity_check(e, source).passed
        assert not proof_identity_check(Ellipsoid.from_radii_rotation([3.0, 0.5], np.eye(2), [0.0, 0.0]),
                                        source).passed

    def test_a_wrong_determinant_fails(self):
        source = {"dim": 3, "radii": [3.0, 1.0, 0.25]}
        e = Ellipsoid.from_spec(source)
        assert proof_identity_check(e, source).passed
        object.__setattr__(e, "abs_det_shape", e.abs_det_shape * (1.0 + 1e-6))
        assert not proof_identity_check(e, source).passed

    def test_binary_rescaling_keeps_the_report(self):
        # x -> 2^k x rounds every step the same way, so the statistic is unchanged.
        rotation = random_rotation(3, RngStream(41))
        reports = set()
        for k in (-100, 0, 100):
            source = {"dim": 3, "radii": np.ldexp([3.0, 1.0, 0.25], k), "rotation": rotation,
                      "centre": np.ldexp([5.0, -1.0, 2.0], k)}
            reports.add(proof_identity_check(Ellipsoid.from_spec(source), source).to_json())
        assert len(reports) == 1, reports

    @pytest.mark.parametrize("source", [{"dim": 2}, {"radii": [2.0, 1.0], "shape": np.eye(2)}])
    def test_a_source_without_one_shape_definition_is_refused(self, source):
        with pytest.raises(ValueError, match="exactly one of 'shape', 'quadratic', 'radii'"):
            proof_identity_check(ellipse_2x1(), source)

    @pytest.mark.parametrize("source", [
        {"radii": [2.0, 1.0, 1.0]},
        {"shape": np.eye(3)},
        {"quadratic": np.eye(3)},
        {"radii": [2.0, 1.0], "rotation": np.eye(3)},
        {"radii": [2.0, 1.0], "centre": [1.0, 0.0, 0.0]},
        {"radii": [2.0, 1.0], "foci": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
    ])
    def test_a_source_of_another_dimension_is_refused(self, source):
        with pytest.raises(DimensionMismatch, match="the source's"):
            proof_identity_check(ellipse_2x1(), source)

    def test_source_required(self):
        with pytest.raises(ValueError, match="identity needs the source spec"):
            certify(ellipse_2x1(), 1000, TestCertify.refuse, ["identity"])

    def test_dimension_mismatch_detected(self):
        e2, e3 = ellipse_2x1(), rand_ellipsoid(3, RngStream(95))
        batch = sample_batch(e3, 1000, 37)
        with pytest.raises(DimensionMismatch):
            radial_ks(batch, e2)
