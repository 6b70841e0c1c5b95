"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Seeds are pinned so the statistical criteria are reproducible; all
tolerances and runtime budgets are asserted, not just reported.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ellipsample import (
    Ellipsoid,
    NotARotation,
    RngStream,
    chi_square_two_sample,
    chi_square_uniformity,
    mc_volume,
    radial_ks,
    random_rotation,
    sample_batch,
)
from ellipsample.sampling import CHUNK_SIZE
from helpers import child_env, rand_ball_point, rand_ellipsoid

N = 100_000


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\n{name}: FAIL")
        raise
    print(f"\n{name}: PASS")


def rot2(degrees: float) -> np.ndarray:
    t = math.radians(degrees)
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def test_criterion_1_uniformity_certification():
    cases = [
        ("2d rotated ellipse", Ellipsoid.from_radii_rotation([2.0, 1.0], rot2(30.0), [1.0, 0.0]), 1001),
        ("random 3d ellipsoid", rand_ellipsoid(3, RngStream(2024)), 1002),
    ]
    with criterion("ACCEPTANCE 1 (uniformity: chi-square + radial KS at N=1e5)"):
        for label, e, seed in cases:
            start = time.perf_counter()
            batch = sample_batch(e, N, seed)
            chi2 = chi_square_uniformity(batch, e, shells=4, alpha=0.001)
            ks = radial_ks(batch, e)
            elapsed = time.perf_counter() - start
            assert chi2.passed, (label, chi2.as_dict())
            assert ks.passed, (label, ks.as_dict())
            assert ks.critical_value == pytest.approx(1.95 / math.sqrt(N))
            assert elapsed < 2.0, (label, elapsed)


def test_criterion_2_oracle_equivalence():
    with criterion("ACCEPTANCE 2 (transform vs box-rejection two-sample chi-square)"):
        start = time.perf_counter()
        for dim, shells, seed_a, seed_b in [(2, 8, 2001, 2002), (3, 8, 2003, 2004)]:
            e = rand_ellipsoid(dim, RngStream(3000 + dim))
            transform = sample_batch(e, N, seed_a, "transform")
            rejection = sample_batch(e, N, seed_b, "ellipsoid_rejection")
            report = chi_square_two_sample(transform, rejection, e, shells=shells, alpha=0.001)
            assert report.dof == shells * 2**dim - 1  # 32 bins in 2d, 64 in 3d
            assert report.passed, (dim, report.as_dict())
        assert time.perf_counter() - start < 5.0


def test_criterion_3_negative_control_power():
    with criterion("ACCEPTANCE 3 (biased sampler fails chi-square and KS)"):
        e = Ellipsoid.from_radii_rotation([2.0, 1.0], rot2(30.0), [1.0, 0.0])
        batch = sample_batch(e, N, 3001, "biased")
        chi2 = chi_square_uniformity(batch, e, shells=4, alpha=0.001)
        ks = radial_ks(batch, e)
        assert not chi2.passed, chi2.as_dict()
        assert not ks.passed, ks.as_dict()
        assert ks.statistic > 0.2  # analytic sup gap of sqrt(t) vs t is 0.25


def test_criterion_4_proof_identities():
    with criterion("ACCEPTANCE 4 (round trip, pdf*volume, finite-difference Jacobian)"):
        start = time.perf_counter()
        rng = RngStream(4001)
        step = 1e-6
        for trial in range(100):
            n = 1 + trial % 10
            e = rand_ellipsoid(n, rng.derive(trial))
            point_rng = rng.derive(10_000 + trial)
            u = rand_ball_point(n, point_rng)
            x = e.forward(u)
            assert np.abs(e.inverse(x) - u).max() <= 1e-9
            assert abs(e.pdf(x) * e.volume() - 1.0) <= 1e-12
            reference = np.linalg.solve(np.asarray(e.shape), np.eye(n))
            jac = np.empty((n, n))
            for j in range(n):
                h = np.zeros(n)
                h[j] = step
                jac[:, j] = (e.inverse(x + h) - e.inverse(x - h)) / (2.0 * step)
            assert np.abs(jac - reference).max() <= 1e-4
        assert time.perf_counter() - start < 5.0


def test_criterion_5_orthogonal_case_identities():
    with criterion("ACCEPTANCE 5 (|det shape| = prod(radii), rotation-invariant pdf)"):
        rng = RngStream(5001)
        for trial in range(100):
            n = 1 + trial % 8
            radii = 0.3 + 2.7 * np.asarray(rng.derive(trial).uniforms(n))
            c1 = random_rotation(n, rng.derive(1000 + trial))
            c2 = random_rotation(n, rng.derive(2000 + trial))
            e1 = Ellipsoid.from_radii_rotation(radii, c1, np.zeros(n))
            e2 = Ellipsoid.from_radii_rotation(radii, c2, np.zeros(n))
            product = float(np.prod(radii))
            assert abs(e1.abs_det_shape - product) <= 1e-9 * product
            assert e1.pdf(e1.centre) == pytest.approx(e2.pdf(e2.centre), rel=1e-12)
        with pytest.raises(NotARotation):
            Ellipsoid.from_radii_rotation([2.0, 1.0], np.diag([1.0, -1.0]), np.zeros(2))


def test_criterion_6_volume_cross_check():
    with criterion("ACCEPTANCE 6 (closed-form volume vs MC at 1e6 draws, dims 2..6)"):
        start = time.perf_counter()
        rng = RngStream(6001)
        for n in range(2, 7):
            radii = 0.5 + 1.5 * np.asarray(rng.derive(n).uniforms(n))
            e = Ellipsoid.from_radii_rotation(radii, random_rotation(n, rng.derive(100 + n)), np.zeros(n))
            estimate, stderr = mc_volume(e, 1_000_000, RngStream(6100 + n))
            assert abs(estimate - e.volume()) <= 3.0 * stderr, (n, estimate, e.volume(), stderr)
        assert time.perf_counter() - start < 10.0


def test_criterion_7_reproducibility(tmp_path):
    with criterion("ACCEPTANCE 7 (byte-identical CLI output, chunk-layout prefix)"):
        argv = [
            sys.executable, "-m", "ellipsample", "sample",
            "--radii", "2,1", "--centre", "1,0", "--count", "5000", "--seed", "7",
            "--format", "csv",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            result = subprocess.run(
                argv + ["--out", str(path)], capture_output=True, timeout=120, env=child_env()
            )
            assert result.returncode == 0, result.stderr
        assert first.read_bytes() == second.read_bytes()

        e = rand_ellipsoid(3, RngStream(7001))
        longer = sample_batch(e, 3 * CHUNK_SIZE + 5, 7)
        shorter = sample_batch(e, 2 * CHUNK_SIZE, 7)
        np.testing.assert_array_equal(longer.points[: 2 * CHUNK_SIZE], shorter.points)
