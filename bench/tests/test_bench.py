"""Self-tests of the benchmark harness.  Run: python3 -m pytest bench/tests"""

import math
import resource
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import CheckFailed, Tally, verify_csv  # noqa: E402

RADII = np.array([2.0, 1.0])
CENTRE = np.array([1.0, -0.5])
THETA = 0.7
ROTATION = np.array([[math.cos(THETA), -math.sin(THETA)], [math.sin(THETA), math.cos(THETA)]])
M = ROTATION @ np.diag(RADII**-2) @ ROTATION.T


def _csv(path: Path, ball_points) -> Path:
    pts = np.asarray(ball_points) @ (ROTATION * RADII).T + CENTRE
    path.write_text("x1,x2\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    return path


def test_child_rss_does_not_carry_over(tmp_path):
    big = run.run_child([sys.executable, "-c", "b = b'x' * (150 << 20)"], tmp_path / "out")
    small = run.run_child([sys.executable, "-c", "pass"], tmp_path / "out")
    assert big.returncode == small.returncode == 0
    assert big.peak_rss_mb > 150
    assert small.peak_rss_mb < big.peak_rss_mb / 2
    # The all-children high-water mark keeps reporting the big child.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    assert children >= 0.99 * big.peak_rss_mb


def test_self_times_subtract_covered_child_intervals():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.child", 2.0, 3.0, 1),
        spans.Span("b", 3.0, 5.0, 0),  # overlaps a: root loses [1, 5] once
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 2.0])


def test_layer_metrics_from_span_tree():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("cli.main", 0.0, 10.0, None),
        spans.Span("sampling.sample_batch", 1.0, 3.0, 0),
        spans.Span("validation.ks", 3.0, 6.0, 0),
        spans.Span("geometry.pullback", 3.5, 5.5, 2),
    ]
    got = spans.layer_metrics(tracer, bytes_out=2_000_000)
    assert got["cli.self_s"] == pytest.approx(5.0)
    assert got["cli.render_mb_per_s"] == pytest.approx(0.4)
    assert got["sampling.busy_s"] == pytest.approx(2.0)
    assert got["validation.ks.self_s"] == pytest.approx(1.0)
    assert got["geometry.pullback_s"] == pytest.approx(2.0)


def test_membership_oracle_rejects_point_just_outside(tmp_path):
    edge = np.array([[math.cos(1.0), math.sin(1.0)]])
    inside = np.vstack([np.zeros((1, 2)), edge, 0.5 * edge])
    verify_csv(_csv(tmp_path / "in.csv", inside), 3, CENTRE, M)
    outside = np.vstack([inside, edge * (1.0 + 1e-6)])
    with pytest.raises(CheckFailed, match="row 4"):
        verify_csv(_csv(tmp_path / "out.csv", outside), 4, CENTRE, M)


def test_corrupted_output_byte_raises_fail_ratio(tmp_path):
    path = _csv(tmp_path / "points.csv", [[0.1, 0.2], [-0.3, 0.4]])
    tally = Tally(lambda p: verify_csv(p, 2, CENTRE, M))
    assert tally.judge(0, path)
    assert tally.judge(0, path)
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    assert not tally.judge(0, path)
    assert (tally.failed, tally.attempted) == (1, 3)
    assert not tally.judge(3, path)
    assert (tally.failed, tally.attempted) == (2, 4)


def test_traced_check_counts_pullbacks_and_restores_wrappers(capsys):
    from ellipsample import cli, geometry, linalg, sampling

    originals = [cli.sample_batch, cli.radial_ks, linalg.cholesky, vars(geometry.Ellipsoid)["pullback"]]
    tracer = spans.Tracer()
    with spans.installed(tracer, cli, geometry, linalg, sampling):
        rc = tracer.wrap("cli.main", cli.main)(
            ["check", "--dim", "2", "--count", "3000", "--seed", "5", "--tests", "chi2,ks"]
        )
    assert rc == 0
    got = spans.layer_metrics(tracer, bytes_out=len(capsys.readouterr().out))
    assert got["geometry.pullback_calls"] == 2
    assert got["geometry.pullback_points"] == 2 * 3000
    assert got["sampling.chunks"] == math.ceil(3000 / sampling.CHUNK_SIZE)
    assert got["validation.reports"] == 2 and got["validation.pass_ratio"] == 1.0
    restored = [cli.sample_batch, cli.radial_ks, linalg.cholesky, vars(geometry.Ellipsoid)["pullback"]]
    assert restored == originals
