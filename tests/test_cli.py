"""Tests for the command-line interface: formats, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ellipsample import (
    Ellipsoid,
    RngStream,
    chi_square_uniformity,
    radial_ks,
    random_rotation,
    sample_batch,
    unit_ball_volume,
)
from ellipsample import cli, formats, sampling
from ellipsample.cli import _METHOD_BY_FLAG, build_parser, main, resolve_ellipsoid
from ellipsample.sampling import CHUNK_SIZE, METHODS
from ellipsample.validation import certify
from helpers import child_env, dense_shape_text, matrix_text, rand_spd

RADII_ARGS = ["--radii", "2,1", "--centre", "1,0"]
OWN_PEAK = Path(__file__).resolve().parent.parent / "tools" / "own_peak.py"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def own_peak_readings(args: list[str]) -> dict:
    """``tools/own_peak.py``'s readings of one ``python -m ellipsample`` run, which must exit 0."""
    result = subprocess.run([sys.executable, str(OWN_PEAK), *args], capture_output=True, text=True,
                            timeout=120)
    fields = result.stdout.split()
    readings = dict(zip(fields[::2], fields[1::2]))
    assert (result.returncode, readings["exit"]) == (0, "0"), result.stderr
    return readings


class TestSampleCommand:
    def test_csv_shape_and_determinism(self, capsys):
        argv = ["sample", *RADII_ARGS, "--count", "5", "--seed", "7", "--format", "csv"]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "x1,x2"
        assert len(lines) == 6

    # CHUNK_SIZE + 3 rows put a row separator between two rendered chunks.
    ROUND_TRIPS = [("csv", 2, 200)] + [
        (fmt, dim, CHUNK_SIZE + 3)
        for fmt in ("csv", "json", "svg")
        for dim in ((2,) if fmt == "svg" else (1, 2, 64))
    ]

    @pytest.mark.parametrize(
        "fmt, dim, count", ROUND_TRIPS, ids=[f"{f}-{d}d-{c}" for f, d, c in ROUND_TRIPS]
    )
    def test_csv_round_trips_exactly(self, fmt, dim, count, capsys, tmp_path):
        radii = [2.0 if i % 2 == 0 else 1.0 for i in range(dim)]
        centre = [1.0] + [0.0] * (dim - 1)
        out_file = tmp_path / f"batch.{fmt}"
        code, _, _ = run(
            ["sample", "--radii", ",".join(map(repr, radii)), "--centre", ",".join(map(repr, centre)),
             "--count", str(count), "--seed", "7", "--format", fmt, "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        e = Ellipsoid.from_radii_rotation(radii, np.eye(dim), centre)
        expected = sample_batch(e, count, 7).points
        text = out_file.read_text()
        if fmt == "csv":
            lines = text.strip().split("\n")
            parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        elif fmt == "json":
            doc = json.loads(text)
            # As bytes, which pytest compares to the first difference, not by a
            # full diff of multi-MB strings.
            assert text.encode() == (json.dumps(doc) + "\n").encode()
            parsed = np.array(doc["points"])
        else:
            circles = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', text)
            parsed = np.array([[float(cx), -float(cy)] for cx, cy in circles])
        assert parsed.shape == expected.shape
        assert parsed.tobytes() == expected.tobytes()  # no precision loss, signs of zero kept

    def test_json_embeds_provenance(self, capsys):
        code, out, _ = run(
            ["sample", *RADII_ARGS, "--count", "10", "--seed", "3", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 3
        assert doc["method"] == "transform"
        assert doc["count"] == 10
        assert len(doc["points"]) == 10
        rebuilt = Ellipsoid.from_spec(doc["ellipsoid"])
        assert rebuilt.dim == 2

    def test_svg_points_all_contained(self, capsys):
        code, out, _ = run(
            ["sample", "--dim", "2", "--count", "2000", "--seed", "5", "--format", "svg"], capsys
        )
        assert code == 0
        assert out.startswith("<svg")
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', out)
        assert len(circles) == 2000
        disc = Ellipsoid.from_shape(np.eye(2), np.zeros(2))
        for cx, cy in circles:
            assert disc.contains([float(cx), -float(cy)])  # svg y axis is flipped
        assert "<polygon points=" in out  # the outline

    def test_a_render_call_makes_its_arrays_once(self, capsys, monkeypatch):
        # At 3-d a chunk renders as a full piece and a short one, and the last
        # chunk is one short piece: each render call, on whichever thread,
        # makes one set of arrays and renders every piece of its chunk in it.
        workspace = formats._Workspace
        made, piece, render = workspace._arrays, workspace._piece, workspace.render
        calls = {}  # per thread, each of its render calls' [arrays made, pieces rendered]

        def tally(i, fn):
            def counted(self, *args):
                calls[threading.get_ident()][-1][i] += 1
                return fn(self, *args)
            return counted

        def rendered(self, *args):
            calls.setdefault(threading.get_ident(), []).append([0, 0])
            return render(self, *args)

        monkeypatch.setattr(workspace, "render", rendered)
        monkeypatch.setattr(workspace, "_arrays", tally(0, made))
        monkeypatch.setattr(workspace, "_piece", tally(1, piece))
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        argv = ["sample", "--dim", "3", "--count", str(5 * CHUNK_SIZE + 5), "--seed", "1"]
        assert run(argv, capsys)[0] == 0
        assert sorted(call for mine in calls.values() for call in mine) == [[1, 1]] + [[1, 2]] * 5, calls

    def test_svg_requires_dim_2(self, capsys):
        code, _, err = run(
            ["sample", "--dim", "3", "--count", "10", "--seed", "5", "--format", "svg"], capsys
        )
        assert code == 2
        assert "svg" in err

    def test_centre_and_foci_conflict(self, capsys, tmp_path):
        foci = tmp_path / "f.json"
        foci.write_text("[[0.0, 0.0], [2.0, 0.0]]")
        code, _, err = run(
            ["sample", "--radii", "2,1", "--centre", "1,0", "--foci", str(foci),
             "--count", "5", "--seed", "7"],
            capsys,
        )
        assert code == 2
        assert "exclusive" in err

    def test_foci_define_centre(self, capsys, tmp_path):
        foci = tmp_path / "f.json"
        foci.write_text("[[0.0, 0.0], [2.0, 0.0]]")
        code, out, _ = run(
            ["sample", "--radii", "2,1", "--foci", str(foci), "--count", "3", "--seed", "7",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["ellipsoid"]["centre"] == [1.0, 0.0]

    def test_reject_method_samples_contained(self, capsys):
        code, out, _ = run(
            ["sample", *RADII_ARGS, "--count", "500", "--seed", "9", "--method", "reject",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "ellipsoid_rejection"
        e = Ellipsoid.from_spec(doc["ellipsoid"])
        assert bool(e.contains_many(np.array(doc["points"])).all())

    def test_every_sampling_method_has_a_flag(self):
        assert set(METHODS) <= set(_METHOD_BY_FLAG.values())
        # --format's names are written out, as argparse needs them before formats is imported.
        sample = build_parser()._subparsers._group_actions[0].choices["sample"]
        assert [list(a.choices) for a in sample._actions if a.dest == "format"] == [sorted(formats._FORMATS)]


class TestEllipsoidResolution:
    def test_exactly_one_source_required(self, capsys):
        code, _, err = run(["sample", "--count", "5", "--seed", "1"], capsys)
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(
            ["sample", "--radii", "2,1", "--dim", "2", "--count", "5", "--seed", "1"], capsys
        )
        assert code == 2

    def test_rotation_requires_radii(self, capsys, tmp_path):
        rot = tmp_path / "rot.txt"
        rot.write_text("0 -1\n1 0\n")
        code, _, err = run(
            ["sample", "--dim", "2", "--rotation", str(rot), "--count", "5", "--seed", "1"], capsys
        )
        assert code == 2
        assert "--radii" in err

    def test_shape_file(self, capsys, tmp_path):
        shape = tmp_path / "shape.txt"
        shape.write_text("# transform matrix\n2 0\n0 1\n")
        code, out, _ = run(
            ["sample", "--shape", str(shape), "--count", "3", "--seed", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["ellipsoid"]["shape"] == [[2.0, 0.0], [0.0, 1.0]]

    def test_quadratic_file(self, capsys, tmp_path):
        quad = tmp_path / "quad.txt"
        quad.write_text("0.25 0\n0 1\n")
        code, out, _ = run(
            ["sample", "--quadratic", str(quad), "--count", "3", "--seed", "2", "--format",
             "json"],
            capsys,
        )
        assert code == 0
        e = Ellipsoid.from_spec(json.loads(out)["ellipsoid"])
        np.testing.assert_allclose(e.bounding_halfwidths(), [2.0, 1.0], rtol=1e-12)

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "e.json"
        spec.write_text(json.dumps({"dim": 2, "radii": [2.0, 1.0], "centre": [1.0, 0.0]}))
        code, out, _ = run(
            ["sample", "--spec", str(spec), "--count", "3", "--seed", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["ellipsoid"]["centre"] == [1.0, 0.0]

    def test_spec_conflicts_with_centre(self, capsys, tmp_path):
        spec = tmp_path / "e.json"
        spec.write_text(json.dumps({"dim": 2, "radii": [2.0, 1.0]}))
        code, _, err = run(
            ["sample", "--spec", str(spec), "--centre", "1,0", "--count", "3", "--seed", "2"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("foci", [5, {"a": 1, "b": 2}, [[0.0, 0.0]]], ids=repr)
    def test_malformed_foci_are_config_errors(self, foci, capsys, tmp_path):
        spec = tmp_path / "e.json"
        spec.write_text(json.dumps({"dim": 2, "radii": [2.0, 1.0], "foci": foci}))
        foci_file = tmp_path / "f.json"
        foci_file.write_text(json.dumps(foci))
        for source in (["--spec", str(spec)], ["--radii", "2,1", "--foci", str(foci_file)]):
            code, _, err = run(["sample", *source, "--count", "3", "--seed", "2"], capsys)
            assert code == 2
            assert err.startswith("error: ")

    def test_singular_shape_is_config_error(self, capsys, tmp_path):
        shape = tmp_path / "bad.txt"
        shape.write_text("1 0\n0 0\n")
        code, _, err = run(["sample", "--shape", str(shape), "--count", "3", "--seed", "2"], capsys)
        assert code == 2

    def test_source_errors_keep_their_class(self, capsys, tmp_path):
        spec = tmp_path / "e65.json"
        spec.write_text(json.dumps({"dim": 65, "radii": [1.0] * 65}))
        by_dim = run(["volume", "--dim", "65", "--seed", "1"], capsys)
        assert by_dim == (
            2, "", "error: DimensionOutOfRange: dimension 65 outside supported range 1..64\n"
        )
        assert run(["volume", "--spec", str(spec), "--seed", "1"], capsys) == by_dim
        quadratic = tmp_path / "q.txt"
        quadratic.write_text("1 2\n2 1\n")
        code, _, err = run(["volume", "--quadratic", str(quadratic), "--seed", "1"], capsys)
        assert code == 2 and err.startswith("error: NotPositiveDefinite: ")

    def test_ragged_matrix_is_config_error(self, capsys, tmp_path):
        shape = tmp_path / "ragged.txt"
        shape.write_text("1 0\n0\n")
        code, _, err = run(["sample", "--shape", str(shape), "--count", "3", "--seed", "2"], capsys)
        assert code == 2
        assert "ragged" in err


class TestCheckCommand:
    def test_default_checks_pass(self, capsys):
        code, out, _ = run(["check", *RADII_ARGS, "--count", "100000", "--seed", "7"], capsys)
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["test"] for r in reports] == [
            "chi_square_uniformity",
            "radial_ks",
            "proof_identity",
        ]
        assert all(r["pass"] for r in reports)
        for r in reports:
            assert set(r) == {"test", "statistic", "dof", "critical", "alpha", "pass", "n_samples"}

    def test_biased_negative_control_exits_3(self, capsys):
        code, out, _ = run(
            ["check", *RADII_ARGS, "--count", "100000", "--seed", "7", "--method", "biased"],
            capsys,
        )
        assert code == 3
        reports = [json.loads(line) for line in out.strip().split("\n")]
        by_name = {r["test"]: r for r in reports}
        assert not by_name["chi_square_uniformity"]["pass"]
        assert not by_name["radial_ks"]["pass"]

    @pytest.mark.parametrize(
        "radii, centre",
        [
            ("0.001,0.001", "10000,0"),
            ("1e3,1e3", "1e10,0"),
            (",".join(["0.001"] * 64), ",".join(["10000"] * 64)),
        ],
        ids=["small-far", "large-far", "small-far-64d"],
    )
    def test_identity_check_is_scale_free(self, radii, centre, capsys):
        argv = ["check", "--radii", radii, "--centre", centre, "--count", "20000", "--seed", "1",
                "--tests", "identity"]
        code, out, _ = run(argv, capsys)
        assert code == 0, out
        # The statistic is the residual over its rounding bound, which the centre's
        # rounding dominates here: the small far disc reads 0.092 of it.
        assert json.loads(out)["statistic"] < 0.1

    def test_condition_1e6_shape_passes(self, capsys, tmp_path):
        # unit scale and |det| = 1e-30, once rejected as singular
        n = 10
        rows = (random_rotation(n, RngStream(17)) * np.logspace(-6, 0, n)).tolist()
        shape = tmp_path / "kappa.txt"
        shape.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
        code, out, _ = run(["check", "--shape", str(shape), "--count", "30000", "--seed", "1"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_undersized_count_is_config_error(self, capsys):
        code, _, err = run(["check", *RADII_ARGS, "--count", "50", "--seed", "7"], capsys)
        assert code == 2
        assert "InsufficientSamples" in err

    def test_test_selection(self, capsys):
        code, out, _ = run(
            ["check", *RADII_ARGS, "--count", "5000", "--seed", "7", "--tests", "ks"], capsys
        )
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["test"] for r in reports] == ["radial_ks"]

    def test_unknown_test_rejected(self, capsys):
        code, _, err = run(
            ["check", *RADII_ARGS, "--count", "5000", "--seed", "7", "--tests", "anderson"], capsys
        )
        assert code == 2

    def test_alpha_and_shells_flags(self, capsys):
        code, out, _ = run(
            ["check", *RADII_ARGS, "--count", "100000", "--seed", "7", "--alpha", "0.01",
             "--shells", "8", "--tests", "chi2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out.strip())
        assert report["alpha"] == 0.01
        assert report["dof"] == 8 * 4 - 1

    def test_ks_uses_the_requested_alpha(self, capsys):
        reports = {}
        for alpha in ("0.01", "0.001"):
            code, out, _ = run(
                ["check", *RADII_ARGS, "--count", "5000", "--seed", "7", "--alpha", alpha,
                 "--tests", "ks"],
                capsys,
            )
            assert code == 0
            reports[alpha] = json.loads(out.strip())
        assert reports["0.01"]["alpha"] == 0.01
        assert reports["0.01"]["critical"] == 1.63 / math.sqrt(5000)
        assert reports["0.001"]["critical"] == 1.95 / math.sqrt(5000)
        assert reports["0.01"]["statistic"] == reports["0.001"]["statistic"]

    def test_each_test_pulls_each_point_back_once_in_chunks(self, capsys, monkeypatch):
        rows = []
        pullback = Ellipsoid.pullback

        def recording(self, points):
            rows.append(points.shape[0])
            return pullback(self, points)

        monkeypatch.setattr(Ellipsoid, "pullback", recording)
        argv = ["check", "--radii", "2,1", "--count", "20000", "--seed", "7", "--tests"]
        # chi2 and ks share one pull-back of each point; the identity check pulls
        # back the images of the n unit vectors.
        for tests, pulled_back in (("chi2,ks,identity", 20002), ("ks", 20000), ("identity", 2)):
            rows.clear()
            assert run([*argv, tests], capsys)[0] == 0
            assert sum(rows) == pulled_back
            assert all(r <= CHUNK_SIZE for r in rows)
        # Inputs a test rejects are rejected before any point is pulled back.
        rows.clear()
        for flags in (["--dim", "64", "--count", "20000", "--tests", "chi2"],
                      ["--dim", "3", "--count", "10", "--tests", "ks"]):
            assert run(["check", *flags, "--seed", "7"], capsys)[0] == 2
        assert rows == []

    # Each command line breaks one input rule, or two where the first in
    # run order is the one reported; none of them draws the batch.
    REJECTED = [
        (["--dim", "63", "--count", "1000000", "--tests", "chi2"],
         "ValueError: dim must be in 1..62"),
        (["--dim", "2", "--shells", "0", "--count", "2000000"],
         "ValueError: shells must be positive"),
        (["--dim", "2", "--shells", "-3", "--count", "1000", "--tests", "ks"],
         "ValueError: shells must be positive"),
        (["--dim", "2", "--shells", "-3", "--count", "1000", "--tests", "identity"],
         "ValueError: shells must be positive"),
        (["--dim", "10", "--count", "1000", "--tests", "chi2"],
         "InsufficientSamples: 1000 samples give 0.24 expected per bin; need at least 5.0"),
        (["--dim", "2", "--count", "50", "--tests", "ks"],
         "InsufficientSamples: KS needs at least 100 samples, got 50"),
        (["--dim", "2", "--count", "50", "--tests", "identity,ks,chi2"],
         "InsufficientSamples: KS needs at least 100 samples, got 50"),
        (["--dim", "2", "--count", "50", "--tests", "chi2,ks"],
         "InsufficientSamples: 50 samples give 3.12 expected per bin; need at least 5.0"),
        (["--dim", "2", "--count", "0"], "ValueError: count must be at least 1"),
        (["--dim", "63", "--count", "0", "--tests", "chi2"],
         "ValueError: count must be at least 1"),
        (["--dim", "64", "--count", "10", "--method", "reject"],
         "ValueError: rejection needs 5.99e+39 draws, over the 1000000000 cap"),
        (["--dim", "2", "--count", "1000000000000000", "--tests", "chi2"],
         "ValueError: transform needs 1e+15 draws, over the 1000000000 cap"),
        (["--dim", "2", "--count", "1000", "--tests", "ks,identity,ks"],
         "ConfigError: --tests entries must be distinct names from ('chi2', 'ks', 'identity'): "
         "['ks', 'identity', 'ks']"),
    ]
    # The cases that a chi2 or ks input rule rejects, after the request passed.
    RULE_REJECTED = [
        (flags, error) for flags, error in REJECTED
        if error.startswith(("InsufficientSamples", "ValueError: dim", "ValueError: shells"))
    ]

    @pytest.mark.parametrize("flags, error", REJECTED, ids=[" ".join(f) for f, _ in REJECTED])
    def test_rejected_inputs_never_draw_the_batch(self, flags, error, capsys, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise ValueError("drew the batch")

        monkeypatch.setattr(sampling, "_transform_chunk", refuse)
        monkeypatch.setattr(sampling, "_box_rejection_chunk", refuse)
        code, out, err = run(["check", *flags, "--seed", "1"], capsys)
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert calls == []

    @pytest.mark.parametrize("flags, error", RULE_REJECTED, ids=[" ".join(f) for f, _ in RULE_REJECTED])
    def test_certify_rejects_as_check_does_without_reading_a_point(self, flags, error):
        args = build_parser().parse_args(["check", *flags, "--seed", "1"])
        tests = [name for name in args.tests.split(",") if name != "identity"]

        def refuse(i, rows):
            raise AssertionError("read a point")

        with pytest.raises(Exception) as raised:
            certify(resolve_ellipsoid(args)[0], args.count, refuse, tests, args.shells, args.alpha)
        assert f"{type(raised.value).__name__}: {raised.value}" == error

    def test_identity_only_check_draws_no_batch(self, capsys, monkeypatch):
        argv = ["check", "--dim", "64", "--tests", "identity", "--seed", "1", "--count"]
        small = run([*argv, "100"], capsys)

        def refuse(*args, **kwargs):
            raise ValueError("drew the batch")

        monkeypatch.setattr(sampling, "_transform_chunk", refuse)
        monkeypatch.setattr(sampling, "_box_rejection_chunk", refuse)
        assert run([*argv, "1000000"], capsys) == small
        assert small[0] == 0

    # KS keeps 8 B a point (||u||^n, for its one sort) and chi2 only its bin
    # counts, so doubling --count adds that much, and not the 8 n B of a batch.
    @pytest.mark.parametrize("dim, tests, per_point", [(64, "ks", 8), (10, "chi2", 0)])
    def test_peak_memory_is_flat_in_the_count(self, dim, tests, per_point, capsys, monkeypatch):
        # Both counts run on two threads, each holding one chunk's buffer.
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        peaks = []
        for count in (65536, 131072):
            argv = ["check", "--dim", str(dim), "--count", str(count), "--seed", "3", "--tests", tests]
            tracemalloc.start()
            try:
                code = main(argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == 0
        assert peaks[1] - peaks[0] <= per_point * 65536 + 1e6, peaks

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_own_peak_of_a_64d_check_holds_no_batch(self):
        # Its 250000 x 64 batch alone would take 128 MB.  Streamed, the run
        # holds the interpreter and numpy (about 32 MB), KS's 2 MB of ||u||^n
        # and one 4.2 MB chunk buffer per thread: under 64 MB on two threads.
        readings = own_peak_readings(["check", "--dim", "64", "--count", "250000", "--tests", "ks",
                                      "--seed", "1"])
        # More usable CPUs run more threads, each with its buffer and a piece's temporaries.
        threads = min(len(os.sched_getaffinity(0)), math.ceil(250000 / CHUNK_SIZE))
        assert float(readings["own_peak_mb"]) < 64 + 5.2 * max(0, threads - 2), readings

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_own_peak_of_a_sample_is_flat_in_the_count(self):
        # Each chunk is drawn and rendered by one task and written in chunk
        # order, so 4e6 points hold what 1e6 do; a held batch would add 48 MB.
        argv = ["sample", "--dim", "2", "--seed", "1", "--count"]
        peaks = [float(own_peak_readings([*argv, n])["own_peak_mb"]) for n in ("1000000", "4000000")]
        assert abs(peaks[1] - peaks[0]) <= 2.0, peaks

    # Box rejection stops short of 64-d: the ball fills 1.7e-39 of its box.
    STREAMED = [
        (method, n) for method in ("transform", "reject", "biased") for n in (2, 10, 64)
        if (method, n) != ("reject", 64)
    ]

    @pytest.mark.parametrize("method, dim", STREAMED)
    def test_streamed_reports_equal_the_api_on_the_held_batch(self, method, dim, capsys):
        # Past two chunks, with a short third; at 10-d, 2 shells give 2048 bins.
        count = 2 * CHUNK_SIZE + 77
        tests = "chi2,ks" if dim <= 10 else "ks"
        argv = ["check", "--dim", str(dim), "--count", str(count), "--seed", "11",
                "--shells", "2", "--alpha", "0.01", "--tests", tests, "--method", method]
        code, out, _ = run(argv, capsys)
        e = cli.resolve_ellipsoid(cli.build_parser().parse_args(argv))[0]
        batch = sample_batch(e, count, 11, _METHOD_BY_FLAG[method])
        expected = [radial_ks(batch, e, alpha=0.01)]
        if dim <= 10:
            expected.insert(0, chi_square_uniformity(batch, e, shells=2, alpha=0.01))
        assert out == "".join(r.to_json() + "\n" for r in expected)
        assert code == (0 if all(r.passed for r in expected) else 3)

    def test_check_request_runs_once(self, capsys, monkeypatch):
        # The request, and with it the rejection rate's volume and box volume,
        # once per command: check hands the rate to its pass.
        calls = []

        def count(owner, attr):
            original = getattr(owner, attr)

            def counted(*args):
                calls.append(attr)
                return original(*args)

            monkeypatch.setattr(owner, attr, counted)

        for owner, attr in ((sampling, "_check_request"), (Ellipsoid, "volume"),
                            (Ellipsoid, "box_volume")):
            count(owner, attr)
        argv = ["check", "--dim", "3", "--count", "20000", "--seed", "2", "--method", "reject",
                "--tests", "chi2,ks"]
        assert run(argv, capsys)[0] == 0
        assert calls == ["_check_request", "volume", "box_volume"]


def ill_conditioned_shape_text(n: int = 10, smallest: float = 1e-11, largest: float = 1.0) -> str:
    """q1 diag(geomspace(largest, largest * smallest, n)) q2^T in the matrix text format.

    q1 and q2 are the Q factors of two successive standard normal n x n draws
    of ``np.random.default_rng(n)``.  The default's 1-norm condition is about 2e11.
    """
    rng = np.random.default_rng(n)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return matrix_text(q1 @ np.diag(np.geomspace(largest, largest * smallest, n)) @ q2.T)


class TestCheckTolerance:
    """The pull-back tolerance grows with the rounding an ellipsoid's points can carry."""

    @pytest.fixture(params=["centre-1e10", "centre-1e12", "condition-2e11"])
    def argv(self, request, tmp_path):
        if request.param == "condition-2e11":
            path = tmp_path / "shape.txt"
            path.write_text(ill_conditioned_shape_text())
            return ["check", "--shape", str(path), "--count", "200000", "--seed", "1",
                    "--tests", "ks,identity"]
        centre = request.param.split("-")[1]
        return ["check", "--dim", "2", f"--centre={centre},{centre}", "--count", "1000000",
                "--seed", "1", "--tests", "ks"]

    def test_correct_points_pass(self, argv, capsys):
        # Their correct points reach 2e-7, 2e-5 and 2.4e-6 past norm 1, far above
        # the least tolerance, 1e-9.
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert all(json.loads(line)["pass"] for line in out.splitlines())

    def test_a_point_at_1_01_of_the_boundary_still_fails(self, argv, capsys, monkeypatch):
        drawn = cli._drawn_chunks

        def corrupted(e, *args):
            points = drawn(e, *args)

            def chunk(i, rows):
                out = points(i, rows)
                if i == 1:
                    out[5] = e.forward(1.01 * np.eye(e.dim)[0])
                return out

            return chunk

        monkeypatch.setattr(cli, "_drawn_chunks", corrupted)
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: PointOutsideEllipsoid: pull-back norm 1.0"), err


class TestIdentityCheck:
    """``identity`` compares the built maps with the matrix on the command line."""

    @pytest.fixture(params=[2, 10, 64])
    def files(self, request, tmp_path):
        n = request.param
        paths = {"Q": tmp_path / "quadratic.txt", "S": tmp_path / "shape.txt"}
        paths["Q"].write_text(matrix_text(rand_spd(n, RngStream(n))))
        paths["S"].write_text(dense_shape_text(n))
        return {key: str(path) for key, path in paths.items()}

    @pytest.mark.parametrize("flag", ["--quadratic", "--shape"])
    def test_correct_builds_pass(self, flag, files, capsys):
        argv = ["check", flag, files[flag[2].upper()], "--tests", "identity", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["statistic"] < 1e-3

    # A quadratic-form matrix built with the Cholesky convention, or a shape
    # built from its transpose: both give a valid ellipsoid, but not the user's.
    @pytest.mark.parametrize("flag, builder, slip", [
        ("--quadratic", "from_quadratic", lambda m, centre: Ellipsoid.from_cholesky_convention(m, centre)),
        ("--shape", "from_shape", lambda s, centre: Ellipsoid(np.asarray(s).T, centre)),
    ])
    def test_a_slip_in_the_build_fails(self, flag, builder, slip, files, capsys, monkeypatch):
        monkeypatch.setattr(Ellipsoid, builder, classmethod(lambda cls, m, centre: slip(m, centre)))
        argv = ["check", flag, files[flag[2].upper()], "--tests", "identity", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (3, "")
        assert json.loads(out)["statistic"] > 1e3

    @pytest.mark.parametrize("argv", [
        ["--dim", "2", "--centre=1e10,1e10"],
        ["--dim", "2", "--centre=1e12,1e12"],
        ["--radii", "3,0.5", "--foci", "{F}"],
    ])
    def test_far_centres_and_foci_pass(self, argv, capsys, tmp_path):
        foci = tmp_path / "foci.json"
        foci.write_text(json.dumps([[1e12, -3.0], [1e12 + 2.0, 5.0]]))
        argv = [arg.format(F=foci) for arg in argv]
        code, out, err = run(["check", *argv, "--tests", "identity", "--seed", "1"], capsys)
        assert (code, err) == (0, "")

    def test_a_transposed_64d_ill_conditioned_shape_fails(self, capsys, tmp_path, monkeypatch):
        # 1-norm condition 5e11, where the bound is largest, and |det| 1e-224
        # (at largest 1, 1e-352 would underflow the volume).
        path = tmp_path / "shape.txt"
        path.write_text(ill_conditioned_shape_text(64, 1e-11, 100.0))
        argv = ["check", "--shape", str(path), "--tests", "identity", "--seed", "1"]
        assert run(argv, capsys)[:3:2] == (0, "")
        monkeypatch.setattr(Ellipsoid, "from_shape", classmethod(lambda cls, s, c: cls(np.asarray(s).T, c)))
        assert run(argv, capsys)[:3:2] == (3, "")

    def test_the_ill_conditioned_shape_passes(self, capsys, tmp_path):
        path = tmp_path / "shape.txt"
        path.write_text(ill_conditioned_shape_text())
        for centre in ([], ["--centre", ",".join(["1e12"] * 10)]):
            code, out, err = run(["check", "--shape", str(path), *centre, "--tests", "identity",
                                  "--seed", "1"], capsys)
            assert (code, err) == (0, "")

    def test_the_report_reads_no_seed_and_no_count(self, capsys):
        lines = {
            run(["check", "--radii", "2,1", "--centre", "1,0", "--tests", "identity", "--seed", seed,
                 "--count", count], capsys)[1]
            for seed in ("0", "7", str(2**64 - 1)) for count in ("1", "1000")
        }
        assert len(lines) == 1
        assert json.loads(lines.pop())["n_samples"] == 2


class TestVolumeRange:
    """A volume outside float64's normal range is refused, never printed as 0.0 or inf."""

    UNDERFLOW = "error: FloatingPointError: the volume underflows float64\n"
    OVERFLOW = "error: OverflowError: the volume overflows float64\n"
    SINGULAR = "error: SingularShape: |det| is 0: the shape is singular or its determinant underflows\n"

    # The unit-scale 64-d shape with singular values geomspace(1, 1 / cond, 64):
    # |det| is 1e-288, 5e-304 and 1e-320 at the first three, and 0.0 at the last.
    @pytest.mark.parametrize("cond, code, err", [
        (1e9, 0, ""),
        (3e9, 2, UNDERFLOW),
        (1e10, 2, UNDERFLOW),
        (3e10, 2, SINGULAR),
    ])
    def test_unit_scale_64d_volume(self, cond, code, err, capsys, tmp_path):
        path = tmp_path / "shape.txt"
        path.write_text(ill_conditioned_shape_text(64, 1 / cond))
        got = run(["volume", "--shape", str(path), "--seed", "1"], capsys)
        assert (got[0], got[2]) == (code, err)
        if code == 0:
            assert float(got[1].split()[1]) >= sys.float_info.min

    def test_check_past_the_underflow(self, capsys, tmp_path):
        # Only the density needs the volume: ks passes, and identity names the underflow.
        path = tmp_path / "shape.txt"
        path.write_text(ill_conditioned_shape_text(64, 1e-10))
        argv = ["check", "--shape", str(path), "--count", "20000", "--seed", "1", "--tests"]
        code, out, err = run([*argv, "ks"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["pass"]
        assert run([*argv, "ks,identity"], capsys) == (2, "", self.UNDERFLOW)

    def test_radii_past_either_end(self, capsys):
        small, large = (["--radii", ",".join([radius] * 64), "--seed", "1"] for radius in ("1e-5", "1e5"))
        assert run(["volume", *small], capsys) == (2, "", self.UNDERFLOW)
        assert run(["volume", *large], capsys) == (2, "", self.OVERFLOW)
        # |det| overflows, but only the volume needs it.
        code, out, err = run(["sample", *large, "--count", "3"], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 4


class TestVolumeCommand:
    def test_closed_form(self, capsys):
        code, out, _ = run(["volume", "--radii", "2,1", "--seed", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"volume {2.0 * math.pi!r}"

    def test_unit_3ball_from_shape_file(self, capsys, tmp_path):
        shape = tmp_path / "i3.txt"
        shape.write_text("1 0 0\n0 1 0\n0 0 1\n")
        code, out, _ = run(["volume", "--shape", str(shape), "--seed", "1"], capsys)
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(unit_ball_volume(3), rel=1e-15)

    def test_large_well_conditioned_64d(self, capsys):
        radii = [3.0] + [2.0] * 63  # |det| = 2.8e19, condition number 1.5
        code, out, _ = run(["volume", "--radii", ",".join(map(str, radii)), "--seed", "1"], capsys)
        assert code == 0
        expected = unit_ball_volume(64) * 3.0 * 2.0**63
        assert float(out.split()[1]) == pytest.approx(expected, rel=1e-12)

    def test_mc_cross_check_agrees(self, capsys):
        code, out, _ = run(
            ["volume", "--radii", "2,1", "--seed", "1", "--mc", "1000000"], capsys
        )
        assert code == 0
        fields = dict(line.split() for line in out.strip().split("\n"))
        assert fields["verdict"] == "agree"
        assert abs(float(fields["mc_estimate"]) - 2.0 * math.pi) <= 3.0 * float(fields["mc_stderr"])

    def test_mc_agrees_on_a_segment(self, capsys):
        # In 1-d the box is the segment: every draw is accepted, stderr is 0.
        code, out, _ = run(["volume", "--dim", "1", "--mc", "100000", "--seed", "1"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["mc_estimate 2.0", "mc_stderr 0.0", "verdict agree"]

    def test_mc_verdict_holds_when_few_draws_land_inside(self, capsys):
        # The 12-d unit ball fills 3.3e-4 of its box: about 3 of 10^4 draws.
        disagree = [
            seed
            for seed in range(200)
            if run(["volume", "--dim", "12", "--mc", "10000", "--seed", str(seed)], capsys)[0] != 0
        ]
        assert len(disagree) <= 4, disagree

    def test_mc_count_past_the_cap_is_exit_2_at_once(self, capsys):
        code, out, err = run(
            ["volume", "--radii", "1,1", "--mc", "1000000000000000", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1


class TestExitCodeDiscipline:
    def test_io_failure_is_exit_1(self, capsys):
        code, _, err = run(
            ["sample", "--dim", "2", "--count", "5", "--seed", "1",
             "--out", "/nonexistent_dir/x.csv"],
            capsys,
        )
        assert code == 1

    def test_missing_seed_is_exit_2(self, capsys):
        code = main(["sample", "--dim", "2", "--count", "5"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "command",
        [["volume", "--dim", "2"], ["volume", "--dim", "2", "--mc", "1000"],
         ["sample", "--dim", "2"], ["check", "--dim", "2"]],
        ids=lambda command: " ".join(command),
    )
    def test_seed_outside_64_bits_is_exit_2_for_every_command(self, command, seed, capsys):
        code, out, err = run([*command, "--seed", seed], capsys)
        assert (code, out, err) == (2, "", "error: ValueError: seed must be an unsigned 64-bit integer\n")

    @pytest.mark.parametrize("seed, code", [("1", 0), ("-1", 2)])
    def test_volume_never_imports_numpy_random(self, seed, code):
        # It draws nothing, and the import costs about 10 ms and 6 MB of its start-up.
        script = ("import sys; from ellipsample.cli import main; "
                  f"code = main(['volume', '--dim', '2', '--seed', '{seed}']); "
                  "print(code, 'numpy.random' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                                text=True, timeout=120)
        assert result.stdout.splitlines()[-1] == f"{code} False", result.stderr

    def test_bad_choice_is_exit_2(self, capsys):
        code = main(["sample", "--dim", "2", "--seed", "1", "--format", "png"])
        capsys.readouterr()
        assert code == 2

    def test_statistical_failure_is_exit_3(self, capsys):
        code, _, _ = run(
            ["check", "--dim", "2", "--count", "100000", "--seed", "7", "--method", "biased",
             "--tests", "ks"],
            capsys,
        )
        assert code == 3

    def test_point_outside_ellipsoid_is_exit_3(self, capsys, monkeypatch):
        # a drawn point outside the ellipsoid fails certification; it is not a config error
        draw = sampling._transform_chunk

        def stretched(e, *args):
            out = draw(e, *args)
            out[:] = 1.01 * (out - e.centre) + e.centre
            return out

        monkeypatch.setattr(sampling, "_transform_chunk", stretched)
        code, out, err = run(
            ["check", "--dim", "3", "--count", "5000", "--seed", "1", "--tests", "ks"], capsys
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: PointOutsideEllipsoid: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "unbuffered, fmt, count",
        [(False, "csv", 20000), (True, "csv", 20000), (False, "json", 20000),
         (True, "json", 20000), (False, "svg", 3)],
        ids=["buffered", "unbuffered", "buffered-json", "unbuffered-json", "buffered-svg-3"],
    )
    def test_closed_stdout_is_exit_1_with_one_error_line(self, unbuffered, fmt, count):
        # 20000 rows are more than CHUNK_SIZE, so output is still being written
        # when the reader leaves; json is one write, which the reader cuts
        # short.  Three svg rows stay in the stdout buffer until the flush,
        # which may find the reader gone (exit 1) or not yet (exit 0), so that
        # case runs a few times; the exit flush must never fail (exit 120).
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "ellipsample", "sample", "--dim", "2", "--count",
                str(count), "--seed", "1", "--format", fmt]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        for _ in range(1 if count > CHUNK_SIZE else 5):
            with subprocess.Popen(argv, env=env, **pipes) as proc:
                head = proc.stdout.read(10)
                proc.stdout.close()
                err = proc.stderr.read().decode()
            assert len(head) == 10
            if proc.returncode == 0 and count <= CHUNK_SIZE:
                assert err == ""
                continue
            assert proc.returncode == 1
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.skipif(os.name != "posix", reason="closes descriptor 1 in the child")
    @pytest.mark.parametrize(
        "command",
        [["sample", "--dim", "2", "--count", "5"], ["check", "--dim", "2"], ["volume", "--dim", "2"]],
    )
    def test_stdout_closed_at_start_is_exit_1_with_one_error_line(self, command):
        # With descriptor 1 closed at start, the interpreter sets sys.stdout to None.
        result = subprocess.run(
            [sys.executable, "-m", "ellipsample", *command, "--seed", "1"], env=child_env(),
            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.decode() == "error: standard output is closed\n"

    # Per list flag: a list with an empty entry, one with spaces round its
    # entries, and the same list without them.
    COMMA_LISTS = {
        "radii": (["volume", "--radii"], "2,,1", " 2, 1 ", "2,1"),
        "centre": (["volume", "--radii", "2,1", "--centre"], "1,", " 1 ,0", "1,0"),
        "tests": (["check", "--dim", "2", "--tests"], "ks,,identity", "ks, identity", "ks,identity"),
    }

    @pytest.mark.parametrize("flag", COMMA_LISTS)
    def test_comma_lists_strip_entries_and_reject_empty_ones(self, flag, capsys):
        argv, empty, spaced, plain = self.COMMA_LISTS[flag]
        code, out, err = run([*argv, empty, "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: ConfigError: --{flag} has an empty entry: {empty!r}\n"
        stripped = run([*argv, spaced, "--seed", "1"], capsys)
        assert stripped == run([*argv, plain, "--seed", "1"], capsys)
        assert stripped[0] == 0

    def test_rejection_method_dimension_cap_is_exit_2(self, capsys):
        # the one 1..64 rule; at 64-d the unit ball fills 1.7e-39 of its box,
        # so the draw budget refuses the request before any draw
        argv = ["sample", "--count", "1", "--seed", "1", "--method", "reject", "--dim"]
        assert run([*argv, "65"], capsys) == (
            2, "", "error: DimensionOutOfRange: dimension 65 outside supported range 1..64\n"
        )
        assert run([*argv, "64"], capsys) == (
            2, "", "error: ValueError: rejection needs 5.99e+38 draws, over the 1000000000 cap\n"
        )

    def test_rejection_points_lie_inside_past_12_dimensions(self, capsys):
        # the 13-d unit ball fills 1.1e-4 of its box: about 2.7e6 draws
        code, out, err = run(
            ["sample", "--dim", "13", "--count", "300", "--seed", "1", "--method", "reject"],
            capsys,
        )
        assert (code, err) == (0, "")
        points = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        assert points.shape == (300, 13)
        assert bool(Ellipsoid.from_shape(np.eye(13), np.zeros(13)).contains_many(points).all())

    def test_rejection_rate_that_underflows_is_exit_2_at_once(self, capsys, monkeypatch):
        # V_64 x 1e-320 underflows to 0, so the volume, and with it the rate, is refused
        def refuse(*args, **kwargs):
            raise AssertionError("drew a proposal")

        monkeypatch.setattr(sampling, "_box_rejection_chunk", refuse)
        code, out, err = run(
            ["sample", "--radii", ",".join(["1e-5"] * 64), "--method", "reject", "--count", "1",
             "--seed", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: FloatingPointError: the volume underflows float64\n"

    @pytest.mark.parametrize("command", ["sample", "check"])
    def test_rejection_past_the_draw_budget_is_exit_2_at_once(self, command, capsys, tmp_path):
        shape = tmp_path / "dense12.txt"
        shape.write_text(dense_shape_text(12))
        start = time.perf_counter()
        code, out, err = run(
            [command, "--shape", str(shape), "--method", "reject", "--count", "1000000",
             "--seed", "1"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: ValueError: rejection needs 1.07e+10 draws, over the 1000000000 cap\n"

    def test_overflowing_volume_is_exit_2_without_traceback(self, capsys):
        # pytest records warnings instead of printing them, so catch them here.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                ["volume", "--radii", ",".join(["1e11"] * 30), "--seed", "1"], capsys
            )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "argv, what",
        [
            ("volume --radii 1e154,1e154", "volume"),
            ("volume --radii 1e154,1e154 --mc 10000", "volume"),
            ("sample --radii 1e154,1e154 --method reject --count 4", "volume"),
            ("check --radii 1e154,1e154 --method reject --count 1000", "volume"),
            ("volume --radii 1e154,0.5e154 --mc 10000", "bounding-box volume"),
        ],
    )
    def test_volume_past_float64_is_exit_2_without_warnings(self, argv, what, capsys):
        # The points are finite, but the volume (or the box's) is not.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run([*argv.split(), "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: OverflowError: the {what} overflows float64\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["sample", "check", "volume"])
    def test_points_past_float64_are_exit_2_without_warnings(self, command, capsys):
        # sample would write inf and check would warn before exit 3 without the
        # bounding-box rule; warnings are recorded, not raised, so catch them here.
        argv = [command, "--radii", "1e308", "--centre=1e308", "--seed", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv + (["--count", "4"] if command != "volume" else []), capsys)
        assert (code, out) == (2, "")
        assert err == "error: ValueError: the bounding box at twice its extent is not finite in float64\n"
        assert [str(w.message) for w in caught] == []

    # Bounding boxes whose unscaled row norms overflow or round through subnormals.
    EXTREME_SCALES = [
        ("sample --radii 1e200 --method reject --count 4", "e+"),
        ("volume --radii 1e200 --mc 10000", "verdict agree\n"),
        ("sample --radii 1.4e154,1e150 --count 2 --format svg", "viewBox="),
        ("volume --radii 1e-200 --mc 10000", "verdict agree\n"),
        ("volume --radii 1e-160 --mc 10000", "verdict agree\n"),
        ("check --radii 1e-170 --count 1000 --method reject --tests ks", '"pass": true'),
        ("check --radii 1e200 --tests identity", '"pass": true'),
        ("check --radii 1e-170 --tests identity", '"pass": true'),
    ]

    @pytest.mark.parametrize("argv, marker", EXTREME_SCALES, ids=[a for a, _ in EXTREME_SCALES])
    def test_box_is_exact_at_extreme_scales(self, argv, marker, capsys):
        code, out, err = run([*argv.split(), "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        assert marker in out
        assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize(
        "spec, error",
        [
            ({"dim": 2.7, "radii": [1, 2]}, "spec requires an integer 'dim', got 2.7"),
            ({"dim": "2", "radii": [1, 2]}, "spec requires an integer 'dim', got '2'"),
            ({"dim": True, "radii": [1]}, "spec requires an integer 'dim', got True"),
            ([1, 2], "spec must be a mapping, got list"),
        ],
        ids=["float-dim", "str-dim", "bool-dim", "list-spec"],
    )
    def test_malformed_spec_is_exit_2(self, spec, error, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(["volume", "--spec", str(path), "--seed", "1"], capsys)
        assert (code, out, err) == (2, "", f"error: ValueError: {error}\n")

    # Each size is far past the address space, so nothing is ever allocated.
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--dim", "10000000", "--count", "5"],
            ["volume", "--dim", "10000000"],
            ["sample", "--dim", "2", "--count", str(10**15)],
            ["check", "--dim", "2", "--count", str(10**15)],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_size_is_exit_2_without_traceback(self, argv, capsys):
        code, out, err = run([*argv, "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [["--dim", "3", "--format", "svg"], ["--dim", "2", "--count", "0"],
         ["--dim", "2", "--count", "1000000000000000"],
         ["--dim", "40", "--method", "reject", "--count", "1"]],
        ids=lambda flags: " ".join(flags),
    )
    def test_config_error_leaves_out_file_untouched(self, flags, capsys, tmp_path):
        out_file = tmp_path / "out.txt"
        out_file.write_text("sentinel\n")
        code, _, _ = run(["sample", *flags, "--seed", "1", "--out", str(out_file)], capsys)
        assert code == 2
        assert out_file.read_text() == "sentinel\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["volume", "--format", "svg", "--method", "biased", "--count", "3"],
            ["volume", "--format", "csv"],
            ["volume", "--method", "transform"],
            ["volume", "--count", "3"],
            ["check", "--format", "json"],
        ],
        ids=lambda extra: " ".join(extra),
    )
    def test_flags_outside_their_subcommand_are_exit_2(self, extra, capsys):
        command, *flags = extra
        code = main([command, "--radii", "2,1", "--seed", "1", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments" in err

    # Inputs of a seeded guard over random command lines: (valid, malformed) values.
    FILES = {
        "spec": (['{"dim": 2, "radii": [2, 1]}',
                  '{"dim": 3, "quadratic": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "centre": [1, 0, 0]}'],
                 ["{", "[]", '{"dim": 2}', '{"dim": "2", "radii": [1, 1]}',
                  '{"dim": 2, "radii": [1, 1], "foci": 5}']),
        "shape": (["1 0.2\n0 2\n", "2 0 0\n0 1 0\n0 0 3\n"], ["1 1\n1 1\n", "1 2\n3\n", "", "a b\nc d\n"]),
        "quadratic": (["4 1\n1 3\n", "1 0.5\n0.5 1\n"], ["1 2\n2 1\n", "1 0.5\n0 1\n", "1e300 0\n0 1e-300\n"]),
        "rotation": (["0.6 -0.8\n0.8 0.6\n"], ["1 1\n0 1\n", "1 0 0\n0 1 0\n0 0 1\n"]),
        "foci": (["[[0, 0], [1, 1]]", "[[0, 0, 0], [1, 1, 1]]"], ["[[0, 0]]", "5", "not json"]),
    }
    VALUES = {
        "dim": (["1", "2", "3", "5", "64"], ["-1", "0", "65", "x"]),
        "radii": (["2,1", "1,1,1", "3", "1e154,1e154", "1e-200,1e-200", " 2 , 1 "],
                  ["2,,1", "a,b", "0,1", "-1,2", "nan,1", "1e308,1"]),
        "centre": (["1,0", "0,0,0", "1"], ["x", "1,,0", "1e308,0", "nan,0", "inf,0"]),
        "seed": (["0", "1", "7", str(2**64 - 1)], ["-1", str(2**64), "x"]),
        "count": (["1", "5", "100", "2000", "9000"], ["0", "-3"]),
        "method": (["transform", "reject", "biased"], ["bogus"]),
        "format": (["csv", "json", "svg"], ["png"]),
        "tests": (["chi2", "ks", "identity", "chi2,ks", "ks,identity", "identity,chi2,ks"],
                  ["", "ks,ks", "anderson"]),
        "shells": (["1", "4"], ["0", "-3"]),
        "alpha": (["0.01", "0.001"], ["0.5"]),
        "mc": (["10000", "20000"], ["9999", "-1", str(10**16)]),
    }
    FLAGS = {"sample": ("count", "method", "format"), "check": ("count", "method", "tests", "shells", "alpha"),
             "volume": ("mc",)}

    def random_argv(self, rng, files: dict, out_dir: Path) -> list[str]:
        def pick(pools):
            return rng.choice(pools[0] if rng.random() < 0.85 else pools[1])

        command = rng.choice(sorted(self.FLAGS))
        argv = [command]
        sources = ["dim", "radii", "spec", "shape", "quadratic"]
        for source in rng.sample(sources, rng.choice([0, 1, 1, 1, 1, 1, 1, 1, 2])):
            argv.append(f"--{source}={pick(files[source] if source in files else self.VALUES[source])}")
        for extra in ("rotation", "foci"):
            if rng.random() < 0.1:
                argv.append(f"--{extra}={pick(files[extra])}")
        if rng.random() < 0.2:
            argv.append(f"--centre={pick(self.VALUES['centre'])}")
        for flag in self.FLAGS[command]:
            if rng.random() < 0.6:
                argv.append(f"--{flag}={pick(self.VALUES[flag])}")
        if rng.random() < 0.1:
            argv.append(f"--out={rng.choice([out_dir / 'out.txt', out_dir / 'missing' / 'out.txt'])}")
        if rng.random() < 0.97:
            argv.append(f"--seed={pick(self.VALUES['seed'])}")
        return argv

    def test_random_command_lines_end_in_a_documented_exit_code(self, capsys, tmp_path):
        # A guard: every case below passes; a new traceback, warning (an error
        # under pytest's settings) or stray line on stderr fails it.
        files = {}
        for kind, pools in self.FILES.items():
            files[kind] = ([], [])
            for paths, texts, tag in zip(files[kind], pools, ("valid", "malformed")):
                for i, text in enumerate(texts):
                    path = tmp_path / f"{kind}-{tag}{i}"
                    path.write_text(text)
                    paths.append(str(path))
        rng = random.Random(20261020)
        for _ in range(1000):
            argv = self.random_argv(rng, files, tmp_path)
            code, out, err = run(argv, capsys)
            assert code in (0, 1, 2, 3), argv
            assert err.count("error:") <= 1, (argv, err)
            assert code != 0 or err == "", (argv, err)


@pytest.mark.parametrize(
    "argv",
    [["sample", *RADII_ARGS, "--count", str(CHUNK_SIZE + 1), "--format", fmt]
     for fmt in ("csv", "json", "svg")]
    + [["check", *RADII_ARGS, "--count", "20000"], ["volume", *RADII_ARGS, "--mc", "10000"]],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_a_text_stdout_gets_the_text_of_a_binary_one(argv, capsysbinary):
    # bench/run.py --trace 1 runs main with stdout redirected to an io.StringIO,
    # which has no binary layer under it.
    assert main([*argv, "--seed", "3"]) == 0
    binary = capsysbinary.readouterr().out
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main([*argv, "--seed", "3"]) == 0
    assert text.getvalue().encode() == binary
