"""``cli._format_rows`` writes every float as its repr, compared with ``%r`` itself."""

import sys

import numpy as np
import pytest

from ellipsample import Ellipsoid, cli, sample_batch
from ellipsample.cli import _FORMATS, _format_rows, main
from ellipsample.sampling import CHUNK_SIZE
from helpers import dense_shape, repr_rows

LINE = ("%r\n", "", 1.0)


def finite_bit_patterns(count: int, seed: int) -> np.ndarray:
    """The finite float64s among ``count`` uniformly random 64-bit patterns."""
    bits = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def assert_lines_match(x: np.ndarray) -> None:
    """One float per line, formatted and through ``%r``, in blocks that bound the memory."""
    for start in range(0, x.size, 2**14):
        rows = x[start : start + 2**14, None]
        found, expected = _format_rows(rows, 0, *LINE), repr_rows(rows, 0, *LINE)
        if found != expected:
            bad = [(a, b) for a, b in zip(found.split(), expected.split()) if a != b]
            pytest.fail(f"{len(bad)} floats differ from repr, first {bad[:5]}")


def test_random_bit_patterns_match_repr():
    # 10^6 finite patterns over every exponent (about 1/2048 of them are not finite).
    assert_lines_match(finite_bit_patterns(1_000_500, 1000)[:1_000_000])


def edge_corpus() -> np.ndarray:
    """Powers of 2 and 10 with both neighbours, the smallest subnormals, 2^53 +- k and more."""
    powers = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        np.array([float(f"1e{e}") for e in range(-323, 309)]),
    ])
    # Each layout edge is a power of 10 (1e-4, 1e16), so its neighbours are covered.
    near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    subnormals = np.arange(2**20, dtype=np.uint64).view(np.float64)
    big = 2.0**53 + np.arange(-64, 65)
    limits = np.array([sys.float_info.max, sys.float_info.min, 8e-323, 5e-324])
    return np.concatenate([near[np.isfinite(near)], subnormals, big, limits])


def test_edge_corpus_matches_repr():
    x = edge_corpus()
    assert_lines_match(x)
    # repr(-x) is "-" + repr(x), so the negative corpus is checked against the
    # positive text, which costs less than repr of a subnormal.
    for start in range(0, x.size, 2**14):
        rows = x[start : start + 2**14, None]
        positive = _format_rows(rows, 0, *LINE).split()
        assert _format_rows(-rows, 0, *LINE).split() == ["-" + text for text in positive]


def test_signed_zeros_and_layout_edges():
    x = np.array([[0.0, -0.0, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 5e-324,
                   -1.5e-05, 123.0, 0.5, 1e22, -2.5e-308]])
    assert _format_rows(x, 0, ",".join(["%r"] * 12), "", 1.0) == (
        "0.0,-0.0,0.0001,9.999999999999999e-05,1e+16,9999999999999998.0,5e-324,"
        "-1.5e-05,123.0,0.5,1e+22,-2.5e-308"
    )


@pytest.mark.parametrize("start", [0, CHUNK_SIZE])
@pytest.mark.parametrize(
    "fmt, dim", [("csv", 1), ("csv", 2), ("csv", 64), ("json", 1), ("json", 2), ("json", 64),
                 ("svg", 2)]
)
def test_every_format_template_matches_repr(fmt, dim, start):
    e = Ellipsoid.from_spec({"dim": dim, "shape": dense_shape(dim), "centre": np.zeros(dim)})
    batch = sample_batch(e, 5, 3)
    template, separator, factor = _FORMATS[fmt](batch, e)[1]
    patterns = finite_bit_patterns(300 * dim, dim)[: 200 * dim].reshape(-1, dim)
    rows = np.concatenate([batch.points, patterns])
    assert _format_rows(rows, start, template, separator, factor) == repr_rows(
        rows, start, template, separator, factor
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_bytes_equal_the_repr_rendering(fmt, monkeypatch, capsys):
    # One row past a chunk boundary, rendered by the formatter and by %r; the
    # golden cases pin 2-d output in every format and 64-d JSON past a chunk.
    argv = ["sample", "--dim", "1", "--centre", "0.25", "--count", str(CHUNK_SIZE + 1), "--seed",
            "6", "--format", fmt]
    assert main(argv) == 0
    found = capsys.readouterr().out
    monkeypatch.setattr(cli, "_format_rows", repr_rows)
    assert main(argv) == 0
    assert found == capsys.readouterr().out
