"""Tests for the small dense linear-algebra kernel."""

import math

import numpy as np
import pytest

from ellipsample import (
    Ellipsoid,
    RngStream,
    random_rotation,
    unit_ball_volume,
)
from ellipsample.cli import build_parser, resolve_ellipsoid
from ellipsample.errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    NotPositiveDefinite,
    NotSymmetric,
)
from ellipsample.linalg import (
    as_square,
    as_vector,
    cholesky,
    is_rotation,
    parse_matrix_text,
    solve_upper,
)
from helpers import rand_spd

SQRT2 = math.sqrt(2.0)


# Every entry point that takes a dimension: (call, dimension given).
DIMENSION_ENTRY_POINTS = {
    "as_vector": (lambda: as_vector(np.zeros(65)), 65),
    "as_vector empty": (lambda: as_vector([]), 0),
    "as_square": (lambda: as_square(np.eye(65)), 65),
    "unit_ball_volume": (lambda: unit_ball_volume(0), 0),
    "from_spec": (lambda: Ellipsoid.from_spec({"dim": 65, "radii": [1.0]}), 65),
    "random_rotation": (lambda: random_rotation(65, RngStream(1)), 65),
    "cli --dim": (
        lambda: resolve_ellipsoid(build_parser().parse_args(["volume", "--dim", "65", "--seed", "1"])),
        65,
    ),
}


# Box rejection and mc_volume take an Ellipsoid, which from_spec has already held to this rule.
@pytest.mark.parametrize("call, n", DIMENSION_ENTRY_POINTS.values(), ids=DIMENSION_ENTRY_POINTS)
def test_every_dimension_entry_point_shares_one_rule(call, n):
    with pytest.raises(DimensionOutOfRange) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert str(info.value) == f"dimension {n} outside supported range 1..64"


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_known_2x2(self):
        lower = cholesky([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, SQRT2]], rtol=1e-15)
        # recompose and compare to the input
        np.testing.assert_allclose(lower @ lower.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-15)

    def test_indefinite_rejected(self):
        # second leading minor is 1*1 - 2*2 = -3 < 0
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            cholesky([[1.0, 0.1], [0.0, 1.0]])

    def test_asymmetry_tolerance_is_scale_relative(self):
        # absolute asymmetry 1e-6 is negligible against entries of order 1e6
        m = np.array([[2e6, 1e6], [1e6 + 1e-6, 2e6]])
        lower = cholesky(m)
        np.testing.assert_allclose(lower @ lower.T, 0.5 * (m + m.T), rtol=1e-12)

    def test_recompose_random_spd(self):
        rng = RngStream(101)
        for n in range(1, 17):
            for trial in range(4):
                m = rand_spd(n, rng.derive(n).derive(trial))
                lower = cholesky(m)
                err = np.linalg.norm(lower @ lower.T - m) / np.linalg.norm(m)
                assert err <= 1e-9
                assert np.all(np.diag(lower) > 0.0)
                assert np.all(np.triu(lower, 1) == 0.0)

    def test_dimension_cap(self):
        with pytest.raises(DimensionOutOfRange):
            cholesky(np.eye(65))

    def test_zero_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.zeros((2, 2)))


class TestSolveUpper:
    def test_round_trip_with_lower(self):
        rng = RngStream(12)
        for n in [1, 3, 8]:
            m = rand_spd(n, rng.derive(n))
            r = cholesky(m)
            b = np.asarray(rng.derive(100 + n).normals(n))
            x = solve_upper(r.T, np.linalg.solve(r, b))
            np.testing.assert_allclose(m @ x, b, atol=1e-9 * np.linalg.norm(b))

    @pytest.mark.parametrize(
        "upper, b, error, match",
        [
            ([[1.0, 0.0], [0.5, 1.0]], [1.0, 1.0], ValueError, "strict lower triangle"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0], ValueError, "expected a square matrix"),
            ([[1.0, 0.0], [0.0, math.inf]], [1.0, 1.0], ValueError, "matrix entries must be finite"),
            ([[1.0, 2.0], [0.0, 0.0]], [1.0, 1.0], ValueError, "diagonal entries must be nonzero"),
            (np.eye(2), [[1.0], [1.0]], ValueError, "expected a 1-D vector"),
            (np.eye(2), [1.0, 1.0, 1.0], DimensionMismatch, "vector has length 3"),
        ],
        ids=["nontriangular", "not square", "not finite", "zero diagonal", "2-d rhs", "rhs length"],
    )
    def test_malformed_system_rejected(self, upper, b, error, match):
        with pytest.raises(error, match=match):
            solve_upper(upper, b)


class TestIsRotation:
    def test_identity(self):
        assert is_rotation(np.eye(3))

    def test_plane_rotation(self):
        t = math.radians(30.0)
        c = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
        assert is_rotation(c)

    def test_reflection_rejected(self):
        # orthogonal but det = -1
        assert not is_rotation(np.diag([1.0, -1.0]))

    def test_non_orthogonal_rejected(self):
        assert not is_rotation([[1.0, 0.1], [0.0, 1.0]])

    def test_closed_under_composition(self):
        rng = RngStream(31)
        for n in range(2, 9):
            c1 = random_rotation(n, rng.derive(2 * n))
            c2 = random_rotation(n, rng.derive(2 * n + 1))
            assert is_rotation(c1 @ c2)


class TestMatrixTextFormat:
    def test_basic(self):
        m = parse_matrix_text("1 2\n3 4\n")
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_comments_blanks_scientific(self):
        text = "# a comment\n1e0  2.5E-1   # trailing note\n\n-3 4e2\n"
        np.testing.assert_array_equal(parse_matrix_text(text), [[1.0, 0.25], [-3.0, 400.0]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            parse_matrix_text("1 2\n3\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no matrix rows"):
            parse_matrix_text("# only comments\n")

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix_text("1 spam\n")
