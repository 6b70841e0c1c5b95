"""Hyperellipsoid geometry: constructors, membership, transforms, densities.

An ellipsoid is stored as the affine image of the closed unit ball,

    E = { shape @ u + centre : ||u||_2 <= 1 },

with the invertible shape matrix as the single source of truth.  Its
inverse is formed once, at construction, and every pull-back (one point or
a batch) applies it as a matmul in the same fixed-height blocks as the
forward map: see ``Ellipsoid``.  Because
the literature parameterizes ellipsoids both by a quadratic-form matrix M
(membership (x-c)^T M (x-c) <= 1) and by a Cholesky factor of a matrix S
(shape L with L L^T = S), and the two conventions describe reciprocal radii,
both constructors are provided and each documents the membership set it
produces.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NonpositiveRadius, NotARotation, SingularShape

# Samples on the boundary must test as contained despite rounding.
MEMBERSHIP_SLACK = 1e-12

# A shape whose 1-norm condition number ||S|| ||S^-1|| exceeds this, or
# with an exactly zero LU pivot, is singular; the test is scale-free, so a
# |det S| that underflows float64 is no reason to refuse a shape.
CONDITION_MAX = 1e12

# Both affine maps multiply zero-padded blocks of exactly this many rows (see Ellipsoid).
_BLOCK_ROWS = 64

_SPEC_KEYS = frozenset({"dim", "centre", "foci", "shape", "quadratic", "radii", "rotation"})


def unit_ball_volume(n: int) -> float:
    """Volume of the unit n-ball, pi^(n/2) / Gamma(n/2 + 1).

    Evaluated through the log-gamma function so large n stays stable.
    """
    linalg.check_dim(n)
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def centre_from_foci(f1, f2) -> np.ndarray:
    """Centre of an ellipsoid given its two focal points: the midpoint."""
    a = linalg.as_vector(f1)
    b = linalg.as_vector(f2)
    if a.size != b.size:
        raise DimensionMismatch(f"foci have lengths {a.size} and {b.size}")
    return 0.5 * (a + b)


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _block_product(rows: np.ndarray, matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows @ matrix written into ``out``, a C-contiguous array of the shape of ``rows``.

    Full blocks of _BLOCK_ROWS rows are multiplied straight into ``out``; a
    short last block is zero-padded to full height first.  Every row so takes
    the same BLAS call whatever the size of the input, and its bits depend on
    that row alone: one row, a chunk and a whole batch agree.  A plain
    (N, n) matmul would not; BLAS picks its kernel by the call's shape (a
    matrix-vector one for one row, a small-matrix one below a size
    threshold), and these round differently.
    """
    count, n = rows.shape
    full = count - count % _BLOCK_ROWS
    blocks = (-1, _BLOCK_ROWS, n)
    np.matmul(rows[:full].reshape(blocks), matrix, out=out[:full].reshape(blocks))
    if full < count:
        tail = np.zeros((_BLOCK_ROWS, n))
        tail[: count - full] = rows[full:]
        out[full:] = (tail @ matrix)[: count - full]
    return out


def _finite(volume: float, what: str) -> float:
    """``volume`` if it is a normal float64: OverflowError past that range, FloatingPointError below it.

    Below means 0.0 (as where |det shape| underflows) or subnormal, where
    the volume has lost its digits and 1 / volume would overflow or divide
    by zero.
    """
    if not math.isfinite(volume):
        raise OverflowError(f"the {what} overflows float64")
    if volume < np.finfo(float).tiny:
        raise FloatingPointError(f"the {what} underflows float64")
    return volume


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """||row||^2 of each row along the last axis: the one squared-norm reduction.

    A row's sum does not depend on the rows that come with it, so a point
    gets the same value alone or in a block of any size.
    """
    return (rows * rows).sum(axis=-1)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``m``, scaled so no square overflows or underflows.

    Each row is scaled by 2^-k, k the binary exponent of its largest
    magnitude (J. L. Blue, ACM TOMS 4(1), 1978), and its norm scaled back.
    A power of two scales exactly, so wherever the unscaled squares are
    normal the result has the bits of sqrt(_sq_norms(m)); a zero row is 0.
    """
    k = np.frexp(np.abs(m).max(axis=-1))[1]
    return np.ldexp(np.sqrt(_sq_norms(np.ldexp(m, -k[..., None]))), k)


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """An n-dimensional hyperellipsoid, image of the unit ball under x -> shape @ x + centre.

    ``shape`` must be invertible but need not be triangular or symmetric;
    ``abs_det_shape`` caches |det shape|, the volume scale factor (inf where
    it overflows float64 and 0.0 where it underflows, so ``volume`` refuses
    it when used, and sampling, which never reads it, does not), and the
    transposed inverse of ``shape`` is cached for the pull-back, and
    ``_condition``, the 1-norm condition number of ``shape``, for the
    tolerance of ``check``.  Instances are immutable and safe to share
    across threads.

    One extent rule serves every box: the halfwidths are the Euclidean norms
    of shape's rows, computed once and scaled (``_row_norms``) so they are
    exact at every scale, and an ellipsoid whose box at twice that extent is
    not finite in float64 is refused.

    Both affine maps are ``_block_product``: rows times a fixed matrix in
    zero-padded blocks of exactly 64 rows, so a row's bits do not depend on
    the rows that come with it.  The forward map (``_ball_image``) multiplies
    by the ``shape.T`` view, the pull-back (``pullback``) by the cached
    contiguous inverse ``_inverse_t``.  A 64-row block of a 64-d map is 2^18
    multiply-adds, and OpenBLAS hands a product to a second thread only above
    that, so both maps stay on the calling thread.  So the program
    (``__main__``) runs OpenBLAS on one thread unless the caller set
    OPENBLAS_NUM_THREADS, with the same bits.  The height and the two
    operands are not interchangeable: 64 rows against the view give the bits
    of one product over a whole sampling chunk at every n = 1..64, where 16
    rows or a contiguous ``shape.T`` differ at 24 to 33 of them; and against
    an ``inverse.T`` view the pull-back would differ from the contiguous one
    at 24 dimensions with 64 rows (41 with 16).
    """

    shape: np.ndarray
    centre: np.ndarray
    abs_det_shape: float = field(init=False)
    _inverse_t: np.ndarray = field(init=False, repr=False)
    _halfwidths: np.ndarray = field(init=False, repr=False)
    _condition: float = field(init=False, repr=False)

    def __post_init__(self):
        shape = linalg.as_square(self.shape).copy()
        centre = linalg.as_vector(self.centre).copy()
        n = centre.size
        if shape.shape[0] != n:
            raise DimensionMismatch(
                f"shape is {shape.shape[0]}x{shape.shape[0]} but centre has length {n}"
            )
        # Every point, and the sum or difference of two, must be finite in
        # float64.  By Cauchy-Schwarz every partial sum of row i of shape @ u,
        # for a unit u, is at most that row's norm: the box halfwidth.
        with np.errstate(over="ignore"):
            halfwidths = _row_norms(shape)
            reach = 2.0 * (np.abs(centre) + halfwidths)
        if not np.isfinite(reach).all():
            raise ValueError("the bounding box at twice its extent is not finite in float64")
        # An overflow is stored as inf, without a RuntimeWarning, and an
        # underflow as 0.0; volume() refuses either.
        with np.errstate(over="ignore"):
            det = float(np.linalg.det(shape))
        try:
            inverse = np.linalg.inv(shape)
        except np.linalg.LinAlgError:
            raise SingularShape("an LU pivot is exactly 0: the shape is singular") from None
        # A tiny shape can be perfectly conditioned and still have an inverse
        # past float64's range, which the condition number would read as inf.
        if not np.isfinite(inverse).all():
            raise ValueError("the inverse of the shape is not finite in float64")
        condition = float(np.linalg.norm(shape, 1) * np.linalg.norm(inverse, 1))
        if not condition <= CONDITION_MAX:
            raise SingularShape(f"condition number {condition:.3e} is numerically singular")
        object.__setattr__(self, "shape", _lock(shape))
        object.__setattr__(self, "centre", _lock(centre))
        object.__setattr__(self, "abs_det_shape", abs(det))
        object.__setattr__(self, "_inverse_t", _lock(np.ascontiguousarray(inverse.T)))
        object.__setattr__(self, "_halfwidths", _lock(halfwidths))
        object.__setattr__(self, "_condition", condition)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_shape(cls, shape, centre) -> "Ellipsoid":
        """Build from an invertible transform matrix.

        Membership set: { shape @ u + centre : ||u|| <= 1 }.
        """
        return cls(shape, centre)

    @classmethod
    def from_quadratic(cls, m, centre) -> "Ellipsoid":
        """Build from a symmetric positive definite quadratic-form matrix.

        Membership set: { x : (x - centre)^T m (x - centre) <= 1 }.  The
        stored shape is R^-T where m = R R^T, so shape @ shape^T = m^-1 and
        no second factorization is needed; the result is upper triangular.
        """
        r = linalg.cholesky(m)
        n = r.shape[0]
        eye = np.eye(n)
        shape = np.empty((n, n))
        for j in range(n):
            shape[:, j] = linalg.solve_upper(r.T, eye[j])
        return cls(shape, centre)

    @classmethod
    def from_cholesky_convention(cls, s, centre) -> "Ellipsoid":
        """Build with shape = cholesky(s), the literal L L^T = s recipe.

        Membership set: { x : (x - centre)^T s^-1 (x - centre) <= 1 }, so the
        radii are the square roots of s's eigenvalues, the *reciprocal* of
        the from_quadratic convention.  The two agree only when all radii
        are 1; pick the constructor matching your matrix's meaning.
        """
        return cls(linalg.cholesky(s), centre)

    @classmethod
    def from_radii_rotation(cls, radii, rotation, centre) -> "Ellipsoid":
        """Build from per-axis radii and a proper rotation.

        Membership set: the axis-aligned ellipsoid with the given radii,
        rotated by ``rotation`` about ``centre``; shape = rotation @ diag(radii).
        Reflections (determinant -1) are rejected even though they would
        preserve uniformity; fold them into the radii ordering instead.
        """
        r = linalg.as_vector(radii)
        if np.any(r <= 0.0):
            raise NonpositiveRadius(f"radii must be strictly positive, got {r.tolist()}")
        rot = linalg.as_square(rotation)
        if rot.shape[0] != r.size:
            raise DimensionMismatch(
                f"rotation is {rot.shape[0]}x{rot.shape[0]} but there are {r.size} radii"
            )
        if not linalg.is_rotation(rot):
            raise NotARotation("matrix is not orthogonal with determinant +1")
        return cls(rot * r, centre)

    @classmethod
    def from_spec(cls, spec: Mapping) -> "Ellipsoid":
        """Build from the JSON ellipsoid spec (shared with the CLI).

        ``spec`` is a mapping with keys: "dim", an integer (not a bool);
        exactly one shape definition among "shape", "quadratic", and "radii"
        (the latter with optional "rotation", identity by default); "centre"
        (default origin) or "foci" [f1, f2], which overrides centre via the
        midpoint.
        """
        if not isinstance(spec, Mapping):
            raise ValueError(f"spec must be a mapping, got {type(spec).__name__}")
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        defining = [k for k in ("shape", "quadratic", "radii") if k in spec]
        if len(defining) != 1:
            raise ValueError(
                "exactly one of 'shape', 'quadratic', 'radii' must be given, "
                f"got {defining or 'none'}"
            )
        if "rotation" in spec and defining[0] != "radii":
            raise ValueError("'rotation' is only valid together with 'radii'")
        dim = spec.get("dim")
        if isinstance(dim, bool) or not hasattr(dim, "__index__"):
            raise ValueError(f"spec requires an integer 'dim', got {dim!r}")
        n = operator.index(dim)
        # Checked before a default centre or rotation of that size is allocated.
        linalg.check_dim(n)

        def array(key: str, value, shape: tuple) -> np.ndarray:
            arr = np.asarray(value, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"'{key}' has shape {arr.shape}, expected {shape}")
            return arr

        if "foci" in spec:
            foci = list(spec["foci"])
            if len(foci) != 2:
                raise ValueError("'foci' must hold exactly two points")
            centre = array("centre", centre_from_foci(foci[0], foci[1]), (n,))
        else:
            centre = array("centre", spec.get("centre", np.zeros(n)), (n,))

        kind = defining[0]
        if kind == "shape":
            return cls.from_shape(array(kind, spec[kind], (n, n)), centre)
        if kind == "quadratic":
            return cls.from_quadratic(array(kind, spec[kind], (n, n)), centre)
        radii = array("radii", spec["radii"], (n,))
        rotation = array("rotation", spec.get("rotation", np.eye(n)), (n, n))
        return cls.from_radii_rotation(radii, rotation, centre)

    # -- queries ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.centre.size

    def _check_point(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {arr.shape}, expected ({self.dim},)")
        return arr

    def forward(self, u) -> np.ndarray:
        """Map a unit-ball point into the ellipsoid: shape @ u + centre.

        The one-row case of ``_ball_image``, bit for bit.
        """
        return self._ball_image(self._check_point(u)[None, :])[0]

    def _ball_image(self, u, out: np.ndarray | None = None) -> np.ndarray:
        """u @ shape^T + centre for an (N, dim) array of ball coordinates: the one forward map.

        Written into ``out`` (a new array if None, else a C-contiguous
        (N, dim) array that may be a slice of a larger one).
        """
        u = linalg.as_rows(u, self.dim)
        if out is None:
            out = np.empty(u.shape)
        elif out.shape != u.shape or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous {u.shape} array")
        _block_product(u, self.shape.T, out)
        out += self.centre
        return out

    def inverse(self, x) -> np.ndarray:
        """Pull an ellipsoid point back to ball coordinates: inverse(shape) @ (x - centre).

        The one-row case of ``pullback``, bit for bit.
        """
        return self.pullback(self._check_point(x)[None, :])[0]

    def pullback(self, points) -> np.ndarray:
        """(points - centre) @ inverse(shape)^T for an (N, dim) array: the one pull-back."""
        diff = linalg.as_rows(points, self.dim) - self.centre
        return _block_product(diff, self._inverse_t, np.empty(diff.shape))

    def contains(self, x) -> bool:
        """True iff x pulls back into the closed unit ball (with slack).

        The one-row case of ``contains_many``, so the two always agree.
        """
        return bool(self.contains_many(self._check_point(x)[None, :])[0])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership test; returns a boolean mask."""
        return _sq_norms(self.pullback(points)) <= (1.0 + MEMBERSHIP_SLACK) ** 2

    def volume(self) -> float:
        """Volume of the membership set: unit-ball volume times |det shape|.

        One outside float64's normal range is an error (``_finite``), never
        inf, 0.0 or a subnormal.
        """
        return _finite(unit_ball_volume(self.dim) * self.abs_det_shape, "volume")

    def pdf(self, x) -> float:
        """Uniform density over the ellipsoid: 1 / volume inside, 0 outside."""
        if not self.contains(x):
            return 0.0
        return 1.0 / self.volume()

    def bounding_halfwidths(self) -> np.ndarray:
        """Axis-aligned bounding-box halfwidths: Euclidean norms of shape's rows.

        The box [centre - w, centre + w] contains the ellipsoid and each
        face touches it (w_i = max of e_i . (shape @ u) over the unit ball).
        The norms are scaled (``_row_norms``), so the box is exact at every
        scale the constructor accepts: it never overflows or underflows.
        They are computed once, at construction, and returned read-only.
        """
        return self._halfwidths

    def box_volume(self) -> float:
        """Volume of the bounding box of ``bounding_halfwidths``; refused as ``volume`` is."""
        with np.errstate(over="ignore"):
            return _finite(float(np.prod(2.0 * self._halfwidths)), "bounding-box volume")

    def spec_dict(self) -> dict:
        """Resolved provenance spec; feeding it to from_spec rebuilds this ellipsoid."""
        return {
            "dim": self.dim,
            "shape": self.shape.tolist(),
            "centre": self.centre.tolist(),
        }
