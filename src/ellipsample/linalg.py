"""Minimal dense linear algebra for small dimensions (1..64).

The Cholesky factorization and the back substitution are written out
rather than delegated so the error contract stays explicit: symmetry is
checked (not silently repaired) and pivots are guarded by a scale-aware
threshold instead of an absolute epsilon.  They also fix the floating-point
bits of ``Ellipsoid.from_quadratic``, and with them the CLI's output bytes.
Everything operates on plain float64 numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    NotPositiveDefinite,
    NotSymmetric,
)

# Dimension cap keeps O(n^3) costs trivial; it is not a mathematical limit.
DIM_MAX = 64

SYMMETRY_RTOL = 1e-9
PIVOT_RTOL = 1e-12
ROTATION_TOL = 1e-9


def check_dim(n: int) -> None:
    """Raise DimensionOutOfRange unless 1 <= n <= DIM_MAX: the one dimension-range rule."""
    if not 1 <= n <= DIM_MAX:
        raise DimensionOutOfRange(f"dimension {n} outside supported range 1..{DIM_MAX}")


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D float64 array of length 1..DIM_MAX."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    check_dim(arr.size)
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def as_square(m) -> np.ndarray:
    """Coerce to a finite square float64 matrix of dimension 1..DIM_MAX."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    check_dim(arr.shape[0])
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def as_rows(x, dim: int) -> np.ndarray:
    """Coerce to a float64 (N, dim) array of points."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(f"points have shape {arr.shape}, expected (N, {dim})")
    return arr


def cholesky(m) -> np.ndarray:
    """Factor a symmetric positive definite matrix as L L^T, L lower triangular.

    Symmetry is required within SYMMETRY_RTOL relative to the largest entry
    magnitude; asymmetric input raises NotSymmetric rather than being
    symmetrized, so caller bugs surface.  A pivot at or below
    dim * PIVOT_RTOL * max(diagonal) raises NotPositiveDefinite.
    """
    a = as_square(m)
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if scale > 0.0 and float(np.abs(a - a.T).max()) > SYMMETRY_RTOL * scale:
        raise NotSymmetric(
            f"asymmetry {float(np.abs(a - a.T).max()):.3e} exceeds tolerance"
        )
    pivot_floor = n * PIVOT_RTOL * float(a.diagonal().max())
    lower = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - lower[j, :j] @ lower[j, :j]
        if d <= pivot_floor:
            raise NotPositiveDefinite(
                f"pivot {d:.3e} at column {j} is at or below {pivot_floor:.3e}"
            )
        lower[j, j] = math.sqrt(d)
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def solve_upper(upper, b) -> np.ndarray:
    """Solve upper @ y = b by back substitution."""
    u = as_square(upper)
    if np.any(np.tril(u, -1) != 0.0):
        raise ValueError("strict lower triangle must be exactly zero")
    if np.any(np.diag(u) == 0.0):
        raise ValueError("diagonal entries must be nonzero")
    rhs = as_vector(b)
    n = u.shape[0]
    if rhs.size != n:
        raise DimensionMismatch(f"matrix is {n}x{n} but vector has length {rhs.size}")
    y = np.zeros(n)
    for i in range(n - 1, -1, -1):
        y[i] = (rhs[i] - u[i, i + 1 :] @ y[i + 1 :]) / u[i, i]
    return y


def is_rotation(c) -> bool:
    """True iff c is orthogonal within ROTATION_TOL and det(c) is within ROTATION_TOL of +1.

    Orthogonality is measured as the max-abs entry of c^T c - I.  Proper
    rotations only: reflections (determinant -1) return False.
    """
    arr = as_square(c)
    ortho_err = float(np.abs(arr.T @ arr - np.eye(arr.shape[0])).max())
    if ortho_err > ROTATION_TOL:
        return False
    return abs(float(np.linalg.det(arr)) - 1.0) <= ROTATION_TOL


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the shared matrix text format.

    One row per line, entries whitespace-separated, decimal or scientific
    notation; '#' starts a comment; blank lines are skipped.
    """
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            rows.append([float(tok) for tok in body.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("no matrix rows found")
    width = len(rows[0])
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"ragged matrix: row {lineno} has {len(row)} entries, expected {width}")
    return np.array(rows, dtype=float)
