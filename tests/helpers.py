"""Shared test helpers: random instances and independent oracles."""

import os
from pathlib import Path

import numpy as np

import ellipsample
from ellipsample import Ellipsoid, RngStream, random_rotation


def child_env() -> dict:
    """This environment with the imported package's source directory first on PYTHONPATH.

    A child ``python -m ellipsample`` then runs the code under test, not an
    installed copy.
    """
    env = dict(os.environ)
    src = str(Path(ellipsample.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def rand_spd(n: int, rng: RngStream) -> np.ndarray:
    """Random SPD matrix A A^T + n*eps*I; eps keeps pivots clear of the floor."""
    a = np.asarray(rng.normals((n, n)))
    return a @ a.T + n * 1e-6 * np.eye(n)


def rand_ellipsoid(n: int, rng: RngStream) -> Ellipsoid:
    """Random rotated ellipsoid: radii in [0.3, 3], random centre in [-2, 2]^n."""
    radii = 0.3 + 2.7 * np.asarray(rng.uniforms(n))
    centre = 4.0 * np.asarray(rng.uniforms(n)) - 2.0
    return Ellipsoid.from_radii_rotation(radii, random_rotation(n, rng), centre)


def rand_ball_point(n: int, rng: RngStream) -> np.ndarray:
    """A point of the unit ball, without using the sampler under test."""
    g = np.asarray(rng.normals(n))
    norm = float(np.linalg.norm(g))
    return (rng.uniforms(1)[0] ** (1.0 / n) / norm) * g


def dense_shape(n: int) -> np.ndarray:
    """A dense, non-diagonal n x n shape (1-norm condition number below 40 up to n = 64).

    The identity shape that ``--dim`` gives is mapped exactly by every BLAS
    kernel, so only a general shape shows a change of kernel in the output.
    """
    gen = np.random.default_rng(n)
    return np.eye(n) + gen.standard_normal((n, n)) / (2.0 * np.sqrt(n))


def dense_shape_text(n: int) -> str:
    """``dense_shape(n)`` in the matrix text format, each entry written with repr."""
    return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in dense_shape(n))


def repr_rows(
    block: np.ndarray, start: int, template: str, separator: str, factor: float | tuple[float, ...]
) -> bytes:
    """The reference for ``cli._format_rows``: the same ASCII text through Python's ``%r``.

    ``%r`` of a Python float is its repr, so each float is written exactly as
    repr writes it; a chunk after the first (``start`` > 0) begins with the
    separator.
    """
    text = separator.join([template] * len(block)) % tuple((block * factor).ravel().tolist())
    return (separator + text if start else text).encode()
