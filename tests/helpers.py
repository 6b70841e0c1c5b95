"""Shared test helpers: random instances and independent oracles."""

import numpy as np

from ellipsample import Ellipsoid, RngStream, random_rotation


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

