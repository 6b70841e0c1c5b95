"""Random point generation for hyperellipsoids.

Every sampler is a ``sample_batch`` method.  The primary one, "transform",
draws uniform unit-ball points (Gaussian direction, radius u^(1/n)) and
pushes them through the ellipsoid's affine map, which preserves uniformity.
The map writes each chunk straight into the batch's rows
(``Ellipsoid._ball_image``), in the fixed-height row blocks that the
``Ellipsoid`` docstring describes.
Rejection from the bounding box ("ellipsoid_rejection") is kept as an
independent oracle; on the unit ball it is rejection from the cube
[-1, 1]^n.  "biased" (radius u instead of u^(1/n)) is the negative control
that proves the validation suite can detect non-uniformity.

Batches are generated from fixed-size chunks, each filled from its own
derived child stream, so a batch is a pure function of (seed, ellipsoid,
method, count) and a shorter batch is a prefix of a longer one at every
chunk boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Ellipsoid
from .linalg import as_rows, check_dim

# Box rejection beyond this dimension wastes almost every draw.
REJECTION_DIM_MAX = 12

# 10^9 random draws already take minutes; a request for more is a slip.
MAX_DRAWS = 10**9

# Fixed batch chunking; one derived stream per chunk index.
CHUNK_SIZE = 8192

# Memory cap for a single vectorized rejection proposal block.
_MAX_PROPOSALS = 500_000

METHODS = ("transform", "ellipsoid_rejection", "biased")


class RngStream:
    """Seedable, deterministic variate stream with index-based child derivation.

    Equal seeds (and derivation paths) reproduce identical sequences.
    ``derive(i)`` returns an independent child stream without consuming any
    state, so chunked code can hand out children freely; the stream itself
    is single-owner and must not be shared across threads.
    """

    __slots__ = ("seed", "spawn_key", "_gen")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=self.spawn_key))
        )

    def derive(self, child_index: int) -> "RngStream":
        """Independent child stream for the given non-negative index."""
        if child_index < 0:
            raise ValueError("child_index must be non-negative")
        return RngStream(self.seed, self.spawn_key + (int(child_index),))

    def uniforms(self, size) -> np.ndarray:
        return self._gen.random(size)

    def normals(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Points plus the provenance needed to regenerate them exactly."""

    dim: int
    points: np.ndarray
    seed: int
    method: str
    ellipsoid_spec: dict

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        # A view, so locking it leaves the caller's own array writable.
        pts = np.ascontiguousarray(as_rows(self.points, self.dim)).view()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ellipsoid_spec", dict(self.ellipsoid_spec))

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _ball_chunk(n: int, m: int, rng: RngStream, radius_exponent: float) -> np.ndarray:
    """m points of the unit n-ball: Gaussian directions, radii u**radius_exponent.

    Exponent 1/n gives the uniform law; exponent 1 gives the centre-biased
    negative control.  A Gaussian vector with exactly zero norm is redrawn.
    """
    g = np.asarray(rng.normals((m, n)), dtype=float)
    norms = np.linalg.norm(g, axis=1)
    while (stuck := norms == 0.0).any():
        g[stuck] = rng.normals((int(stuck.sum()), n))
        norms[stuck] = np.linalg.norm(g[stuck], axis=1)
    radii = rng.uniforms(m) ** radius_exponent
    g *= (radii / norms)[:, None]
    return g


def _box_proposals(e: Ellipsoid, k: int, rng: RngStream) -> np.ndarray:
    """k uniform points of the bounding box centre +- halfwidths of ``e``."""
    return (2.0 * rng.uniforms((k, e.dim)) - 1.0) * e.bounding_halfwidths() + e.centre


def _box_rejection_chunk(
    e: Ellipsoid, m: int, rng: RngStream, rate: float
) -> tuple[np.ndarray, int, int]:
    """m ellipsoid points by rejection from the bounding box.

    The expected acceptance ``rate``, volume / box volume, only sizes the
    proposal blocks.  Returns (points, attempts, accepted); accepted counts
    every proposal that landed inside, including surplus beyond m, so
    accepted/attempts is an unbiased binomial estimate of that rate.
    """
    out = np.empty((m, e.dim))
    filled = 0
    attempts = 0
    accepted = 0
    while filled < m:
        need = m - filled
        draw = min(_MAX_PROPOSALS, max(16, int(1.25 * need / rate) + 1))
        props = _box_proposals(e, draw, rng)
        keep = props[e.contains_many(props)]
        take = min(need, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
        attempts += draw
        accepted += keep.shape[0]
    return out, attempts, accepted


def random_rotation(n: int, rng: RngStream) -> np.ndarray:
    """A random n-dimensional proper rotation (QR of a Gaussian matrix).

    The R-diagonal sign fix makes the distribution Haar over the orthogonal
    group; a final column flip lands it in the determinant +1 component.
    """
    check_dim(n)
    a = np.asarray(rng.normals((n, n)), dtype=float)
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    if float(np.linalg.det(q)) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _check_request(e: Ellipsoid, count: int, method: str) -> float:
    """Reject a ``sample_batch`` request before anything is drawn; return its acceptance rate.

    For "ellipsoid_rejection" that is volume / bounding-box volume, and the
    expected count / rate box draws must stay within MAX_DRAWS; other
    methods accept every draw, rate 1.0.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method != "ellipsoid_rejection":
        return 1.0
    check_dim(e.dim, REJECTION_DIM_MAX)
    rate = e.volume() / e.box_volume()
    if count / rate > MAX_DRAWS:
        raise ValueError(f"rejection needs {count / rate:.3g} draws, over the {MAX_DRAWS} cap")
    return rate


def sample_batch(e: Ellipsoid, count: int, seed: int, method: str = "transform") -> SampleBatch:
    """Generate a reproducible batch of ``count`` points from ``e``.

    The batch is split into fixed CHUNK_SIZE chunks; chunk i is filled from
    the child stream derive(i) of the root stream for ``seed`` and depends
    on nothing else, so the first k * CHUNK_SIZE points of a larger batch
    equal the batch of k * CHUNK_SIZE points.  Chunks fill one preallocated array.
    """
    rate = _check_request(e, count, method)
    exponent = 1.0 if method == "biased" else 1.0 / e.dim
    root = RngStream(seed)
    points = np.empty((count, e.dim))
    # The only branch on the method: box rejection, or ball points mapped
    # straight into the chunk's rows by Ellipsoid._ball_image.
    for i, start in enumerate(range(0, count, CHUNK_SIZE)):
        rows = points[start : start + CHUNK_SIZE]
        if method == "ellipsoid_rejection":
            rows[:] = _box_rejection_chunk(e, len(rows), root.derive(i), rate)[0]
        else:
            e._ball_image(_ball_chunk(e.dim, len(rows), root.derive(i), exponent), out=rows)
    return SampleBatch(
        dim=e.dim,
        points=points,
        seed=int(seed),
        method=method,
        ellipsoid_spec=e.spec_dict(),
    )
