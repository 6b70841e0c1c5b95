"""Random point generation for hyperellipsoids.

Every sampler is a ``sample_batch`` method, and each method is one chunk
task that draws, scales and maps its own rows, a piece at a time.  The
primary one, "transform" (``_transform_chunk``), draws uniform unit-ball
points (Gaussian direction, radius u^(1/n)) into a chunk's rows and
pushes them there through the ellipsoid's affine map, which preserves
uniformity (``Ellipsoid._ball_image``, in the fixed-height row blocks that
the ``Ellipsoid`` docstring describes).
Rejection from the bounding box ("ellipsoid_rejection",
``_box_rejection_chunk``) is kept as an independent oracle; on the unit
ball it is rejection from the cube [-1, 1]^n.  It fills a chunk's rows in
passes of at most one piece, each sized to the rows still empty at the
expected acceptance rate.  "biased" (the transform task with radius u
instead of u^(1/n)) is the negative control that proves the validation
suite can detect non-uniformity.  Every method has one cost guard, the
MAX_DRAWS budget on count / rate draws (rate 1.0 but for rejection).

Batches are generated from fixed-size chunks, each filled from its own
derived child stream, so a batch is a pure function of (seed, ellipsoid,
method, count) and a shorter batch is a prefix of a longer one at every
chunk boundary.  ``_drawn_chunks`` is the one way points are drawn: it
checks the request (``_check_request``, the MAX_DRAWS budget) and holds the
one branch on the method.  Each chunk task draws its chunk into a new array
that it owns; ``sample_batch`` copies the chunk into the batch's rows, and
``cli``'s ``sample`` and ``check`` render or pull back the same points
without ever holding the batch.

Chunks are independent, so ``_chunk_results`` is the one driver for every
stage that maps over them: a batch's chunks, the one pass of ``sample``
(draw and render) and of ``check`` (draw and pull back), and the Monte
Carlo volume in ``validation`` all run on one thread per usable CPU.  A
chunk writes only its own rows and every reduction across chunks is an
integer sum, so the bytes do not depend on the thread count.  Nothing
configures it: one usable CPU runs every chunk inline, with no pool.

Each task does its numpy work in pieces of at most PIECE_FLOATS floats
(``_pieces``), so a task's temporaries are a small multiple of 128 KiB at
any dimension, and the peak is the output (for ``sample`` and ``check``,
the rows of the chunks being worked on, one per thread, and ``sample``'s
texts in flight or KS's 8 bytes a point) plus O(threads x 128 KiB).  A task
keeps nothing for the next one: what it allocates is freed when its
result is dropped.  A stream's variates do not depend on how a read is
split, and the affine maps work in fixed row blocks, so the pieces move no
bits.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import Ellipsoid, _sq_norms
from .linalg import as_rows, check_dim

# The one cost guard of every sampler (count / acceptance rate draws, so the count
# itself for transform and biased) and of volume --mc.  A volume --mc draw takes
# about 0.3 us at 12-d and 0.8 us at 64-d (wall time of 2e6-draw runs on two
# Xeon cores), so 10^9 draws take 5 to 15 minutes; a request for more is a slip.
MAX_DRAWS = 10**9

# Fixed batch chunking; one derived stream per chunk index.
CHUNK_SIZE = 8192

# A chunk task's working set: its numpy temporaries hold at most this many floats each.
PIECE_FLOATS = 16384

METHODS = ("transform", "ellipsoid_rejection", "biased")


def _check_seed(seed: int) -> None:
    """The one seed rule, of ``RngStream`` and of every command: ``seed`` must be in 0..2**64 - 1."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")


class RngStream:
    """Seedable, deterministic variate stream with index-based child derivation.

    Equal seeds (and derivation paths) reproduce identical sequences.
    ``derive(i)`` returns an independent child stream without consuming any
    state, so chunked code can hand out children freely: one stream per
    chunk, used by the one thread that runs that chunk.  The stream itself
    is single-owner and must not be shared across threads.
    """

    __slots__ = ("seed", "spawn_key", "_gen")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        _check_seed(self.seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key))
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def _chunk_results(count: int, fn: Callable, size: int = CHUNK_SIZE) -> Iterator[Iterator]:
    """fn(i, rows) for each chunk i, in chunk order; rows is the slice of chunk i of range(count).

    ``fn`` must depend only on i and its own rows, and its numpy work should
    release the interpreter lock and go in PIECE_FLOATS pieces (``_pieces``),
    so each thread's temporaries stay that small.  The chunks run on one
    thread per usable CPU, at most one per chunk, and at most two chunks per
    thread are started beyond those the consumer has taken, so a slow
    consumer holds the threads back instead of piling up results.  No
    result is kept once it is handed back.
    On one usable CPU, and for one chunk, they run inline, with no pool.
    Nothing configures it.

    The first chunk, in chunk order, that raises has its exception re-raised
    here, and chunks not yet started are cancelled.  The pool is shut down
    and joined on every way out.
    """
    # Made as they run, so no list of slices grows with the count.
    starts = range(0, count, size)
    chunks = (slice(start, min(start + size, count)) for start in starts)
    workers = min(_usable_cpus(), len(starts))
    if workers <= 1:
        yield (fn(i, rows) for i, rows in enumerate(chunks))
        return
    # Imported here, so runs that never make a pool do not pay for the import.
    from concurrent import futures

    pool = futures.ThreadPoolExecutor(workers)
    try:
        submits = (pool.submit(fn, i, rows) for i, rows in enumerate(chunks))
        pending = list(itertools.islice(submits, 2 * workers))

        def in_order() -> Iterator:
            # No local holds a result across the yield, so each is freed as soon
            # as its consumer drops it (sample's texts once they are written).
            while pending:
                pending.extend(itertools.islice(submits, 1))
                yield pending.pop(0).result()

        yield in_order()
    finally:
        pool.shutdown(cancel_futures=True)


def _pieces(rows: slice, dim: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` of at most PIECE_FLOATS // dim rows each."""
    step = PIECE_FLOATS // dim
    starts = range(rows.start, rows.stop, step)
    return (slice(start, min(start + step, rows.stop)) for start in starts)


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


def _transform_chunk(
    e: Ellipsoid, rng: RngStream, radius_exponent: float, out: np.ndarray
) -> np.ndarray:
    """Fill the rows of ``out`` with points of ``e``: unit-ball points through its affine map.

    A ball point is a Gaussian direction with radius u**radius_exponent;
    exponent 1/n gives the uniform law, exponent 1 the centre-biased
    negative control.  A Gaussian vector with exactly zero norm is redrawn.
    The stream is read in the order of one whole draw: all normals, then
    the redraws, then the uniforms.  So the Gaussians are drawn into
    ``out`` in one piece loop, and a second one scales each piece to the
    ball and maps it in place (``Ellipsoid._ball_image``).  Returns ``out``.
    """
    norms = np.empty(len(out))
    for piece in _pieces(slice(0, len(out)), e.dim):
        out[piece] = rng.normals((piece.stop - piece.start, e.dim))
        norms[piece] = np.sqrt(_sq_norms(out[piece]))
    while (stuck := norms == 0.0).any():
        out[stuck] = rng.normals((int(stuck.sum()), e.dim))
        norms[stuck] = np.sqrt(_sq_norms(out[stuck]))
    scale = rng.uniforms(len(out)) ** radius_exponent / norms
    for piece in _pieces(slice(0, len(out)), e.dim):
        e._ball_image(out[piece] * scale[piece, None], out=out[piece])
    return out


def _box_proposals(e: Ellipsoid, k: int, rng: RngStream) -> np.ndarray:
    """k uniform points of the bounding box centre +- halfwidths of ``e``."""
    return (2.0 * rng.uniforms((k, e.dim)) - 1.0) * e.bounding_halfwidths() + e.centre


def _box_rejection_chunk(
    e: Ellipsoid, rng: RngStream, rate: float, out: np.ndarray
) -> tuple[int, int]:
    """Fill the rows of ``out`` with points of ``e`` by rejection from its bounding box.

    Each pass draws the proposals that the rows still empty need at the
    expected acceptance ``rate`` (volume / box volume), with a quarter to
    spare, but at most one piece, and keeps the inside ones in stream order;
    the pass that fills the last row is the last.  So the rows hold the
    first inside proposals of the stream, however the passes split it.
    Returns (attempts, accepted); accepted counts every proposal that landed
    inside, the last pass's surplus too, so accepted / attempts estimates
    that rate.
    """
    filled = attempts = accepted = 0
    while filled < len(out):
        draw = min(PIECE_FLOATS // e.dim, max(16, int(1.25 * (len(out) - filled) / rate) + 1))
        props = _box_proposals(e, draw, rng)
        keep = props[e.contains_many(props)]
        take = min(len(out) - filled, len(keep))
        out[filled : filled + take] = keep[:take]
        filled += take
        attempts += draw
        accepted += len(keep)
    return attempts, accepted


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

    For "ellipsoid_rejection" that is volume / bounding-box volume; other
    methods accept every draw, rate 1.0.  Every method's expected count /
    rate draws must stay within MAX_DRAWS.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    rate = e.volume() / e.box_volume() if method == "ellipsoid_rejection" else 1.0
    if count > MAX_DRAWS * rate:
        draws = count / rate if rate else float("inf")
        name = "rejection" if method == "ellipsoid_rejection" else method
        raise ValueError(f"{name} needs {draws:.3g} draws, over the {MAX_DRAWS} cap")
    return rate


def _drawn_chunks(e: Ellipsoid, count: int, seed: int, method: str) -> Callable:
    """points(i, rows): chunk i of ``count`` of ``method``'s points of ``e`` for ``seed``.

    The one way points are drawn, for ``sample_batch`` and ``cli``'s
    ``sample`` and ``check``: the request is checked here
    (``_check_request``), before anything is drawn, and ``points`` holds the
    one branch on the method.  Each call returns a new (rows, dim) array,
    which the caller owns.
    """
    rate = _check_request(e, count, method)
    root = RngStream(seed)

    def points(i: int, rows: slice) -> np.ndarray:
        out = np.empty((rows.stop - rows.start, e.dim))
        if method == "ellipsoid_rejection":
            _box_rejection_chunk(e, root.derive(i), rate, out)
            return out
        return _transform_chunk(e, root.derive(i), 1.0 if method == "biased" else 1.0 / e.dim, out)

    return points


def sample_batch(e: Ellipsoid, count: int, seed: int, method: str = "transform") -> SampleBatch:
    """Generate a reproducible batch of ``count`` points from ``e``.

    The batch is split into fixed CHUNK_SIZE chunks; chunk i is filled from
    the child stream derive(i) of the root stream for ``seed`` and depends
    on nothing else, so the first k * CHUNK_SIZE points of a larger batch
    equal the batch of k * CHUNK_SIZE points.  Each chunk is drawn by
    ``_drawn_chunks`` and copied into its own rows of one preallocated array,
    through ``_chunk_results``.
    """
    points = _drawn_chunks(e, count, seed, method)
    batch = np.empty((count, e.dim))

    def fill(i: int, rows: slice) -> None:
        batch[rows] = points(i, rows)

    with _chunk_results(count, fill) as filled:
        list(filled)
    return SampleBatch(
        dim=e.dim,
        points=batch,
        seed=int(seed),
        method=method,
        ellipsoid_spec=e.spec_dict(),
    )
