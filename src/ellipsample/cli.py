"""Command-line front end: ``sample``, ``check``, and ``volume``.

Exit codes: 0 success, 1 I/O failure (including a render worker that
died), 2 configuration error (including a size too large to allocate), 3
statistical failure, which includes a sampled point outside the ellipsoid.
A seed is always required; there is no silent time-based seeding, so
identical command lines produce byte-identical output.

``sample`` renders its output in CHUNK_SIZE-row chunks and writes them in
chunk order as they are done.  Formatting floats holds the interpreter
lock, so the chunks render on one forked process per usable CPU
(``_rendered_chunks``), and inline with no pool on one usable CPU, for a
single chunk, where the platform cannot fork, or while other threads run.
Nothing configures it, and the bytes are the same either way.
"""

from __future__ import annotations

import argparse
import collections
import io
import itertools
import json
import math
import os
import sys
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

import numpy as np

from . import sampling
from .errors import EllipsampleError, PointOutsideEllipsoid
from .geometry import Ellipsoid
from .linalg import check_dim, parse_matrix_text
from .sampling import CHUNK_SIZE, RngStream, SampleBatch, _check_request, sample_batch
from .validation import (
    _check_ks_count,
    _uniformity_bins,
    chi_square_uniformity,
    mc_volume,
    proof_identity_check,
    radial_ks,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3

_METHOD_BY_FLAG = {"transform": "transform", "reject": "ellipsoid_rejection", "biased": "biased"}
_CHECK_NAMES = ("chi2", "ks", "identity")
_IDENTITY_TRIALS = 20
# Child-stream index for the identity check; far above any batch chunk index.
_IDENTITY_STREAM = 2**31 - 1

# Renders one chunk of points, given the chunk and the batch row it starts at.
ChunkRenderer = Callable[[np.ndarray, int], str]


class ConfigError(Exception):
    """Invalid command-line configuration; maps to exit code 2."""


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _add_shared_flags(sub: argparse.ArgumentParser, batch: bool) -> None:
    """Ellipsoid source, --seed and --out; with ``batch`` also --count and --method."""
    src = sub.add_argument_group("ellipsoid definition (exactly one source)")
    src.add_argument("--spec", metavar="FILE.json", help="ellipsoid spec JSON file")
    src.add_argument("--shape", metavar="FILE", help="transform matrix, text format")
    src.add_argument("--quadratic", metavar="FILE", help="quadratic-form matrix, text format")
    src.add_argument("--radii", type=_parse_float_list, metavar="a,b,...", help="per-axis radii")
    src.add_argument("--rotation", metavar="FILE", help="rotation matrix (with --radii only)")
    src.add_argument("--dim", type=int, metavar="N", help="unit n-ball of this dimension")
    src.add_argument("--centre", type=_parse_float_list, metavar="c1,...", help="centre point")
    src.add_argument("--foci", metavar="FILE.json", help="JSON [f1, f2]; centre is the midpoint")
    sub.add_argument("--seed", type=int, required=True, metavar="U64", help="RNG seed (required)")
    sub.add_argument("--out", metavar="FILE", help="output file (default standard output)")
    if not batch:
        return
    sub.add_argument("--count", type=int, default=10_000, metavar="N", help="number of points")
    sub.add_argument(
        "--method",
        choices=sorted(_METHOD_BY_FLAG),
        default="transform",
        help="point generator: transform (default), reject (bounding box), biased (negative control)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsample",
        description="Uniform random points from n-dimensional hyperellipsoids.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_sample = subs.add_parser("sample", help="generate a sample batch")
    _add_shared_flags(p_sample, batch=True)
    p_sample.add_argument(
        "--format", choices=("csv", "json", "svg"), default="csv", help="output format"
    )
    p_sample.set_defaults(func=cmd_sample)

    p_check = subs.add_parser("check", help="run uniformity certification tests")
    _add_shared_flags(p_check, batch=True)
    p_check.add_argument("--alpha", type=float, choices=(0.01, 0.001), default=0.001)
    p_check.add_argument("--shells", type=int, default=4, metavar="K")
    p_check.add_argument(
        "--tests",
        default=",".join(_CHECK_NAMES),
        metavar="LIST",
        help="comma list from chi2,ks,identity (default all)",
    )
    p_check.set_defaults(func=cmd_check)

    p_volume = subs.add_parser("volume", help="closed-form volume, optional MC cross-check")
    _add_shared_flags(p_volume, batch=False)
    p_volume.add_argument("--mc", type=int, metavar="N", help="Monte Carlo draws for the cross-check")
    p_volume.set_defaults(func=cmd_volume)

    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def resolve_ellipsoid(args) -> Ellipsoid:
    """Build the ellipsoid described by the command line (exactly one source).

    The flags become an ellipsoid spec dict, so Ellipsoid.from_spec makes
    every shape and centre decision, exactly as for a --spec file.
    """
    sources = [
        name
        for name in ("spec", "shape", "quadratic", "radii", "dim")
        if getattr(args, name) is not None
    ]
    if len(sources) != 1:
        raise ConfigError(
            "exactly one of --spec/--shape/--quadratic/--radii/--dim is required, "
            f"got {sources or 'none'}"
        )
    kind = sources[0]
    if args.rotation is not None and kind != "radii":
        raise ConfigError("--rotation is only valid together with --radii")
    if kind == "spec" and (args.centre is not None or args.foci is not None):
        raise ConfigError("--spec files carry their own centre/foci")
    if args.centre is not None and args.foci is not None:
        raise ConfigError("--centre and --foci are mutually exclusive")
    # Checked before np.eye allocates a dim x dim matrix.
    if kind == "dim":
        check_dim(args.dim)

    try:
        if kind == "spec":
            return Ellipsoid.from_spec(json.loads(_read_text(args.spec)))
        if kind == "radii":
            spec = {"dim": len(args.radii), "radii": args.radii}
            if args.rotation is not None:
                spec["rotation"] = parse_matrix_text(_read_text(args.rotation))
        elif kind == "dim":
            spec = {"dim": args.dim, "shape": np.eye(args.dim)}
        else:
            matrix = parse_matrix_text(_read_text(getattr(args, kind)))
            spec = {"dim": matrix.shape[0], kind: matrix}
        if args.centre is not None:
            spec["centre"] = args.centre
        if args.foci is not None:
            spec["foci"] = json.loads(_read_text(args.foci))
        return Ellipsoid.from_spec(spec)
    # Malformed JSON values, such as a number for "foci"; every EllipsampleError
    # and ValueError keeps its own class on the way to main.
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _csv_rows(block: np.ndarray, start: int) -> str:
    # %r of a Python float is its repr, the shortest round-tripping text.
    row = ",".join(["%r"] * block.shape[1]) + "\n"
    return row * len(block) % tuple(block.ravel().tolist())


def _json_rows(block: np.ndarray, start: int) -> str:
    # json.dumps writes each float with repr, as it would for the whole list.
    return (", " if start else "") + json.dumps(block.tolist())[1:-1]


def _render_csv(batch: SampleBatch) -> tuple[str, ChunkRenderer, str]:
    """Header, chunk renderer and footer of the CSV output."""
    return ",".join(f"x{i + 1}" for i in range(batch.dim)) + "\n", _csv_rows, ""


def _render_json(batch: SampleBatch) -> tuple[str, ChunkRenderer, str]:
    """The JSON document in three parts: everything before the points, the points, the end.

    ``points`` is the document's last key, so its list can be written chunk
    by chunk between the other keys and the closing brackets.
    """
    doc = {
        "dim": batch.dim,
        "count": batch.count,
        "seed": batch.seed,
        "method": batch.method,
        "ellipsoid": batch.ellipsoid_spec,
    }
    return json.dumps(doc)[:-1] + ', "points": [', _json_rows, "]}\n"


def _render_svg(batch: SampleBatch, e: Ellipsoid) -> tuple[str, ChunkRenderer, str]:
    """Header with the outline, chunk renderer and footer of the SVG picture."""
    # Data coordinates with y negated so the picture's y axis points up;
    # vector-effect keeps the outline one device pixel at any scale.
    half = 1.08 * e.bounding_halfwidths()
    hx, hy = float(half[0]), float(half[1])
    cx, cy = float(e.centre[0]), float(e.centre[1])
    view = (cx - hx, -(cy + hy), 2.0 * hx, 2.0 * hy)
    dot = 0.004 * max(2.0 * hx, 2.0 * hy)

    theta = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    ring = e._ball_image(np.column_stack([np.cos(theta), np.sin(theta)]))
    outline = " ".join(f"{float(x)!r},{float(-y)!r}" for x, y in ring)

    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{view[0]!r} {view[1]!r} {view[2]!r} {view[3]!r}">\n'
        f'<polygon points="{outline}" fill="none" stroke="black" stroke-width="1" '
        'vector-effect="non-scaling-stroke"/>\n'
    )
    circle = '<circle cx="%r" cy="%r" r="' + repr(dot) + '"/>\n'

    def circles(block: np.ndarray, start: int) -> str:
        # Multiplying by -1.0 is IEEE negation, the same bits as -y.
        return circle * len(block) % tuple((block * (1.0, -1.0)).ravel().tolist())

    return head, circles, "</svg>\n"


def _render_chunk(points: np.ndarray, render: ChunkRenderer, start: int) -> bytes:
    return render(points[start : start + CHUNK_SIZE], start).encode()


# (points, render) of a render worker, set once in each worker by _start_worker;
# the parent never sets it.
_worker_job = None


def _start_worker(points: np.ndarray, render: ChunkRenderer, parent: int) -> None:
    global _worker_job
    _worker_job = (points, render)
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    # An idle worker blocks on a task pipe that its own inherited copy keeps
    # open, so it would outlive a parent ended by a signal, such as SIGTERM.
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(1)


def _render_in_worker(start: int) -> bytes:
    return _render_chunk(*_worker_job, start)


@contextmanager
def _rendered_chunks(points: np.ndarray, render: ChunkRenderer) -> Iterator[Iterator[bytes]]:
    """The encoded ``render(chunk, start)`` of each CHUNK_SIZE-row chunk of ``points``, in order.

    Formatting floats as text holds the interpreter lock, so the chunks are
    rendered on one forked process per usable CPU, at most one per chunk.
    Workers inherit ``points`` and ``render`` through the fork; each task
    sends back one chunk's bytes, and at most two tasks per worker are in
    flight, so a slow reader holds back the workers instead of piling up
    text.  The pool is forked on entry, before any output is opened or
    buffered, and shut down and joined on every way out; a worker whose
    parent is gone exits on its own.  Rendering is inline, with no pool, on
    one usable CPU, for one chunk, where the platform cannot fork, and while
    other threads run, since a forked child gets none of them and could find
    a lock they held still taken.

    The first chunk, in chunk order, that raises has its exception re-raised
    here; a worker that dies raises ChildProcessError.
    """
    starts = range(0, points.shape[0], CHUNK_SIZE)
    workers = min(sampling._usable_cpus(), len(starts))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield (_render_chunk(points, render, start) for start in starts)
        return
    # Imported here, so runs that never make a pool do not pay for the import.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _start_worker, (points, render, os.getpid())
    )
    try:
        ahead = iter(starts)
        # Submitting forks every worker.
        pending = collections.deque(
            pool.submit(_render_in_worker, s) for s in itertools.islice(ahead, 2 * workers)
        )

        def in_order() -> Iterator[bytes]:
            try:
                while pending:
                    chunk = pending.popleft().result()
                    start = next(ahead, None)
                    if start is not None:
                        pending.append(pool.submit(_render_in_worker, start))
                    yield chunk
            except BrokenProcessPool as exc:
                raise ChildProcessError(f"a render worker died: {exc}") from None

        yield in_order()
    finally:
        pool.shutdown(cancel_futures=True)


def _emit(pieces: Iterable[bytes], out: str | None) -> None:
    """Write each piece as it is produced, to ``out`` or standard output.

    The pieces are ASCII, so they go to the binary layer under standard
    output as they are; a text-only stream (``io.StringIO``) gets them
    decoded.  Under ``python -u`` (or PYTHONUNBUFFERED) that layer is the
    raw file, which drops whatever a short write leaves over, so a reader
    that leaves early would go unnoticed.  There the pieces go through a
    buffered writer, which completes each write or raises.
    """
    if out is not None:
        with open(out, "wb") as fh:
            fh.writelines(pieces)
        return
    stdout = sys.stdout
    binary = getattr(stdout, "buffer", None)
    if binary is None:
        stdout.writelines(piece.decode() for piece in pieces)
        return
    stdout.flush()
    if not isinstance(binary, io.RawIOBase):
        binary.writelines(pieces)
        return
    writer = io.BufferedWriter(binary)
    try:
        writer.writelines(pieces)
    finally:
        writer.detach()


def cmd_sample(args) -> int:
    e = resolve_ellipsoid(args)
    if args.format == "svg" and e.dim != 2:
        raise ConfigError("svg output requires dimension 2")
    # Sampled before --out is opened, so a failed run leaves the file untouched.
    batch = sample_batch(e, args.count, args.seed, _METHOD_BY_FLAG[args.method])
    if args.format == "csv":
        head, render, tail = _render_csv(batch)
    elif args.format == "json":
        head, render, tail = _render_json(batch)
    else:
        head, render, tail = _render_svg(batch, e)
    with _rendered_chunks(batch.points, render) as chunks:
        _emit(itertools.chain([head.encode()], chunks, [tail.encode()]), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    e = resolve_ellipsoid(args)
    selected = [name for name in args.tests.split(",") if name.strip()]
    unknown = set(selected) - set(_CHECK_NAMES)
    if unknown or not selected:
        raise ConfigError(f"--tests entries must be among {_CHECK_NAMES}, got {selected}")
    # The batch's and then each test's input rules, checked before anything is drawn.
    _check_request(e, args.count, _METHOD_BY_FLAG[args.method])
    for name in selected:
        if name == "chi2":
            _uniformity_bins(e.dim, args.count, args.shells)
        elif name == "ks":
            _check_ks_count(args.count)
    # Only chi2 and ks read the batch, so an identity-only check draws none.
    if {"chi2", "ks"} & set(selected):
        batch = sample_batch(e, args.count, args.seed, _METHOD_BY_FLAG[args.method])
    reports = []
    for name in selected:
        if name == "chi2":
            reports.append(chi_square_uniformity(batch, e, shells=args.shells, alpha=args.alpha))
        elif name == "ks":
            reports.append(radial_ks(batch, e, alpha=args.alpha))
        else:
            rng = RngStream(args.seed).derive(_IDENTITY_STREAM)
            reports.append(proof_identity_check(e, _IDENTITY_TRIALS, rng))
    _emit(["".join(r.to_json() + "\n" for r in reports).encode()], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_STATISTICAL


def cmd_volume(args) -> int:
    e = resolve_ellipsoid(args)
    closed_form = e.volume()
    lines = [f"volume {closed_form!r}"]
    status = EXIT_OK
    if args.mc is not None:
        estimate, stderr = mc_volume(e, args.mc, RngStream(args.seed))
        # Judged against the error the closed form predicts, since the observed
        # one is 0 when no draw, or every draw, is accepted (every 1-d shape).
        box = e.box_volume()
        p0 = min(closed_form / box, 1.0)
        predicted = box * math.sqrt(p0 * (1.0 - p0) / args.mc)
        agree = abs(estimate - closed_form) <= 3.0 * predicted or math.isclose(
            estimate, closed_form, rel_tol=1e-12
        )
        lines.append(f"mc_estimate {estimate!r}")
        lines.append(f"mc_stderr {stderr!r}")
        lines.append(f"verdict {'agree' if agree else 'disagree'}")
        if not agree:
            status = EXIT_STATISTICAL
    _emit([("\n".join(lines) + "\n").encode()], args.out)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, EllipsampleError, ArithmeticError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL if isinstance(exc, PointOutsideEllipsoid) else EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
