"""Command-line front end: ``sample``, ``check``, and ``volume``.

Exit codes: 0 success, 1 I/O failure (including a reader that closed
standard output early), 2 configuration
error (including a size too large to allocate), 3 statistical failure,
which includes a sampled point outside the ellipsoid.
A seed is always required; there is no silent time-based seeding, so
identical command lines produce byte-identical output.

``sample`` and ``check`` make one pass over the request's chunks on the
threads of ``sampling._chunk_results``: each chunk task draws its rows
into an array of its own through ``sampling._drawn_chunks``, the one draw
entry, which checks the request first, and drops them once it has used
them, so no command holds the batch.  ``check`` hands them, with its
whole ``--tests`` list, to ``validation.certify``, which runs every test
in order and pulls the points back once.  ``sample`` renders each chunk's
rows as the ASCII text of its format with ``formats._Workspace``, in
arrays the task makes for it, and ``_emit`` writes the chunks' texts in
chunk order.  Only ``sample`` imports ``formats``, when it runs, so
``check`` and ``volume`` never load the render.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable

from .errors import EllipsampleError, PointOutsideEllipsoid
from .geometry import Ellipsoid
from .linalg import check_dim, parse_matrix_text
from .sampling import RngStream, _check_seed, _chunk_results, _drawn_chunks
from .validation import CHECKS, certify, mc_volume
# No command calls these, but bench/spans.py patches each by name on this module, with
# a KeyError if one is missing, so they stay imported.
from .sampling import sample_batch
from .validation import chi_square_uniformity, proof_identity_check, radial_ks

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3

_METHOD_BY_FLAG = {"transform": "transform", "reject": "ellipsoid_rejection", "biased": "biased"}


class ConfigError(Exception):
    """Invalid command-line configuration; maps to exit code 2."""


def _comma_list(text: str, flag: str, kind=str) -> list:
    """The stripped entries of a comma list, each converted by ``kind``; an empty one is an error."""
    entries = [entry.strip() for entry in text.split(",")]
    if "" in entries:
        raise ConfigError(f"{flag} has an empty entry: {text!r}")
    try:
        return [kind(entry) for entry in entries]
    except ValueError:
        raise ConfigError(f"{flag} is not a comma list of numbers: {text!r}") from None


def _add_shared_flags(sub: argparse.ArgumentParser, batch: bool) -> None:
    """Ellipsoid source, --seed and --out; with ``batch`` also --count and --method."""
    src = sub.add_argument_group("ellipsoid definition (exactly one source)")
    src.add_argument("--spec", metavar="FILE.json", help="ellipsoid spec JSON file")
    src.add_argument("--shape", metavar="FILE", help="transform matrix, text format")
    src.add_argument("--quadratic", metavar="FILE", help="quadratic-form matrix, text format")
    src.add_argument("--radii", metavar="a,b,...", help="per-axis radii")
    src.add_argument("--rotation", metavar="FILE", help="rotation matrix (with --radii only)")
    src.add_argument("--dim", type=int, metavar="N", help="unit n-ball of this dimension")
    src.add_argument("--centre", metavar="c1,...", help="centre point")
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
        default=",".join(CHECKS),
        metavar="LIST",
        help=f"comma list from {','.join(CHECKS)} (default all)",
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


def resolve_ellipsoid(args) -> tuple[Ellipsoid, dict]:
    """The ellipsoid described by the command line (exactly one source), and its spec.

    The flags become an ellipsoid spec dict, so Ellipsoid.from_spec makes
    every shape and centre decision, exactly as for a --spec file; that
    dict (or the file's) is returned too, for ``check``'s identity test.
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
    # Checked before the radii list of --dim entries is made.
    if kind == "dim":
        check_dim(args.dim)

    try:
        if kind == "spec":
            spec = json.loads(_read_text(args.spec))
        elif kind == "radii":
            radii = _comma_list(args.radii, "--radii", float)
            spec = {"dim": len(radii), "radii": radii}
            if args.rotation is not None:
                spec["rotation"] = parse_matrix_text(_read_text(args.rotation))
        elif kind == "dim":
            spec = {"dim": args.dim, "radii": [1.0] * args.dim}
        else:
            matrix = parse_matrix_text(_read_text(getattr(args, kind)))
            spec = {"dim": matrix.shape[0], kind: matrix}
        if args.centre is not None:
            spec["centre"] = _comma_list(args.centre, "--centre", float)
        if args.foci is not None:
            spec["foci"] = json.loads(_read_text(args.foci))
        return Ellipsoid.from_spec(spec), spec
    # Malformed JSON values, such as a number for "foci"; every EllipsampleError
    # and ValueError keeps its own class on the way to main.
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(pieces: Iterable[bytes], out: str | None) -> None:
    """Write each piece as it is produced, to ``out`` or standard output.

    The pieces are ASCII, so they go as they are to the binary layer under
    standard output, through a buffered writer that completes each write or
    raises: under ``python -u`` (or PYTHONUNBUFFERED) that layer is the raw
    file, which drops whatever a short write leaves over.  Both layers are
    flushed here, so a reader that closed early raises BrokenPipeError
    inside ``main``; standard output then points at the null device, so the
    interpreter's flush at exit cannot fail a second time.  A text-only
    stream (``io.StringIO``) gets them decoded.  Standard output that was
    closed when the process started is None, and raises OSError.
    """
    if out is not None:
        with open(out, "wb") as fh:
            fh.writelines(pieces)
        return
    if sys.stdout is None:
        raise OSError("standard output is closed")
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.writelines(str(piece, "ascii") for piece in pieces)
        return
    sys.stdout.flush()
    writer = io.BufferedWriter(binary)
    try:
        writer.writelines(pieces)
        writer.flush()
        binary.flush()
    except BrokenPipeError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), binary.fileno())
        raise
    finally:
        writer.detach()


def cmd_sample(args) -> int:
    e = resolve_ellipsoid(args)[0]
    if args.format == "svg" and e.dim != 2:
        raise ConfigError("svg output requires dimension 2")
    # Every refusal comes before --out is opened, so it leaves the file untouched.
    method = _METHOD_BY_FLAG[args.method]
    points = _drawn_chunks(e, args.count, args.seed, method)
    # Imported here, so check and volume never load the render or build its tables.
    from .formats import _FORMATS, _Workspace

    head, layout, tail = _FORMATS[args.format](e, args.count, args.seed, method)

    render = _Workspace(*layout).render
    # One pass draws and renders each chunk; the texts go out in chunk order, one at a time.
    with _chunk_results(args.count, lambda i, rows: render(points(i, rows), rows.start)) as chunks:
        texts = itertools.chain.from_iterable(chunks)
        _emit(itertools.chain([head.encode()], texts, [tail.encode()]), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    e, spec = resolve_ellipsoid(args)
    selected = _comma_list(args.tests, "--tests")
    if len(set(selected) & set(CHECKS)) < len(selected):
        raise ConfigError(f"--tests entries must be distinct names from {CHECKS}: {selected}")
    # One pass draws each chunk and pulls it back once for every test that reads
    # points, after the request and every input rule pass; the batch is never held.
    points = _drawn_chunks(e, args.count, args.seed, _METHOD_BY_FLAG[args.method])
    reports = certify(e, args.count, points, selected, args.shells, args.alpha, spec)
    _emit(["".join(r.to_json() + "\n" for r in reports).encode()], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_STATISTICAL


def cmd_volume(args) -> int:
    e = resolve_ellipsoid(args)[0]
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
        _check_seed(args.seed)
        return args.func(args)
    except (ConfigError, EllipsampleError, ArithmeticError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL if isinstance(exc, PointOutsideEllipsoid) else EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
