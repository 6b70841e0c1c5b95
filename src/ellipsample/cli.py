"""Command-line front end: ``sample``, ``check``, and ``volume``.

Exit codes: 0 success, 1 I/O failure (including a reader that closed
standard output early), 2 configuration
error (including a size too large to allocate), 3 statistical failure,
which includes a sampled point outside the ellipsoid.
A seed is always required; there is no silent time-based seeding, so
identical command lines produce byte-identical output.

``sample`` formats every float it writes with ``_format_rows``, renders
its chunks on the threads of ``sampling._chunk_results`` and writes them
with ``_emit``.
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

import numpy as np

from .errors import EllipsampleError, PointOutsideEllipsoid
from .geometry import Ellipsoid
from .linalg import check_dim, parse_matrix_text
from .sampling import RngStream, SampleBatch, _check_request, _chunk_results, sample_batch
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
# Floats per rendered chunk: one CHUNK_SIZE chunk of 2-d points.
_RENDER_FLOATS = 16384

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
        default=",".join(_CHECK_NAMES),
        metavar="LIST",
        help=f"comma list from {','.join(_CHECK_NAMES)} (default all)",
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
            radii = _comma_list(args.radii, "--radii", float)
            spec = {"dim": len(radii), "radii": radii}
            if args.rotation is not None:
                spec["rotation"] = parse_matrix_text(_read_text(args.rotation))
        elif kind == "dim":
            spec = {"dim": args.dim, "shape": np.eye(args.dim)}
        else:
            matrix = parse_matrix_text(_read_text(getattr(args, kind)))
            spec = {"dim": matrix.shape[0], kind: matrix}
        if args.centre is not None:
            spec["centre"] = _comma_list(args.centre, "--centre", float)
        if args.foci is not None:
            spec["foci"] = json.loads(_read_text(args.foci))
        return Ellipsoid.from_spec(spec)
    # Malformed JSON values, such as a number for "foci"; every EllipsampleError
    # and ValueError keeps its own class on the way to main.
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# -- float text ---------------------------------------------------------------
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) finds,
# with fixed-width integer arithmetic, the shortest decimals inside a double's
# rounding interval and the closest of those: the digits repr prints (Gay's
# dtoa mode 0).  Names and constants follow the paper's Java code, with two
# changes for repr, which may print one digit where Java prints two: the
# shorter candidate is tried from s >= 10 (Java: 100), or 8e-323 would print
# as 7.9e-323, and subnormals take no C_TINY case (Java's 4.9E-324 is repr's
# 5e-324).

_K_MIN = -324
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 for k = -324..292, as (g >> 63, g mod 2^63).

    Each g lies in [2^125, 2^126]; the table is computed from exact Python ints.
    """
    table = []
    for k in range(_K_MIN, 293):
        shift = 125 - ((-k * 913_124_641_741) >> 38)
        table.append((10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1)
    return np.array([(g >> 63, g & _M63) for g in table], np.uint64).T


_G1, _G0 = _pow10_table()
_POW10 = np.array([10**i for i in range(18)], np.uint64)


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b of uint64 arrays, from 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _M32, a >> 32, b & _M32, b >> 32
    cross_a, cross_b = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (cross_a & _M32) + (cross_b & _M32)
    return a_hi * b_hi + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)


def _round_to_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """g cp / 2^127 rounded down, with its lowest bit set if anything was dropped (Java's rop)."""
    z = (g1 * cp >> 1) + _mul_hi(g0, cp)
    return (_mul_hi(g1, cp) + (z >> 63)) | ((z & _M63) != 0)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) such that f 10^k is the decimal repr writes for each finite |x|.

    That is the shortest decimal that reads back as |x|, and of those the
    closest to it (the even one on a tie).  Zero gives f = 0 and k = 1.
    """
    bits = x.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    t = bits & ((1 << 52) - 1)
    normal = biased != 0
    # |x| = c 2^q; a zero gets c = 1, and its f is set at the end.
    c = np.where(normal, t | (1 << 52), t)
    zero = c == 0
    c |= zero
    q = biased.astype(np.int64) + ~normal - 1075
    # Above a power of two the interval is twice as wide as below it.
    irregular = (t == 0) & (biased > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    # 4 x 10^-k at the point and the interval's ends, which count iff c is even.
    out = c & 1
    cb = c << 2
    vb = _round_to_odd(g1, g0, cb << h)
    vbl = _round_to_odd(g1, g0, (cb - 2 + irregular) << h)
    vbr = _round_to_odd(g1, g0, (cb + 2) << h)
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (s + 1 << 2) + out <= vbr
    mid = (s << 2) + 2
    # One digit fewer if exactly one multiple of 10 next to s is inside; else s
    # or s + 1, whichever alone is inside, or is closer, or is even.
    pick_s = np.where(uin != win, uin, (vb < mid) | (vb == mid) & (s & 1 == 0))
    f = np.where((s >= 10) & (upin != wpin), sp10 + ~upin * np.uint64(10), s + ~pick_s)
    f[zero] = 0
    k[zero] = 1
    return f, k


def _format_rows(
    block: np.ndarray, start: int, template: str, separator: str, factor: float | tuple[float, ...]
) -> str:
    """Each row of ``block`` times ``factor`` in ``template``, joined by ``separator``.

    ``template`` has one ``%r`` per coordinate, and each float, which must be
    finite, is written as its repr: the shortest round-tripping text, which
    is also what json.dumps writes.  A chunk after the first (``start`` > 0)
    begins with the separator.

    Each float fills one row of byte columns, each with a fixed role: sign,
    the "0.000" of a small number, 17 digits each followed by a possible
    point, the exponent, and then the template's text up to the next float.
    Columns a float does not use hold 0, which one bytes.translate drops.
    The arrays this takes grow with the number of floats in ``block``.
    """
    first, *after = template.split("%r")
    wrap = separator + first
    after[-1] += wrap
    x = np.ascontiguousarray(block * factor).ravel()
    f, k = _shortest(x)
    length = np.searchsorted(_POW10, f, side="right")
    f *= _POW10[17 - length]
    # |x| = 0.d1d2...d17 x 10^decpt; ndig counts the digits up to the last nonzero one.
    hi, lo = (f // 10**8).astype(np.uint32), (f % 10**8).astype(np.uint32)
    digits = np.empty((17, x.size), np.uint8)
    for i in range(17):
        digits[i] = hi // 10 ** (8 - i) % 10 if i < 9 else lo // 10 ** (16 - i) % 10
    ndig = ((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    decpt = k + length
    # repr is positional for -4 < decpt < 17, else d.ddde+XX.
    fixed = (-4 < decpt) & (decpt < 17)
    # How many of "0.000" to write, how many digits, and after which digit the point goes.
    lead = np.where(fixed & (decpt < 1), 2 - decpt, 0).astype(np.uint8)
    shown = np.where(fixed, np.maximum(ndig, decpt + 1), ndig).astype(np.uint8)
    point = np.where(fixed, decpt, ndig > 1).astype(np.int8)
    e = np.abs(decpt - 1)
    d0 = ord("0")
    exponent = [np.full(x.size, ord("e")), np.where(decpt < 1, ord("-"), ord("+")),
                (e >= 100) * (e // 100 + d0), e // 10 % 10 + d0, e % 10 + d0]

    lits = [np.frombuffer(piece.encode(), np.uint8) for piece in after]
    cells = np.zeros((x.size, 44 + max(map(len, lits))), np.uint8)
    cells[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    small = np.frombuffer(b"0.000", np.uint8)
    cells[:, 1:6] = small * (np.arange(5, dtype=np.uint8) < lead[:, None])
    cells[:, 6:39:2] = ((digits + d0) * (np.arange(17, dtype=np.uint8)[:, None] < shown)).T
    cells[:, 7:38:2] = (np.arange(1, 17, dtype=np.int8) == point[:, None]) * np.uint8(ord("."))
    cells[:, 39:44] = (np.array(exponent, np.uint8) * ~fixed).T
    per_row = cells.reshape(len(block), len(after), -1)
    for i, lit in enumerate(lits):
        per_row[:, i, 44 : 44 + len(lit)] = lit
    text = cells.tobytes().translate(None, b"\0").decode()
    return (wrap if start else first) + text[: len(text) - len(wrap)]


def _csv(batch: SampleBatch, e: Ellipsoid) -> tuple:
    """Head, (row template, separator, factor) and tail of the CSV output."""
    head = ",".join(f"x{i + 1}" for i in range(batch.dim)) + "\n"
    return head, (",".join(["%r"] * batch.dim) + "\n", "", 1.0), ""


def _json(batch: SampleBatch, e: Ellipsoid) -> tuple:
    """The JSON document as head, rows and tail, with the bytes json.dumps gives for it whole.

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
    row = "[" + ", ".join(["%r"] * batch.dim) + "]"
    return json.dumps(doc)[:-1] + ', "points": [', (row, ", ", 1.0), "]}\n"


def _svg(batch: SampleBatch, e: Ellipsoid) -> tuple:
    """Head with the outline, rows and tail of the SVG picture."""
    # Data coordinates with y negated so the picture's y axis points up (a
    # factor of -1.0 is IEEE negation); vector-effect keeps the outline one
    # device pixel at any scale.
    flip = (1.0, -1.0)
    half = 1.08 * e.bounding_halfwidths()
    hx, hy = float(half[0]), float(half[1])
    cx, cy = float(e.centre[0]), float(e.centre[1])
    view = (cx - hx, -(cy + hy), 2.0 * hx, 2.0 * hy)
    dot = 0.004 * max(2.0 * hx, 2.0 * hy)

    theta = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    ring = e._ball_image(np.column_stack([np.cos(theta), np.sin(theta)]))
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{view[0]!r} {view[1]!r} {view[2]!r} {view[3]!r}">\n'
        f'<polygon points="{_format_rows(ring, 0, "%r,%r", " ", flip)}" fill="none" '
        'stroke="black" stroke-width="1" vector-effect="non-scaling-stroke"/>\n'
    )
    circle = '<circle cx="%r" cy="%r" r="' + repr(dot) + '"/>\n'
    return head, (circle, "", flip), "</svg>\n"


_FORMATS = {"csv": _csv, "json": _json, "svg": _svg}


def _emit(pieces: Iterable[bytes], out: str | None) -> None:
    """Write each piece as it is produced, to ``out`` or standard output.

    The pieces are ASCII, so they go as they are to the binary layer under
    standard output, through a buffered writer that completes each write or
    raises: under ``python -u`` (or PYTHONUNBUFFERED) that layer is the raw
    file, which drops whatever a short write leaves over.  Both layers are
    flushed here, so a reader that closed early raises BrokenPipeError
    inside ``main``; standard output then points at the null device, so the
    interpreter's flush at exit cannot fail a second time.  A text-only
    stream (``io.StringIO``) gets them decoded.
    """
    if out is not None:
        with open(out, "wb") as fh:
            fh.writelines(pieces)
        return
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.writelines(piece.decode() for piece in pieces)
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
    e = resolve_ellipsoid(args)
    if args.format == "svg" and e.dim != 2:
        raise ConfigError("svg output requires dimension 2")
    # Sampled before --out is opened, so a failed run leaves the file untouched.
    batch = sample_batch(e, args.count, args.seed, _METHOD_BY_FLAG[args.method])
    head, layout, tail = _FORMATS[args.format](batch, e)

    def render(i: int, rows: slice) -> bytes:
        return _format_rows(batch.points[rows], rows.start, *layout).encode()

    # Chunks of a fixed number of floats bound the formatter's arrays at any dimension.
    with _chunk_results(batch.count, render, _RENDER_FLOATS // e.dim) as chunks:
        _emit(itertools.chain([head.encode()], chunks, [tail.encode()]), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    e = resolve_ellipsoid(args)
    selected = _comma_list(args.tests, "--tests")
    if len(set(selected) & set(_CHECK_NAMES)) < len(selected):
        raise ConfigError(f"--tests entries must be distinct names from {_CHECK_NAMES}: {selected}")
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
