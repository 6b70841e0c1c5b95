"""Command-line front end: ``sample``, ``check``, and ``volume``.

Exit codes: 0 success, 1 I/O failure (including a reader that closed
standard output early), 2 configuration
error (including a size too large to allocate), 3 statistical failure,
which includes a sampled point outside the ellipsoid.
A seed is always required; there is no silent time-based seeding, so
identical command lines produce byte-identical output.

``sample`` and ``check`` make one pass over the request's chunks on the
threads of ``sampling._chunk_results``: each chunk task draws its rows
into its thread's buffer through ``sampling._drawn_chunks``, the one draw
entry, which checks the request first, and uses them before it returns,
so no command holds the batch.  ``check`` hands them, with its whole
``--tests`` list, to ``validation.certify``, which runs every test in
order and pulls the points back once.  ``sample`` formats every float it
writes with ``_format_rows``, one PIECE_FLOATS piece at a time, and
``_emit`` writes the chunks' texts in chunk order.  One ``_format_rows``
call renders one block, as ASCII bytes, in its thread's ``_Workspace``:
arrays of one piece's size, viewed to each block's shape and made again
only when the floats' literals or the row width change, or a block
outgrows them, so a steady run makes them once per thread.  Every numpy
call of the render writes a whole block into them with ``out=``, and a
mask of the cells' nonzero bytes gathers the text in one allocation of
its own size, so a steady render allocates only its text, and memory is
not handed back to the OS and faulted in again chunk after chunk.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
import threading
from collections.abc import Iterable

import numpy as np

from .errors import EllipsampleError, PointOutsideEllipsoid
from .geometry import Ellipsoid
from .linalg import check_dim, parse_matrix_text
from .sampling import PIECE_FLOATS, RngStream, _check_seed, _chunk_results, _drawn_chunks, _pieces
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
#
# Every numpy call below writes a whole block into a thread's workspace
# with ``out=`` (or an in-place operator), so rendering a block allocates
# nothing but its text.  Each take is the ndarray method, which skips
# np.take's Python frames, and passes mode="clip", as the default mode
# copies ``out`` before writing it; every index is in range.  The
# tables, the g table of the paper among them, are built by the first
# render (``_layout_tables``), so only ``sample`` pays for them.

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
    return np.array([g >> 63 for g in table], np.uint64), np.array([g & _M63 for g in table], np.uint64)


def _mul_hi(a_lo, a_hi, b_lo, b_hi, out, t, u) -> None:
    """out = the high 64 bits of each 128-bit product a * b, from 32-bit halves; t and u are scratch."""
    np.multiply(a_lo, b_lo, out=out)
    out >>= 32
    np.multiply(a_hi, b_lo, out=t)
    np.bitwise_and(t, _M32, out=u)
    out += u
    np.multiply(a_lo, b_hi, out=u)
    out += u  # at most 2 (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1, so it cannot wrap
    out >>= 32
    t >>= 32
    out += t
    np.multiply(a_hi, b_hi, out=u)
    out += u


def _round_to_odd(g, cp, out, c_lo, c_hi, t, u) -> None:
    """out = g cp / 2^127 rounded down, with its lowest bit set if anything was dropped (Java's rop).

    g is (g1, g1's low and high halves, g0's low and high halves); cp is
    overwritten, and c_lo, c_hi, t and u are scratch.
    """
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    np.bitwise_and(cp, _M32, out=c_lo)
    np.right_shift(cp, 32, out=c_hi)
    z = cp
    z *= g1
    z >>= 1
    _mul_hi(g0_lo, g0_hi, c_lo, c_hi, out, t, u)
    z += out
    _mul_hi(g1_lo, g1_hi, c_lo, c_hi, out, t, u)
    np.right_shift(z, 63, out=t)
    out += t
    z &= _M63
    np.minimum(z, 1, out=z)
    out |= z


def _shortest(u: np.ndarray, pow10: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) such that f 10^k is the decimal repr writes for each finite |x|, x = u[0] as float64.

    That is the shortest decimal that reads back as |x|, and of those the
    closest to it (the even one on a tie).  Zero gives f = 0 and k = 1.
    f (uint64) and k (int64) are views of rows of ``u``, whose rows 1-20 are
    scratch.  ``pow10`` is ``_pow10_table()``.
    """
    bits = u[0]
    c, q, k, h, g1, g0, g1_lo, g1_hi, g0_hi, c_lo, c_hi, cp, m0, m1, t0, t1, vbl, vbr, vb = u[1:20]
    qi, ki, hi = q.view(np.int64), k.view(np.int64), h.view(np.int64)
    zero, irregular = u[20].view(bool).reshape(8, -1)[:2]
    # |x| = c 2^q; a zero gets c = 1, and its f and k are set at the end.
    np.right_shift(bits, 52, out=q)
    q &= 0x7FF
    np.bitwise_and(bits, (1 << 52) - 1, out=c)
    # Above a power of two the interval is twice as wide as below it.
    np.equal(c, 0, out=irregular)
    np.greater(q, 1, out=zero)
    irregular &= zero
    np.minimum(q, 1, out=t0)
    t0 <<= 52
    c |= t0
    np.equal(c, 0, out=zero)
    np.maximum(c, 1, out=c)
    np.maximum(q, 1, out=q)
    qi -= 1075
    np.multiply(qi, 661_971_961_083, out=ki)
    np.subtract(ki, 274_743_187_321, out=ki, where=irregular)
    ki >>= 41
    np.multiply(ki, -913_124_641_741, out=hi)
    hi >>= 38
    hi += qi
    hi += 2
    np.subtract(ki, _K_MIN, out=t0.view(np.int64))
    pow10[0].take(t0.view(np.int64), out=g1, mode="clip")
    pow10[1].take(t0.view(np.int64), out=g0, mode="clip")
    np.bitwise_and(g1, _M32, out=g1_lo)
    np.right_shift(g1, 32, out=g1_hi)
    np.right_shift(g0, 32, out=g0_hi)
    g0 &= _M32
    g = (g1, g1_lo, g1_hi, g0, g0_hi)
    # 4 x 10^-k at the point and the interval's ends, which count iff c is even.
    np.left_shift(c, 2, out=t0)
    np.left_shift(t0, h, out=cp)
    _round_to_odd(g, cp, vb, c_lo, c_hi, m0, m1)
    np.subtract(t0, 2, out=cp)
    np.add(cp, 1, out=cp, where=irregular)
    cp <<= h
    _round_to_odd(g, cp, vbl, c_lo, c_hi, m0, m1)
    np.add(t0, 2, out=cp)
    cp <<= h
    _round_to_odd(g, cp, vbr, c_lo, c_hi, m0, m1)
    c &= 1
    vbl += c
    vbr -= c
    # Below, (a - b) >> 63 is 1 iff a < b, as every value is far below 2^63.
    # s or s + 1, whichever alone is inside, or else the closer, or the even
    # one: vb & 7 holds s's parity and the two bits below s, and 0xC8 lists
    # those for which s + 1 wins.
    s, f, out, far = q, c_lo, c_hi, m0
    np.right_shift(vb, 2, out=s)
    np.left_shift(s, 2, out=t0)
    np.subtract(t0, vbl, out=out)
    out >>= 63
    np.subtract(vbr, t0, out=t0)
    t0 -= 4
    t0 >>= 63
    np.bitwise_and(vb, 7, out=far)
    np.right_shift(np.uint64(0xC8), far, out=far)
    far &= 1
    # far, unless exactly one of s (out == 0) and s + 1 (t0 == 0) is inside.
    t0 ^= out
    out ^= far
    t0 &= out
    far ^= t0
    np.add(s, far, out=f)
    # One digit fewer if s >= 10 and exactly one multiple of 10 next to s is
    # inside: sp10 if it is the lower one, else sp10 + 10.
    sp10, one, pick = t0, t1, out
    np.floor_divide(s, 10, out=sp10)
    sp10 *= 10
    np.left_shift(sp10, 2, out=one)
    np.subtract(one, vbl, out=out)
    out >>= 63
    np.subtract(vbr, one, out=one)
    one -= 40
    one >>= 63
    one ^= out
    np.subtract(s, 10, out=far)
    far >>= 63
    far ^= 1
    one &= far
    pick *= 10
    pick += sp10
    pick -= f
    pick *= one
    f += pick
    np.copyto(f, 0, where=zero)
    np.copyto(ki, 1, where=zero)
    return f, ki


# A float's byte columns, 8 to a word: the sign and the "0.000" of a small
# number (word 0), its 17 digits with a zero inserted where the point goes
# (18 columns from 8), the exponent (from 26) and, from column 31, the
# template's text up to the next float.  The shifts that place bytes in a
# word assume little-endian words: column c is bits 8 (c % 8) and up of
# word c // 8.
_DIGIT_COL, _TEXT_COL = 8, 31
_POW10 = 10 ** np.arange(19)
# Decimal exponents of finite doubles: 5e-324 is 0.5 10^-323, 1.8e308 is 0.18 10^309.
_DECPT_MIN, _DECPT_MAX = -323, 309


@functools.cache
def _layout_tables() -> tuple[np.ndarray, ...]:
    """The read-only tables ``_format_rows`` renders a float with, built on the first call.

    Only ``sample`` renders, so ``check`` and ``volume`` never build them.

    The int64 tables lay the digits out, and the last two are Schubfach's g
    table for ``_shortest`` (``_pow10_table``).

    ``digits``: the values of a group of 4 digits, one to a byte.
    ``ends``: for a group at each position (starting at digit column 0, 4,
    8, 12 and 14), the column after its last nonzero digit, or 0.  Per
    decimal exponent: ``classes``, its layout class times 38; ``divisors``,
    10 to the number of digits after the point column; ``exponents``, its
    exponent bytes in word 3.  ``layout``: per layout class, end column and
    sign, the words 0-3 of the sign, "0.000", the digit columns' "0" and
    the point.
    """
    # Digits a, b, c, d of the groups 0000-9999, and the column after the
    # last nonzero one, counted from the group's start.
    a, b, c, d = np.ix_(*[np.arange(10)] * 4)
    digits = (a | b << 8 | c << 16 | d << 24).ravel()
    last = np.maximum(np.maximum((a > 0) * np.int8(1), (b > 0) * np.int8(2)),
                      np.maximum((c > 0) * np.int8(3), (d > 0) * np.int8(4))).ravel()
    starts = np.array([[0], [4], [8], [12], [14]], np.int8)
    ends = np.where(last > 0, last + starts, np.int8(0)).ravel().astype(np.int64)

    # repr is positional for -4 < decpt < 17 (class decpt + 3), else d.ddde+XX (class 20).
    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1)
    fixed = (-4 < decpt) & (decpt < 17)
    classes = np.where(fixed, decpt + 3, 20) * 38
    divisors = 10 ** (17 - np.where(fixed, np.maximum(decpt, 0), 1))
    e = np.abs(decpt - 1)
    exponent = ((ord("e") << 16) + (np.where(decpt < 1, ord("-"), ord("+")) << 24)
                + ((e >= 100) * (e // 100 + 48) << 32) + (e // 10 % 10 + 48 << 40) + (e % 10 + 48 << 48))
    exponents = exponent * ~fixed

    cls, end = np.ix_(range(21), range(19))
    fixed, decpt = cls < 20, cls - 3
    # How many of "0.000" to write, which digit column holds the point (or
    # the inserted zero), whether it is a point, and where the digits stop.
    lead = np.where(fixed & (decpt < 1), 2 - decpt, 0)[..., None]
    point = np.where(fixed, np.maximum(decpt, 0), 1)[..., None]
    dot = np.where(fixed, decpt >= 1, end > 2)[..., None]
    stop = np.where(fixed & (decpt >= 1), np.maximum(end, decpt + 2), end)[..., None]
    col = np.arange(32)
    digit = col - _DIGIT_COL
    row = (
        (col - 1 < lead) * np.frombuffer(b"\0" + b"0.000" + bytes(26), np.uint8)
        + (digit >= 0) * (digit < stop) * (digit != point) * np.uint8(ord("0"))
        + (digit == point) * dot * np.uint8(ord("."))
    )
    # Then the same rows with a minus sign in column 0.
    layout = np.stack([row, row | (col == 0) * np.uint8(ord("-"))], axis=2).reshape(-1, 32).view(np.int64)
    tables = digits, ends[:40_100].copy(), classes, divisors, exponents, layout, *_pow10_table()
    for table in tables:
        table.setflags(write=False)
    return tables


# ``ends`` holds one block of 10000 per group position.
_GROUP_OFFSETS = np.arange(0, 50_000, 10_000)[:, None]


class _Workspace(threading.local):
    """One thread's scratch for ``_format_rows``: a piece's arrays, viewed to each block's shape.

    ``threading.local`` gives each thread its own attributes.  ``arrays``
    gives 21 rows of 64-bit integers, one entry per float, and ``cells``,
    the bytes the block is laid out in, ``width`` to a float after one
    lead cell of the same width, with each float's literal in place.  The
    mask that compacts the cells takes the integer rows' bytes, which are
    free once the words are laid out.  The arrays hold a whole
    PIECE_FLOATS piece (more for a larger block), and the cells of a block
    of fewer rows with the same row width and literals are a prefix of
    them, so such a block views them again: a chunk's short piece and the
    short last chunk make none.  Only another row width or other literals,
    or a block that outgrows them, make new ones.
    """

    key = None

    def arrays(self, shape: tuple[int, int], lits: list[bytes]) -> tuple:
        """The integer rows, the cells, the mask and the width of a float's cell."""
        floats = shape[0] * shape[1]
        if (shape[1], lits) != self.key or floats > self.room:
            room = max(floats, PIECE_FLOATS // shape[1] * shape[1])
            self.width = -(-(_TEXT_COL + max(map(len, lits))) // 8) * 8
            self.cells = np.zeros((room + 1) * self.width, np.uint8)
            text = np.array([list(lit.ljust(self.width - _TEXT_COL, b"\0")) for lit in lits], np.uint8)
            self.cells[self.width :].reshape(-1, shape[1], self.width)[..., _TEXT_COL:] = text
            self.ints = np.empty(max(21 * room, -(-self.cells.size // 8)), np.uint64)
            # Set last, so a build that fails is made again by the next call.
            self.key, self.room = (shape[1], lits), room
        cells = self.cells[: (floats + 1) * self.width]
        u = self.ints[: 21 * floats].reshape(21, floats)
        return u, cells, self.ints.view(bool)[: cells.size], self.width


_WORKSPACE = _Workspace()


def _format_rows(
    block: np.ndarray, start: int, template: str, separator: str, factor: float | tuple[float, ...]
) -> memoryview:
    """Each row of ``block`` times ``factor`` in ``template``, joined by ``separator``, as ASCII.

    ``template`` has one ``%r`` per coordinate, and each float, which must be
    finite, is written as its repr: the shortest round-tripping text, which
    is also what json.dumps writes.  A chunk after the first (``start`` > 0)
    begins with the separator.

    Each float fills a row of byte columns (see ``_DIGIT_COL``).  The 17
    digits d0 d1 ... d16 of |x| = 0.d0d1...d16 x 10^decpt get a zero
    inserted where the point goes (in front if nowhere), and their values,
    four at a time from the ``digits`` table, are or'ed with a ``layout``
    row, picked by the layout class of decpt, the column after the last
    nonzero digit and the sign, and with decpt's exponent bytes.  Columns a
    float does not use hold 0.  A lead cell holds the text's prefix, and a
    mask of the nonzero bytes, cleared over the ``wrap`` that ends the last
    float's literal, gathers the text in one allocation of its own size.
    Both numpy calls release the interpreter lock while they run.  The text
    comes back as a memoryview, which compares equal to its bytes.

    The whole block is rendered at once in the calling thread's workspace,
    so callers keep it to one PIECE_FLOATS piece, or the workspace grows
    to the block.
    """
    first, *after = template.split("%r")
    wrap = separator + first
    # The column of the last float's cell at which its ``wrap`` begins.
    cut = _TEXT_COL + len(after[-1].encode())
    after[-1] += wrap
    digits, column_ends, classes, divisors, exponents, layouts, *pow10 = _layout_tables()
    u, cells, mask, width = _WORKSPACE.arrays(block.shape, [lit.encode() for lit in after])
    words = cells[width:].view(np.int64).reshape(-1, width // 8)
    ints = u.view(np.int64)
    np.multiply(block, factor, out=u[0].view(np.float64).reshape(block.shape))
    f, index = _shortest(u, pow10)
    f = f.view(np.int64)
    t, p = ints[1], ints[2]
    # t = the length of f less one, from the bit length of max(f, 1) (so -1
    # for a zero): floor(bit length x 1233 / 2^12) is the length or one less.
    np.maximum(f, 1, out=t)
    np.copyto(p.view(np.float64), t)
    np.right_shift(p, 52, out=t)
    t *= 1233
    t -= 1022 * 1233
    t >>= 12
    _POW10.take(t, out=p, mode="clip")
    np.subtract(f, p, out=p)
    p >>= 63
    t += p
    # k becomes the tables' index of decpt = k + the length of f.
    index += t
    index += 1 - _DECPT_MIN
    np.subtract(16, t, out=t)
    _POW10.take(t, out=p, mode="clip")
    f *= p
    # f = d0d1...d16; with the zero inserted j digits from the end, f + 9 10^j (f // 10^j).
    divisors.take(index, out=p, mode="clip")
    np.floor_divide(f, p, out=t)
    t *= p
    t *= 9
    f += t
    # The 18 digit columns in groups of 4, 4, 4, 4 and the last 2.
    groups, values, ends = ints[4:9], ints[11:16], ints[16:21]
    top, low = t, p
    np.floor_divide(f, 10**10, out=top)
    np.multiply(top, 10**10, out=low)
    np.subtract(f, low, out=low)
    np.floor_divide(low, 100, out=f)
    np.multiply(f, 100, out=groups[4])
    np.subtract(low, groups[4], out=groups[4])
    for i, half in ((0, top), (2, f)):
        np.floor_divide(half, 10**4, out=groups[i])
        np.multiply(groups[i], 10**4, out=groups[i + 1])
        np.subtract(half, groups[i + 1], out=groups[i + 1])
    digits.take(groups, out=values, mode="clip")
    groups += _GROUP_OFFSETS
    column_ends.take(groups, out=ends, mode="clip")
    end = ints[9]
    np.maximum.reduce(ends, axis=0, out=end)
    key, sign, layout = t, p, ints[4:8].reshape(-1, 4)
    classes.take(index, out=key, mode="clip")
    end <<= 1
    key += end
    np.right_shift(u[0], 63, out=sign.view(np.uint64))
    key += sign
    layouts.take(key, axis=0, out=layout, mode="clip")

    np.copyto(words[:, 0], layout[:, 0])
    for word, (a, b) in ((1, values[0:2]), (2, values[2:4])):
        b <<= 32
        a |= b
        np.bitwise_or(a, layout[:, word], out=words[:, word])
    # Word 3: the last two digits, the exponent and the literal's first
    # byte, which stays from ``arrays``.
    last, word3 = values[4], words[:, 3]
    last >>= 16
    exponents.take(index, out=p, mode="clip")
    last |= p
    last |= layout[:, 3]
    word3 &= 0x7F << 56
    word3 |= last
    # The text is every nonzero byte from the prefix in the lead cell to the
    # last float's literal, less the separator and ``first`` that end it.
    cells[:width] = np.frombuffer((wrap if start else first).encode().ljust(width, b"\0"), np.uint8)
    np.not_equal(cells, 0, out=mask)
    mask[cells.size - width + cut :] = False
    return cells[mask].data


def _csv(e: Ellipsoid, count: int, seed: int, method: str) -> tuple:
    """Head, (row template, separator, factor) and tail of the CSV of ``count`` points of ``e``."""
    head = ",".join(f"x{i + 1}" for i in range(e.dim)) + "\n"
    return head, (",".join(["%r"] * e.dim) + "\n", "", 1.0), ""


def _json(e: Ellipsoid, count: int, seed: int, method: str) -> tuple:
    """The JSON document as head, rows and tail, with the bytes json.dumps gives for it whole.

    ``points`` is the document's last key, so its list can be written chunk
    by chunk between the other keys and the closing brackets.
    """
    doc = {
        "dim": e.dim,
        "count": count,
        "seed": seed,
        "method": method,
        "ellipsoid": e.spec_dict(),
    }
    row = "[" + ", ".join(["%r"] * e.dim) + "]"
    return json.dumps(doc)[:-1] + ', "points": [', (row, ", ", 1.0), "]}\n"


def _svg(e: Ellipsoid, count: int, seed: int, method: str) -> tuple:
    """Head with the outline, rows and tail of the SVG picture of ``count`` points of ``e``."""
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
        f'<polygon points="{str(_format_rows(ring, 0, "%r,%r", " ", flip), "ascii")}" fill="none" '
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
    e = resolve_ellipsoid(args)
    if args.format == "svg" and e.dim != 2:
        raise ConfigError("svg output requires dimension 2")
    # Every refusal comes before --out is opened, so it leaves the file untouched.
    method = _METHOD_BY_FLAG[args.method]
    points = _drawn_chunks(e, args.count, args.seed, method)
    head, layout, tail = _FORMATS[args.format](e, args.count, args.seed, method)

    def render(i: int, rows: slice) -> list[memoryview]:
        chunk = points(i, rows)
        return [_format_rows(chunk[piece], rows.start + piece.start, *layout)
                for piece in _pieces(slice(0, len(chunk)), e.dim)]

    # One pass draws and renders each chunk; the texts go out in chunk order, one at a time.
    with _chunk_results(args.count, render) as chunks:
        texts = itertools.chain.from_iterable(chunks)
        _emit(itertools.chain([head.encode()], texts, [tail.encode()]), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    e = resolve_ellipsoid(args)
    selected = _comma_list(args.tests, "--tests")
    if len(set(selected) & set(CHECKS)) < len(selected):
        raise ConfigError(f"--tests entries must be distinct names from {CHECKS}: {selected}")
    # One pass draws each chunk and pulls it back once for every test that reads
    # points, after the request and every input rule pass; the batch is never held.
    points = _drawn_chunks(e, args.count, args.seed, _METHOD_BY_FLAG[args.method])
    reports = certify(e, args.count, points, selected, args.seed, args.shells, args.alpha)
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
