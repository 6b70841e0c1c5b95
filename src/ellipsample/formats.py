"""The text ``sample`` writes: CSV, JSON and SVG rows of floats, each float as its repr.

Only ``cli.cmd_sample`` imports this module, when it runs, so ``check`` and
``volume`` never build its tables.  ``_FORMATS`` gives each ``--format``
its head, row template and tail, and ``sample`` makes one ``_Workspace``
from the row template; each chunk task renders its rows with it, one
PIECE_FLOATS piece at a time, as ASCII bytes.  Each ``render`` call, one
per chunk, makes its own one-piece arrays and renders every piece of its
chunk in them, so the task owns them and nothing outlives it but its
texts.  Every numpy call of the render writes a whole piece into them
with ``out=``, and a mask of the cells' nonzero bytes gathers each piece's
text in one allocation of its own size.

Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
finds, with fixed-width integer arithmetic, the shortest decimals inside a
double's rounding interval and the closest of those: the digits repr
prints (Gay's dtoa mode 0).  Names and constants follow the paper's Java
code, with two changes for repr, which may print one digit where Java
prints two: the shorter candidate is tried from s >= 10 (Java: 100), or
8e-323 would print as 7.9e-323, and subnormals take no C_TINY case (Java's
4.9E-324 is repr's 5e-324).

Each take of the render is the ndarray method, which skips np.take's
Python frames, and passes mode="clip", as the default mode copies ``out``
before writing it; every index is in range.  The tables, the g table of
the paper among them, are module constants, built once when ``sample``
imports this module (``_layout_tables``) and read-only, as the rendering
threads share them.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import Ellipsoid
from .sampling import _pieces

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


def _shortest(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) such that f 10^k is the decimal repr writes for each finite |x|, x = u[0] as float64.

    That is the shortest decimal that reads back as |x|, and of those the
    closest to it (the even one on a tie).  Zero gives f = 0 and k = 1.
    f (uint64) and k (int64) are views of rows of ``u``, whose rows 1-20 are
    scratch.  The g table is ``_G1`` and ``_G0`` (``_pow10_table``).
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
    _G1.take(t0.view(np.int64), out=g1, mode="clip")
    _G0.take(t0.view(np.int64), out=g0, mode="clip")
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
# Decimal exponents of finite doubles: 5e-324 is 0.5 10^-323, 1.8e308 is 0.18 10^309.
_DECPT_MIN, _DECPT_MAX = -323, 309


def _layout_tables() -> tuple[np.ndarray, ...]:
    """The read-only tables ``_Workspace`` renders a float with, built once on import.

    The int64 tables lay the digits out, and the last two are Schubfach's g
    table for ``_shortest`` (``_pow10_table``).

    ``digits``: the values of a group of 4 digits, one to a byte.
    ``ends``: for a group at each position (starting at digit column 0, 4,
    8, 12 and 14), the column after its last nonzero digit, or 0.  Per
    decimal exponent: ``classes``, its layout class times 38; ``divisors``,
    10 to the number of digits after the point column; ``exponents``, its
    exponent bytes in word 3.  ``layout``: per layout class, end column and
    sign, the words 0-3 of the sign, "0.000", the digit columns' "0" and
    the point.  ``pow10``: 10^0 to 10^18.  ``offsets``: where the block of
    each group position starts in ``ends``.
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
    tables = (digits, ends[:40_100].copy(), classes, divisors, exponents, layout, 10 ** np.arange(19),
              np.arange(0, 50_000, 10_000)[:, None], *_pow10_table())
    for table in tables:
        table.setflags(write=False)
    return tables


_DIGITS, _ENDS, _CLASSES, _DIVISORS, _EXPONENTS, _LAYOUTS, _POW10, _OFFSETS, _G1, _G0 = _layout_tables()


class _Workspace:
    """One ``sample`` pass's render of rows of floats into a row template, as ASCII.

    ``_Workspace(template, separator, factor)`` parses the template once:
    ``template`` has one ``%r`` per coordinate, and each row, times
    ``factor``, is written in it, the rows joined by ``separator``.  Each
    float, which must be finite, is written as its repr: the shortest
    round-tripping text, which is also what json.dumps writes.

    Each ``render`` call makes its own arrays for one piece (``_arrays``)
    and renders each of its pieces in them, so threads rendering at once
    share only the parsed template and the module tables, all read-only.
    The arrays are 21 rows of 64-bit integers, one entry per float, and
    ``cells``, the bytes a piece is laid out in, ``width`` to a float after
    one lead cell of the same width, with each float's literal in place.
    The mask that compacts the cells takes the integer rows' bytes, which
    are free once the words are laid out.  A piece of fewer rows views a
    prefix of them.
    """

    def __init__(self, template: str, separator: str, factor: float | tuple[float, ...]):
        first, *lits = template.encode().split(b"%r")
        self.first, self.wrap, self.factor = first, separator.encode() + first, factor
        # The column of the last float's cell at which its ``wrap`` begins.
        self.cut = _TEXT_COL + len(lits[-1])
        lits[-1] += self.wrap
        self.width = -(-(_TEXT_COL + max(map(len, lits))) // 8) * 8
        self.text = np.array([list(lit.ljust(self.width - _TEXT_COL, b"\0")) for lit in lits], np.uint8)
        self.text.flags.writeable = False

    def _arrays(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Integer rows and cells for a piece of ``rows`` rows, each cell's literal in place."""
        room = rows * len(self.text)
        cells = np.zeros((room + 1) * self.width, np.uint8)
        cells[self.width :].reshape(-1, len(self.text), self.width)[..., _TEXT_COL:] = self.text
        return np.empty(max(21 * room, -(-cells.size // 8)), np.uint64), cells

    def render(self, block: np.ndarray, start: int) -> list[memoryview]:
        """The texts of ``block``'s rows, rendered one PIECE_FLOATS piece at a time.

        Joined, the texts are the rows in the template.  ``start`` is the
        index of the block's first row, and a block after the first
        (``start`` > 0) begins with the separator.  The pieces are rendered
        in one set of arrays, made here for the first, largest piece.
        """
        pieces = list(_pieces(slice(0, len(block)), block.shape[1]))
        arrays = self._arrays(pieces[0].stop)
        return [self._piece(block[rows], start + rows.start, *arrays) for rows in pieces]

    def _piece(self, block: np.ndarray, start: int, scratch: np.ndarray, cells: np.ndarray) -> memoryview:
        """The text of one piece's rows, rendered at once in ``render``'s arrays.

        Each float fills a row of byte columns (see ``_DIGIT_COL``).  The 17
        digits d0 d1 ... d16 of |x| = 0.d0d1...d16 x 10^decpt get a zero
        inserted where the point goes (in front if nowhere), and their
        values, four at a time from the ``digits`` table, are or'ed with a
        ``layout`` row, picked by the layout class of decpt, the column after
        the last nonzero digit and the sign, and with decpt's exponent bytes.
        Columns a float does not use hold 0.  A lead cell holds the text's
        prefix, and a mask of the nonzero bytes, cleared over the ``wrap``
        that ends the last float's literal, gathers the text in one
        allocation of its own size.  Both numpy calls release the interpreter
        lock while they run.  The text comes back as a memoryview, which
        compares equal to its bytes.
        """
        width = self.width
        cells = cells[: (block.size + 1) * width]
        u, mask = scratch[: 21 * block.size].reshape(21, -1), scratch.view(bool)[: cells.size]
        words = cells[width:].view(np.int64).reshape(-1, width // 8)
        ints = u.view(np.int64)
        np.multiply(block, self.factor, out=u[0].view(np.float64).reshape(block.shape))
        f, index = _shortest(u)
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
        _DIVISORS.take(index, out=p, mode="clip")
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
        _DIGITS.take(groups, out=values, mode="clip")
        groups += _OFFSETS
        _ENDS.take(groups, out=ends, mode="clip")
        end = ints[9]
        np.maximum.reduce(ends, axis=0, out=end)
        key, sign, layout = t, p, ints[4:8].reshape(-1, 4)
        _CLASSES.take(index, out=key, mode="clip")
        end <<= 1
        key += end
        np.right_shift(u[0], 63, out=sign.view(np.uint64))
        key += sign
        _LAYOUTS.take(key, axis=0, out=layout, mode="clip")

        np.copyto(words[:, 0], layout[:, 0])
        for word, (a, b) in ((1, values[0:2]), (2, values[2:4])):
            b <<= 32
            a |= b
            np.bitwise_or(a, layout[:, word], out=words[:, word])
        # Word 3: the last two digits, the exponent and the literal's first
        # byte, which stays from ``_arrays``.
        last, word3 = values[4], words[:, 3]
        last >>= 16
        _EXPONENTS.take(index, out=p, mode="clip")
        last |= p
        last |= layout[:, 3]
        word3 &= 0x7F << 56
        word3 |= last
        # The text is every nonzero byte from the prefix in the lead cell to the
        # last float's literal, less the separator and ``first`` that end it.
        cells[:width] = np.frombuffer((self.wrap if start else self.first).ljust(width, b"\0"), np.uint8)
        np.not_equal(cells, 0, out=mask)
        mask[cells.size - width + self.cut :] = False
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
    # Data coordinates with y negated so the picture's y axis points up (the
    # points' factor of -1.0 is the IEEE negation the outline's -y is);
    # vector-effect keeps the outline one device pixel at any scale.
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
        f'<polygon points="{" ".join(f"{x!r},{-y!r}" for x, y in ring.tolist())}" fill="none" '
        'stroke="black" stroke-width="1" vector-effect="non-scaling-stroke"/>\n'
    )
    circle = '<circle cx="%r" cy="%r" r="' + repr(dot) + '"/>\n'
    return head, (circle, "", (1.0, -1.0)), "</svg>\n"


_FORMATS = {"csv": _csv, "json": _json, "svg": _svg}
