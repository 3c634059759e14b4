"""repr text of whole float64 arrays.

repr_table(values) gives the same text as repr(float(v)) for every value,
the shortest decimal that rounds back to the double, as rows of a uint8
table.  The digits come from Schubfach on uint64 arrays (_shortest) and are
laid out by gathering one of a small table of layouts per value (_tables).
This is what the CSV and OBJ writers of output use in place of a repr call
per float.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# repr_table formats this many values at a time.
_REPR_CHUNK = 2048

_U = np.uint64
_ABS_BITS = _U((1 << 63) - 1)
_INF_BITS = _U(0x7FF << 52)
_ONE_BITS = _U(0x3FF << 52)
_FRACTION_BITS = _U((1 << 52) - 1)
_LOW32 = _U(0xFFFFFFFF)
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)

# A row of _repr_rows' source bytes: 20 digit characters (three '0', then
# the value's 17 digits, left-aligned and padded with '0'), '.', 'e', the
# exponent's sign, NUL, "0hto" (the exponent's hundreds, tens and ones)
# and "infa".
_SRC_WIDTH = 32
_SRC_DOT, _SRC_E, _SRC_ESIGN, _SRC_NUL, _SRC_EXP, _SRC_INFA = 20, 21, 22, 23, 24, 28
_SRC_TAIL = np.frombuffer(b".e+\0" b"0000" b"infa", dtype=np.uint8)
# Decimal exponents that repr writes positionally.
_POS_MIN, _POS_MAX = -4, 15
_POS_COUNT = _POS_MAX - _POS_MIN + 1
_SCI, _INF, _NAN = 17 * _POS_COUNT, 17 * _POS_COUNT + 34, 17 * _POS_COUNT + 35


class _Tables(NamedTuple):
    g0_lo: np.ndarray
    g0_hi: np.ndarray
    g1_lo: np.ndarray
    g1_hi: np.ndarray
    quads: np.ndarray
    layout: np.ndarray
    layout_len: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The constant tables of repr_table, built at its first call.

    g0_lo .. g1_hi hold Schubfach's powers of ten g(e), e = -292 .. 324, at
    row e + 292: g(e) = floor(10^e 2^(125 - floor(e log2 10))) + 1 lies in
    (2^125, 2^126] and is split as g1 2^63 + g0, each half as its low and
    high 32 bits; floor(e log2 10) is (e * 913124641741) >> 38.

    quads[i] is the ASCII of i = 0 .. 9999 in four digits, as a
    little-endian uint32.

    layout[j] holds the source columns (of a _repr_rows source row) of text
    layout j, padded with the NUL column to 23, and layout_len[j] its
    length.  Layout (n - 1) _POS_COUNT + E - _POS_MIN writes n digits at
    decimal exponent E positionally: "0.000ddd", "d.dd", "ddd.d" or
    "ddd00.0".  Layouts _SCI + 2 (n - 1) and the next write "d.ddde+XX" and
    "d.ddde+XXX", without '.' for one digit.  The last two are "inf" and
    "nan".
    """
    pos, neg, p = [], [], 1
    for e in range(325):
        s = 125 - ((e * 913124641741) >> 38)
        pos.append((p << s if s >= 0 else p >> -s) + 1)
        p *= 10
        if e < 292:
            neg.append((1 << 125 - ((-(e + 1) * 913124641741) >> 38)) // p + 1)
    raw = b"".join((g & (1 << 63) - 1 | g >> 63 << 64).to_bytes(16, "little")
                   for g in neg[::-1] + pos)
    limbs = np.frombuffer(raw, dtype="<u4").reshape(-1, 4).T.astype(np.uint64)

    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype="<u2").astype(np.uint32)
    quads = (pairs[:, None] | pairs << 16).ravel()

    d, zero, dot = bytes(range(3, 20)), bytes([0]), bytes([_SRC_DOT])
    rows = []
    for n in range(1, 18):
        for e in range(_POS_MIN, _POS_MAX + 1):
            if e < 0:
                rows.append(zero + dot + zero * (-e - 1) + d[:n])
            else:
                rows.append(d[:min(n, e + 1)] + zero * (e + 1 - n) + dot + (d[e + 1:n] or zero))
    exp = bytes([_SRC_E, _SRC_ESIGN])
    for n in range(1, 18):
        mantissa = d[:1] + (dot + d[1:n] if n > 1 else b"")
        rows.append(mantissa + exp + bytes(range(_SRC_EXP + 2, _SRC_EXP + 4)))
        rows.append(mantissa + exp + bytes(range(_SRC_EXP + 1, _SRC_EXP + 4)))
    rows.append(bytes([_SRC_INFA, _SRC_INFA + 1, _SRC_INFA + 2]))
    rows.append(bytes([_SRC_INFA + 1, _SRC_INFA + 3, _SRC_INFA + 1]))
    layout = b"".join(row.ljust(23, bytes([_SRC_NUL])) for row in rows)
    return _Tables(*limbs, quads, np.frombuffer(layout, dtype=np.uint8).reshape(-1, 23).astype(np.intp),
                   np.array([len(row) for row in rows]))


def _shortest(mag: np.ndarray, g: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): the shortest decimal f 10^k that rounds to each double.

    mag holds the bits of positive finite doubles.  This is Schubfach
    (Giulietti, "The Schubfach way to render doubles", 2020) as in its
    reference implementation, with one change: the shorter candidate
    10 floor(s / 10) or the one above it is tried for every s, not only for
    s >= 100, so subnormals get their shortest digits too.  Where two
    shortest decimals round to the double, f is the nearer one, ties to even
    f, as repr chooses.  f < 10^17 may end in zeros.

    The products g(-k) cp / 2^127 are taken in 32-bit limbs: y = g1 cp in
    full and the high 64 bits x of g0 cp, each middle sum below 2^64 because
    cp < 2^59.
    """
    be = (mag >> _U(52)).astype(np.int64)
    fraction = mag & _FRACTION_BITS
    c = fraction | (be != 0).astype(np.uint64) << _U(52)
    q = np.maximum(be, 1) - 1075
    tight = (fraction == 0) & (be > 1)  # a power of two: the interval below is half as wide
    k = (q * 661971961083 - tight * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    cb = c << _U(2)
    cp = np.stack((cb, cb - _U(2) + tight, cb + _U(2))) << h
    p0, p1 = cp & _LOW32, cp >> _U(32)
    i = 292 - k
    a0, a1, b0, b1 = g.g0_lo[i], g.g0_hi[i], g.g1_lo[i], g.g1_hi[i]
    lo = a0 * p0
    x = a1 * p1 + ((a1 * p0 + a0 * p1 + (lo >> _U(32))) >> _U(32))
    lo = b0 * p0
    mid = b1 * p0 + b0 * p1 + (lo >> _U(32))
    y1 = b1 * p1 + (mid >> _U(32))
    z = ((mid & _LOW32) << _U(31) | (lo & _LOW32) >> _U(1)) + x
    vb, vbl, vbr = (y1 + (z >> _U(63))) | ((z << _U(1)) != 0)
    out = c & _U(1)
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    t10 = s10 + _U(10)
    u10 = vbl + out <= s10 << _U(2)
    w10 = (t10 << _U(2)) + out <= vbr
    t = s + _U(1)
    u = vbl + out <= s << _U(2)
    w = (t << _U(2)) + out <= vbr
    halfway = (s + t) << _U(1)
    nearer = np.where((vb < halfway) | ((vb == halfway) & ((s & _U(1)) == 0)), s, t)
    f = np.where(u10 != w10, np.where(u10, s10, t10), np.where(u != w, np.where(u, s, t), nearer))
    return f, k


def _repr_rows(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the repr of the doubles with these bits into out's rows, as
    repr_table describes; return each row's length after the sign."""
    g = _tables()
    mag = bits & _ABS_BITS
    finite = mag - _U(1) < _INF_BITS - _U(1)
    # 0, inf and nan pass as 1.0 and get their digit or layout below.
    f, e = _shortest(np.where(finite, mag, _ONE_BITS), g)
    # Strip trailing zeros, working only on the rows that have one.
    rows = np.flatnonzero(f // _U(10) * _U(10) == f)
    while rows.size:
        f[rows] //= _U(10)
        e[rows] += 1
        rows = rows[f[rows] // _U(10) * _U(10) == f[rows]]
    f[mag == 0] = 0
    # f has n digits; from here e is the decimal exponent of the first, and
    # v = f 10^(17 - n) holds them left-aligned in 17, in five quadruples.
    n = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    e += n - 1
    v = f * _POW10[17 - n]
    quads = np.empty((len(v), 5), dtype=np.uint64)
    for j in range(4, 0, -1):
        quotient = v // _U(10000)
        quads[:, j] = v - quotient * _U(10000)
        v = quotient
    quads[:, 0] = v
    src = np.empty((len(v), _SRC_WIDTH), dtype=np.uint8)
    src[:, :20].view("<u4")[:] = g.quads[quads]
    src[:, 20:] = _SRC_TAIL
    src[:, _SRC_ESIGN] = np.where(e < 0, ord("-"), ord("+"))
    src[:, _SRC_EXP:_SRC_EXP + 4].view("<u4")[:, 0] = g.quads[np.abs(e)]
    layout = np.where((e >= _POS_MIN) & (e <= _POS_MAX), (n - 1) * _POS_COUNT + e - _POS_MIN,
                      _SCI + 2 * (n - 1) + (np.abs(e) >= 100))
    special = ~finite & (mag != 0)
    layout[special] = np.where(mag[special] > _INF_BITS, _NAN, _INF)
    out[:, 0] = np.where((bits > _ABS_BITS) & (mag <= _INF_BITS), ord("-"), 0)
    index = g.layout[layout]
    index += np.arange(0, len(v) * _SRC_WIDTH, _SRC_WIDTH)[:, None]
    np.take(src.ravel(), index, out=out[:, 1:])
    return g.layout_len[layout]


def repr_table(values) -> np.ndarray:
    """repr(float(v)) of each value as a NUL-padded uint8 table.

    Row i is the ASCII of the i-th value's repr, left-aligned after a sign
    column that holds '-' or NUL, so the row with its NULs deleted is the
    repr; the table is as wide as its longest row.  _REPR_CHUNK values at a
    time get their digits from _shortest and are laid out by gathering one
    layout of _tables per value.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    table = np.empty((len(bits), 24), dtype=np.uint8)
    width = 1
    for i in range(0, len(bits), _REPR_CHUNK):
        lengths = _repr_rows(bits[i:i + _REPR_CHUNK], table[i:i + _REPR_CHUNK])
        width = max(width, 1 + int(lengths.max()))
    return table[:, :width]
