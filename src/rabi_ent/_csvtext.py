"""The CSV text of numeric columns as numpy builds it, byte for byte the text of
``"%.17g" % value`` for a float and ``"%d" % value`` for an integer.  ``csv_pieces``
yields the header line and then the rows, one piece per _BLOCK values of whole rows.

Each value gets its 17-digit significand S and decimal exponent X: |x| * 10**(16 - X) is
taken as a Dekker two-product with a double-double table of powers of ten, and rounded
half to even once a guard shows that the product's error cannot cross the tie.  The value
is then laid out by the %g rules in a fixed field of six little-endian uint64 words, each
a table entry ANDed with a mask, and ``bytearray.translate`` deletes the NUL bytes the
field leaves free:

    word 0     '-' or NUL, "0." and up to three "0" when -4 <= X < 0 (else NUL), the
               digit D0 and a '.'
    words 1-4  the digits D1 .. D16, four to a word, each followed by a '.'
    word 5     "e-XX" or "e-XXX" when X < -4 (else NUL), then ',' or the row's '\\n'

The mask keeps the digits up to the last nonzero one (and all those of the integer part)
and the one '.' that follows the last integer digit, or D0 when X < -4, if digits follow
it.  nan and +-inf take word 0 as "nan", "inf" or "-inf" and the mask of a zero.  The %
operator itself writes what the guard does not certify: a value within 1e-6 of a rounding
tie, |x| >= 1e16 or 0 < |x| < 1e-280, and an integer beyond 2**53.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_TIE_GUARD = 1e-6  # far above the product's error, a few units of 1e-15
_X_MIN = -281  # the lowest X of a value at or above 1e-280
_LAYOUTS = 22  # X = -5 (standing for every X < -4), -4, ..., 16
_DIGIT_BASE = np.uint64(0x2E302E302E302E30)  # "0.0.0.0." as a little-endian word
_BLOCK = 8192  # values per piece and kernel pass: its temporaries stay in cache


def _split(a):
    """a as hi + lo with 26-bit halves, so that products of halves are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table() -> np.ndarray:
    """Rows hi, hi's two halves and lo of 10**k = hi + lo (to 2**-106), k = 0 .. 299."""
    power, hi, lo = 1, [], []
    for _ in range(300):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi = np.array(hi)
    return np.array([hi, *_split(hi), lo])


def _words(rows) -> np.ndarray:
    """Byte strings (each at most 8 bytes) as little-endian uint64 words, NUL-padded."""
    return np.frombuffer(b"".join(row.ljust(8, b"\0") for row in rows), "<u8")


def _masks() -> np.ndarray:
    """The six mask words of each (significant digits, layout) pair."""
    byte = np.arange(48)
    digit, slot = (byte - 6) // 2, (byte % 2 == 1) & (7 <= byte) & (byte < 40)
    kept = np.arange(18)[:, None, None]
    x = np.arange(_LAYOUTS)[None, :, None] - 5
    point = np.where(x == -5, 0, x)  # the digit the point follows, if digits follow it
    dot = (point >= 0) & (kept > point + 1) & (digit == point)
    keep = np.where(slot, dot, (byte < 7) | (byte >= 40) | (digit < np.maximum(kept, point + 1)))
    return (keep * np.uint8(0xFF)).view("<u8").reshape(-1, 6)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each 4-digit group value: its word (each digit followed by a '.'), and per
    group position (D1-D4, ..., D13-D16) the count of significant digits if the value's
    last nonzero digit is in that group (1 for a zero group), times the layout count."""
    digit = np.arange(10, dtype=np.uint64)
    places = (np.uint64(1) << np.uint64(16 * i) for i in range(4))  # the first digit first
    text = functools.reduce(np.add.outer, [digit * place for place in places]).ravel()
    nonzero = (digit > 0).astype(np.int16)
    last = functools.reduce(np.maximum.outer, [nonzero * i for i in range(1, 5)]).ravel()
    counts = np.where(last == 0, 1, 4 * np.arange(4, dtype=np.int16)[:, None] + 1 + last)
    return text + _DIGIT_BASE, counts * np.int16(_LAYOUTS)


_POW10 = _pow10_table()
_MASKS = _masks()
_DIGITS, _LAST_DIGIT = _digit_tables()
_PREFIX = _words(b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"") for x in range(-5, 17))
_WORD0 = (  # by (layout, D0, sign): the sign, the prefix, D0 and a '.'
    _PREFIX[:, None, None]
    + (np.arange(ord("0"), ord("9") + 1, dtype=np.uint64) << np.uint64(48))[:, None]
    + np.array([0, ord("-")], np.uint64)
    + (np.uint64(ord(".")) << np.uint64(56))
).ravel()
# word 5 by (last column, X): the exponent and the separator
_EXPONENT = _words(b"e%+03d" % x if x < -4 else b"" for x in range(_X_MIN, 17))
_WORD5 = np.concatenate([_EXPONENT + (np.uint64(ord(end)) << np.uint64(40)) for end in ",\n"])
_NONFINITE = _words((b"nan", b"inf", b"-inf"))  # word 0 of nan, inf and -inf
_TABLE = np.concatenate((_DIGITS, _WORD0, _WORD5, _NONFINITE))
_WORD0_AT, _WORD5_AT = _DIGITS.size, _DIGITS.size + _WORD0.size
_NONFINITE_AT = _WORD5_AT + _WORD5.size


def _scaled(a, k):
    """a * 10**k as p + q, p = fl(a * 10**k), the sum within a few 1e-15 of the exact
    product while p < 2e17."""
    hi, hi_hi, hi_lo, lo = (row.take(k) for row in _POW10)
    a_hi, a_lo = _split(a)
    p = a * hi
    q = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    return p, q


def _significands(values):
    """(S, X, certain): 17-digit significands (0 for +-0 and the values not certified),
    decimal exponents, and which values the two are certified for."""
    a = np.abs(values)
    zero = a == 0.0
    inside = (a >= 1e-280) & (a < 1e16)
    a = np.where(inside, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, 16 - x)
    # log10 can miss X by one next to a power of ten: step it so that p + q is in
    # [1e16, 1e17].  p - 1e16 and p - 1e17 are exact where p is near them.
    step = ((p - 1e17) + q >= 0).view(np.int8) - ((p - 1e16) + q < 0).view(np.int8)
    moved = np.flatnonzero(step)
    if moved.size:
        x[moved] += step[moved]
        p[moved], q[moved] = _scaled(a[moved], 16 - x[moved])
    rounded = np.rint(q)  # p is an even integer, so q's half-to-even is S's
    s = p.astype(np.int64)
    s += rounded.astype(np.int64)
    carry = s == 10**17  # rounded up to the next power of ten
    s[carry] = 10**16
    x += carry
    certain = inside & (np.abs(q - rounded) < 0.5 - _TIE_GUARD) & (s >= 10**16) & (s < 10**17)
    uncertain = ~certain
    s[uncertain] = 0  # the significand of +-0, a placeholder for the rest
    x[uncertain] = 0
    return s, x, certain | zero


def _fields(values, width: int, fields) -> np.ndarray:
    """Write the six field words of each value of the row-major (row, column) ``values``
    into the rows of ``fields``; return the indices the % operator must write instead."""
    s, x, certain = _significands(values)
    index = np.empty((6, values.size), np.intp)
    lead = s // 10**16
    upper, lower = np.divmod(s - lead * 10**16, 10**8)
    for j, half in ((1, upper), (3, lower)):
        high = np.floor_divide(half, 10**4, out=index[j])
        np.subtract(half, high * 10**4, out=index[j + 1])
    # the significant digits end in the last nonzero group: the largest of the four counts
    key = _LAST_DIGIT[0].take(index[1])
    for j in range(1, 4):
        np.maximum(key, _LAST_DIGIT[j].take(index[j + 1]), out=key)
    layout = np.maximum(x, -5) + 5
    key += layout
    index[0] = _WORD0_AT + 20 * layout + 2 * lead + np.signbit(values)
    index[5] = _WORD5_AT + (x - _X_MIN)
    index[5].reshape(-1, width)[:, -1] += _EXPONENT.size
    # the values not certified have S = 0 and X = 0: a non-finite one keeps the mask of
    # a zero, which leaves word 0's first bytes and the separator, and takes its own word 0
    uncertain = np.flatnonzero(~certain)
    finite = np.isfinite(values[uncertain])
    nonfinite = uncertain[~finite]
    special = values[nonfinite]
    index[0, nonfinite] = _NONFINITE_AT + np.where(np.isnan(special), 0, 1 + np.signbit(special))
    fields[...] = _TABLE.take(index).T
    fields &= _MASKS.take(key, axis=0)
    return uncertain[finite]


def csv_pieces(header, columns):
    """The CSV text of equal-length 1-D columns: the header line, then one piece per
    _BLOCK values of whole rows, integer columns as "%d" and others as "%.17g"."""
    yield ",".join(header) + "\n"
    width = len(columns)
    integer = [col.dtype.kind in "iu" for col in columns]
    values = np.empty((columns[0].size, width))
    for c, col in enumerate(columns):
        exact = (col >= -(2**53)) & (col <= 2**53) if integer[c] else True  # as a float
        values[:, c] = np.where(exact, col, 1e16)  # 1e16: left to the % operator
    step = max(1, _BLOCK // width)
    for start in range(0, len(values), step):
        block = values[start : start + step].ravel()
        raw = bytearray(block.size * 48)
        for i in _fields(block, width, np.frombuffer(raw, "<u8").reshape(-1, 6)).tolist():
            row, c = divmod(i, width)
            text = ("%d" if integer[c] else "%.17g") % columns[c][start + row].item()
            raw[48 * i : 48 * i + 45] = text.encode().ljust(45, b"\0")
        yield raw.translate(None, b"\0").decode("ascii")
