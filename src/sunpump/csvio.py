"""
Deterministic CSV emission: LF line endings, '.' decimal separator,
header always present.

Data arrive as equal-length columns, and each column's format follows
from its dtype: floats print at 9 significant digits ("%.9g", so a
round-trip parse reproduces the text; inf, -inf, nan and -0 print as
such), integers and bools as integers ("%d"), and anything else as text,
``str`` of each value, quoted when it holds a comma, a quote or a line
break.

Bytes, not strings: a block of at most 512 rows becomes one uint8
matrix.  A float cell gets a 32-byte slot, four uint64 words:

    byte  0      '-'
          1..5   "0.000"                  (0.1 .. 0.0001)
          6..23  d1 '.' d2 '.' .. d9 '.'  (the 9 digits)
          24..27 "e-XX"
          28     ',' or '\\n'

Its two 4-digit groups after d1 are looked up whole in a table of the
10 000 words "a.b.c.d.".  A row of a keep table, picked by the cell's
decimal exponent X, its count of significant digits and its sign, says
which slot bytes are its text; zero and -0 are the one-digit rows at
X = 0 with the digit 0.  Any other cell (an integer or bool as ``str``
of its Python int, which is its "%d", or a text) gets a slot of its
quoted UTF-8 in a fixed-width ``S`` array.  One ``np.take`` of the keep
table and one ``np.compress`` then give the block's bytes.

The fast path proves a float's digits without a string.  For a finite
|v| in [1e-14, 1e9), X = floor(log10|v|) clipped to [-14, 8], and
y = |v|·10^(8-X) is one correctly rounded product: 10^(8-X) is exact,
as 8-X lies in [0, 22], so y is off the exact product by at most half
an ulp, 2^-24 below 2^30.  The digits are m = rint(y), proven when
y >= 1e8, m <= 1e9 (1e9 is a carry to X + 1, up to X = 8) and y lies
more than 2^-20 from the nearest half-integer; an X that log10 got
wrong fails these or gives the same digits.  Every other float (nan,
inf, |v| outside the range, a near tie) is formatted by ``'%.9g' % v``
and spliced in at its offset, so the bytes equal the per-value format's
in every case.
"""

import functools
import types

import numpy as np

# rows per block; bounds the slot bytes held at once
_BLOCK_ROWS = 512

# keep-table rows: floats by (X + 14, significant digits - 1, sign), and
# the fallback row, which keeps only the separator; zero is the row of
# one digit at X = 0
_SLOW = 23 * 9 * 2


def _quote(s):
    if any(ch in s for ch in (",", '"', "\n", "\r")):
        return '"' + s.replace('"', '""') + '"'
    return s


@functools.cache
def _tables():
    """Built on first write: the keep table and its row lengths, and the
    lookups of the float slots, each indexed by a small integer."""
    p = np.arange(32)
    x = np.arange(-14, 9)[:, None, None, None]
    sig = np.arange(1, 10)[:, None, None]
    neg = np.arange(2)[:, None] == 1
    sign = (p == 0) & neg
    sep = p == 28
    digit = (p >= 6) & (p <= 22) & (p % 2 == 0)
    dot = (p >= 7) & (p <= 23) & (p % 2 == 1)
    small = (x < 0) & (x >= -4)
    whole = np.where(x >= 0, x + 1, 1)     # digits before the point
    floats = (sign | sep
              | digit & (p <= 4 + 2 * np.where(x >= 0,
                                               np.maximum(sig, whole), sig))
              | dot & (p == 5 + 2 * whole) & (sig > whole) & ~small
              | small & (p >= 1) & (p <= 1 - x)
              | (x <= -5) & (p >= 24) & (p <= 27))
    keep = np.concatenate([floats.reshape(-1, 32), sep[None]])
    # the 4-digit groups abcd = 0..9999 on a (10, 10, 10, 10) grid; their
    # words are built in int64 (all below 2^63) and viewed as uint64
    d = np.arange(10, dtype=np.int64)
    c, b, a = d[:, None], d[:, None, None], d[:, None, None, None]
    tz = np.where(d > 0, 0, np.where(c > 0, 1, np.where(
        b > 0, 2, np.where(a > 0, 3, 4)))).reshape(-1)   # trailing zeros
    return types.SimpleNamespace(
        keep=keep,
        lengths=np.array([row.count(True) for row in keep.tolist()],
                         np.uint8),
        # 10^(8 - X) by X + 14: exact, as 10^k is for k <= 22
        pow10=np.array([10.0 ** k for k in range(22, -1, -1)]),
        # the low word "-0.000d." by d
        first=np.frombuffer(b"".join(b"-0.000%d." % k for k in range(10)),
                            "<u8"),
        # "a.b.c.d." by abcd
        dotted=(0x2E302E302E302E30 + a + b * 2 ** 16 + c * 2 ** 32
                + d * 2 ** 48).reshape(-1).view(np.uint64),
        # 2 (significant digits - 1) of the 9 digits d1 hhhh llll: by
        # llll when it is not 0, else by 10000 + hhhh
        sig2=np.concatenate([16 - 2 * tz, 8 - 2 * tz]).astype(np.uint8),
        # "e-XX" by X + 14 (kept for X <= -5 only)
        exps=np.frombuffer(b"".join(b"e-%02d\0\0\0\0" % max(-x, 0)
                                    for x in range(-14, 9)), "<u8"))


def _float_cells(v):
    """
    Slots and keep-table keys of float64 cells ``v`` (any shape), and
    the mask of the cells left to the per-value fallback.
    """
    tab = _tables()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-14) & (a < 1e9)
    a = np.where(fast, a, 1.0)
    xi = np.floor(np.log10(a)).astype(np.intp)
    xi += 14
    np.clip(xi, 0, 22, out=xi)
    y = a * tab.pow10.take(xi)
    m = np.rint(y)
    fast &= (y >= 1e8) & (m <= 1e9) & (np.abs(y - m) < 0.5 - 2.0 ** -20)
    carry = m == 1e9
    if carry.any():
        m[carry] = 1e8
        xi += carry
        fast &= xi <= 22
        np.minimum(xi, 22, out=xi)
    np.putmask(m, zero, 0.0)
    fast |= zero
    # d1 hhhh llll split in floats: exact, as every term is an integer
    # below 2^53 and each quotient lies 1e-8 or more off an integer
    d1 = np.floor(m / 1e8)
    rest = m - d1 * 1e8
    hi = np.floor(rest / 1e4)
    lo = (rest - hi * 1e4).astype(np.intp)
    d1 = d1.astype(np.intp)
    hi = hi.astype(np.intp)
    words = np.empty(v.shape + (4,), "<u8")
    words[..., 0] = tab.first.take(d1, mode="clip")
    words[..., 1] = tab.dotted.take(hi)
    words[..., 2] = tab.dotted.take(lo)
    words[..., 3] = tab.exps.take(xi)
    sig2 = tab.sig2.take(np.where(lo == 0, hi + 10000, lo))
    keys = xi * 18 + sig2 - (v.view(np.int64) >> 63)   # +1 when negative
    slow = ~fast
    if slow.any():
        keys[slow] = _SLOW
    return words, keys, slow


def _text_cells(values, sep):
    """Slot bytes (rows, width), keep mask and lengths of text cells,
    each its quoted UTF-8 and the separator."""
    texts = [(_quote(str(v)) + sep).encode("utf-8") for v in values]
    slots = np.array(texts)
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    width = slots.dtype.itemsize
    return (slots.view(np.uint8).reshape(-1, width),
            np.arange(width) < lengths[:, None], lengths)


def _block(cols, lo, hi):
    """The CSV bytes of rows ``lo:hi``."""
    tab = _tables()
    r, k = hi - lo, len(cols)
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    vals = np.empty((r, len(floats)))
    with np.errstate(invalid="ignore"):     # a signaling NaN widened
        for i, j in enumerate(floats):
            vals[:, i] = cols[j][lo:hi]
    words, keys, slow = _float_cells(vals)
    slots = words.view(np.uint8)
    slots[..., 28] = [ord(",") if j < k - 1 else ord("\n") for j in floats]
    keep = tab.keep.take(keys, axis=0)
    lengths = None
    if len(floats) < k:
        # other columns: put every column's slots and keep mask side by side
        at = dict(zip(floats, range(len(floats))))
        parts, masks, lengths = [], [], np.empty((r, k), np.intp)
        for j, c in enumerate(cols):
            if j in at:
                parts.append(slots[:, at[j]])
                masks.append(keep[:, at[j]])
                lengths[:, j] = tab.lengths.take(keys[:, at[j]])
            else:
                c = c[lo:hi]
                if c.dtype.kind in "iub":
                    c = c.astype(np.uint64 if c.dtype.kind == "u"
                                 else np.int64)
                part, mask, lengths[:, j] = _text_cells(
                    c.tolist(), "," if j < k - 1 else "\n")
                parts.append(part)
                masks.append(mask)
        slots = np.concatenate(parts, axis=1)
        keep = np.concatenate(masks, axis=1)
    data = np.compress(keep.ravel(), slots.ravel())
    if not slow.any():
        return data
    # each fallback cell's text goes in before its separator
    if lengths is None:
        lengths = tab.lengths.take(keys)
    lengths = lengths.ravel()
    starts = np.cumsum(lengths, dtype=np.intp) - lengths
    rows, at = np.nonzero(slow)
    offsets = starts[rows * k + np.array(floats)[at]]
    data = data.tobytes()
    pieces, prev = [], 0
    for offset, v in zip(offsets.tolist(), vals[rows, at].tolist()):
        pieces += [data[prev:offset], ("%.9g" % v).encode()]
        prev = offset
    pieces.append(data[prev:])
    return b"".join(pieces)


def emit_csv(header, columns, path):
    """
    Write equal-length ``columns`` to `path` as RFC-4180-style CSV.

    Rows are formatted and written a block of rows at a time, so an error
    partway through leaves the blocks written so far.
    """
    cols = [np.asarray(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns must have equal lengths")
    n = len(cols[0]) if cols else 0
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(_quote(h) for h in header) + "\n")
                     .encode("utf-8"))
            for lo in range(0, n, _BLOCK_ROWS):
                fh.write(_block(cols, lo, min(lo + _BLOCK_ROWS, n)))
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    return path
