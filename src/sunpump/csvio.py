"""
Deterministic CSV emission: LF line endings, '.' decimal separator,
header always present.

Data arrive as equal-length columns, and each column's format follows
from its dtype: floats print at 9 significant digits ("%.9g", so a
round-trip parse reproduces the text; inf, -inf, nan and -0 print as
such), integers and bools as integers ("%d"), and anything else as text,
``str`` of each value, quoted when it holds a comma, a quote or a line
break.

Bytes, not strings: a block of about 7 680 cells (512 rows of a
15-column trace, 3 840 of a 2-column step response) becomes one uint8
matrix of slots, one a cell, and every slot byte that is not the cell's
text holds the filler 0xFF, a byte UTF-8 never produces.  One
``bytes.translate`` pass that deletes the filler gives the block's
bytes.  A float cell gets a 32-byte slot, four uint64 words:

    byte  0      '-'
          1..5   "0.000"                  (0.1 .. 0.0001)
          6..23  d1 '.' d2 '.' .. d9 '.'  (the 9 digits)
          24..28 "e+XX" .. "e+XXX"        (e-300 .. e+308)
          29     ',' or '\\n'

Its two 4-digit groups after d1 are looked up whole in a table of the
10 000 words "a.b.c.d.", and its exponent text by X, the decimal
exponent.  A row of a keep table says which slot bytes are the cell's
text.  It is picked by the notation class of X (each X in 0..8 and in
-4..-1, a 2-digit exponent or a 3-digit one: 15 classes), the count of
significant digits and the sign; zero and -0 are the one-digit rows of
X = 0 with the digit 0.  The bytes a row drops hold the same value in
every slot of the row ('-', "0.000", dots, trailing zero digits, the
exponent text of a fixed-notation class, NUL), so one uint64 add of the
row's constant turns each into the filler and carries into no other
byte.  Any other cell (an integer or bool as ``str`` of its Python int,
which is its "%d", or a text) gets a slot of its quoted UTF-8 and the
filler.

A float cell whose bits equal those of the cell above it gets the same
slot: each run of bit-equal cells down a column is formatted once and
its slot taken for the run.

The fast path proves a float's digits without a string, for every
finite |v| >= 1e-300.  X = floor(log10|v|) clipped to [-300, 308], and
y = |v|·P[X] is one product, where P[X] is 10^(8-X) read from the
decimal literal (correctly rounded; ``10.0 ** k`` need not be).  For
8-X in [0, 22] P[X] is exact and y is off the exact product
E = |v|·10^(8-X) by at most half an ulp, 2^-24 below 2^30.  Elsewhere
P[X] is off 10^(8-X) by at most 2^-53 relative, so |y - E| is at most
2^30·2^-53 + 2^-24 = 3·2^-24 < 2^-22.  The digits are m = rint(y),
proven when y >= 1e8, m <= 1e9 (1e9 is a carry to X + 1) and y lies
more than 2^-20 from the nearest half-integer: then E lies less than
1/2 from m, so m is E rounded, with no tie.  An X that log10 got wrong
fails these or gives the same digits.  Every other float (nan, inf, a
nonzero |v| below 1e-300, the subnormals among them, and a near tie)
is formatted by ``'%.9g' % v`` into its slot, so the bytes equal the
per-value format's in every case.
"""

import functools
import types

import numpy as np

# cells per block; bounds the slot bytes held at once
_BLOCK_CELLS = 7680

# the decimal exponents of the fast path: 10^(8 - X) is a normal double
_X_LO, _X_HI = -300, 308


def _quote(s):
    if any(ch in s for ch in (",", '"', "\n", "\r")):
        return '"' + s.replace('"', '""') + '"'
    return s


@functools.cache
def _tables():
    """Built on first write: the filler add of each keep-table row and
    the lookups of the float slots, each indexed by a small integer.

    The tables and the kernel use only the numpy loops they share with
    the rest of a run (no integer abs or subtract, no bool arithmetic
    or cast): each other loop maps 64 KB more of numpy's code, which the
    peak RSS counts."""
    p = np.arange(32)
    # one X per notation class: -4..8, then 9 and 100 for the 2-digit and
    # the 3-digit exponents
    x = np.array([*range(-4, 10), 100])[:, None, None, None]
    sig = np.arange(1, 10)[:, None, None]
    neg = np.arange(2)[:, None] == 1
    sign = (p == 0) & neg
    sep = p == 29
    digit = (p >= 6) & (p <= 22) & (p % 2 == 0)
    dot = (p >= 7) & (p <= 23) & (p % 2 == 1)
    fixed = (x >= -4) & (x <= 8)
    small = fixed & (x < 0)
    whole = np.where(fixed & (x >= 0), x + 1, 1)   # digits before the point
    keep = (sign | sep
            | digit & (p <= 4 + 2 * np.maximum(sig, whole))
            | dot & (p == 5 + 2 * whole) & (sig > whole) & ~small
            | small & (p >= 1) & (p <= 1 - x)
            | ~fixed & (p >= 24) & (p <= np.where(x < 100, 27, 28)))
    # 0xFF less each class's bytes where its rows drop them (a dropped
    # digit is 0), subtracted by a translate, which maps no numpy loop
    gap = np.frombuffer(b"".join(
        b"-0.000" + b"0." * 9 + (b"e%+03d" % c).ljust(8, b"\0")
        for c in x.ravel().tolist()).translate(bytes(range(255, -1, -1))),
        np.uint8).reshape(-1, 1, 1, 32)
    # the 4-digit groups abcd = 0..9999 on a (10, 10, 10, 10) grid; their
    # words are built in int64 (all below 2^63) and viewed as uint64
    d = np.arange(10, dtype=np.int64)
    c, b, a = d[:, None], d[:, None, None], d[:, None, None, None]
    tz = np.where(d > 0, 0, np.where(c > 0, 1, np.where(
        b > 0, 2, np.where(a > 0, 3, 4)))).reshape(-1)   # trailing zeros
    xs = np.arange(_X_LO, _X_HI + 1)
    return types.SimpleNamespace(
        # by keep-table row: the words that make each dropped byte 0xFF
        add=np.where(keep, 0, gap).reshape(-1, 32).view("<u8"),
        # by X - _X_LO: 10^(8 - X) correctly rounded (module docstring),
        # the first keep-table row of X's notation class, and "e+XX"
        scale=np.array([float("1e%d" % (8 - x)) for x in xs.tolist()]),
        class_rows=18 * np.where((xs >= -4) & (xs <= 8), xs + 4,
                                 np.where((xs > -100) & (xs < 100), 13,
                                          14)),
        exps=np.frombuffer(b"".join((b"e%+03d" % x).ljust(8, b"\0")
                                    for x in xs.tolist()), "<u8"),
        # the low word "-0.000d." by d
        first=np.frombuffer(b"".join(b"-0.000%d." % k for k in range(10)),
                            "<u8"),
        # "a.b.c.d." by abcd
        dotted=(0x2E302E302E302E30 + a + b * 2 ** 16 + c * 2 ** 32
                + d * 2 ** 48).reshape(-1).view(np.uint64),
        # 2 (significant digits - 1) of the 9 digits d1 hhhh llll: by
        # llll when it is not 0, else by 10000 + hhhh
        sig2=np.concatenate([16 - 2 * tz, 8 - 2 * tz]).astype(np.uint8))


def _float_cells(v):
    """
    Slots of float64 cells ``v`` (any shape) as four uint64 words each,
    the cell's text and the filler (byte 29 left for the separator),
    and the mask of the cells formatted by the per-value fallback.
    """
    tab = _tables()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-300) & (a < np.inf)
    a = np.where(fast, a, 1.0)
    xi = np.floor(np.log10(a)).astype(np.intp)
    xi += -_X_LO
    np.clip(xi, 0, _X_HI - _X_LO, out=xi)
    y = a * tab.scale.take(xi)
    m = np.rint(y)
    fast &= (y >= 1e8) & (m <= 1e9) & (np.abs(y - m) < 0.5 - 2.0 ** -20)
    carry = m == 1e9
    if carry.any():
        m[carry] = 1e8
        xi += carry
        fast &= xi <= _X_HI - _X_LO
        np.minimum(xi, _X_HI - _X_LO, out=xi)
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
    keys = (tab.class_rows.take(xi) + sig2
            - (v.view(np.int64) >> 63))                # +1 when negative
    words += tab.add.take(keys, axis=0)
    slow = ~fast
    if slow.any():
        words[slow] = np.frombuffer(b"".join(
            ("%.9g" % x).encode().ljust(32, b"\xff")
            for x in v[slow].tolist()), "<u8").reshape(-1, 4)
    return words, slow


def _text_cells(values, sep):
    """Slots (rows, width) of text cells, each its quoted UTF-8 and the
    separator, then the filler."""
    texts = [(_quote(str(v)) + sep).encode("utf-8") for v in values]
    width = max(map(len, texts))
    return np.frombuffer(b"".join(t.ljust(width, b"\xff") for t in texts),
                         np.uint8).reshape(-1, width)


def _block(cols, lo, hi):
    """The CSV bytes of rows ``lo:hi``."""
    r, k = hi - lo, len(cols)
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    vals = np.empty((len(floats), r))
    with np.errstate(invalid="ignore"):     # a signaling NaN widened
        for i, j in enumerate(floats):
            vals[i] = cols[j][lo:hi]
    # the cells that start a run of bit-equal cells down their column
    bits = vals.view(np.int64)
    new = np.empty(vals.shape, bool)
    new[:, 0] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    # format each run once: cell (row, i) takes its run's slot, runs
    # counted column after column (ids built without a bool cast)
    runs, _ = _float_cells(vals[new])
    ids = np.zeros(new.size, np.intp)
    np.putmask(ids, new, 1)
    np.cumsum(ids, out=ids)
    ids += -1
    words = runs.take(ids.reshape(vals.shape).T, axis=0)
    slots = words.view(np.uint8)
    slots[..., 29] = [ord(",") if j < k - 1 else ord("\n") for j in floats]
    if len(floats) < k:
        # other columns: put every column's slots side by side
        at = dict(zip(floats, range(len(floats))))
        parts = []
        for j, c in enumerate(cols):
            if j in at:
                parts.append(slots[:, at[j]])
                continue
            c = c[lo:hi]
            if c.dtype.kind in "iub":
                c = c.astype(np.uint64 if c.dtype.kind == "u" else np.int64)
            parts.append(_text_cells(c.tolist(), "," if j < k - 1 else "\n"))
        slots = np.concatenate(parts, axis=1)
    return slots.tobytes().translate(None, b"\xff")


def emit_csv(header, columns, path):
    """
    Write equal-length ``columns`` to `path` as RFC-4180-style CSV.

    Rows are formatted and written a block of about ``_BLOCK_CELLS``
    cells at a time, so an error partway through leaves the blocks
    written so far.
    """
    cols = [np.asarray(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns must have equal lengths")
    n = len(cols[0]) if cols else 0
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(_quote(h) for h in header) + "\n")
                     .encode("utf-8"))
            rows = max(1, _BLOCK_CELLS // max(1, len(cols)))
            for lo in range(0, n, rows):
                fh.write(_block(cols, lo, min(lo + rows, n)))
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    return path
