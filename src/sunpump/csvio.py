"""
Deterministic CSV emission: LF line endings, '.' decimal separator,
floats at 9 significant digits, header always present.
"""

import math

import numpy as np


def format_value(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.9g" % v
    return _quote(str(v))


def _quote(s):
    if any(ch in s for ch in (",", '"', "\n", "\r")):
        return '"' + s.replace('"', '""') + '"'
    return s


# rows per text chunk when writing columns; bounds the text held at once
_BLOCK_ROWS = 1024


def emit_csv(header, rows, path, *, columns=None):
    """
    Write rows to `path` as RFC-4180-style CSV.

    Floats are printed with 9 significant digits so a round-trip parse
    reproduces the emitted text exactly.  Rows are streamed, so an
    error partway through leaves the lines written so far.

    Equal-length float columns may be passed as ``columns`` in place of
    ``rows`` (``rows=None``); they are formatted a block of rows at a
    time, to the bytes the rows ``zip(*columns)`` of floats would give.
    """
    if columns is not None:
        if rows is not None:
            raise ValueError("pass rows or columns, not both")
        cols = [np.asarray(c, dtype=float) for c in columns]
        if len({len(c) for c in cols}) > 1:
            raise ValueError("columns must have equal lengths")
        chunks = _column_blocks(cols)
    else:
        chunks = (",".join(format_value(v) for v in row) + "\n"
                  for row in rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_quote(h) for h in header) + "\n")
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    return path


def _column_blocks(cols):
    """Text of the rows of float arrays, _BLOCK_ROWS rows per chunk."""
    n = len(cols[0]) if cols else 0
    # "%.9g" prints what format_value prints for a float: inf, -inf,
    # nan and -0 included
    row_format = ",".join(["%.9g"] * len(cols)) + "\n"
    for lo in range(0, n, _BLOCK_ROWS):
        block = [c[lo:lo + _BLOCK_ROWS].tolist() for c in cols]
        yield "".join([row_format % row for row in zip(*block)])
