"""
Deterministic CSV emission: LF line endings, '.' decimal separator,
header always present.

Data arrive as equal-length columns, and each column's format follows
from its dtype: floats print at 9 significant digits ("%.9g", so a
round-trip parse reproduces the text; inf, -inf, nan and -0 print as
such), integers and bools as integers ("%d"), and anything else as text,
``str`` of each value, quoted when it holds a comma, a quote or a line
break.
"""

import numpy as np


def _quote(s):
    if any(ch in s for ch in (",", '"', "\n", "\r")):
        return '"' + s.replace('"', '""') + '"'
    return s


# printf format per numpy dtype kind; every other kind is text
_FORMATS = {"f": "%.9g", "i": "%d", "u": "%d", "b": "%d"}

# rows per text chunk; bounds the text held at once
_BLOCK_ROWS = 1024


def emit_csv(header, columns, path):
    """
    Write equal-length ``columns`` to `path` as RFC-4180-style CSV.

    Rows are formatted and written a block of rows at a time, so an error
    partway through leaves the blocks written so far.
    """
    cols = [np.asarray(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns must have equal lengths")
    formats = [_FORMATS.get(c.dtype.kind, "%s") for c in cols]
    text = [j for j, f in enumerate(formats) if f == "%s"]
    row_format = ",".join(formats) + "\n"
    n = len(cols[0]) if cols else 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_quote(h) for h in header) + "\n")
            for lo in range(0, n, _BLOCK_ROWS):
                block = [c[lo:lo + _BLOCK_ROWS].tolist() for c in cols]
                for j in text:
                    block[j] = [_quote(str(v)) for v in block[j]]
                fh.write("".join([row_format % row for row in zip(*block)]))
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    return path
