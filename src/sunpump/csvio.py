"""
Deterministic CSV emission: LF line endings, '.' decimal separator,
header always present.

Data arrive as equal-length columns, and each column's format follows
from its dtype: floats print at 9 significant digits ("%.9g", so a
round-trip parse reproduces the text; inf, -inf, nan and -0 print as
such), integers and bools as integers ("%d"), and anything else as text,
``str`` of each value, quoted when it holds a comma, a quote or a line
break.

Runs: a numeric column whose value changes, bit for bit, on at most one
row in four formats each run of equal values once per block of rows and
repeats the text, so a latch, a tank level or a held tracker angle costs
one format per run.  Values are compared by their bit patterns, so 0.0
and -0.0, or NaNs with different payloads, never share a text.  Every
other column formats each value; both give the same bytes.
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


def _changed(c):
    """Whether each row of numeric column ``c`` after the first differs
    bit for bit from the row before."""
    if c.dtype.kind == "f":
        c = (c.view(f"i{c.itemsize}") if c.itemsize in (2, 4, 8)
             else np.ascontiguousarray(c).view(f"V{c.itemsize}"))
    return c[1:] != c[:-1]


def _run_texts(c, fmt, starts, lo, hi):
    """The texts of rows ``lo:hi`` of column ``c``, each run formatted
    once; ``starts`` are the rows where its runs start, row 0 left out."""
    at = np.concatenate(
        ([lo], starts[np.searchsorted(starts, lo, "right"):
                      np.searchsorted(starts, hi)]))
    texts = np.array([fmt % v for v in c[at].tolist()], dtype=object)
    return np.repeat(texts, np.diff(at, append=hi)).tolist()


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
    formats = [_FORMATS.get(c.dtype.kind, "%s") for c in cols]
    text = [j for j, f in enumerate(formats) if f == "%s"]
    # the run starts of each column that prints its runs (module docstring)
    runs = {}
    for j, c in enumerate(cols):
        if j not in text:
            changed = _changed(c)
            if 4 * np.count_nonzero(changed) <= n:
                runs[j] = np.flatnonzero(changed) + 1
    row_format = ",".join("%s" if j in runs else f
                          for j, f in enumerate(formats)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_quote(h) for h in header) + "\n")
            for lo in range(0, n, _BLOCK_ROWS):
                hi = min(lo + _BLOCK_ROWS, n)
                block = [_run_texts(c, formats[j], runs[j], lo, hi)
                         if j in runs else c[lo:hi].tolist()
                         for j, c in enumerate(cols)]
                for j in text:
                    block[j] = [_quote(str(v)) for v in block[j]]
                fh.write("".join([row_format % row for row in zip(*block)]))
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    return path
