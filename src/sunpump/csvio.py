"""
Deterministic CSV emission: LF line endings, '.' decimal separator,
floats at 9 significant digits, header always present.
"""

import math


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


def emit_csv(header, rows, path):
    """
    Write rows to `path` as RFC-4180-style CSV, one line at a time.

    Floats are printed with 9 significant digits so a round-trip parse
    reproduces the emitted text exactly.  Rows are streamed, so an
    error partway through leaves the lines written so far.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_quote(h) for h in header) + "\n")
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    return path


def trace_rows(trace):
    """Row iterator over a SimTrace in its fixed column order."""
    cols = [trace.column(name) for name in trace.COLUMNS]
    for i in range(len(trace)):
        yield [float(c[i]) for c in cols]
