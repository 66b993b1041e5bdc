"""
The loops' float and array operations and their checked-block schedule.

A loop gives :func:`run` a float step, ``step(k)``, which runs step k
and returns the value the repeat test reads, and a block,
``block(k, m, cycle)``, which runs at most the m steps from k as arrays,
predicted from ``cycle``, the last 4 values.  It keeps the steps up to
the first whose next state leaves the prediction, bit for bit, and
returns how many it kept, whether it stopped at a miss, and their values
(the last 8 suffice).  Blocks start once the last 8 values repeat with
period 4, compared by value (a cycle that takes -0.0 for 0.0 predicts a
block that misses at once).  The first block has ``block_min`` steps;
each that keeps steps without a miss doubles the next, up to
``BLOCK_MAX``, and a miss starts again at ``block_min``.  After a miss,
or a block that kept no step, the next step runs alone.

The operations come as ``FLOATS`` and ``ARRAYS``: sin, cos, counts (the
tracker's ADC quantization: one matrix on arrays), clip, where, maximum
and divide, with the bits each pair shares stated where they are set.
"""

from collections import deque
import math
from types import SimpleNamespace

import numpy as np

BLOCK_MAX = 4096
# the place of each step of a block, and of the 3 after it, in the cycle
PHASE = np.arange(BLOCK_MAX + 3) % 4

# What each law runs on: FLOATS in a float step, ARRAYS in a block.  sin,
# cos, counts, clip and where give the same float64 bits in both.
# counts(xs, scale, hi) is round(scale * x) clipped to [0, hi] for each x
# of xs: a list on floats, and on arrays one (len(xs), m) matrix, scaled,
# rounded and clipped in place, whose rows are the counts.  At a tie of
# 0.0 and -0.0 max returns its first argument and np.maximum its second,
# so each clip puts the bound where the tie returns it: np.rint's -0.0 (on
# [-0.5, -0.0]) is clipped to 0.0, as round's int 0 is.  max(x, NaN) is x,
# not NaN; and divide gives 0.0 on a zero divisor, not np.divide's inf or
# NaN (numpy's errors off).  No law reads those: the IC law takes the
# maximum of absolute values and 1e-12 and weights a quotient over a zero
# divisor, or its NaN, by 0.
FLOATS = SimpleNamespace(
    sin=math.sin, cos=math.cos,
    counts=lambda xs, scale, hi: [min(hi, max(0, round(scale * x)))
                                  for x in xs],
    clip=lambda x, lo, hi: min(hi, max(lo, x)),
    where=lambda c, a, b: a if c else b,
    maximum=max, divide=lambda a, b: a / b if b else 0.0)


def _counts(xs, scale, hi):
    """``counts`` on arrays (above)."""
    q = np.array(xs)
    q *= scale
    np.rint(q, out=q)
    np.maximum(q, 0, out=q)
    return np.minimum(q, hi, out=q)


ARRAYS = SimpleNamespace(
    sin=np.sin, cos=np.cos, counts=_counts,
    clip=lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
    where=np.where, maximum=np.maximum, divide=np.divide)


def run(n, block_min, step, block):
    """Run steps 0, ..., n - 1 once each, in order (module docstring)."""
    last = deque(maxlen=8)
    size, k = block_min, 0
    while k < n:
        held = list(last)
        if len(held) == 8 and held[:4] == held[4:]:
            kept, missed, values = block(k, min(size, n - k), held[4:])
            last.extend(values)
            k += kept
            if kept and not missed:
                size = min(2 * size, BLOCK_MAX)
                continue
            if missed:
                size = block_min
            if k == n:
                break
        last.append(step(k))
        k += 1
