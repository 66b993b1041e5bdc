"""
The checked-block schedule of the tracker, MPPT and hydraulics loops.

A loop gives :func:`run` a float step, ``step(k)``, which runs step k
and returns the value the repeat test reads, and a block,
``block(k, m, cycle)``, which runs at most the m steps from k as arrays,
predicted from ``cycle``, the last 4 values.  It keeps the steps up to
the first whose next state leaves the prediction, bit for bit, and
returns how many it kept, whether it stopped at a miss, and their values
(the last 8 suffice).  Blocks start once the last 8 values repeat with
period 4, compared by value (a cycle that takes -0.0 for 0.0 predicts a
block that misses at once); with ``period = 0`` the block is tried at
every step and keeps none until its loop is ready.  The first block has
``block_min`` steps; each that keeps steps without a miss doubles the
next, up to ``BLOCK_MAX``, and a miss starts again at ``block_min``.
After a miss, or a block that kept no step, the next step runs alone.
"""

from collections import deque

import numpy as np

BLOCK_MAX = 4096
# the place of each step of a block, and of the 3 after it, in the cycle
PHASE = np.arange(BLOCK_MAX + 3) % 4


def run(n, block_min, step, block, period=4):
    """Run steps 0, ..., n - 1 once each, in order (module docstring)."""
    last = deque(maxlen=2 * period)
    size, k = block_min, 0
    while k < n:
        held = list(last)
        if len(held) == 2 * period and held[:period] == held[period:]:
            kept, missed, values = block(k, min(size, n - k), held[period:])
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
