"""The checked-block schedule (``blocks.run``), driven by a fake loop
with scripted values and misses, and the float and array operations the
loops' laws run on (``blocks.FLOATS`` and ``blocks.ARRAYS``)."""

import math

import numpy as np
import pytest

from sunpump import blocks


class FakeLoop:
    """
    A loop whose step k has the value ``values[k]``.  Its block keeps
    every step up to and including the first one in ``misses``, and
    stops there with a miss; a block that starts at a step in ``empty``
    keeps no step and stops at no miss.  ``calls`` logs each call as
    ``("step", k)`` or ``("block", k, m, kept, missed)``; ``ran`` lists
    the steps run, in order.
    """

    def __init__(self, values, misses=(), empty=()):
        self.values = values
        self.misses = set(misses)
        self.empty = set(empty)
        self.calls = []
        self.ran = []
        self.cycles = []

    def log(self, call):
        # each step starts at most one block and runs once: a schedule
        # that calls more often does not move on
        assert len(self.calls) < 2 * len(self.values), "no progress"
        self.calls.append(call)

    def step(self, k):
        self.log(("step", k))
        self.ran.append(k)
        return self.values[k]

    def block(self, k, m, cycle):
        self.cycles.append((k, cycle))
        kept, missed = m, False
        if k in self.empty:
            kept = 0
        else:
            hit = [j for j in range(k, k + m) if j in self.misses]
            if hit:
                kept, missed = hit[0] - k + 1, True
        self.log(("block", k, m, kept, missed))
        self.ran.extend(range(k, k + kept))
        return kept, missed, self.values[k:k + kept]

    def run(self, block_min):
        blocks.run(len(self.values), block_min, self.step, self.block)
        return self

    def block_calls(self):
        return [c for c in self.calls if c[0] == "block"]


def scripts():
    """Fake loops over value scripts: constant, a 4-cycle, a 2-cycle, a
    start that takes a while to repeat, with misses and with empty
    blocks."""
    cycle = [1.0, 2.0, 3.0, 2.0]
    return {
        "constant": FakeLoop([0.0] * 10000),
        "cycle": FakeLoop(cycle * 2500),
        "two-cycle": FakeLoop([5.0, 6.0] * 3000),
        "late-start": FakeLoop(list(range(40)) + cycle * 1500),
        "misses": FakeLoop([0.0] * 9000, misses=(30, 31, 500, 2000, 8999)),
        "empty": FakeLoop([0.0] * 3000, empty=(8, 9, 250)),
        "short": FakeLoop([0.0] * 5),
        "none": FakeLoop([]),
    }


@pytest.mark.parametrize("name", sorted(scripts()))
@pytest.mark.parametrize("block_min", [1, 3, 64])
def test_every_step_runs_once_in_order(name, block_min):
    loop = scripts()[name].run(block_min)
    assert loop.ran == list(range(len(loop.values)))


@pytest.mark.parametrize("name", sorted(scripts()))
def test_blocks_start_after_the_last_8_values_repeat(name):
    loop = scripts()[name].run(16)
    for k, cycle in loop.cycles:
        last = loop.values[k - 8:k]
        assert k >= 8 and last[:4] == last[4:]
        assert cycle == last[4:]
    # and every step whose last 8 values repeat, after a step that ran
    # alone without a block before it, ran in a block
    stepped = [c[1] for c in loop.calls if c[0] == "step"]
    for a, b in zip(loop.calls, loop.calls[1:]):
        if a[0] == "step" and b[0] == "step":
            last = loop.values[b[1] - 8:b[1]]
            assert not (len(last) == 8 and last[:4] == last[4:])
    assert stepped[:8] == list(range(min(8, len(loop.values))))


def test_late_start_blocks_begin_at_the_first_repeat():
    loop = scripts()["late-start"].run(16)
    # 40 distinct values, then the cycle: the last 8 repeat from step 48
    assert loop.calls[:48] == [("step", k) for k in range(48)]
    assert loop.calls[48][:2] == ("block", 48)


def test_block_sizes_double_up_to_the_maximum_and_cut_at_n():
    n = 40000
    loop = FakeLoop([0.0] * n).run(16)
    sizes = [c[2] for c in loop.block_calls()]
    want, size, k = [], 16, 8
    while k < n:
        want.append(min(size, n - k))
        k += size
        size = min(2 * size, blocks.BLOCK_MAX)
    assert sizes == want
    assert max(sizes) == blocks.BLOCK_MAX
    assert sizes[-1] < blocks.BLOCK_MAX     # the last one is cut at n
    assert loop.calls[:8] == [("step", k) for k in range(8)]


def test_size_resets_after_a_miss():
    loop = scripts()["misses"].run(16)
    calls = loop.block_calls()
    for a, b in zip(calls, calls[1:]):
        if a[4]:                            # stopped at a miss
            assert b[2] == min(16, len(loop.values) - b[1])
        elif a[3]:                          # kept its steps
            assert b[2] == min(2 * a[2], blocks.BLOCK_MAX,
                               len(loop.values) - b[1])
    assert any(c[4] for c in calls)


@pytest.mark.parametrize("name", ["misses", "empty"])
def test_one_step_runs_alone_after_a_miss_or_an_empty_block(name):
    loop = scripts()[name].run(16)
    n = len(loop.values)
    stops = 0
    for a, b in zip(loop.calls, loop.calls[1:]):
        if a[0] == "block" and (a[4] or not a[3]):
            stops += 1
            # the values still repeat, and yet the next step runs alone
            assert b == ("step", a[1] + a[3])
            assert loop.calls[loop.calls.index(b) + 1][0] == "block"
    assert stops >= 3
    # a miss on the last step ends the run: no step follows it
    if name == "misses":
        _, k, _, kept, missed = loop.calls[-1]
        assert k + kept == n and missed


def test_empty_block_keeps_the_size():
    loop = scripts()["empty"].run(16)
    calls = loop.block_calls()
    # blocks of 16, 32, 64 and 128 steps start at 10; the empty block
    # at 250 is asked for 256 steps, and so is the block after the step
    # it leaves alone
    after = calls[calls.index(("block", 250, 256, 0, False)) + 1]
    assert after[:3] == ("block", 251, 256)


TINY = 5e-324                       # the smallest subnormal
SUBNORMALS = [TINY, -TINY, 2.225073858507201e-308, -2.225073858507201e-308,
              1e-310, -1e-310]
HALVES = [0.5, 1.5, 2.5, -1.5, -2.5, 1022.5, 1023.5, -1023.5,
          2.0 ** 51 + 0.5, -(2.0 ** 51) - 0.5, 0.49999999999999994]
NEAR_ZERO = [0.0, -0.0, *SUBNORMALS]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def same_bits(floats, arrays):
    """The float results, as float64, and the array results have the
    same bits."""
    return np.array_equal(bits([float(f) for f in floats]), bits(arrays))


class TestOperationPairs:
    """The pairs the ``blocks`` comment calls identical give the same
    float64 bits; the pairs it says may differ do so as it says."""

    F, A = blocks.FLOATS, blocks.ARRAYS

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_sin_and_cos(self, name):
        xs = [*NEAR_ZERO, *HALVES, math.pi, -math.pi / 2, 1e-8, 1e300,
              *np.random.default_rng(0).uniform(-10.0, 10.0, 1000)]
        f, a = getattr(self.F, name), getattr(self.A, name)
        assert same_bits([f(x) for x in xs], a(np.array(xs)))

    def test_rint_is_round_but_for_the_sign_of_zero(self):
        xs = [0.0, *[x for x in SUBNORMALS if x > 0], *HALVES, 1023.0,
              0.5000000000000001, -0.5000000000000001, 1e300, -1e300]
        assert same_bits([self.F.rint(x) for x in xs], self.A.rint(xs))
        # round returns an int, which has no -0.0
        for x in (-0.0, -TINY, -0.3, -0.5):
            assert type(self.F.rint(x)) is int and self.F.rint(x) == 0
            assert bits(self.A.rint(x)) == bits(-0.0)

    @pytest.mark.parametrize("lo, hi", [(0, 1023), (0.0, 180.0)])
    def test_clip(self, lo, hi):
        xs = [*NEAR_ZERO, *HALVES, lo, hi, np.nextafter(hi, math.inf),
              np.nextafter(hi, -math.inf), np.nextafter(lo, -math.inf),
              -1.8, 181.8, 1e300, -1e300]
        assert same_bits([self.F.clip(x, lo, hi) for x in xs],
                         self.A.clip(np.array(xs), lo, hi))
        # the tracker clips rounded counts: round's ints as floats
        counts = [self.F.rint(x) for x in xs if abs(x) < 1e300]
        assert same_bits([self.F.clip(c, lo, hi) for c in counts],
                         self.A.clip(np.array(counts, dtype=float), lo, hi))

    def test_where(self):
        rows = [(c, a, b) for c in (True, False) for a in NEAR_ZERO[:3]
                for b in (-0.0, 0.0, 100.0)]
        c, a, b = (np.array(col) for col in zip(*rows))
        assert same_bits([self.F.where(*r) for r in rows],
                         self.A.where(c, a, b))

    def test_maximum_off_its_differences(self):
        xs = [*SUBNORMALS, *HALVES, 1e-12, 0.0]
        rows = [(x, y) for x in xs for y in xs
                if not (x == y and x == 0.0)]
        x, y = (np.array(col) for col in zip(*rows))
        assert same_bits([self.F.maximum(*r) for r in rows],
                         self.A.maximum(x, y))

    def test_maximum_differs_at_signed_zero_ties_and_nan(self):
        # max keeps its first argument at a tie, np.maximum its second
        for x, y in ((0.0, -0.0), (-0.0, 0.0)):
            assert bits(self.F.maximum(x, y)) == bits(x)
            assert bits(self.A.maximum(x, y)) == bits(y)
        # max keeps a number that a NaN does not exceed
        assert self.F.maximum(1.0, math.nan) == 1.0
        assert math.isnan(self.A.maximum(1.0, math.nan))

    def test_divide_off_a_zero_divisor(self):
        xs = [*NEAR_ZERO, *HALVES, 3.0, -7.25, 1e300, -1e-300]
        rows = [(x, y) for x in xs for y in xs if y != 0.0]
        x, y = (np.array(col) for col in zip(*rows))
        with np.errstate(all="ignore"):
            assert same_bits([self.F.divide(*r) for r in rows],
                             self.A.divide(x, y))

    def test_divide_differs_on_a_zero_divisor(self):
        for a in (1.0, -1.0, 0.0):
            for b in (0.0, -0.0):
                assert bits(self.F.divide(a, b)) == bits(0.0)
                with np.errstate(all="ignore"):
                    assert not math.isfinite(self.A.divide(a, b))
