"""The checked-block schedule (``blocks.run``), driven by a fake loop
with scripted values and misses."""

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

    def run(self, block_min, period=4):
        blocks.run(len(self.values), block_min, self.step, self.block,
                   period)
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


def test_no_period_tries_a_block_at_every_step():
    # a loop with no repeat period (period 0): its block decides its own
    # readiness, here not ready on the first 5 steps and at step 125
    loop = FakeLoop([None] * 1000, empty=(0, 1, 2, 3, 4, 125)).run(
        8, period=0)
    assert loop.ran == list(range(1000))
    assert loop.calls[:10] == [call for k in range(5) for call in (
        ("block", k, 8, 0, False), ("step", k))]
    assert loop.calls[10][:3] == ("block", 5, 8)
    assert all(cycle == [] for _, cycle in loop.cycles)
    # blocks of 8, 16, 32 and 64 steps start at 5; the one at 125 keeps
    # no step, and the size stays
    at = loop.calls.index(("block", 125, 128, 0, False))
    assert loop.calls[at + 1] == ("step", 125)
    assert loop.calls[at + 2][:3] == ("block", 126, 128)
