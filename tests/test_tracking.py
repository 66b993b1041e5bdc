from dataclasses import dataclass
import functools
import itertools
import math
import re

from hypothesis import given, strategies as st
import numpy as np
import pytest

from sunpump import blocks, tracking
from sunpump.scenario import ScenarioConfig, _profile_columns
from sunpump.solar import (SunPosition, TrackerOrientation,
                          angle_of_incidence, sun_on_frame)
from sunpump.tracking import (TrackingRun, sense_and_decide, tracking_sim,
                              tracking_step)
from test_solar import sun_vector, tracker_basis

# the paper's thresholds, in ADC counts: the light threshold below which
# the tracker parks, and the per-axis deadband
AVGSUM_MIN = 8.0
DIFF_DEADBAND = 10.0


def ldr_model(sun_elev, sun_azi, tracker_elev, tracker_azi, irradiance):
    """Quadrant counts (top left, top right, bottom left, bottom right)
    for one sun position and tracker orientation in degrees:
    :func:`sense_and_decide` on floats."""
    return sense_and_decide(
        math.radians(sun_elev), math.radians(tracker_elev),
        math.radians(sun_azi - tracker_azi), irradiance, blocks.FLOATS)[:4]


def vector_ldr_model(sp, to, irradiance):
    """Reference: each quadrant normal built as a 3-vector and dotted
    with the sun vector."""
    s = sun_vector(sp)
    x_m, normal, z_m = tracker_basis(to)
    scale = 1023.0 * irradiance / 1000.0
    half = math.sqrt(0.5)

    def count(diag):
        c = max(0.0, float(s @ (half * (normal + diag))))
        return int(min(1023, round(scale * c)))

    up = half * z_m
    right = half * x_m
    return (count(up - right), count(up + right),
            count(-up - right), count(-up + right))


# -- reference: the tracker as object-based step functions, one reading,
# command and orientation object per step ---------------------------------

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class LdrReadings:
    """Quadrant ADC counts, each in [0, 1023]."""

    top_left: int
    top_right: int
    bottom_left: int
    bottom_right: int

    def __post_init__(self):
        for v in (self.top_left, self.top_right,
                  self.bottom_left, self.bottom_right):
            if not 0 <= v <= 1023:
                raise ValueError("ADC count out of [0, 1023]")


@dataclass(frozen=True)
class TrackerCommand:
    azimuth_move: str   # "left" | "right" | "hold"
    elevation_move: str  # "up" | "down" | "hold"
    park: bool = False


def reference_ldr_model(sp, to, irradiance):
    if irradiance < 0:
        raise ValueError("irradiance must be >= 0")
    scale = 1023.0 * irradiance / 1000.0

    def count(c):
        return int(min(1023, round(scale * max(0.0, c))))

    return LdrReadings(*map(count, _quadrant_cosines(
        math.radians(sp.theta_SE), math.radians(to.theta_TE),
        math.radians(sp.theta_SA - to.theta_TA), math.sin, math.cos)))


def _quadrant_cosines(se, te, dazi, sin, cos):
    s_x, s_y, s_z = sun_on_frame(se, te, dazi, sin, cos)
    axial = _SQRT_HALF * s_y
    return (axial + 0.5 * (s_z - s_x), axial + 0.5 * (s_z + s_x),
            axial - 0.5 * (s_z + s_x), axial + 0.5 * (s_x - s_z))


def reference_tracking_step(r):
    avg_top = (r.top_left + r.top_right) / 2.0
    avg_bottom = (r.bottom_left + r.bottom_right) / 2.0
    avg_left = (r.top_left + r.bottom_left) / 2.0
    avg_right = (r.top_right + r.bottom_right) / 2.0
    avgsum = (avg_top + avg_bottom + avg_left + avg_right) / 4.0
    if avgsum < AVGSUM_MIN:
        return TrackerCommand("hold", "hold", park=True)
    diff_azi = avg_left - avg_right
    diff_elev = avg_top - avg_bottom
    if abs(diff_azi) <= DIFF_DEADBAND:
        azi = "hold"
    else:
        azi = "right" if diff_azi > 0 else "left"
    if abs(diff_elev) <= DIFF_DEADBAND:
        elev = "hold"
    else:
        elev = "up" if diff_elev > 0 else "down"
    return TrackerCommand(azi, elev, park=False)


# command label -> signed orientation increment, in motor steps
_AZI_STEP = {"left": +1.0, "right": -1.0, "hold": 0.0}
_ELEV_STEP = {"up": +1.0, "down": -1.0, "hold": 0.0}


def reference_apply_command(to, cmd, motor_step_deg, initial=None):
    if cmd.park:
        return initial if initial is not None else to
    te = to.theta_TE + _ELEV_STEP[cmd.elevation_move] * motor_step_deg
    ta = to.theta_TA + _AZI_STEP[cmd.azimuth_move] * motor_step_deg
    te = min(max(te, 0.0), 180.0)
    return TrackerOrientation(te, ta)


class TestLdrModel:
    def test_matches_vector_reference(self):
        rng = np.random.default_rng(4)
        n = 50000
        sun_elev = rng.uniform(-90.0, 90.0, n)
        sun_azi = rng.uniform(0.0, 360.0, n)
        # half the trackers point near the sun, as a converged one does
        near = rng.random(n) < 0.5
        te = np.where(near, np.clip(sun_elev + rng.uniform(-5, 5, n), 0, 180),
                      rng.uniform(0.0, 180.0, n))
        ta = np.where(near, sun_azi + rng.uniform(-5, 5, n),
                      rng.uniform(-360.0, 360.0, n))
        irr = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1200.0, n),
                       rng.integers(0, 1200, n))
        for se, sa, e, a, g in zip(sun_elev.tolist(), sun_azi.tolist(),
                                   te.tolist(), ta.tolist(), irr.tolist()):
            sp, to = SunPosition(se, sa), TrackerOrientation(e, a)
            assert ldr_model(se, sa, e, a, g) == vector_ldr_model(sp, to, g)

    def test_aligned_zenith_equal_quadrants(self):
        tl, tr, bl, br = ldr_model(90.0, 0.0, 90.0, 0.0, 1000.0)
        assert tl == tr == bl == br
        assert tl > 700   # cos 45 of full scale

    def test_dark(self):
        assert ldr_model(40.0, 100.0, 40.0, 100.0, 0.0) == (0, 0, 0, 0)

    def test_sun_toward_plus_x_favors_right_pair(self):
        # tracker at azimuth 180, sun displaced toward smaller azimuth:
        # s . x_m = cos(se) sin(sa - ta) < 0 for sa < ta, so displacement
        # toward +x means sa > ta
        tl, tr, bl, br = ldr_model(45.0, 200.0, 45.0, 180.0, 1000.0)
        assert tr > tl
        assert br > bl

    def test_counts_in_range(self):
        for v in ldr_model(45.0, 100.0, 45.0, 100.0, 1500.0):
            assert 0 <= v <= 1023


class TestTrackingStep:
    """Commands as (azimuth step, elevation step, park): azimuth +1 left,
    -1 right, elevation +1 up, -1 down, 0 hold."""

    def test_balanced_holds(self):
        cmd = tracking_step(500, 500, 500, 500)
        assert cmd == (0, 0, False)

    def test_night_parks(self):
        azi, elev, park = tracking_step(1, 1, 1, 1)
        assert park
        assert azi == 0
        assert elev == 0

    def test_park_dominates_differences(self):
        assert tracking_step(7, 0, 7, 0)[2]

    def test_top_brighter_moves_up(self):
        azi, elev, _ = tracking_step(600, 600, 500, 500)
        assert elev == +1
        assert azi == 0

    def test_left_brighter_commands_right_label(self):
        azi, elev, _ = tracking_step(600, 500, 600, 500)
        assert azi == -1
        assert elev == 0

    def test_within_deadband_holds(self):
        azi, _, _ = tracking_step(505, 500, 505, 500)
        assert azi == 0


def averaged_tracking_step(tl, tr, bl, br):
    """Reference: the state machine on the paper's pair averages, a mean
    of ``AVGSUM_MIN`` counts and a ``DIFF_DEADBAND`` on the average
    differences, on floats or arrays."""
    avg_top = (tl + tr) / 2.0
    avg_bottom = (bl + br) / 2.0
    avg_left = (tl + bl) / 2.0
    avg_right = (tr + br) / 2.0
    avgsum = (avg_top + avg_bottom + avg_left + avg_right) / 4.0
    lit = avgsum >= AVGSUM_MIN
    diff_azi = avg_left - avg_right
    diff_elev = avg_top - avg_bottom
    azi = (lit & (abs(diff_azi) > DIFF_DEADBAND)) * (1 - 2 * (diff_azi > 0))
    elev = (lit & (abs(diff_elev) > DIFF_DEADBAND)) * (2 * (diff_elev > 0) - 1)
    return azi, elev, avgsum < AVGSUM_MIN


def edge_counts():
    """Count quadruples at the state machine's edges: totals of 31, 32
    and 33; left-right and top-bottom sum differences of 0, +-19, +-20
    and +-21, alone and together, at a dim, a middle and a full level;
    and counts of 0, 1, 1022 and 1023."""
    rows = set()
    for total in (31, 32, 33):
        q, r = divmod(total, 4)
        for spread in ((q + (r > 0), q + (r > 1), q + (r > 2), q),
                       (total, 0, 0, 0), (total - 21, 21, 0, 0),
                       (total - 20, 0, 20, 0), (total - 19, 0, 0, 19)):
            rows |= set(itertools.permutations(spread))
    edges = (-21, -20, -19, 0, 19, 20, 21)
    for d_azi, d_elev in itertools.product(edges, edges):
        if (d_azi + d_elev) % 2:
            continue        # (tl + bl - tr - br) + (tl + tr - bl - br) is even
        w, v = (d_azi + d_elev) // 2, (d_azi - d_elev) // 2
        for base in (21, 500, 1002):
            rows.add((base + w, base, base + v, base))
    rows |= set(itertools.product((0, 1, 1022, 1023), repeat=4))
    return sorted(rows)


class TestCountSumsMatchAverages:
    """``tracking_step`` decides on count sums; on integer counts in
    [0, 1023] that is the averaged state machine, step for step, on
    floats and on arrays."""

    @staticmethod
    def assert_same(rows):
        for row in rows:
            assert tracking_step(*row) == averaged_tracking_step(*row), row
        columns = np.array(rows, dtype=float).T
        got = tracking_step(*columns)
        want = averaged_tracking_step(*columns)
        for j in range(3):
            assert np.array_equal(got[j], want[j]), j

    def test_edges(self):
        rows = edge_counts()
        sums = [((tl + bl) - (tr + br), (tl + tr) - (bl + br))
                for tl, tr, bl, br in rows]
        assert {31, 32, 33} <= {sum(r) for r in rows}
        for d in (19, 20, 21):
            for sign in (1, -1):
                assert any(a == sign * d for a, _ in sums)
                assert any(e == sign * d for _, e in sums)
        self.assert_same(rows)

    @given(st.lists(st.tuples(*[st.integers(0, 1023)] * 4),
                    min_size=1, max_size=50))
    def test_any_counts(self, rows):
        self.assert_same(rows)


def move(te, ta, azi_step, elev_step, park, start=(90.0, 0.0),
         motor_step_deg=1.8):
    """The move law on floats."""
    return tracking._move(te, ta, azi_step, elev_step, park, motor_step_deg,
                          start, blocks.FLOATS)


class TestApplyCommand:
    """The move law: one signed motor step per axis, the elevation
    clamped to [0, 180], a park back to the start."""

    def test_elevation_clamped(self):
        assert move(179.5, 0.0, 0, +1, False)[0] == 180.0
        assert move(0.5, 0.0, 0, -1, False)[0] == 0.0

    def test_park_returns_initial(self):
        init = (90.0, 50.0)
        assert move(40.0, 120.0, 0, 0, True, init) == init

    def test_bounded_actuation(self):
        te, ta = move(50.0, 100.0, +1, -1, False)
        assert abs(te - 50.0) <= 1.8
        assert abs(ta - 100.0) <= 1.8


class TestTrackingSim:
    def test_fixed_sun_converges(self):
        run = tracking_sim([45.0] * 120, [180.0] * 120,
                           motor_step_deg=1.8,
                           start=TrackerOrientation(45.0, 160.0))
        aois = run.alpha.tolist()
        # decreasing alignment error until the deadband stalls motion
        assert aois[-1] < 3.0
        worst_late = max(aois[60:])
        assert worst_late <= aois[0]

    def test_deadband_freezes_orientation(self):
        run = tracking_sim([45.0] * 200, [180.0] * 200,
                           motor_step_deg=1.8,
                           start=TrackerOrientation(45.0, 180.0))
        # aligned from the start: orientation never changes
        orientations = set(zip(run.theta_TE.tolist(), run.theta_TA.tolist()))
        assert len(orientations) == 1

    def test_zero_irradiance_parks_at_initial(self):
        start = TrackerOrientation(80.0, 150.0)
        run = tracking_sim([45.0] * 10, [180.0] * 10, irradiance=0.0,
                           start=start)
        assert all(run.park)
        assert all(TrackerOrientation(te, ta) == start for te, ta in
                   zip(run.theta_TE.tolist(), run.theta_TA.tolist()))

    def test_east_to_west_arc_followed(self):
        n = 400
        azi = [120.0 + 120.0 * k / (n - 1) for k in range(n)]
        run = tracking_sim([40.0] * n, azi, motor_step_deg=1.8,
                           start=TrackerOrientation(40.0, 120.0))
        assert abs(run.theta_TA[-1] - 240.0) < 6.0
        assert run.alpha[-1] < 6.0

    def test_per_step_bound(self):
        run = tracking_sim([45.0] * 50, [180.0] * 50,
                           motor_step_deg=1.8,
                           start=TrackerOrientation(30.0, 150.0))
        orientations = [TrackerOrientation(te, ta) for te, ta in
                        zip(run.theta_TE.tolist(), run.theta_TA.tolist())]
        prev = orientations[0]
        for o in orientations[1:]:
            assert abs(o.theta_TE - prev.theta_TE) <= 1.8 + 1e-9
            assert abs(o.theta_TA - prev.theta_TA) <= 1.8 + 1e-9
            prev = o

    def test_columns_match_the_step_functions(self):
        elev, azi, irr = [30.0, 31.0, 32.0], [100.0, 104.0, 108.0], 800.0
        start = TrackerOrientation(30.0, 95.0)
        run = tracking_sim(elev, azi, start=start,
                           irradiance=irr)
        te, ta = start.theta_TE, start.theta_TA
        for k in range(3):
            r = ldr_model(elev[k], azi[k], te, ta, irr)
            cmd = tracking_step(*r)
            te, ta = move(te, ta, *cmd, (start.theta_TE, start.theta_TA))
            assert (run.theta_TE[k], run.theta_TA[k]) == (te, ta)
            assert run.alpha[k] == angle_of_incidence(
                SunPosition(elev[k], azi[k]), TrackerOrientation(te, ta))
            assert run.readings[k].tolist() == list(r)
            assert (run.azimuth_step[k], run.elevation_step[k],
                    run.park[k]) == cmd

    def test_sun_below_range_rejected(self):
        with pytest.raises(ValueError):
            tracking_sim([30.0, 95.0], [100.0, 100.0])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            tracking_sim([], [])

    @pytest.mark.parametrize("kw, message", [
        (dict(motor_step_deg=math.nan),
         "motor_step_deg = nan outside [0.001, 180] deg"),
        (dict(motor_step_deg=math.inf),
         "motor_step_deg = inf outside [0.001, 180] deg"),
        (dict(start=TrackerOrientation(math.nan, 0.0)),
         "tracker_init_elev = nan outside [-360, 360] deg"),
        (dict(start=TrackerOrientation(45.0, -math.inf)),
         "tracker_init_azi = -inf outside [-720, 720] deg"),
        (dict(irradiance=1e306),
         "irradiance = 1e+306 outside [0, 2000] W/m2")],
        ids=[f"kw{i}" for i in range(5)])
    def test_nonfinite_step_or_start_rejected(self, kw, message):
        # a NaN orientation used to run to NaN columns with alpha = 0; at
        # 1e306 W/m2 the LDR counts overflowed to inf
        with pytest.raises(ValueError, match=re.escape(message)):
            tracking_sim([30.0, 31.0], [100.0, 101.0], **kw)

    def test_nonfinite_azimuth_rejected(self):
        with pytest.raises(ValueError, match="azimuth"):
            tracking_sim([30.0, 31.0], [100.0, math.nan])


def _or_special(values, strategy):
    return st.one_of(st.sampled_from(values), strategy)


class TestKernelFloatsMatchArrays:
    @given(te=_or_special([0.0, -0.0, 180.0], st.floats(-200.0, 200.0)),
           rows=st.lists(st.tuples(
               _or_special([-90.0, -0.0, 0.0, 90.0], st.floats(-90.0, 90.0)),
               _or_special([-0.0, 0.0], st.floats(-720.0, 720.0)),
               _or_special([0.0], st.floats(0.0, 1200.0))),
               min_size=1, max_size=40))
    def test_float_path_equals_array_path(self, te, rows):
        """One orientation against arrays of suns, as in a block pass,
        equals the same law on each sun as floats: counts, steps and park
        as ``tracking_sim`` stores them, bit for bit."""
        se, dazi, irr = (np.array(c) for c in zip(*rows))
        got = sense_and_decide(np.radians(se), math.radians(te),
                               np.radians(dazi), irr, blocks.ARRAYS)
        want = [sense_and_decide(math.radians(e), math.radians(te),
                                 math.radians(d), g, blocks.FLOATS)
                for e, d, g in rows]
        for j, dtype in enumerate([np.int16] * 4 + [np.int8] * 2 + [bool]):
            column = np.array([w[j] for w in want], dtype=dtype)
            assert np.array_equal(got[j].astype(dtype), column), j
            assert np.array_equal(got[j], column), j   # values, not casts

    @given(rows=st.lists(st.tuples(
               _or_special([0.0, -0.0, 1.8, 178.2, 180.0],
                           st.floats(-400.0, 400.0)),
               _or_special([0.0, -0.0], st.floats(-720.0, 720.0)),
               st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
               st.booleans()), min_size=1, max_size=40),
           step=_or_special([1.8, 0.9], st.floats(0.01, 10.0)),
           start=st.tuples(
               _or_special([0.0, -0.0, 180.0, 200.0, -15.0],
                           st.floats(-400.0, 400.0)),
               _or_special([0.0, -0.0], st.floats(-720.0, 720.0))))
    def test_move_floats_equal_arrays(self, rows, step, start):
        """The move over arrays of orientations and commands, as a block
        runs it, equals the move on each as floats, bit for bit: at the
        clamps, at -0.0, on a park and from outside [0, 180]."""
        te, ta, azi, elev, park = (np.array(c) for c in zip(*rows))
        got = tracking._move(te, ta, azi, elev, park, step, start,
                             blocks.ARRAYS)
        want = [move(*r, start, step) for r in rows]
        for j in range(2):
            column = np.array([w[j] for w in want])
            assert np.array_equal(got[j].view(np.int64),
                                  column.view(np.int64)), j


def scalar_tracking_sim(sun_elev, sun_azi, motor_step_deg=1.8,
                        irradiance=1000.0, start=None):
    """Reference: the step-by-step loop over the object-based step
    functions, one ``SunPosition`` and one ``angle_of_incidence`` per
    step."""
    elev = np.asarray(sun_elev, dtype=float).tolist()
    azi = np.asarray(sun_azi, dtype=float).tolist()
    n = len(elev)
    irr = np.broadcast_to(np.asarray(irradiance, dtype=float), (n,)).tolist()
    if start is None:
        start = TrackerOrientation(90.0, azi[0])
    run = TrackingRun(np.empty(n), np.empty(n), np.empty(n),
                      np.empty((n, 4), dtype=np.int16),
                      np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8),
                      np.empty(n, dtype=bool))
    orientation = start
    for k in range(n):
        sp = SunPosition(elev[k], azi[k])
        r = reference_ldr_model(sp, orientation, irr[k])
        cmd = reference_tracking_step(r)
        orientation = reference_apply_command(orientation, cmd,
                                              motor_step_deg, initial=start)
        run.theta_TE[k] = orientation.theta_TE
        run.theta_TA[k] = orientation.theta_TA
        run.alpha[k] = angle_of_incidence(sp, orientation)
        run.readings[k] = (r.top_left, r.top_right,
                           r.bottom_left, r.bottom_right)
        run.azimuth_step[k] = _AZI_STEP[cmd.azimuth_move]
        run.elevation_step[k] = _ELEV_STEP[cmd.elevation_move]
        run.park[k] = cmd.park
    return run


def assert_same_run(got, want):
    """Every column equal bit for bit, dtypes included."""
    for name in ("theta_TE", "theta_TA", "alpha"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64, name
        bad = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
        assert bad.size == 0, f"{name} differs at steps {bad[:5]}"
    for name in ("readings", "azimuth_step", "elevation_step", "park"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def cloudy_day(seed, n):
    """A seeded day of n steps: a sun arch with a night below the
    horizon on each side, and two-state cloud cover."""
    rng = np.random.default_rng(seed)
    phase = np.linspace(-0.4, 1.4, n)
    elev = rng.uniform(40.0, 80.0) * np.sin(np.pi * phase)
    elev = np.where(elev > 0.0, elev, 0.5 * elev)
    azi = 60.0 + 240.0 * np.linspace(0.0, 1.0, n)
    cover = np.where(np.cumsum(rng.random(n) < 0.02) % 2 == 1,
                     rng.uniform(0.1, 0.6), 1.0)
    irr = 1000.0 * np.sin(np.radians(np.maximum(elev, 0.0))) * cover
    return elev, azi, irr


def daylight_path():
    """The sun path, irradiance and tracker start of ``default_daylight``,
    one entry per step."""
    cfg = ScenarioConfig.default_daylight()
    t = np.arange(int(round(cfg.duration_s / cfg.dt_s))) * cfg.dt_s
    (irr,) = _profile_columns(cfg.irradiance_profile, t)
    elev, azi = _profile_columns(cfg.sun_path, t)
    return elev, azi, irr, TrackerOrientation(float(elev[0]), float(azi[0]))


def sun_days():
    """The tracker's inputs on ``default_daylight`` and on a cloudy day
    with parked nights, by name."""
    elev, azi, irr = cloudy_day(3, 20000)
    return {"daylight": daylight_path(),
            "cloudy": (elev, azi, irr, TrackerOrientation(90.0, 180.0))}


@functools.cache
def shipped_block_run(day):
    """``tracking_sim`` on one of :func:`sun_days` at the shipped block
    sizes."""
    elev, azi, irr, start = sun_days()[day]
    return tracking_sim(elev, azi, irradiance=irr, start=start)


class TestBlockSizeIsOnlySpeed:
    """The first block size changes which steps run on floats and which
    as arrays, never a column."""

    @pytest.mark.parametrize("day", ["daylight", "cloudy"])
    @pytest.mark.parametrize("block_min", [1, 32, 256, 4096])
    def test_columns_equal(self, day, block_min, monkeypatch):
        want = shipped_block_run(day)
        monkeypatch.setattr(tracking, "_BLOCK_MIN", block_min)
        elev, azi, irr, start = sun_days()[day]
        assert_same_run(tracking_sim(elev, azi, irradiance=irr, start=start),
                        want)


class TestBlockPassMatchesScalarLoop:
    """``tracking_sim`` runs hold stretches as numpy blocks; each column
    must equal the step-by-step loop bit for bit.  ``np.sin`` and
    ``np.cos`` must equal ``math.sin`` and ``math.cos`` for that (the
    first test checks the host's numpy)."""

    def test_numpy_trig_matches_math(self):
        rng = np.random.default_rng(11)
        x = np.radians(np.concatenate([rng.uniform(-90.0, 90.0, 100000),
                                       rng.uniform(-400.0, 400.0, 100000)]))
        for np_fn, math_fn in ((np.sin, math.sin), (np.cos, math.cos)):
            want = np.array([math_fn(v) for v in x.tolist()])
            assert np.array_equal(np_fn(x).view(np.int64),
                                  want.view(np.int64)), (
                f"this host's np.{np_fn.__name__} differs from "
                f"math.{math_fn.__name__}; the tracker block pass is then "
                "not bit-identical to the scalar loop")
        assert np.array_equal(np.radians(x), [math.radians(v)
                                              for v in x.tolist()])

    def test_default_daylight(self, monkeypatch):
        elev, azi, irr, start = daylight_path()
        args = (elev, azi)
        steps_alone = []
        monkeypatch.setattr(
            tracking, "sense_and_decide",
            lambda *a: steps_alone.append(np.ndim(a[3]) == 0)
            or sense_and_decide(*a))
        got = tracking_sim(*args, irradiance=irr, start=start)
        # the one-step elevation dither runs as blocks too: about 1 200
        # of the 72 000 steps run alone on floats
        assert sum(steps_alone) <= 1500
        assert_same_run(got, scalar_tracking_sim(*args, irradiance=irr,
                                                 start=start))

    @pytest.mark.parametrize("seed", range(6))
    def test_cloudy_days_with_parked_nights(self, seed):
        elev, azi, irr = cloudy_day(seed, 6000)
        start = TrackerOrientation(90.0, 180.0)
        got = tracking_sim(elev, azi, irradiance=irr,
                           start=start)
        assert got.park.sum() > 1000      # the nights run as parked blocks
        assert_same_run(got, scalar_tracking_sim(
            elev, azi, irradiance=irr, start=start))

    @pytest.mark.parametrize("seed", range(4))
    def test_clamps_at_0_and_180(self, seed):
        # a sun wandering just below the horizon, in front of the tracker
        # (it tilts down onto 0) or behind it (it tilts up onto 180)
        rng = np.random.default_rng(100 + seed)
        n = 3000
        elev = np.clip(-8.0 + np.cumsum(rng.normal(0.0, 0.5, n)), -30, 30)
        azi = np.cumsum(rng.normal(0.0, 0.5, n))
        irr = rng.uniform(200.0, 1100.0, n)
        for behind, limit in ((0.0, 0.0), (180.0, 180.0)):
            args = (elev, azi + behind)
            kw = dict(motor_step_deg=2.5, irradiance=irr,
                      start=TrackerOrientation(abs(limit - 1.0), 0.0))
            got = tracking_sim(*args, **kw)
            assert (got.theta_TE == limit).sum() > 100
            assert_same_run(got, scalar_tracking_sim(*args, **kw))

    @pytest.mark.parametrize("start", [TrackerOrientation(200.0, 30.0),
                                       TrackerOrientation(-15.0, -400.0),
                                       TrackerOrientation(-0.0, 0.0)])
    def test_start_outside_range(self, start):
        # parking snaps back outside [0, 180]; a held step clamps
        elev, azi, irr = cloudy_day(7, 4000)
        got = tracking_sim(elev, azi, irradiance=irr,
                           start=start)
        assert_same_run(got, scalar_tracking_sim(
            elev, azi, irradiance=irr, start=start))

    def test_scalar_irradiance_and_fixed_sun(self):
        for n, irr in ((1, 1000.0), (5, 0.0), (700, 640.0)):
            args = ([45.0] * n, [180.0] * n)
            start = TrackerOrientation(30.0, 150.0)
            assert_same_run(
                tracking_sim(*args, irradiance=irr, start=start),
                scalar_tracking_sim(*args, irradiance=irr, start=start))

    def test_parked_at_signed_zero_start(self):
        # parked at a start of -0.0, the first held step moves the
        # elevation to +0.0 (-0.0 + 0.0): a change of bits that ends the
        # block although the orientation compares equal
        n = 80
        irr = np.where(np.arange(n) < 30, 0.0, 800.0)
        args = ([0.0] * n, [0.0] * n)
        start = TrackerOrientation(-0.0, 0.0)
        got = tracking_sim(*args, irradiance=irr, start=start)
        assert math.copysign(1.0, got.theta_TE[29]) == -1.0   # parked
        assert math.copysign(1.0, got.theta_TE[-1]) == 1.0    # held
        assert_same_run(got, scalar_tracking_sim(*args, irradiance=irr,
                                                 start=start))

    @staticmethod
    def block_shapes(start_elevation, monkeypatch):
        """The irradiance shapes of the law's calls on a fixed sun at
        45 degrees elevation, and the run, checked against the scalar
        loop."""
        shapes = []
        monkeypatch.setattr(
            tracking, "sense_and_decide",
            lambda *a: shapes.append(np.shape(a[3])) or sense_and_decide(*a))
        args = ([45.0] * 5000, [180.0] * 5000)
        start = TrackerOrientation(start_elevation, 180.0)
        got = tracking_sim(*args, start=start)
        assert_same_run(got, scalar_tracking_sim(*args, start=start))
        return shapes, got

    @staticmethod
    def doubling_blocks(n):
        """The law's call shapes over n steps that all come as predicted:
        8 steps on floats, then blocks that start at ``_BLOCK_MIN`` steps
        and double up to ``blocks.BLOCK_MAX``, the last one cut at n."""
        shapes, size, k = [()] * 8, tracking._BLOCK_MIN, 8
        while k < n:
            shapes.append((min(size, n - k),))
            k += size
            size = min(2 * size, blocks.BLOCK_MAX)
        return shapes

    def test_hold_stretches_run_as_blocks(self, monkeypatch):
        shapes, got = self.block_shapes(45.0, monkeypatch)
        assert set(got.theta_TE.tolist()) == {45.0}
        assert shapes == self.doubling_blocks(5000)

    def test_dither_runs_as_blocks(self, monkeypatch):
        # 0.9 degrees off, each motor step overshoots the deadband, and
        # the elevation dithers 44.1, 45.9, 44.1, ...
        shapes, got = self.block_shapes(45.9, monkeypatch)
        assert len(set(got.theta_TE.tolist())) == 2
        assert (got.elevation_step[1:] == -got.elevation_step[:-1]).all()
        assert shapes == self.doubling_blocks(5000)

    def test_nonfinite_irradiance_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"irradiance = {bad} outside [0, 2000] W/m2")):
                tracking_sim([30.0, 31.0], [100.0, 101.0],
                             irradiance=[500.0, bad])

    def test_negative_irradiance_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "irradiance = -1.0 outside [0, 2000] W/m2")):
            tracking_sim([30.0, 31.0], [100.0, 101.0],
                         irradiance=[500.0, -1.0])

    def test_path_lengths_must_match(self):
        with pytest.raises(ValueError):
            tracking_sim([30.0, 31.0], [100.0])
