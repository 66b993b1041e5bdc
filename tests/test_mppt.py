import dataclasses
import functools
import math
import re

from hypothesis import example, given, strategies as st
import numpy as np
import pytest

from sunpump import blocks, mppt, pv
from sunpump.mppt import (MpptRun, MpptState, duty_for_ratio, ic_step,
                          initial_state, mppt_run, po_step)
from sunpump.pv import (PvSolverError, array_current, default_array,
                        find_mpp)
from sunpump.scenario import ScenarioConfig, _profile_columns
from sunpump.solar import TrackerOrientation
from sunpump.tracking import tracking_sim


def synthetic_measure(v):
    """Concave P(V) = 100 - (V - 17)^2, served as a current measurement."""
    if v <= 0:
        return 0.0
    return (100.0 - (v - 17.0) ** 2) / v


def loop_run(measure, algo, st0, steps):
    """Reference: the step-by-step loop of the update law, one
    ``measure(v)`` per step; a failed solve records 0 A."""
    step_fn = {"po": po_step, "ic": ic_step}[algo]
    v_ref, cur, st = [], [], st0
    for _ in range(steps):
        v = st.V_ref
        try:
            i = measure(v)
        except PvSolverError:
            i = 0.0
        st = step_fn(st, v, i)
        v_ref.append(v)
        cur.append(i)
    return MpptRun(np.array(v_ref), np.array(cur), st)


def scalar_duty(v_in, v_out):
    """Reference: the per-voltage boost-law rule."""
    if v_in <= 0:
        return 0.0
    return min(max(1.0 - v_out / v_in, 0.0), 0.95)


class TestBoost:
    def test_duty_mapping_clamped(self):
        assert duty_for_ratio(10.0, 12.0) == 0.0        # step-down request
        assert duty_for_ratio(10.0, 5.0) == pytest.approx(0.5)
        assert duty_for_ratio(1000.0, 1.0) == 0.95      # clamp

    def test_array_matches_scalar_rule(self):
        rng = np.random.default_rng(5)
        v = np.concatenate([rng.uniform(-50.0, 50.0, 5000), [0.0, -0.0,
                            12.0, 11.999, 240.0, 1e-300, np.inf, np.nan]])
        with np.errstate(all="raise"):
            d = duty_for_ratio(v, 12.0)
        want = np.array([scalar_duty(x, 12.0) for x in v.tolist()])
        assert d.dtype == np.float64
        assert np.array_equal(d.view(np.int64), want.view(np.int64))
        assert (v <= 0).sum() > 2000 and np.all(d[v <= 0] == 0.0)
        for x in v[:50].tolist():
            got = duty_for_ratio(x, 12.0)
            assert type(got) is float and got == scalar_duty(x, 12.0)


class TestPoStep:
    def test_both_positive_increases(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=11.0)
        new = po_step(st, 11.0, 1.2)   # dP = 3.2 > 0, dV = 1 > 0
        assert new.V_ref == st.V_ref + st.dV_step

    def test_power_up_voltage_down_decreases(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=9.0)
        new = po_step(st, 9.0, 1.3)    # dP = 1.7 > 0, dV = -1 < 0
        assert new.V_ref == st.V_ref - st.dV_step

    def test_no_change_holds(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=10.0)
        new = po_step(st, 10.0, 1.0)   # dP = 0, dV = 0
        assert new.V_ref == st.V_ref

    def test_power_change_at_same_voltage_decreases(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=10.0)
        new = po_step(st, 10.0, 2.0)   # dP = 10 > 0, dV = 0: no shared sign
        assert new.V_ref == st.V_ref - st.dV_step

    def test_history_stores_current(self):
        st = MpptState(V_prev=1.0, I_prev=1.0, P_prev=1.0, V_ref=5.0)
        new = po_step(st, 5.0, 2.0)
        assert new.V_prev == 5.0
        assert new.I_prev == 2.0
        assert new.P_prev == 10.0
        assert new.iteration == st.iteration + 1


class TestIcStep:
    def test_hold_at_no_change(self):
        st = MpptState(V_prev=10.0, I_prev=2.0, P_prev=20.0, V_ref=10.0)
        assert ic_step(st, 10.0, 2.0).V_ref == st.V_ref

    def test_dv_zero_di_positive(self):
        st = MpptState(V_prev=10.0, I_prev=2.0, P_prev=20.0, V_ref=10.0)
        assert ic_step(st, 10.0, 2.5).V_ref == st.V_ref + st.dV_step

    def test_dv_zero_di_negative(self):
        st = MpptState(V_prev=10.0, I_prev=2.0, P_prev=20.0, V_ref=10.0)
        assert ic_step(st, 10.0, 1.5).V_ref == st.V_ref - st.dV_step

    def test_hold_exactly_at_mpp(self):
        # construct (i - 5)/(v - 10) == -i/v exactly: v = 12, i = 30/7
        st = MpptState(V_prev=10.0, I_prev=5.0, P_prev=50.0, V_ref=10.0)
        new = ic_step(st, 12.0, 30.0 / 7.0)
        assert new.V_ref == st.V_ref

    def test_left_of_mpp_increases(self):
        # conductance above the negated operating ratio
        st = MpptState(V_prev=10.0, I_prev=5.0, P_prev=50.0, V_ref=10.0)
        new = ic_step(st, 10.5, 4.9)   # dI/dV = -0.2 > -4.9/10.5 = -0.467
        assert new.V_ref == st.V_ref + st.dV_step

    def test_zero_voltage_flagged_hold(self):
        st = MpptState(V_prev=5.0, I_prev=2.0, P_prev=10.0, V_ref=0.0)
        new = ic_step(st, 0.0, 1.0)
        assert new.V_ref == st.V_ref
        assert new.flag == "conductance-undefined"

    def test_no_voltage_change_at_zero_volts_steers_unflagged(self):
        st = MpptState(V_prev=0.0, I_prev=2.0, P_prev=0.0, V_ref=0.0)
        new = ic_step(st, 0.0, 1.0)    # dV = 0, dI < 0
        assert new.V_ref == st.V_ref - st.dV_step
        assert new.flag == ""

    def test_hold_at_the_tolerance_bound(self):
        # dI/dV - (-I/V) is exactly IC_REL_TOL * |I/V|, which holds
        i = 1.000000000139778
        st = MpptState(V_prev=0.0, I_prev=1.9999990002795558, P_prev=0.0,
                       V_ref=1.0)
        assert (i - st.I_prev) + i == mppt.IC_REL_TOL * i
        assert ic_step(st, 1.0, i).V_ref == st.V_ref

    def test_hold_test_has_an_absolute_floor(self):
        # both slopes ~1e-19: within IC_REL_TOL of the 1e-12 floor
        st = MpptState(V_prev=1.0, I_prev=0.0, P_prev=0.0, V_ref=2.0)
        assert ic_step(st, 2.0, 5e-19).V_ref == st.V_ref


class TestClosedLoop:
    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_synthetic_hill_climb(self, algo):
        st0 = initial_state(10.0, 0.5)
        run = loop_run(synthetic_measure, algo, st0, 100)
        assert abs(run.final.V_ref - 17.0) <= 0.5
        assert len(run.v_ref) == 100

    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_limit_cycle_band(self, algo):
        st0 = initial_state(10.0, 0.5)
        run = loop_run(synthetic_measure, algo, st0, 200)
        refs = [*run.v_ref.tolist(), run.final.V_ref]
        inside = [k for k, v in enumerate(refs) if abs(v - 17.0) <= 0.5]
        first = inside[0]
        assert all(abs(v - 17.0) <= 2 * 0.5 + 1e-12 for v in refs[first:])

    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_step_bound_per_iteration(self, algo):
        st0 = initial_state(10.0, 0.5)
        run = loop_run(synthetic_measure, algo, st0, 150)
        refs = [*run.v_ref.tolist(), run.final.V_ref]
        assert all(abs(b - a) <= 0.5 + 1e-12
                   for a, b in zip(refs, refs[1:]))

    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_reaches_model_mpp(self, algo):
        ap = default_array()
        best = find_mpp(ap)
        st0 = initial_state(0.6 * best.V_mpp, 0.5)
        run = mppt_run(ap, algo, st0, 200, irradiance=1000.0)
        final_power = run.p[-1]
        assert final_power >= 0.98 * best.P_mpp

    def test_determinism(self):
        st0 = initial_state(10.0, 0.5)
        g = cloudy_irradiance(1, 400)
        a = mppt_run(default_array(), "po", st0, 400, irradiance=g)
        b = mppt_run(default_array(), "po", st0, 400, irradiance=g)
        assert (a.v_ref.tolist(), a.i.tolist(), a.p.tolist()) == \
            (b.v_ref.tolist(), b.i.tolist(), b.p.tolist())

    def test_solver_failure_records_zero_current_and_goes_on(self,
                                                             monkeypatch):
        calls = []
        solve = pv.array_current_at

        def flaky(s, v, g):
            calls.append(v)
            if len(calls) == 5:
                raise PvSolverError("no bracket")
            return solve(s, v, g)

        monkeypatch.setattr(pv, "array_current_at", flaky)
        run = mppt_run(default_array(), "po", initial_state(10.0, 0.5), 20,
                       irradiance=1000.0)
        assert len(run.v_ref) == len(run.i) == 20
        assert run.i[4] == 0.0
        assert all(run.i[k] > 0.0 for k in range(20) if k != 4)
        # the scalar steps solve one by one, at the voltages they record
        assert len(calls) >= 5
        assert calls == run.v_ref[:len(calls)].tolist()

    def test_per_step_irradiance_scales_the_array(self):
        ap = default_array()
        irr = [1000.0, 400.0, 0.0, 750.0]
        run = mppt_run(ap, "po", initial_state(15.0, 0.5), 4, irradiance=irr)
        for k, g in enumerate(irr):
            assert run.i[k] == array_current(ap.at_irradiance(g),
                                             run.v_ref[k])

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            mppt_run(default_array(), "po", initial_state(10.0), 0,
                     irradiance=1000.0)

    def test_unknown_algo_raises_on_both_paths(self):
        # a broadcast irradiance and one per step
        for g in (1000.0, np.full(10, 1000.0)):
            with pytest.raises(KeyError):
                mppt_run(default_array(), "hill", initial_state(10.0), 10,
                         irradiance=g)

    def test_irradiance_is_required(self):
        with pytest.raises(TypeError, match="irradiance"):
            mppt_run(default_array(), "po", initial_state(10.0), 10)

    @pytest.mark.parametrize("dv", [math.inf, math.nan, 0.0, -0.5])
    def test_bad_perturbation_step_rejected(self, dv):
        # an infinite step used to walk V_ref to -inf
        with pytest.raises(ValueError, match=re.escape(
                f"mppt_dv_step = {dv} outside [0.001, 50] V")):
            initial_state(10.0, dv)

    @pytest.mark.parametrize("field", ["V_prev", "I_prev", "P_prev",
                                       "V_ref"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_operating_point_rejected(self, field, x):
        # a -inf start used to write p = nan rows
        kwargs = dict(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=10.0)
        kwargs[field] = x
        with pytest.raises(ValueError, match="finite"):
            MpptState(**kwargs)


def scalar_mppt_run(ap, algo, st0, irradiance):
    """Reference: the step-by-step loop, one ``at_irradiance`` and one
    scalar current solve per step."""
    step_fn = {"po": po_step, "ic": ic_step}[algo]
    irradiance = np.asarray(irradiance, dtype=float).tolist()
    v_ref, cur, st = [], [], st0
    for g in irradiance:
        v = st.V_ref
        try:
            i = array_current(ap.at_irradiance(g), v)
        except PvSolverError:
            i = 0.0
        st = step_fn(st, v, i)
        v_ref.append(v)
        cur.append(i)
    return MpptRun(np.array(v_ref), np.array(cur), st)


def array_as_given_run(ap, algo, st0, steps):
    """Reference: the step-by-step loop on ``ap`` as given, one scalar
    current solve per step."""
    return loop_run(lambda v: array_current(ap, v), algo, st0, steps)


def assert_same_mppt_run(got, want):
    for name in ("v_ref", "i"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        bad = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
        assert bad.size == 0, f"{name} differs at steps {bad[:5]}"
    for f in dataclasses.fields(MpptState):
        a, b = getattr(got.final, f.name), getattr(want.final, f.name)
        assert type(a) is type(b), f.name
        if isinstance(a, float):
            assert np.float64(a).view(np.int64) == \
                np.float64(b).view(np.int64), f.name
        else:
            assert a == b, f.name


def compare(ap, algo, st0, g):
    got = mppt_run(ap, algo, st0, len(g), irradiance=g)
    assert_same_mppt_run(got, scalar_mppt_run(ap, algo, st0, g))
    return got


@pytest.fixture
def lane_counts(monkeypatch):
    """Counts of the lanes solved and of the scalar solves made."""
    counts = {"lanes": 0, "scalar": 0}
    lanes, scalar = pv.array_current_lanes, pv.array_current_at

    def counted_lanes(ap, v, g):
        counts["lanes"] += len(g)
        return lanes(ap, v, g)

    def counted_scalar(s, v, g):
        counts["scalar"] += 1
        return scalar(s, v, g)
    monkeypatch.setattr(pv, "array_current_lanes", counted_lanes)
    monkeypatch.setattr(pv, "array_current_at", counted_scalar)
    return counts


def cloudy_irradiance(seed, n):
    """Seeded irradiance with two-state cloud cover and dark (0) steps."""
    rng = np.random.default_rng(seed)
    clear = 1000.0 * np.sin(np.linspace(0.05, np.pi - 0.05, n))
    cover = np.where(np.cumsum(rng.random(n) < 0.02) % 2 == 1,
                     rng.uniform(0.1, 0.6), 1.0)
    g = clear * cover
    g[rng.random(n) < 0.01] = 0.0
    return g


@functools.cache
def daylight_lit_irradiance():
    """The effective irradiance on the lit steps of ``default_daylight``,
    behind the tracker: the harvest's input."""
    cfg = ScenarioConfig.default_daylight()
    t = np.arange(int(round(cfg.duration_s / cfg.dt_s))) * cfg.dt_s
    (irr,) = _profile_columns(cfg.irradiance_profile, t)
    elev, azi = _profile_columns(cfg.sun_path, t)
    track = tracking_sim(elev, azi, irradiance=irr,
                         start=TrackerOrientation(float(elev[0]),
                                                  float(azi[0])))
    eff = irr * np.maximum(0.0, np.cos(np.radians(track.alpha)))
    return eff[eff > 0.0]


# the harvests a block size must not change: P&O on default_daylight,
# and each law under passing clouds
HARVESTS = {"daylight-po": ("po", daylight_lit_irradiance),
            "cloudy-po": ("po", lambda: cloudy_irradiance(5, 6000)),
            "cloudy-ic": ("ic", lambda: cloudy_irradiance(5, 6000))}


@functools.cache
def shipped_block_harvest(name):
    """``mppt_run`` on one of :data:`HARVESTS` at the shipped block
    sizes."""
    algo, irradiance = HARVESTS[name]
    g = irradiance()
    ap = default_array(1000.0)
    st0 = initial_state(0.8 * pv.open_circuit_voltage(ap), 0.5)
    return mppt_run(ap, algo, st0, len(g), irradiance=g)


class TestBlockSizeIsOnlySpeed:
    """The first block size changes which steps are solved alone and
    which as lanes, never the run."""

    @pytest.mark.parametrize("name", sorted(HARVESTS))
    @pytest.mark.parametrize("block_min", [1, 8, 64, 256])
    def test_run_equal(self, name, block_min, monkeypatch):
        want = shipped_block_harvest(name)
        monkeypatch.setattr(mppt, "_BLOCK_MIN", block_min)
        algo, irradiance = HARVESTS[name]
        g = irradiance()
        ap = default_array(1000.0)
        st0 = initial_state(0.8 * pv.open_circuit_voltage(ap), 0.5)
        assert_same_mppt_run(mppt_run(ap, algo, st0, len(g), irradiance=g),
                             want)


class TestLatticeRunMatchesScalarLoop:
    """``mppt_run(..., irradiance=...)`` solves the steps of its checked
    blocks with the lane solve, each at its predicted voltage; the run
    must equal the step-by-step loop bit for bit, its final state
    included."""

    def test_default_daylight(self, lane_counts):
        g = daylight_lit_irradiance()
        ap = default_array(1000.0)
        st0 = initial_state(0.8 * pv.open_circuit_voltage(ap), 0.5)
        got = mppt_run(ap, "po", st0, len(g), irradiance=g)
        # about one solve per lit step, nearly all of them as lanes
        assert lane_counts["lanes"] + lane_counts["scalar"] <= 1.2 * len(g)
        assert lane_counts["scalar"] <= 0.01 * len(g)
        assert_same_mppt_run(got, scalar_mppt_run(ap, "po", st0, g))

    @pytest.mark.parametrize("algo", ["po", "ic"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cloudy_irradiance(self, algo, seed, lane_counts):
        ap = default_array(1000.0)
        st0 = initial_state(0.8 * pv.open_circuit_voltage(ap), 0.5)
        g = cloudy_irradiance(seed, 3000)
        compare(ap, algo, st0, g)
        assert lane_counts["lanes"] > 0

    def test_zero_irradiance_lanes(self):
        ap = default_array(1000.0)
        g = np.zeros(500)
        g[::7] = 300.0
        for algo in ("po", "ic"):
            compare(ap, algo, initial_state(15.0, 0.5), g)

    def test_monotone_ic_walk_solves_each_voltage_once(self, lane_counts):
        # a dim dawn: IC steps V_ref down on every step, below 0 V; the
        # drift repeats its move, so after 8 scalar steps it runs as
        # blocks that each solve a step once, at its own voltage
        ap = default_array(1000.0)
        st0 = initial_state(0.8 * pv.open_circuit_voltage(ap), 0.5)
        g = 1e-6 * (1.0 + np.arange(400))
        solves_before = lane_counts["scalar"]
        run = compare(ap, "ic", st0, g)
        assert np.all(np.diff(run.v_ref) < 0.0)
        assert run.final.V_ref < -150.0
        assert lane_counts["lanes"] + lane_counts["scalar"] \
            - solves_before == 400

    def test_open_lanes_take_the_scalar_path(self, lane_counts,
                                             monkeypatch):
        # R_s = 5 ohm at 0 V: Newton starts at the closed form and every
        # lane settles; a lane left open, here every third one, is solved
        # by the scalar path, and the run stays the scalar loop's
        base = default_array(1000.0)
        ap = dataclasses.replace(base, cell=dataclasses.replace(base.cell,
                                                               R_s=5.0))
        _, left_open = pv.array_current_lanes(ap, 0.0, np.full(4, 800.0))
        assert left_open.size == 0
        lanes = pv.array_current_lanes

        def every_third_open(ap, v, g):
            cur, _ = lanes(ap, v, g)
            left_open = np.arange(0, cur.size, 3)
            cur[left_open] = np.nan
            return cur, left_open
        monkeypatch.setattr(pv, "array_current_lanes", every_third_open)
        g = 800.0 + 10.0 * np.sin(np.arange(300))
        for algo in ("po", "ic"):
            compare(ap, algo, initial_state(0.0, 0.5), g)
        assert lane_counts["lanes"] > 0

    def test_far_above_voc_walks_down(self, lane_counts):
        # far above V_oc the current is the model's root, -2 698.33 A at
        # 1000 V, not a failed solve's 0 A: P&O walks down from there
        ap = default_array(1000.0)
        assert array_current(ap, 1000.0) == pytest.approx(-2698.33, abs=5e-3)
        g = np.full(200, 900.0)
        run = compare(ap, "po", initial_state(1000.0, 0.5), g)
        assert np.all(run.i < 0.0)
        assert np.all(np.diff(run.v_ref) == -0.5)
        assert run.v_ref[19] == 990.5 and run.final.V_ref == 900.0
        assert lane_counts["lanes"] > 0

    def test_zero_series_resistance(self, lane_counts):
        base = default_array(1000.0)
        ap = dataclasses.replace(base, cell=dataclasses.replace(base.cell,
                                                               R_s=0.0))
        for algo in ("po", "ic"):
            compare(ap, algo, initial_state(15.0, 0.5),
                    cloudy_irradiance(9, 1500))
        assert lane_counts["lanes"] > 0

    def test_ic_block_ends_on_zero_volts_flagged(self):
        # the drift from 5 V reaches 0 V exactly inside a block; IC holds
        # there with the conductance undefined, which ends the block and
        # the run, so the final state carries the block's flag
        ap = default_array(1000.0)
        run = compare(ap, "ic", initial_state(5.0, 0.5),
                      1e-6 * (1.0 + np.arange(11)))
        assert run.v_ref[-1] == 0.0 and run.final.V_ref == 0.0
        assert run.final.flag == "conductance-undefined"

    def test_final_state_from_a_flagged_start(self):
        ap = default_array(1000.0)
        st0 = MpptState(V_prev=3.0, I_prev=1.0, P_prev=3.0, V_ref=0.0,
                        dV_step=0.25, iteration=7,
                        flag="conductance-undefined")
        g = cloudy_irradiance(3, 400)
        for algo in ("po", "ic"):
            run = compare(ap, algo, st0, g)
            assert run.final.iteration == 407

    @pytest.mark.parametrize("steps", [120, 2000])
    @pytest.mark.parametrize("g_t", [1000.0, 400.0, 123.456, 5e-3, 0.0])
    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_constant_irradiance(self, algo, g_t, steps):
        # the CLI's run: the 1000 W/m2 array at g_t on every step equals
        # the loop on default_array(g_t) as given
        ap = default_array(g_t)
        st0 = initial_state(0.5 * pv.open_circuit_voltage(ap), 0.5)
        got = mppt_run(default_array(1000.0), algo, st0, steps,
                       irradiance=g_t)
        assert_same_mppt_run(got, array_as_given_run(ap, algo, st0, steps))

    def test_negative_irradiance_raises_as_the_scalar_loop(self):
        ap = default_array(1000.0)
        g = np.full(50, 500.0)
        g[30] = -1.0
        with pytest.raises(ValueError, match="photocurrent"):
            mppt_run(ap, "po", initial_state(15.0, 0.5), 50, irradiance=g)

    @pytest.mark.parametrize("bad", [[-1.0], [math.nan], [math.inf],
                                     [-1.0, math.nan], [-1.0, math.inf]])
    @pytest.mark.parametrize("at", [3, 30, 298])
    def test_bad_irradiance_raises_the_scalar_loops_error(self, bad, at):
        # bad steps in a scalar stretch or inside a block, whose V_oc
        # bound must not fail first: the run raises what the step-by-step
        # loop raises at the first of them
        ap = default_array(1000.0)
        g = np.full(300, 500.0)
        g[at:at + len(bad)] = bad
        st0 = initial_state(15.0, 0.5)
        with pytest.raises(ValueError) as want:
            scalar_mppt_run(ap, "po", st0, g)
        with pytest.raises(ValueError) as got:
            mppt_run(ap, "po", st0, len(g), irradiance=g)
        assert str(got.value) == str(want.value)


@pytest.fixture
def lane_calls(monkeypatch):
    """The voltages of each ``array_current_lanes`` call, the count of
    lanes each left open, and the (irradiance, voltage) of each scalar
    solve."""
    calls = {"lanes": [], "open": [], "scalar": []}
    lanes, scalar = pv.array_current_lanes, pv.array_current_at

    def spied_lanes(ap, v, g):
        cur, left_open = lanes(ap, v, g)
        calls["lanes"].append(np.array(v, dtype=float))
        calls["open"].append(left_open.size)
        return cur, left_open

    def spied_scalar(s, v, g):
        calls["scalar"].append((g, v))
        return scalar(s, v, g)
    monkeypatch.setattr(pv, "array_current_lanes", spied_lanes)
    monkeypatch.setattr(pv, "array_current_at", spied_scalar)
    return calls


class TestBlocksStopAtOpenCircuit:
    """A block predicts no voltage past the open-circuit voltage at its
    brightest irradiance (or past ``V_ref``, if that is higher): the
    lane Newton needs ever more iterations there."""

    def test_rise_is_cut_mid_block(self, lane_calls):
        # IC climbs from 5 V by +0.5 V a step; after 8 scalar steps the
        # first block at 9 V would predict 128 voltages up to 72.5 V,
        # but is cut after 23.0 V, the last at or below V_oc
        ap = default_array(1000.0)
        voc = pv.open_circuit_voltage(ap)
        assert 23.0 <= voc < 23.5
        run = compare(ap, "ic", initial_state(5.0, 0.5), np.full(200, 1000.0))
        assert run.v_ref[:9].tolist() == [5.0 + 0.5 * k for k in range(9)]
        first = lane_calls["lanes"][0]
        assert first.tolist() == [9.0 + 0.5 * k for k in range(29)]
        assert max(v.max() for v in lane_calls["lanes"]) <= voc

    def test_cut_at_the_first_step_solves_it_alone(self, lane_calls):
        # the same climb, but from step 8 on the sun is nearly gone and
        # V_oc is a few mV: the block at 9 V keeps only its first step,
        # which runs as a scalar step, and no lane goes past 9 V
        ap = default_array(1000.0)
        g = np.full(200, 1e-3)
        g[:8] = 1000.0
        run = compare(ap, "ic", initial_state(5.0, 0.5), g)
        assert run.v_ref[8] == 9.0
        assert pv.open_circuit_voltage(ap.at_irradiance(1e-3)) < 0.1
        assert lane_calls["scalar"][8] == (1e-3, 9.0)
        assert all(v.max() <= 9.0 for v in lane_calls["lanes"])

    @pytest.mark.parametrize("seed", range(4))
    def test_cloudy_ic_day_leaves_no_lane_open(self, seed, lane_calls):
        # a dim dawn drags IC down to 8 V; the climb back runs 20 steps
        # and more, and each block of it stops at V_oc, where the lane
        # Newton settles every lane
        ap = default_array(1000.0)
        st0 = initial_state(0.8 * pv.open_circuit_voltage(ap), 0.5)
        g = np.concatenate([1e-6 * (1.0 + np.arange(20)),
                            cloudy_irradiance(seed, 3000)])
        run = mppt_run(ap, "ic", st0, len(g), irradiance=g)
        rises = (np.diff(run.v_ref) > 0.0).astype(int)
        assert np.convolve(rises, np.ones(16, dtype=int)).max() == 16
        assert len(lane_calls["lanes"]) > 50
        assert sum(lane_calls["open"]) == 0


def harvest_irradiance():
    """Irradiance sequences of 1 to 400 steps: constant, ramps, sunrises
    (geometric rises, which drive P&O up past V_oc), cloud edges, and
    dawns of 1e-6 W/m2 steps after a dark (0) stretch."""
    n = st.integers(1, 400)
    level = st.one_of(st.sampled_from([0.0, 1e-6, 5e-3, 123.456, 1000.0]),
                      st.floats(0.0, 1200.0))
    edges = st.lists(st.tuples(st.integers(1, 120), level), min_size=1,
                     max_size=8)
    return st.one_of(
        st.builds(np.full, n, level),
        st.builds(np.linspace, level, level, n),
        st.builds(np.geomspace, st.floats(1e-6, 10.0),
                  st.floats(100.0, 1200.0), n),
        edges.map(lambda segs: np.concatenate([np.full(k, x)
                                               for k, x in segs])),
        st.builds(lambda n, dark: np.where(np.arange(n) < dark, 0.0,
                                           1e-6 * (1.0 + np.arange(n))),
                  n, st.integers(0, 60)))


def harvest_start():
    """Starts at 0.0, -0.0 or a finite voltage, below or above V_oc
    (23.18 V at 1000 W/m2), with an odd step too, fresh or from a
    flagged state."""
    v0 = st.one_of(st.sampled_from([0.0, -0.0, 5.0, 23.0, 40.0]),
                   st.floats(-5.0, 60.0))
    dv = st.one_of(st.sampled_from([0.5, 0.1, 0.3, 1.0 / 3.0]),
                   st.floats(1e-3, 2.0))
    flagged = st.builds(
        lambda v, d: MpptState(V_prev=3.0, I_prev=1.0, P_prev=3.0,
                               V_ref=v, dV_step=d, iteration=7,
                               flag="conductance-undefined"), v0, dv)
    return st.one_of(st.builds(initial_state, v0, dv), flagged)


# (V, I) steps with repeats, zeros of both signs, tiny currents and
# non-finite values, so that every branch of both laws is taken
LAW_STEP = st.tuples(
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 10.0, 12.0]),
              st.floats(-50.0, 50.0),
              st.sampled_from([math.inf, -math.inf, math.nan])),
    st.one_of(st.sampled_from([0.0, -0.0, 5.0, 30.0 / 7.0, 1e-13, 5e-19,
                               -1e-3]),
              st.floats(-10.0, 10.0),
              st.sampled_from([math.inf, math.nan])))


class TestLawFloatsMatchArrays:
    @given(algo=st.sampled_from(["po", "ic"]),
           dv=st.sampled_from([0.5, 0.3]), prev=LAW_STEP,
           rows=st.lists(LAW_STEP, min_size=1, max_size=12))
    @example(algo="ic", dv=0.5, prev=(1.0, 0.0), rows=[(2.0, 5e-19)])
    @example(algo="ic", dv=0.5, prev=(10.0, 5.0), rows=[(12.0, 30.0 / 7.0)])
    @example(algo="po", dv=0.5, prev=(10.0, 0.0), rows=[(10.0, 1.0)])
    def test_moves_and_flags(self, algo, dv, prev, rows):
        """The move kernel on arrays, as a block runs it, gives each
        step's move and IC's undefined-conductance flag bit for bit as
        the same kernel on floats, step by step."""
        law = mppt._LAWS[algo]
        v_prev, i_prev = prev
        v, i = (np.array(c) for c in zip(*rows))
        before_v = np.concatenate(([v_prev], v[:-1]))
        before_i = np.concatenate(([i_prev], i[:-1]))
        with np.errstate(all="ignore"):
            move, undefined = law(dv, before_v, before_i, before_v * before_i,
                                  v, i, blocks.ARRAYS)
        want, flags = [], []
        for x, y in rows:
            m, flag = law(dv, v_prev, i_prev, v_prev * i_prev, x, y,
                          blocks.FLOATS)
            assert type(m) is float and type(flag) is bool
            want.append(m)
            flags.append(flag)
            v_prev, i_prev = x, y
        assert np.array_equal(move.view(np.int64),
                              np.array(want).view(np.int64))
        assert undefined.tolist() == flags


class TestHarvestProperty:
    @given(g=harvest_irradiance(), algo=st.sampled_from(["po", "ic"]),
           st0=harvest_start())
    def test_blocks_match_scalar_loop(self, g, algo, st0):
        """The checked blocks equal the step-by-step loop bit for bit,
        the final state included, on any of these harvests."""
        compare(default_array(1000.0), algo, st0, g)
