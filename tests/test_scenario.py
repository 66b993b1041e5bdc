from dataclasses import dataclass, replace
import importlib.util
import math
from pathlib import Path
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from sunpump import pv, scenario
from sunpump.mppt import initial_state
from sunpump.scenario import (ConfigError, ScenarioConfig, _profile_columns,
                              control_logic_step, run_scenario)
from sunpump.solar import TrackerOrientation
from test_mppt import scalar_duty, scalar_mppt_run
from test_tracking import scalar_tracking_sim


def relays(tank2_pct=50.0, soil=50.0, soc=50.0, pump1=False, pump2=False):
    return control_logic_step(pump1, pump2, tank2_pct, soil, soc,
                              ScenarioConfig())


class TestControlLogic:
    def test_low_tank_turns_pump1_on(self):
        assert relays(tank2_pct=15.0, pump1=False)[0] is True

    def test_between_thresholds_holds_previous(self):
        assert relays(tank2_pct=50.0, pump1=True)[0] is True
        assert relays(tank2_pct=50.0, pump1=False)[0] is False

    def test_full_tank_turns_pump1_off(self):
        assert relays(tank2_pct=92.0, pump1=True)[0] is False

    def test_soil_wet_threshold_turns_pump2_off(self):
        assert relays(soil=70.0, pump2=True)[1] is False

    def test_soil_dry_turns_pump2_on(self):
        assert relays(soil=25.0, pump2=False)[1] is True

    def test_battery_relay_brownout(self):
        assert relays(soc=9.0)[2] is False
        assert relays(soc=10.0)[2] is True


# -- reference: the hydraulics and battery loop as an object-state loop,
# one relay object per step and the pump law as a function --------------

@dataclass(frozen=True)
class RelayState:
    pump1: bool = False
    pump2: bool = False
    battery_relay: bool = True


@dataclass
class SystemState:
    soc_pct: float
    tank1_L: float
    tank2_L: float
    soil_pct: float
    delivered_soil_L: float
    relays: RelayState
    flow1_Lpm: float = 0.0
    flow2_Lpm: float = 0.0


def reference_relays(state, cfg):
    r = state.relays
    tank2_pct = 100.0 * state.tank2_L / cfg.tank2_volume_L
    pump1 = r.pump1
    if tank2_pct < cfg.tank_low_pct:
        pump1 = True
    elif tank2_pct >= cfg.tank_full_pct:
        pump1 = False
    pump2 = r.pump2
    if state.soil_pct < cfg.soil_dry_pct:
        pump2 = True
    elif state.soil_pct >= cfg.soil_wet_pct:
        pump2 = False
    battery = state.soc_pct >= cfg.battery_min_soc_pct
    return RelayState(pump1, pump2, battery)


def reference_pump(on, flow_prev_Lpm, dt, cfg, rated_power_W=0.0):
    target = cfg.pump_flow_Lpm if on else 0.0
    decay = math.exp(-dt / cfg.pump_tau_s)
    flow = target + (flow_prev_Lpm - target) * decay
    return flow, rated_power_W * flow / cfg.pump_flow_Lpm


HYDRAULIC_COLUMNS = ("soc_pct", "pump1_on", "pump2_on", "tank2_level_pct",
                     "soil_moisture_pct", "battery_relay",
                     "tank1_level_pct", "delivered_soil_L")


SUMMARY_TERMS = ("final_soc_pct", "water_delivered_L", "energy_harvested_Wh",
                 "energy_load_Wh", "energy_curtailed_Wh",
                 "energy_deficit_Wh")


def reference_hydraulics(cfg, pv_power):
    """The eight hydraulic columns and the summary terms (final SOC,
    water delivered and the energy ledger) for a given harvest."""
    dt = cfg.dt_s
    state = SystemState(
        soc_pct=cfg.soc_init_pct,
        tank1_L=cfg.tank1_init_pct / 100.0 * cfg.tank1_volume_L,
        tank2_L=cfg.tank2_init_pct / 100.0 * cfg.tank2_volume_L,
        soil_pct=cfg.soil_init_pct,
        delivered_soil_L=0.0,
        relays=RelayState(),
    )
    cols = {name: np.zeros(len(pv_power)) for name in HYDRAULIC_COLUMNS}
    energy_harvested_Ws = energy_load_Ws = 0.0
    curtailed_pct = deficit_pct = 0.0
    soil_decay_per_s = cfg.soil_decay_pct_per_hr / 3600.0
    for k, power in enumerate(pv_power.tolist()):
        state.relays = reference_relays(state, cfg)
        gate = state.relays.battery_relay
        state.flow1_Lpm, load1 = reference_pump(
            state.relays.pump1 and gate and state.tank1_L > 1e-9,
            state.flow1_Lpm, dt, cfg, cfg.pump1_power_W)
        state.flow2_Lpm, load2 = reference_pump(
            state.relays.pump2 and gate and state.tank2_L > 1e-9,
            state.flow2_Lpm, dt, cfg, cfg.pump2_power_W)
        move1 = min(state.flow1_Lpm / 60.0 * dt, state.tank1_L,
                    cfg.tank2_volume_L - state.tank2_L)
        move1 = max(0.0, move1)
        state.tank1_L -= move1
        state.tank2_L += move1
        move2 = min(state.flow2_Lpm / 60.0 * dt, state.tank2_L)
        move2 = max(0.0, move2)
        state.tank2_L -= move2
        state.delivered_soil_L += move2
        state.soil_pct = min(100.0, max(0.0,
            state.soil_pct + cfg.soil_gain_pct_per_L * move2
            - soil_decay_per_s * dt))
        load = load1 + load2
        energy_harvested_Ws += power * dt
        energy_load_Ws += load * dt
        dsoc = (power - load) * dt / 3600.0 / cfg.battery_capacity_Wh * 100.0
        soc = state.soc_pct + dsoc
        if soc > 100.0:
            curtailed_pct += soc - 100.0
        if soc < 0.0:
            deficit_pct += -soc
        state.soc_pct = min(100.0, max(0.0, soc))
        cols["soc_pct"][k] = state.soc_pct
        cols["pump1_on"][k] = 1.0 if state.relays.pump1 else 0.0
        cols["pump2_on"][k] = 1.0 if state.relays.pump2 else 0.0
        cols["tank2_level_pct"][k] = \
            100.0 * state.tank2_L / cfg.tank2_volume_L
        cols["soil_moisture_pct"][k] = state.soil_pct
        cols["battery_relay"][k] = \
            1.0 if state.relays.battery_relay else 0.0
        cols["tank1_level_pct"][k] = \
            100.0 * state.tank1_L / cfg.tank1_volume_L
        cols["delivered_soil_L"][k] = state.delivered_soil_L
    capacity_Wh = cfg.battery_capacity_Wh
    return cols, dict(zip(SUMMARY_TERMS, (
        state.soc_pct, state.delivered_soil_L, energy_harvested_Ws / 3600.0,
        energy_load_Ws / 3600.0, curtailed_pct / 100.0 * capacity_Wh,
        deficit_pct / 100.0 * capacity_Wh)))


def assert_matches_reference(cfg, trace, summary):
    cols, terms = reference_hydraulics(cfg, trace.pv_power_W)
    for name in HYDRAULIC_COLUMNS:
        got = getattr(trace, name)
        assert got.dtype == np.float64, name
        bad = np.flatnonzero(got.view(np.int64) != cols[name].view(np.int64))
        assert bad.size == 0, f"{name} differs at steps {bad[:5]}"
    for name, want in terms.items():
        got = getattr(summary, name)
        assert type(got) is float, name
        assert np.float64(got).view(np.int64) == \
            np.float64(want).view(np.int64), name


def cloudy_config(seed):
    """A seeded 20-minute day under passing clouds, P&O on even seeds
    and IC on odd ones, with the tanks, soil and battery started at
    random levels and random pump ratings."""
    rng = np.random.default_rng(seed)
    duration = 1200.0
    times = np.unique(np.concatenate(
        [[0.0, duration], rng.uniform(1.0, duration - 1.0, 60).round(1)]))
    irr = rng.uniform(0.0, 1000.0, times.size)
    irr[rng.random(times.size) < 0.2] = 0.0
    return ScenarioConfig(
        duration_s=duration, dt_s=0.1,
        irradiance_profile=tuple(zip(times.tolist(), irr.tolist())),
        sun_path=((0.0, 20.0, 100.0), (duration, 55.0, 200.0)),
        mppt_algo="po" if seed % 2 == 0 else "ic",
        battery_capacity_Wh=float(rng.uniform(2.0, 60.0)),
        soc_init_pct=float(rng.uniform(8.0, 95.0)),
        tank1_init_pct=float(rng.uniform(5.0, 100.0)),
        tank2_init_pct=float(rng.uniform(5.0, 40.0)),
        soil_init_pct=float(rng.uniform(15.0, 45.0)),
        soil_gain_pct_per_L=float(rng.uniform(0.0, 20.0)),
        soil_decay_pct_per_hr=float(rng.uniform(0.0, 200.0)),
        pump_flow_Lpm=float(rng.uniform(1.0, 10.0)),
        pump_tau_s=float(rng.uniform(0.05, 5.0)),
        pump1_power_W=float(rng.uniform(10.0, 100.0)),
        pump2_power_W=float(rng.uniform(5.0, 50.0)))


DARK = ((0.0, 0.0), (600.0, 0.0))


def first(flags):
    """The index of the first set flag."""
    return int(np.flatnonzero(flags)[0])


def block_stops_at(scalar, k):
    """Step k ran alone right after a block: the block stopped at it."""
    return scalar[k] and not scalar[k - 1]


def gate_closes_at_block_stop(tank_L, scalar):
    """The one block stop after the flows settle is the step after the
    tank fell to 1e-9 L, where the flow gate closes; no move was cut."""
    stops = np.flatnonzero(scalar[1:] & ~scalar[:-1]) + 1
    return (stops.size == 1 and tank_L[stops[0] - 2] > 1e-9
            and tank_L[stops[0] - 1] <= 1e-9 and tank_L[-1] > 0.0)


# configs that drive the loop into each of its branches, with the check
# that they do; the check also gets the steps the scalar step ran, as
# flags, so that it can tell where a block of settled steps stopped
BRANCH_CONFIGS = {
    "brownout": (
        dict(duration_s=60.0, irradiance_profile=DARK, soc_init_pct=10.02,
             tank2_init_pct=10.0),
        lambda tr, _: (tr.battery_relay[0] == 1.0
                       and tr.battery_relay[-1] == 0.0)),
    "tank1_runs_dry": (
        dict(duration_s=60.0, irradiance_profile=DARK, soc_init_pct=90.0,
             tank1_init_pct=2.0, tank2_init_pct=10.0),
        lambda tr, _: (tr.tank1_level_pct[-1] == 0.0
                       and tr.pump1_on[-1] == 1.0)),
    "tank2_capacity_limits_transfer": (
        dict(duration_s=30.0, irradiance_profile=DARK, soc_init_pct=90.0,
             tank_low_pct=99.95, tank_full_pct=100.0, tank2_init_pct=99.9),
        lambda tr, _: tr.tank2_level_pct.max() == 100.0),
    "soil_clamped_at_0": (
        dict(duration_s=30.0, irradiance_profile=DARK, soc_init_pct=5.0,
             soil_init_pct=0.5, soil_decay_pct_per_hr=3600.0),
        lambda tr, _: tr.soil_moisture_pct[-1] == 0.0),
    "soil_clamped_at_100": (
        dict(duration_s=30.0, irradiance_profile=DARK, soc_init_pct=90.0,
             soil_dry_pct=99.0, soil_wet_pct=100.0, soil_init_pct=95.0,
             soil_gain_pct_per_L=1000.0),
        lambda tr, _: tr.soil_moisture_pct.max() == 100.0),
    "soc_clamped_at_0": (
        dict(duration_s=30.0, irradiance_profile=DARK, soc_init_pct=0.05,
             battery_min_soc_pct=0.0, tank2_init_pct=10.0),
        lambda tr, _: tr.soc_pct[-1] == 0.0 and tr.battery_relay[-1] == 1.0),
    "soc_clamped_at_100": (
        dict(duration_s=60.0, soc_init_pct=99.99),
        lambda tr, _: tr.soc_pct[-1] == 100.0),
    # SOC pinned at 100 with pump1 running, released when the sun dims
    # below the pump load
    "soc_released_from_100_in_block": (
        dict(duration_s=60.0, soc_init_pct=100.0, tank2_init_pct=10.0,
             irradiance_profile=((0.0, 900.0), (30.0, 900.0),
                                 (30.5, 100.0), (600.0, 100.0))),
        lambda tr, scalar: block_stops_at(scalar,
                                          first(tr.soc_pct < 100.0))),
    # the clouds seed 6 shape: browned out with pump2 latched on, the
    # soil dries to 0 and stays pinned there until the sun closes the
    # relay
    "soil_pinned_at_0_in_blocks": (
        dict(duration_s=4000.0, dt_s=2.0, soc_init_pct=9.9,
             soil_init_pct=0.05, soil_decay_pct_per_hr=6.0,
             irradiance_profile=((0.0, 0.0), (3000.0, 0.0),
                                 (3002.0, 1000.0), (4000.0, 1000.0))),
        lambda tr, scalar: (
            block_stops_at(scalar, first(tr.soil_moisture_pct == 0.0))
            and (tr.soil_moisture_pct[20:1500] == 0.0).all()
            and not scalar[20:1500].any()
            and tr.soil_moisture_pct[-1] > 0.0)),
    # a flat battery with the pumps off charges at sunrise
    "soc_released_from_0_in_block": (
        dict(duration_s=60.0, soc_init_pct=0.0,
             irradiance_profile=((0.0, 0.0), (30.0, 0.0), (30.5, 500.0),
                                 (600.0, 500.0))),
        lambda tr, scalar: block_stops_at(scalar,
                                          first(tr.soc_pct > 0.0))),
    # pump2 empties tank2 with tank1 dry, so pump1 cannot refill it
    "tank2_runs_dry_in_block": (
        dict(duration_s=60.0, irradiance_profile=DARK, soc_init_pct=90.0,
             soil_init_pct=10.0, tank1_init_pct=0.0, tank2_init_pct=5.0),
        lambda tr, scalar: block_stops_at(
            scalar, first(tr.tank2_level_pct == 0.0))),
    # a trickle of a flow (1e-10 L a step) leaves a micro-liter tank
    # without flow at 1e-9 L while every move still fits: the pump1 flow
    # gate closes inside a block
    "tank1_flow_gate_closes_in_block": (
        dict(duration_s=60.0, irradiance_profile=DARK, soc_init_pct=90.0,
             pump_flow_Lpm=6e-8, tank1_volume_L=1e-6, tank1_init_pct=1.0,
             tank2_init_pct=10.0),
        lambda tr, scalar: gate_closes_at_block_stop(
            tr.tank1_level_pct / 100.0 * 1e-6, scalar)),
    # the same for pump2 on a micro-liter tank2, with tank1 dry
    "tank2_flow_gate_closes_in_block": (
        dict(duration_s=60.0, irradiance_profile=DARK, soc_init_pct=90.0,
             pump_flow_Lpm=6e-8, tank2_volume_L=1e-6, tank2_init_pct=1.0,
             tank1_init_pct=0.0, soil_init_pct=10.0),
        lambda tr, scalar: gate_closes_at_block_stop(
            tr.tank2_level_pct / 100.0 * 1e-6, scalar)),
    # pump1 drains the battery below the brown-out SOC
    "relay_trips_in_block": (
        dict(duration_s=60.0, irradiance_profile=DARK, soc_init_pct=10.5,
             tank2_init_pct=10.0),
        lambda tr, scalar: block_stops_at(scalar,
                                          first(tr.battery_relay == 0.0))),
    # pump1 fills tank2 to its capacity, its full mark
    "tank2_capacity_engages_in_block": (
        dict(duration_s=60.0, irradiance_profile=DARK, soc_init_pct=90.0,
             tank_low_pct=99.95, tank_full_pct=100.0, tank2_init_pct=90.0),
        lambda tr, scalar: block_stops_at(
            scalar, first(tr.tank2_level_pct == 100.0))),
    # settled throughout: blocks of 64 and 128 steps end on the last step
    "block_ends_on_last_step": (
        dict(duration_s=19.2, irradiance_profile=DARK, soc_init_pct=50.0,
             soil_init_pct=50.0, soil_decay_pct_per_hr=100.0),
        lambda tr, scalar: (len(tr) == 3 * scenario._BLOCK_MIN
                            and not scalar.any())),
}


@pytest.fixture
def scalar_steps(monkeypatch):
    """The steps the scalar hydraulic step runs, in order."""
    steps = []
    step = scenario._Hydraulics.step

    def counted(self, k, power):
        steps.append(k)
        return step(self, k, power)
    monkeypatch.setattr(scenario._Hydraulics, "step", counted)
    return steps


def percents():
    """A percentage in [0, 100], often at or next to a bound."""
    return st.one_of(st.sampled_from([0.0, 1e-9, 100.0 - 1e-9, 100.0]),
                     st.floats(0.0, 100.0))


def magnitudes(normal):
    """A positive size: tiny, ``normal`` (a range) or huge."""
    return st.one_of(st.floats(1e-3, 0.1), st.floats(*normal),
                     st.floats(1e4, 1e6))


def thresholds():
    """A (low, high) pair in [0, 100], low < high, often close."""
    return st.tuples(
        st.floats(0.0, 99.99),
        st.one_of(st.sampled_from([1e-9, 1e-3]), st.floats(1e-6, 60.0)),
    ).map(lambda p: (p[0], min(100.0, p[0] + p[1])))


@st.composite
def short_configs(draw):
    """A short scenario: dark, flat or cloudy irradiance, tiny to huge
    tanks and batteries, levels at or near their clamps, pump time
    constants from 0.01 s (a flow that decays into subnormals within a
    few steps) to 10 s, and close thresholds."""
    dt = draw(st.sampled_from([0.05, 0.1, 0.5, 2.0]))
    duration = draw(st.integers(1, 400)) * dt
    sky = draw(st.sampled_from(["dark", "flat", "cloudy"]))
    if sky == "dark":
        profile = ((0.0, 0.0),)
    elif sky == "flat":
        profile = ((0.0, draw(st.floats(0.0, 1200.0))),)
    else:
        times = draw(st.lists(st.floats(0.0, duration), min_size=1,
                              max_size=12, unique=True))
        profile = tuple((t, draw(st.one_of(st.just(0.0),
                                           st.floats(0.0, 1200.0))))
                        for t in sorted(times))
    tank_low, tank_full = draw(thresholds())
    soil_dry, soil_wet = draw(thresholds())
    return ScenarioConfig(
        duration_s=duration, dt_s=dt, irradiance_profile=profile,
        battery_capacity_Wh=draw(magnitudes((1.0, 100.0))),
        soc_init_pct=draw(percents()),
        battery_min_soc_pct=draw(percents()),
        tank1_volume_L=draw(magnitudes((1.0, 100.0))),
        tank2_volume_L=draw(magnitudes((1.0, 100.0))),
        tank1_init_pct=draw(percents()), tank2_init_pct=draw(percents()),
        soil_init_pct=draw(percents()),
        pump_flow_Lpm=draw(st.one_of(st.floats(1e-8, 1e-6),
                                     st.floats(0.1, 20.0))),
        pump_tau_s=draw(st.floats(0.01, 10.0)),
        pump1_power_W=draw(st.floats(0.0, 200.0)),
        pump2_power_W=draw(st.floats(0.0, 200.0)),
        tank_low_pct=tank_low, tank_full_pct=tank_full,
        soil_dry_pct=soil_dry, soil_wet_pct=soil_wet,
        soil_gain_pct_per_L=draw(st.floats(0.0, 1000.0)),
        soil_decay_pct_per_hr=draw(st.floats(0.0, 1e4)),
        mppt_algo=draw(st.sampled_from(["po", "ic"]))).validate()


class TestHydraulicsMatchesReference:
    """The plain-float hydraulics pass equals the object-state loop bit
    for bit on every column it writes and every summary term."""

    def test_daylight(self, daylight_run):
        assert_matches_reference(*daylight_run)

    @pytest.mark.parametrize("seed", range(6))
    def test_cloudy(self, seed):
        cfg = cloudy_config(seed)
        trace, summary = run_scenario(cfg)
        assert summary.pump1_on_steps + summary.pump2_on_steps > 0
        assert_matches_reference(cfg, trace, summary)

    @pytest.mark.parametrize("name", sorted(BRANCH_CONFIGS))
    def test_branch(self, name, scalar_steps):
        values, reached = BRANCH_CONFIGS[name]
        cfg = ScenarioConfig(**values)
        trace, summary = run_scenario(cfg)
        scalar = np.zeros(len(trace), dtype=bool)
        scalar[scalar_steps] = True
        assert reached(trace, scalar)
        assert_matches_reference(cfg, trace, summary)

    @settings(max_examples=60)
    @given(cfg=short_configs())
    def test_generated(self, cfg):
        trace, summary = run_scenario(cfg)
        assert_matches_reference(cfg, trace, summary)
        assert_water_ledger_closes(cfg, trace)
        # rounding: a few ulps per step of every ledger term and of the
        # battery (the SOC's own rounding)
        flow = summary.energy_harvested_Wh + summary.energy_load_Wh \
            + summary.energy_curtailed_Wh + summary.energy_deficit_Wh \
            + cfg.battery_capacity_Wh
        assert abs(energy_ledger_residual(cfg, summary)) <= \
            8 * (len(trace) + 10) * np.finfo(float).eps * flow

    def test_settled_steps_run_in_blocks(self, scalar_steps):
        # on the reference day only the steps whose pump flows have not
        # settled run alone
        trace, _ = run_scenario(ScenarioConfig.default_daylight())
        assert len(scalar_steps) <= 0.05 * len(trace)


@st.composite
def whole_run_configs(draw):
    """A short scenario (:func:`short_configs`) under a drawn sun path,
    above or below the horizon, with a drawn tracker start, set on
    either axis or on none, and motor step."""
    cfg = draw(short_configs())
    elevation = st.one_of(st.sampled_from([-90.0, -0.0, 0.0, 90.0]),
                          st.floats(5.0, 85.0), st.floats(-90.0, 90.0))
    azimuth = st.one_of(st.floats(60.0, 300.0), st.floats(-720.0, 720.0))
    points = draw(st.lists(
        st.tuples(st.floats(0.0, cfg.duration_s), elevation, azimuth),
        min_size=1, max_size=6, unique_by=lambda p: p[0]))
    angle = st.one_of(st.none(), st.floats(-200.0, 200.0))
    return replace(
        cfg, sun_path=tuple(sorted(points)),
        tracker_init_elev=draw(angle), tracker_init_azi=draw(angle),
        motor_step_deg=draw(st.one_of(st.sampled_from([1.8, 0.9]),
                                      st.floats(0.01, 10.0)))).validate()


def assert_same_bits(got, want, name):
    bad = np.flatnonzero(np.asarray(got).view(np.int64)
                         != np.asarray(want).view(np.int64))
    assert bad.size == 0, f"{name} differs at steps {bad[:5]}"


class TestWholeRunProperty:
    @settings(max_examples=25)
    @given(cfg=whole_run_configs())
    def test_tracker_and_harvest_match_scalar_loops(self, cfg):
        """The tracker columns equal the tracker's step-by-step loop, and
        the harvest columns the MPPT step-by-step loop on the lit steps,
        bit for bit; a rerun writes the same bytes."""
        trace, summary = run_scenario(cfg)
        (irr,) = _profile_columns(cfg.irradiance_profile, trace.t)
        elev, azi = _profile_columns(cfg.sun_path, trace.t)
        start = TrackerOrientation(
            float(elev[0]) if cfg.tracker_init_elev is None
            else cfg.tracker_init_elev,
            float(azi[0]) if cfg.tracker_init_azi is None
            else cfg.tracker_init_azi)
        track = scalar_tracking_sim(elev, azi, cfg.motor_step_deg,
                                    irradiance=irr, start=start)
        for name in ("theta_TE", "theta_TA", "alpha"):
            assert_same_bits(getattr(trace, name), getattr(track, name), name)

        eff = irr * np.maximum(0.0, np.cos(np.radians(track.alpha)))
        lit = eff > 0.0
        power, duty = np.zeros(len(trace)), np.zeros(len(trace))
        if lit.any():
            ap = pv.default_array(1000.0)
            st0 = initial_state(0.8 * pv.open_circuit_voltage(ap),
                                cfg.mppt_dv_step)
            harvest = scalar_mppt_run(ap, cfg.mppt_algo, st0, eff[lit])
            power[lit] = [p if p > 0.0 else 0.0
                          for p in harvest.p.tolist()]
            duty[lit] = [scalar_duty(v, scenario.BATTERY_BUS_V)
                         for v in harvest.v_ref.tolist()]
        assert_same_bits(trace.pv_power_W, power, "pv_power_W")
        assert_same_bits(trace.duty_D, duty, "duty_D")

        again, again_summary = run_scenario(cfg)
        assert again_summary == summary
        for name in trace.COLUMNS:
            a, b = getattr(trace, name), getattr(again, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_water_ledger_closes(cfg, trace):
    """Every liter that leaves a tank lands in the other or in the soil:
    the total stays put up to rounding, a few ulps of it per step."""
    total = trace.tank1_level_pct / 100.0 * cfg.tank1_volume_L \
        + trace.tank2_level_pct / 100.0 * cfg.tank2_volume_L \
        + trace.delivered_soil_L
    water = cfg.tank1_init_pct / 100.0 * cfg.tank1_volume_L \
        + cfg.tank2_init_pct / 100.0 * cfg.tank2_volume_L
    tol = 8 * (len(trace) + 10) * np.finfo(float).eps * water
    assert np.abs(total - water).max() <= tol


def energy_ledger_residual(cfg, summary):
    """harvested - (load + stored change + curtailed - deficit), in Wh,
    with every ledger term checked to be >= 0."""
    assert summary.energy_load_Wh >= 0.0
    assert summary.energy_curtailed_Wh >= 0.0
    assert summary.energy_deficit_Wh >= 0.0
    stored = (summary.final_soc_pct - cfg.soc_init_pct) / 100.0 \
        * cfg.battery_capacity_Wh
    return summary.energy_harvested_Wh - (
        summary.energy_load_Wh + stored + summary.energy_curtailed_Wh
        - summary.energy_deficit_Wh)


def pump1_flow_and_load(cfg, trace):
    """Pump1 flow (L/min) and total load (W) of each step after the
    first, read back from the tank1 level and, in the dark, the SOC."""
    tank1_L = trace.tank1_level_pct / 100.0 * cfg.tank1_volume_L
    flow = -np.diff(tank1_L) / cfg.dt_s * 60.0
    load = -np.diff(trace.soc_pct) / 100.0 * cfg.battery_capacity_Wh \
        * 3600.0 / cfg.dt_s
    return flow, load


# dark, battery high, soil between its thresholds (pump2 stays off) and
# tank2 below its low mark, so pump1 latches on at the first step
PUMP1_ONLY = dict(duration_s=30.0, irradiance_profile=DARK,
                  soc_init_pct=90.0, tank2_init_pct=10.0)


class TestPumpDynamics:
    def test_steady_on_reaches_rated(self):
        cfg = ScenarioConfig(**PUMP1_ONLY)
        trace, _ = run_scenario(cfg)
        assert np.all(trace.pump1_on == 1.0)
        flow, _ = pump1_flow_and_load(cfg, trace)
        assert flow[-1] == pytest.approx(cfg.pump_flow_Lpm, rel=0.01)

    def test_first_order_rise(self):
        cfg = ScenarioConfig(dt_s=0.05, **PUMP1_ONLY)
        trace, _ = run_scenario(cfg)
        flow, load = pump1_flow_and_load(cfg, trace)
        assert 0.0 < flow[0] < cfg.pump_flow_Lpm
        # step k + 1 ends (k + 2) dt after the pump turned on
        k = np.arange(flow.size)
        want = cfg.pump_flow_Lpm * (
            1.0 - np.exp(-(k + 2) * cfg.dt_s / cfg.pump_tau_s))
        assert flow == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert load == pytest.approx(
            cfg.pump1_power_W * flow / cfg.pump_flow_Lpm, rel=1e-6)

    def test_off_decays_to_zero(self):
        # pump1 fills tank2 from 19 % to its 21 % full mark, then stops
        cfg = ScenarioConfig(**dict(PUMP1_ONLY, duration_s=60.0,
                                    tank2_init_pct=19.0, tank_low_pct=20.0,
                                    tank_full_pct=21.0))
        trace, _ = run_scenario(cfg)
        off = np.flatnonzero(np.diff(trace.pump1_on) < 0)
        assert off.size == 1
        flow, _ = pump1_flow_and_load(cfg, trace)
        assert flow[off[0]] > 1.0
        assert np.all(np.diff(flow[off[0]:]) <= 0.0)
        assert flow[off[0] + 200] == pytest.approx(0.0, abs=1e-6)


class TestConfigValidation:
    def test_threshold_ordering(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(tank_low_pct=95.0, tank_full_pct=90.0).validate()

    def test_soil_ordering(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(soil_dry_pct=80.0, soil_wet_pct=70.0).validate()

    def test_profile_must_ascend(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(irradiance_profile=((10.0, 100.0),
                                               (5.0, 200.0))).validate()

    def test_percent_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(soc_init_pct=150.0).validate()

    def test_bad_algo(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(mppt_algo="fuzzy").validate()

    def test_nan_capacity_rejected(self):
        # max(0.0, nan) used to pin the SOC at 0 % for the whole run
        with pytest.raises(ConfigError, match="battery_capacity_Wh"):
            ScenarioConfig(battery_capacity_Wh=float("nan")).validate()

    def test_infinite_flow_rejected(self):
        with pytest.raises(ConfigError, match="pump_flow_Lpm"):
            ScenarioConfig(pump_flow_Lpm=float("inf")).validate()

    def test_nan_dt_is_a_config_error(self):
        with pytest.raises(ConfigError, match="dt_s"):
            ScenarioConfig(dt_s=float("nan")).validate()

    def test_nonfinite_tracker_start_rejected(self):
        with pytest.raises(ConfigError, match="tracker_init_azi"):
            ScenarioConfig(tracker_init_azi=float("-inf")).validate()

    def test_empty_profile_row_rejected(self):
        with pytest.raises(ConfigError, match="irradiance_profile"):
            ScenarioConfig(irradiance_profile=((),)).validate()

    def test_text_profile_entry_rejected(self):
        with pytest.raises(ConfigError, match="irradiance_profile"):
            ScenarioConfig(irradiance_profile=(("a", 1.0),)).validate()

    def test_profile_row_not_a_sequence_rejected(self):
        with pytest.raises(ConfigError, match="irradiance_profile"):
            ScenarioConfig(irradiance_profile=(1.0,)).validate()
        with pytest.raises(ConfigError, match="sun_path"):
            ScenarioConfig(sun_path=5.0).validate()

    def test_text_scalar_rejected(self):
        with pytest.raises(ConfigError, match="dt_s"):
            ScenarioConfig(dt_s="a").validate()
        with pytest.raises(ConfigError, match="tracker_init_elev"):
            ScenarioConfig(tracker_init_elev=[45.0]).validate()

    def test_nonfinite_profile_entry_rejected(self):
        with pytest.raises(ConfigError, match="irradiance_profile"):
            ScenarioConfig(irradiance_profile=(
                (0.0, 100.0), (10.0, float("nan")))).validate()
        with pytest.raises(ConfigError, match="sun_path"):
            ScenarioConfig(sun_path=(
                (0.0, 30.0, 95.0), (float("inf"), 60.0, 180.0))).validate()

    def test_negative_soil_rates_rejected(self):
        with pytest.raises(ConfigError, match="soil_gain_pct_per_L"):
            ScenarioConfig(soil_gain_pct_per_L=-5.0).validate()
        with pytest.raises(ConfigError, match="soil_decay_pct_per_hr"):
            ScenarioConfig(soil_decay_pct_per_hr=-1.0).validate()

    def test_step_ceiling(self):
        n = scenario.MAX_STEPS
        ScenarioConfig(duration_s=n * 1.0, dt_s=1.0).validate()
        with pytest.raises(ConfigError, match="steps"):
            ScenarioConfig(duration_s=(n + 1) * 1.0, dt_s=1.0).validate()

    def test_negative_irradiance_rejected(self):
        with pytest.raises(ConfigError, match="irradiance_profile"):
            ScenarioConfig(irradiance_profile=(
                (0.0, 100.0), (10.0, -1e-9))).validate()

    def test_sun_elevation_range(self):
        ScenarioConfig(sun_path=((0.0, -90.0, 95.0),
                                 (10.0, 90.0, 180.0))).validate()
        for elev in (90.5, -95.0):
            with pytest.raises(ConfigError, match="sun_path"):
                ScenarioConfig(sun_path=((0.0, 30.0, 95.0),
                                         (10.0, elev, 180.0))).validate()

    @pytest.mark.parametrize("duration, dt", [
        (7200.0, 0.1), (86400.0, 2.0), (60.0, 0.1), (60.0, 0.5),
        (1.0, 0.1), (0.3 * (1 + 5e-10), 0.1)])
    def test_whole_step_count_accepted(self, duration, dt):
        ScenarioConfig(duration_s=duration, dt_s=dt).validate()

    @pytest.mark.parametrize("duration, dt", [
        (1.0, 0.3), (7200.05, 0.1), (0.3 * (1 + 1e-8), 0.1)])
    def test_fractional_step_count_rejected(self, duration, dt):
        with pytest.raises(ConfigError, match="whole number of steps"):
            ScenarioConfig(duration_s=duration, dt_s=dt).validate()

    def test_step_ceiling_checked_before_allocating(self):
        # 1e15 steps: the run must refuse before any column exists
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError):
                run_scenario(ScenarioConfig(duration_s=1e15, dt_s=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@pytest.fixture(scope="module")
def daylight_run():
    cfg = ScenarioConfig.default_daylight()
    trace, summary = run_scenario(cfg)
    return cfg, trace, summary


@pytest.fixture(scope="module")
def clouds():
    """The benchmark's generator of seeded 24-hour cloudy days."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "clouds.py"
    spec = importlib.util.spec_from_file_location("clouds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEnergyLedger:
    """harvested = load + stored change + curtailed - deficit closes to
    1e-9 of the harvest (of the load on a day without one; exactly when
    neither flows)."""

    @staticmethod
    def assert_closes(cfg, summary):
        scale = max(summary.energy_harvested_Wh, summary.energy_load_Wh)
        assert abs(energy_ledger_residual(cfg, summary)) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(20))
    def test_clouds(self, clouds, seed):
        # the benchmark's config: its fields over default_daylight's
        cfg = replace(ScenarioConfig.default_daylight(),
                      **clouds.generate(seed))
        _, summary = run_scenario(cfg)
        self.assert_closes(cfg, summary)

    @pytest.mark.parametrize("name", sorted(BRANCH_CONFIGS))
    def test_branch(self, name):
        cfg = ScenarioConfig(**BRANCH_CONFIGS[name][0])
        _, summary = run_scenario(cfg)
        self.assert_closes(cfg, summary)


class TestScenarioRun:
    def test_water_conservation(self, daylight_run):
        cfg, trace, _ = daylight_run
        t1 = trace.tank1_level_pct / 100.0 * cfg.tank1_volume_L
        t2 = trace.tank2_level_pct / 100.0 * cfg.tank2_volume_L
        total = t1 + t2 + trace.delivered_soil_L
        assert np.abs(np.diff(total)).max() < 1e-9
        assert abs(total[-1] - total[0]) < 1e-6

    def test_energy_ledger(self, daylight_run):
        cfg, _, summary = daylight_run
        # the SOC sits at 100 % for most of the day, and the clamp throws
        # away most of the harvest there
        assert summary.energy_curtailed_Wh > 0.5 * summary.energy_harvested_Wh
        assert abs(energy_ledger_residual(cfg, summary)) <= \
            1e-9 * summary.energy_harvested_Wh

    def test_soc_bounds(self, daylight_run):
        _, trace, _ = daylight_run
        assert trace.soc_pct.min() >= 0.0
        assert trace.soc_pct.max() <= 100.0

    def test_tank2_bounds(self, daylight_run):
        _, trace, _ = daylight_run
        assert trace.tank2_level_pct.min() >= 0.0
        assert trace.tank2_level_pct.max() <= 100.0

    def test_pump1_transitions_only_at_thresholds(self, daylight_run):
        cfg, trace, _ = daylight_run
        level = trace.tank2_level_pct
        d = np.diff(trace.pump1_on)
        for i in np.nonzero(d > 0)[0]:
            assert level[i] < cfg.tank_low_pct + 0.05
        for i in np.nonzero(d < 0)[0]:
            assert level[i + 1] >= cfg.tank_full_pct - 0.05

    def test_no_chatter(self, daylight_run):
        _, trace, _ = daylight_run
        flips = np.nonzero(np.diff(trace.pump1_on) != 0)[0]
        assert np.all(np.diff(flips) > 1)

    def test_soc_event_sequence(self, daylight_run):
        # rise first, dissipation phase opening at the pump1 latch, and
        # another dissipation at the evening pump2 start
        _, trace, _ = daylight_run
        soc = trace.soc_pct
        on1 = np.nonzero(np.diff(trace.pump1_on) > 0)[0] + 1
        on2 = np.nonzero(np.diff(trace.pump2_on) > 0)[0] + 1
        assert on1.size >= 1 and on2.size >= 2
        i1 = on1[0]
        # phase 1: strictly charging before the tank pump starts
        assert soc[i1 - 1] > soc[0]
        # phase 2: net discharge right after the tank pump starts
        w = 300
        assert soc[i1 + w] < soc[i1]
        # phase 3: the last soil-pump start opens another discharge
        i2 = on2[-1]
        assert i2 > i1
        assert soc[min(i2 + w, len(soc) - 1)] < soc[i2]

    def test_pump1_single_cycle(self, daylight_run):
        _, _, summary = daylight_run
        assert summary.pump1_cycles == 1
        assert summary.pump2_cycles == 2

    def test_zero_irradiance_scenario(self):
        cfg = ScenarioConfig(
            duration_s=60.0, dt_s=0.1,
            irradiance_profile=((0.0, 0.0), (60.0, 0.0)),
            tank2_init_pct=50.0, soil_init_pct=50.0,
            soil_decay_pct_per_hr=1.0)
        trace, _ = run_scenario(cfg)
        assert np.all(np.diff(trace.soc_pct) <= 0.0)
        assert np.all(trace.pv_power_W == 0.0)
        assert trace.tank2_level_pct[0] == trace.tank2_level_pct[-1]

    def test_determinism(self):
        cfg = ScenarioConfig(duration_s=120.0)
        t1, s1 = run_scenario(cfg)
        t2, s2 = run_scenario(cfg)
        for name in t1.COLUMNS:
            assert np.array_equal(getattr(t1, name), getattr(t2, name))
        assert s1 == s2

    def test_brownout_blocks_pumping(self):
        cfg = ScenarioConfig(
            duration_s=120.0, dt_s=0.1, soc_init_pct=5.0,
            irradiance_profile=((0.0, 0.0), (120.0, 0.0)),
            tank2_init_pct=10.0)
        trace, _ = run_scenario(cfg)
        # latch wants to pump (tank low) but the battery relay holds flow
        assert np.all(trace.pump1_on == 1.0)
        assert np.all(trace.battery_relay == 0.0)
        assert trace.tank2_level_pct[-1] == pytest.approx(10.0, abs=1e-9)


class TestConverterDuty:
    def test_duty_tracks_bus_step_down(self, daylight_run):
        _, trace, _ = daylight_run
        lit = trace.pv_power_W > 0
        assert np.all(trace.duty_D[lit] >= 0.0)
        assert np.all(trace.duty_D[lit] <= 0.95)
        # reference voltage near the maximum power point sits well above
        # the 12 V bus, so daytime duty is distinctly positive
        assert trace.duty_D[lit].mean() > 0.2
        dark = trace.pv_power_W == 0.0
        if dark.any():
            assert np.all(trace.duty_D[dark] == 0.0)
