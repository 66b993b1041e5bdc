import tracemalloc

import numpy as np
import pytest

from sunpump import scenario
from sunpump.scenario import (ConfigError, RelayState, ScenarioConfig,
                              SystemState, control_logic_step,
                              pump_dynamics_step, run_scenario)


def make_state(tank2_frac=0.5, soil=50.0, soc=50.0, pump1=False,
               pump2=False):
    cfg = ScenarioConfig()
    return cfg, SystemState(
        soc_pct=soc,
        tank1_L=30.0,
        tank2_L=tank2_frac * cfg.tank2_volume_L,
        soil_pct=soil,
        delivered_soil_L=0.0,
        relays=RelayState(pump1=pump1, pump2=pump2),
    )


class TestControlLogic:
    def test_low_tank_turns_pump1_on(self):
        cfg, st = make_state(tank2_frac=0.15, pump1=False)
        assert control_logic_step(st, cfg).pump1 is True

    def test_between_thresholds_holds_previous(self):
        cfg, st_on = make_state(tank2_frac=0.5, pump1=True)
        assert control_logic_step(st_on, cfg).pump1 is True
        cfg, st_off = make_state(tank2_frac=0.5, pump1=False)
        assert control_logic_step(st_off, cfg).pump1 is False

    def test_full_tank_turns_pump1_off(self):
        cfg, st = make_state(tank2_frac=0.92, pump1=True)
        assert control_logic_step(st, cfg).pump1 is False

    def test_soil_wet_threshold_turns_pump2_off(self):
        cfg, st = make_state(soil=70.0, pump2=True)
        assert control_logic_step(st, cfg).pump2 is False

    def test_soil_dry_turns_pump2_on(self):
        cfg, st = make_state(soil=25.0, pump2=False)
        assert control_logic_step(st, cfg).pump2 is True

    def test_battery_relay_brownout(self):
        cfg, st = make_state(soc=9.0)
        assert control_logic_step(st, cfg).battery_relay is False
        cfg, st = make_state(soc=10.0)
        assert control_logic_step(st, cfg).battery_relay is True


class TestPumpDynamics:
    def test_steady_on_reaches_rated(self):
        cfg = ScenarioConfig()
        flow = 0.0
        for _ in range(100):
            flow, _ = pump_dynamics_step(True, flow, 0.1, cfg, 60.0)
        assert flow == pytest.approx(cfg.pump_flow_Lpm, rel=0.01)

    def test_first_order_rise(self):
        cfg = ScenarioConfig()
        flow, load = pump_dynamics_step(True, 0.0, 0.05, cfg, 60.0)
        assert 0.0 < flow < cfg.pump_flow_Lpm
        assert load == pytest.approx(60.0 * flow / cfg.pump_flow_Lpm)

    def test_off_decays_to_zero(self):
        cfg = ScenarioConfig()
        flow = cfg.pump_flow_Lpm
        for _ in range(200):
            flow, _ = pump_dynamics_step(False, flow, 0.1, cfg)
        assert flow == pytest.approx(0.0, abs=1e-6)


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


class TestScenarioRun:
    def test_water_conservation(self, daylight_run):
        cfg, trace, _ = daylight_run
        t1 = trace.tank1_level_pct / 100.0 * cfg.tank1_volume_L
        t2 = trace.tank2_level_pct / 100.0 * cfg.tank2_volume_L
        total = t1 + t2 + trace.delivered_soil_L
        assert np.abs(np.diff(total)).max() < 1e-9
        assert abs(total[-1] - total[0]) < 1e-6

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
            assert np.array_equal(t1.column(name), t2.column(name))
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
