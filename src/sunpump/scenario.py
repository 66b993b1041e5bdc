"""
Discrete-time whole-system scenario engine.

The system is a cascade with no feedback between its stages, so a run
is four feed-forward passes over the steps ``t = k * dt``: the
irradiance and sun profiles, interpolated at once; the LDR tracker
(``tracking_sim``) along the sun path; the MPPT law (``mppt_run``) on
the lit steps at the effective irradiance, with the converter duty of
every lit step from one ``duty_for_ratio`` call; and one forward-Euler
loop in which harvested energy integrates into a battery state of charge
and two hysteresis-latched pumps move water from the storage tank to the
reservoir tank and from the reservoir to the soil.  That loop keeps its
state in plain floats and bools: the latches follow
``control_logic_step``, and each pump flow follows its first-order law
exactly over a step, by one decay factor computed once per run.

Water bookkeeping is exact: every liter leaving a tank lands in the
other tank or in the delivered-to-soil ledger, so conservation holds to
floating-point accumulation error.
"""

from collections.abc import Sequence
from dataclasses import dataclass, fields
import math
from numbers import Real

import numpy as np

from . import mppt, pv
from .solar import TrackerOrientation
from .tracking import TrackingThresholds, tracking_sim


BATTERY_BUS_V = 12.0

# longest run a config may ask for, in steps: checked before the trace
# columns are allocated (about 120 MB per million steps)
MAX_STEPS = 5_000_000


class ConfigError(ValueError):
    """Scenario configuration violates an invariant."""


@dataclass(frozen=True)
class ScenarioConfig:
    duration_s: float = 7200.0
    dt_s: float = 0.1
    # piecewise-linear breakpoints: (t_s, W/m2) and (t_s, elev_deg, azi_deg)
    irradiance_profile: tuple = ((0.0, 100.0), (1200.0, 400.0),
                                 (3600.0, 950.0), (5400.0, 850.0),
                                 (7200.0, 60.0))
    sun_path: tuple = ((0.0, 30.0, 95.0), (3600.0, 60.0, 180.0),
                       (7200.0, 30.0, 265.0))
    battery_capacity_Wh: float = 60.0
    soc_init_pct: float = 30.0
    battery_min_soc_pct: float = 10.0
    tank1_volume_L: float = 39.5
    tank2_volume_L: float = 39.5
    tank1_init_pct: float = 95.0
    tank2_init_pct: float = 21.0
    soil_init_pct: float = 34.0
    pump_flow_Lpm: float = 5.0
    pump_tau_s: float = 0.1
    pump1_power_W: float = 80.0
    pump2_power_W: float = 20.0
    tank_low_pct: float = 20.0
    tank_full_pct: float = 90.0
    soil_dry_pct: float = 30.0
    soil_wet_pct: float = 70.0
    soil_gain_pct_per_L: float = 2.0
    soil_decay_pct_per_hr: float = 1.0
    mppt_algo: str = "po"
    mppt_dv_step: float = 0.5
    motor_step_deg: float = 1.8
    tracker_init_elev: float = None   # default: aligned with first sun point
    tracker_init_azi: float = None

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is float and v is not None and not (
                    isinstance(v, Real) and math.isfinite(v)):
                raise ConfigError(f"{f.name} = {v!r} is not a finite number")
        if self.dt_s <= 0:
            raise ConfigError("dt_s must be > 0")
        if self.duration_s < self.dt_s:
            raise ConfigError("duration_s must cover at least one step")
        # the run takes round(duration_s / dt_s) steps, so the ratio must
        # be whole for them to cover duration_s
        steps = self.duration_s / self.dt_s
        if steps > MAX_STEPS + 0.5:
            raise ConfigError(
                f"duration_s / dt_s asks for more than {MAX_STEPS} steps")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(
                f"duration_s / dt_s = {steps:.12g} is not a whole number "
                "of steps")
        for name in ("soc_init_pct", "tank1_init_pct", "tank2_init_pct",
                     "soil_init_pct", "tank_low_pct", "tank_full_pct",
                     "soil_dry_pct", "soil_wet_pct", "battery_min_soc_pct"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ConfigError(f"{name} = {v} outside [0, 100]")
        if self.tank_low_pct >= self.tank_full_pct:
            raise ConfigError("tank_low_pct must be below tank_full_pct")
        if self.soil_dry_pct >= self.soil_wet_pct:
            raise ConfigError("soil_dry_pct must be below soil_wet_pct")
        for name in ("battery_capacity_Wh", "tank1_volume_L",
                     "tank2_volume_L", "pump_flow_Lpm", "pump_tau_s",
                     "mppt_dv_step", "motor_step_deg"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("pump1_power_W", "pump2_power_W",
                     "soil_gain_pct_per_L", "soil_decay_pct_per_hr"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.mppt_algo not in ("po", "ic"):
            raise ConfigError("mppt_algo must be 'po' or 'ic'")
        for prof, width in (("irradiance_profile", 2), ("sun_path", 3)):
            pts = getattr(self, prof)
            if not isinstance(pts, Sequence) or len(pts) == 0:
                raise ConfigError(f"{prof} must be a nonempty sequence")
            if not all(isinstance(p, Sequence) and len(p) == width
                       for p in pts):
                raise ConfigError(
                    f"{prof} rows must be sequences of {width} entries")
            if not all(isinstance(x, Real) and math.isfinite(x)
                       for p in pts for x in p):
                raise ConfigError(f"{prof} entries must be finite numbers")
            times = [p[0] for p in pts]
            if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
                raise ConfigError(f"{prof} breakpoints must be ascending")
        if any(p[1] < 0.0 for p in self.irradiance_profile):
            raise ConfigError("irradiance_profile values must be >= 0")
        if any(not -90.0 <= p[1] <= 90.0 for p in self.sun_path):
            raise ConfigError("sun_path elevations must lie in [-90, 90]")
        return self

    @classmethod
    def default_daylight(cls):
        """
        Two-simulated-hour reference scenario: morning ramp, noon
        plateau, evening fade.  Tuned so the charge trace shows the
        canonical event order: an initial rise, a dissipation phase
        opening exactly when the tank pump latches on, and a second
        dissipation phase when the soil pump wakes again after dusk.
        """
        return cls(soil_gain_pct_per_L=5.0, soil_decay_pct_per_hr=22.5)


def control_logic_step(pump1, pump2, tank2_pct, soil_pct, soc_pct, cfg):
    """
    Relay latches: pump1 turns on below the tank-low threshold and off at
    tank-full; pump2 turns on below soil-dry and off at soil-wet; the
    battery relay opens below the brown-out SOC and gates both pumps'
    actual flow (the pump latches themselves only follow their level
    thresholds).

    Returns
    -------
    (pump1, pump2, battery_relay): the latches after this step.
    """
    if tank2_pct < cfg.tank_low_pct:
        pump1 = True
    elif tank2_pct >= cfg.tank_full_pct:
        pump1 = False
    if soil_pct < cfg.soil_dry_pct:
        pump2 = True
    elif soil_pct >= cfg.soil_wet_pct:
        pump2 = False
    return pump1, pump2, soc_pct >= cfg.battery_min_soc_pct


def _profile_columns(pts, t):
    """Every value column of a breakpoint profile, interpolated at t."""
    pts = np.asarray(pts, dtype=float)
    return [np.interp(t, pts[:, 0], pts[:, c])
            for c in range(1, pts.shape[1])]


@dataclass
class SimTrace:
    """Column-oriented scenario output."""

    t: np.ndarray
    irradiance: np.ndarray
    pv_power_W: np.ndarray
    soc_pct: np.ndarray
    pump1_on: np.ndarray
    pump2_on: np.ndarray
    tank2_level_pct: np.ndarray
    soil_moisture_pct: np.ndarray
    theta_TE: np.ndarray
    theta_TA: np.ndarray
    alpha: np.ndarray
    battery_relay: np.ndarray
    tank1_level_pct: np.ndarray
    delivered_soil_L: np.ndarray
    duty_D: np.ndarray

    def __len__(self):
        return len(self.t)


# the trace CSV columns, in field order
SimTrace.COLUMNS = tuple(f.name for f in fields(SimTrace))


@dataclass(frozen=True)
class ScenarioSummary:
    final_soc_pct: float
    pump1_cycles: int
    pump2_cycles: int
    pump1_on_steps: int
    pump2_on_steps: int
    water_delivered_L: float
    energy_harvested_Wh: float


def run_scenario(cfg):
    """
    Run one scenario and return (SimTrace, ScenarioSummary).

    Passes: the profiles; the tracker, started aligned with the first
    sun point unless the config sets the start; MPPT and converter duty
    where the effective irradiance ``G cos(alpha)`` is positive; then
    relays, pump flows, water and battery, step by step.
    """
    cfg.validate()
    n_steps = int(round(cfg.duration_s / cfg.dt_s))
    dt = cfg.dt_s

    # 1. profiles
    t = np.arange(n_steps) * dt
    (irr,) = _profile_columns(cfg.irradiance_profile, t)
    sun_elev, sun_azi = _profile_columns(cfg.sun_path, t)

    # 2. tracker, started aligned with the first sun point by default
    init_te = cfg.tracker_init_elev
    init_ta = cfg.tracker_init_azi
    orientation0 = TrackerOrientation(
        float(sun_elev[0]) if init_te is None else init_te,
        float(sun_azi[0]) if init_ta is None else init_ta)
    track = tracking_sim(sun_elev, sun_azi, TrackingThresholds(),
                         motor_step_deg=cfg.motor_step_deg,
                         irradiance=irr, start=orientation0)
    eff_irr = irr * np.maximum(0.0, np.cos(np.radians(track.alpha)))

    # 3. harvest on the lit steps; the converter duty is the boost law
    # 1 - V_bus/V_ref for the 12 V battery bus, clamped to [0, 0.95]
    pv_power = np.zeros(n_steps)
    duty = np.zeros(n_steps)
    lit = np.flatnonzero(eff_irr > 0.0)
    if lit.size:
        base_array = pv.default_array(1000.0)
        st0 = mppt.initial_state(0.8 * pv.open_circuit_voltage(base_array),
                                 cfg.mppt_dv_step)
        harvest = mppt.mppt_run(base_array, cfg.mppt_algo, st0, lit.size,
                                irradiance=eff_irr[lit])
        p = harvest.p
        pv_power[lit] = np.where(p > 0.0, p, 0.0)
        duty[lit] = mppt.duty_for_ratio(harvest.v_ref, BATTERY_BUS_V)

    # 4. hydraulics and battery, over plain floats: relays, pump flows
    # (first order toward rated flow or zero, advanced exactly over dt,
    # with the load in proportion to the flow), water and charge
    soc = cfg.soc_init_pct
    soil = cfg.soil_init_pct
    tank1 = cfg.tank1_init_pct / 100.0 * cfg.tank1_volume_L
    tank2 = cfg.tank2_init_pct / 100.0 * cfg.tank2_volume_L
    delivered = flow1 = flow2 = 0.0
    pump1 = pump2 = False
    tank1_cap, tank2_cap = cfg.tank1_volume_L, cfg.tank2_volume_L
    rated = cfg.pump_flow_Lpm
    power1, power2 = cfg.pump1_power_W, cfg.pump2_power_W
    decay = math.exp(-dt / cfg.pump_tau_s)
    soil_gain = cfg.soil_gain_pct_per_L
    soil_decay_per_s = cfg.soil_decay_pct_per_hr / 3600.0
    capacity_Wh = cfg.battery_capacity_Wh
    energy_harvested_Ws = 0.0
    tank2_pct = 100.0 * tank2 / tank2_cap
    (soc_col, pump1_col, pump2_col, tank2_col, soil_col, relay_col,
     tank1_col, delivered_col) = (np.zeros(n_steps) for _ in range(8))

    for k, power in enumerate(pv_power.tolist()):
        pump1, pump2, relay = control_logic_step(pump1, pump2, tank2_pct,
                                                 soil, soc, cfg)
        # the battery relay and an empty source tank both stop the
        # physical flow (the latches are untouched)
        target = rated if pump1 and relay and tank1 > 1e-9 else 0.0
        flow1 = target + (flow1 - target) * decay
        target = rated if pump2 and relay and tank2 > 1e-9 else 0.0
        flow2 = target + (flow2 - target) * decay
        load = power1 * flow1 / rated + power2 * flow2 / rated

        # water movement: tank1 -> tank2 -> soil, exactly ledgered
        move1 = max(0.0, min(flow1 / 60.0 * dt, tank1, tank2_cap - tank2))
        tank1 -= move1
        tank2 += move1
        move2 = max(0.0, min(flow2 / 60.0 * dt, tank2))
        tank2 -= move2
        delivered += move2
        soil = min(100.0, max(0.0, soil + soil_gain * move2
                              - soil_decay_per_s * dt))

        # battery energy balance
        energy_harvested_Ws += power * dt
        soc = min(100.0, max(0.0, soc + (power - load) * dt / 3600.0
                             / capacity_Wh * 100.0))

        tank2_pct = 100.0 * tank2 / tank2_cap
        soc_col[k] = soc
        pump1_col[k] = pump1
        pump2_col[k] = pump2
        tank2_col[k] = tank2_pct
        soil_col[k] = soil
        relay_col[k] = relay
        tank1_col[k] = 100.0 * tank1 / tank1_cap
        delivered_col[k] = delivered

    trace = SimTrace(
        t=t, irradiance=irr, pv_power_W=pv_power, soc_pct=soc_col,
        pump1_on=pump1_col, pump2_on=pump2_col, tank2_level_pct=tank2_col,
        soil_moisture_pct=soil_col, theta_TE=track.theta_TE,
        theta_TA=track.theta_TA, alpha=track.alpha, battery_relay=relay_col,
        tank1_level_pct=tank1_col, delivered_soil_L=delivered_col,
        duty_D=duty)

    def cycles(flags):
        return int(np.sum(np.diff(flags) > 0))

    summary = ScenarioSummary(
        final_soc_pct=soc,
        pump1_cycles=cycles(trace.pump1_on),
        pump2_cycles=cycles(trace.pump2_on),
        pump1_on_steps=int(trace.pump1_on.sum()),
        pump2_on_steps=int(trace.pump2_on.sum()),
        water_delivered_L=delivered,
        energy_harvested_Wh=energy_harvested_Ws / 3600.0,
    )
    return trace, summary
