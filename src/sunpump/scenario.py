"""
Discrete-time whole-system scenario engine.

The system is a cascade with no feedback between its stages, so a run
is four feed-forward passes over the steps ``t = k * dt``: the
irradiance and sun profiles, interpolated at once; the LDR tracker
(``tracking_sim``) along the sun path; the MPPT law (``mppt_run``) on
the lit steps at the effective irradiance, with the converter duty of
every lit step from one ``duty_for_ratio`` call; and a forward-Euler
hydraulics and battery stage (``_hydraulics``) in which harvested energy
integrates into a battery state of charge and two hysteresis-latched
pumps move water from the storage tank to the reservoir tank and from
the reservoir to the soil.  Its scalar step keeps the state in plain
floats and bools: the latches follow ``control_logic_step``, and each
pump flow follows its first-order law exactly over a step, by one decay
factor computed once per run.  Once both flows sit exactly at their
targets, every increment of a step is fixed or known ahead, so settled
stretches run as numpy blocks: the tanks, delivered water, soil and SOC
are running sums (``np.add.accumulate`` adds left to right, as the step
does) or constant while pinned at a clamp, and a block stops at the
first step that changes a latch, the relay or a flow target, or at which
a clamp engages or releases.  That step runs alone, so the trace is the
scalar step's bit for bit.

Water bookkeeping is exact: every liter leaving a tank lands in the
other tank or in the delivered-to-soil ledger, so conservation holds to
floating-point accumulation error.  So is the energy ledger: harvested
= pump load + change in stored energy + curtailed (cut off by the SOC
clamp at 100 %) - deficit (made up by the clamp at 0 %).
"""

from collections.abc import Sequence
from dataclasses import dataclass, fields
import math
from numbers import Real

import numpy as np

from . import mppt, pv
from .solar import TrackerOrientation
from .tracking import tracking_sim


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
    # the energy ledger: harvested = load + stored change + curtailed
    # - deficit, to floating-point accumulation error
    energy_load_Wh: float        # drawn by the pumps
    energy_curtailed_Wh: float   # cut off by the SOC clamp at 100 %
    energy_deficit_Wh: float     # made up by the SOC clamp at 0 %


# A settled stretch runs as numpy blocks of this many steps at first,
# doubling after each block that runs to its end, up to the maximum.
_BLOCK_MIN = 64
_BLOCK_MAX = 4096


def _hydraulics(cfg, pv_power):
    """
    Relays, pump flows, water and battery over the run, at PV power
    ``pv_power[k]`` in step k.

    Each pump flow follows its first-order law toward rated flow or zero
    exactly over a step, by one decay factor, with the load in proportion
    to the flow.  While both flows sit exactly at their targets, the
    steps run as numpy blocks (:meth:`_Hydraulics.block`) up to the
    first step that changes a latch, the relay or a flow target, or at
    which a clamp engages or releases; that step, and every step whose
    flows have not settled, runs alone (:meth:`_Hydraulics.step`).

    Returns
    -------
    (columns, totals): the eight hydraulic trace columns by
    :class:`SimTrace` field name, and the final SOC, the water delivered
    and the energy ledger by :class:`ScenarioSummary` field name.
    """
    n = len(pv_power)
    h = _Hydraulics(cfg, n)
    size = _BLOCK_MIN
    k = 0
    while k < n:
        if h.flow1 == h.target1 and h.flow2 == h.target2:
            stop = min(k + size, n)
            k += h.block(k, pv_power[k:stop])
            if k == stop:
                size = min(2 * size, _BLOCK_MAX)
                continue
            size = _BLOCK_MIN
        h.step(k, pv_power.item(k))
        k += 1
    harvested_Ws = 0.0
    for k in range(0, n, _BLOCK_MAX):
        harvested_Ws = _partial_sums(
            harvested_Ws, pv_power[k:k + _BLOCK_MAX] * cfg.dt_s).item(-1)
    capacity_Wh = cfg.battery_capacity_Wh
    return h.columns, dict(
        final_soc_pct=h.soc, water_delivered_L=h.delivered,
        energy_harvested_Wh=harvested_Ws / 3600.0,
        energy_load_Wh=h.load_Ws / 3600.0,
        energy_curtailed_Wh=h.curtailed_pct / 100.0 * capacity_Wh,
        energy_deficit_Wh=h.deficit_pct / 100.0 * capacity_Wh)


class _Hydraulics:
    """The hydraulic and battery state between steps, as plain floats
    and bools, and the trace columns written so far."""

    def __init__(self, cfg, n_steps):
        self.cfg = cfg
        self.decay = math.exp(-cfg.dt_s / cfg.pump_tau_s)
        self.soil_decay = cfg.soil_decay_pct_per_hr / 3600.0 * cfg.dt_s
        self.soc = cfg.soc_init_pct
        self.soil = cfg.soil_init_pct
        self.tank1 = cfg.tank1_init_pct / 100.0 * cfg.tank1_volume_L
        self.tank2 = cfg.tank2_init_pct / 100.0 * cfg.tank2_volume_L
        self.tank2_pct = 100.0 * self.tank2 / cfg.tank2_volume_L
        self.delivered = 0.0
        self.pump1 = self.pump2 = False
        self.relay = True
        self.flow1 = self.flow2 = self.target1 = self.target2 = 0.0
        self.load_Ws = self.curtailed_pct = self.deficit_pct = 0.0
        self.columns = {name: np.zeros(n_steps) for name in (
            "soc_pct", "pump1_on", "pump2_on", "tank2_level_pct",
            "soil_moisture_pct", "battery_relay", "tank1_level_pct",
            "delivered_soil_L")}

    def step(self, k, power):
        """Advance one step at PV power ``power`` and write row k."""
        cfg = self.cfg
        dt = cfg.dt_s
        rated = cfg.pump_flow_Lpm
        pump1, pump2, relay = control_logic_step(
            self.pump1, self.pump2, self.tank2_pct, self.soil, self.soc, cfg)
        tank1, tank2 = self.tank1, self.tank2
        # the battery relay and an empty source tank both stop the
        # physical flow (the latches are untouched)
        target1 = rated if pump1 and relay and tank1 > 1e-9 else 0.0
        flow1 = target1 + (self.flow1 - target1) * self.decay
        target2 = rated if pump2 and relay and tank2 > 1e-9 else 0.0
        flow2 = target2 + (self.flow2 - target2) * self.decay
        load = cfg.pump1_power_W * flow1 / rated \
            + cfg.pump2_power_W * flow2 / rated

        # water movement: tank1 -> tank2 -> soil, exactly ledgered
        move1 = max(0.0, min(flow1 / 60.0 * dt, tank1,
                             cfg.tank2_volume_L - tank2))
        tank1 -= move1
        tank2 += move1
        move2 = max(0.0, min(flow2 / 60.0 * dt, tank2))
        tank2 -= move2
        soil = min(100.0, max(0.0, self.soil + cfg.soil_gain_pct_per_L
                              * move2 - self.soil_decay))

        # battery energy balance; the clamps' cuts go to the ledger
        soc = self.soc + (power - load) * dt / 3600.0 \
            / cfg.battery_capacity_Wh * 100.0
        if soc > 100.0:
            self.curtailed_pct += soc - 100.0
        elif soc < 0.0:
            self.deficit_pct -= soc
        soc = min(100.0, max(0.0, soc))
        self.load_Ws += load * dt

        self.pump1, self.pump2, self.relay = pump1, pump2, relay
        self.target1, self.flow1 = target1, flow1
        self.target2, self.flow2 = target2, flow2
        self.tank1, self.tank2 = tank1, tank2
        self.tank2_pct = 100.0 * tank2 / cfg.tank2_volume_L
        self.delivered += move2
        self.soil, self.soc = soil, soc
        col = self.columns
        col["soc_pct"][k] = soc
        col["pump1_on"][k] = pump1
        col["pump2_on"][k] = pump2
        col["tank2_level_pct"][k] = self.tank2_pct
        col["soil_moisture_pct"][k] = soil
        col["battery_relay"][k] = relay
        col["tank1_level_pct"][k] = 100.0 * tank1 / cfg.tank1_volume_L
        col["delivered_soil_L"][k] = self.delivered

    def block(self, k, power):
        """
        Run steps k, k + 1, ... at the PV powers ``power`` with both
        flows at their targets, as numpy arrays in :meth:`step`'s
        operation order: each state is a running sum, which
        ``np.add.accumulate`` adds left to right as the step does, and a
        state pinned at a clamp is constant.  Write the leading steps
        that :meth:`step` would take alike, which are bit for bit its
        steps, and return their count: the block stops at the first step
        that changes a latch, the relay or a flow target, or whose clamp
        engages or releases.
        """
        cfg = self.cfg
        dt = cfg.dt_s
        n = len(power)
        rated = cfg.pump_flow_Lpm
        load = cfg.pump1_power_W * self.flow1 / rated \
            + cfg.pump2_power_W * self.flow2 / rated
        move1 = self.flow1 / 60.0 * dt
        move2 = self.flow2 / 60.0 * dt
        with np.errstate(all="ignore"):
            # tank1 before and after each step; tank2 before each step,
            # between its two moves, and after it
            tank1 = _partial_sums(self.tank1, np.full(n, -move1))
            tank2 = _partial_sums(self.tank2, np.tile([move1, -move2], n))
            tank2_pct = 100.0 * tank2[::2] / cfg.tank2_volume_L
            delivered = _partial_sums(self.delivered, np.full(n, move2))
            soil, ok, _ = _clamped(self.soil, np.tile(
                [cfg.soil_gain_pct_per_L * move2, -self.soil_decay], (n, 1)))
            soc, soc_ok, cut = _clamped(self.soc, (
                (power - load) * dt / 3600.0 / cfg.battery_capacity_Wh
                * 100.0)[:, None])
            ok &= soc_ok
            soc_before = np.concatenate(([self.soc], soc[:-1]))
            ok &= (soc_before >= cfg.battery_min_soc_pct) == self.relay
            ok &= _latch_holds(self.pump1, tank2_pct[:-1], cfg.tank_low_pct,
                               cfg.tank_full_pct)
            ok &= _latch_holds(self.pump2,
                               np.concatenate(([self.soil], soil[:-1])),
                               cfg.soil_dry_pct, cfg.soil_wet_pct)
            # flow gates: a tank running dry turns its pump's target off
            if self.pump1 and self.relay:
                ok &= (tank1[:-1] > 1e-9) == (self.target1 != 0.0)
            if self.pump2 and self.relay:
                ok &= (tank2[:-1:2] > 1e-9) == (self.target2 != 0.0)
            # moves the tank1, tank2-capacity and tank2 clamps leave whole
            if move1 != 0.0:
                ok &= (move1 <= tank1[:-1]) \
                    & (move1 <= cfg.tank2_volume_L - tank2[:-1:2])
            if move2 != 0.0:
                ok &= move2 <= tank2[1::2]
            bad = np.flatnonzero(~ok)
            c = int(bad[0]) if bad.size else n
            if c == 0:
                return 0
            col = self.columns
            span = slice(k, k + c)
            col["soc_pct"][span] = soc[:c]
            col["pump1_on"][span] = self.pump1
            col["pump2_on"][span] = self.pump2
            col["tank2_level_pct"][span] = tank2_pct[1:c + 1]
            col["soil_moisture_pct"][span] = soil[:c]
            col["battery_relay"][span] = self.relay
            col["tank1_level_pct"][span] = \
                100.0 * tank1[1:c + 1] / cfg.tank1_volume_L
            col["delivered_soil_L"][span] = delivered[1:c + 1]
            self.soc, self.soil = soc.item(c - 1), soil.item(c - 1)
            self.tank1, self.tank2 = tank1.item(c), tank2.item(2 * c)
            self.tank2_pct = tank2_pct.item(c)
            self.delivered = delivered.item(c)
            self.load_Ws = _partial_sums(self.load_Ws,
                                         np.full(c, load * dt)).item(-1)
            self.curtailed_pct = _partial_sums(
                self.curtailed_pct, np.maximum(cut[:c], 0.0)).item(-1)
            self.deficit_pct = _partial_sums(
                self.deficit_pct, np.maximum(-cut[:c], 0.0)).item(-1)
        return c


def _partial_sums(x, d):
    """``x``, ``x + d[0]``, ``x + d[0] + d[1]``, ...: added left to
    right, as a loop adds them."""
    return np.add.accumulate(np.concatenate(([x], d)))


def _clamped(x, d):
    """
    A state that each step moves to ``min(100.0, max(0.0, x + d0 + d1
    ...))``, over a block whose step j adds the row ``d[j]`` in order.

    Returns
    -------
    (after, ok, cut): the state after each step, which is the scalar
    step's bit for bit at each step where ``ok`` holds and at every step
    before it; and what the clamp cut off at each step, > 0 at 100 and
    < 0 at 0.
    """
    if x == 0.0 or x == 100.0:
        # pinned: the state stays at the bound while each step's sum
        # from it stays on the far side of it
        edge = 0.0 if x == 0.0 else 100.0
        raw = x
        for column in d.T:
            raw = raw + column
        ok = raw <= 0.0 if edge == 0.0 else raw >= 100.0
        return np.full(len(d), edge), ok, raw - edge
    raw = _partial_sums(x, d.ravel())[d.shape[1]::d.shape[1]]
    return raw, (raw > 0.0) & (raw <= 100.0), np.zeros(len(d))


def _latch_holds(on, level, low, high):
    """Where :func:`control_logic_step` leaves a latch that turns on
    below ``low`` and off at ``high`` (> low) as it is."""
    return level < high if on else level >= low


def run_scenario(cfg):
    """
    Run one scenario and return (SimTrace, ScenarioSummary).

    Passes: the profiles; the tracker, started aligned with the first
    sun point unless the config sets the start; MPPT and converter duty
    where the effective irradiance ``G cos(alpha)`` is positive; then
    relays, pump flows, water and battery (:func:`_hydraulics`).
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
    track = tracking_sim(sun_elev, sun_azi, motor_step_deg=cfg.motor_step_deg,
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

    # 4. hydraulics and battery
    columns, totals = _hydraulics(cfg, pv_power)

    trace = SimTrace(
        t=t, irradiance=irr, pv_power_W=pv_power, theta_TE=track.theta_TE,
        theta_TA=track.theta_TA, alpha=track.alpha, duty_D=duty, **columns)

    def cycles(flags):
        return int(np.sum(np.diff(flags) > 0))

    summary = ScenarioSummary(
        pump1_cycles=cycles(trace.pump1_on),
        pump2_cycles=cycles(trace.pump2_on),
        pump1_on_steps=int(trace.pump1_on.sum()),
        pump2_on_steps=int(trace.pump2_on.sum()),
        **totals)
    return trace, summary
