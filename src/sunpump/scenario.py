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
the reservoir to the soil.  Its law (``_Hydraulics.law``) is written
once, on floats or arrays: the latches follow ``control_logic_step``,
and each pump flow follows its first-order law exactly over a step, by
one decay factor computed once per run.  The scalar step runs it on
plain floats and bools and returns the latches and flows.  Once they
repeat (``blocks.run``), both flows sit at a fixed point of their step,
so a block predicts its steps: the latches and flows stay, and the
tanks, soil and SOC are running sums (``np.add.accumulate`` adds left
to right, as the step does) or constant while pinned at a clamp.  The
law runs over them as arrays, the scalar step's trace bit for bit.

Water bookkeeping is exact: every liter leaving a tank lands in the
other tank or in the delivered-to-soil ledger, so conservation holds to
floating-point accumulation error.  So is the energy ledger: harvested
= pump load + change in stored energy + curtailed (cut off by the SOC
clamp at 100 %) - deficit (made up by the clamp at 0 %).

A :class:`ScenarioConfig` checks itself when it is built, by
``dataclasses.replace`` too, so a config that exists is valid; a
profile is any 2-D array-like of numbers, kept as float tuples.
"""

from dataclasses import dataclass, fields
import math

import numpy as np

from . import blocks, mppt, pv
from .config import ConfigError
from .ranges import MAX_STEPS, PROFILES, RANGES, check
from .solar import TrackerOrientation
from .tracking import tracking_sim


BATTERY_BUS_V = 12.0


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

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise :class:`ConfigError` at the first bad input; return self."""
        for key in RANGES:
            # a profile column is checked below, and a tracker start may
            # be left unset
            if hasattr(self, key) and not (
                    key.startswith("tracker_init_")
                    and getattr(self, key) is None):
                check(key, getattr(self, key), ConfigError)
        # the run takes round(duration_s / dt_s) steps, so the ratio must
        # be whole for them to cover duration_s
        steps = self.duration_s / self.dt_s
        if not 1.0 <= steps <= MAX_STEPS + 0.5:
            raise ConfigError(f"duration_s / dt_s = {steps:.12g} steps, "
                              f"outside [1, {MAX_STEPS}]")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(
                f"duration_s / dt_s = {steps:.12g} is not a whole number "
                "of steps")
        if self.tank_low_pct >= self.tank_full_pct:
            raise ConfigError("tank_low_pct must be below tank_full_pct")
        if self.soil_dry_pct >= self.soil_wet_pct:
            raise ConfigError("soil_dry_pct must be below soil_wet_pct")
        if self.mppt_algo not in ("po", "ic"):
            raise ConfigError("mppt_algo must be 'po' or 'ic'")
        for prof, columns in PROFILES.items():
            try:
                table = np.array(rows := getattr(self, prof))
            except ValueError:      # ragged rows: refused below
                table = np.empty(0)
            if not (table.ndim == 2 and len(table)
                    and table.shape[1] == len(columns)
                    and table.dtype.kind in "biuf"):
                raise ConfigError(f"{prof} must be a nonempty sequence of "
                                  f"rows of {len(columns)} numbers")
            for key, column in zip(columns, table.T):
                check(key, column, ConfigError, f"{prof} ")
            if (table[1:, 0] <= table[:-1, 0]).any():
                raise ConfigError(f"{prof} breakpoints must be ascending")
            # float tuples (a file's) are kept: a copy moves clouds' peak RSS
            if {type(rows), *map(type, rows)} != {tuple} or {
                    type(v) for row in rows for v in row} != {float}:
                object.__setattr__(self, prof, tuple(
                    map(tuple, table.astype(float).tolist())))
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
    Relay latches, on floats or arrays: pump1 turns on below the tank-low
    threshold and off at tank-full; pump2 turns on below soil-dry and off
    at soil-wet; the battery relay opens below the brown-out SOC and
    gates both pumps' actual flow (the pump latches themselves only
    follow their level thresholds).

    Returns
    -------
    (pump1, pump2, battery_relay): the latches after this step, bools on
    floats.
    """
    return ((tank2_pct < cfg.tank_low_pct)
            | (pump1 & (tank2_pct < cfg.tank_full_pct)),
            (soil_pct < cfg.soil_dry_pct)
            | (pump2 & (soil_pct < cfg.soil_wet_pct)),
            soc_pct >= cfg.battery_min_soc_pct)


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


# the first block's size (``blocks.run``)
_BLOCK_MIN = 64


def _hydraulics(cfg, pv_power):
    """
    Relays, pump flows, water and battery over the run, at PV power
    ``pv_power[k]`` in step k.

    Each pump flow follows its first-order law toward rated flow or zero
    exactly over a step, by one decay factor, with the load in proportion
    to the flow.  While the latches and flows hold, the steps run as
    checked numpy blocks (:meth:`_Hydraulics.block`), and every other
    step runs alone (:meth:`_Hydraulics.step`).

    Returns
    -------
    (columns, totals): the eight hydraulic trace columns by
    :class:`SimTrace` field name, and the final SOC, the water delivered
    and the energy ledger by :class:`ScenarioSummary` field name.
    """
    n = len(pv_power)
    h = _Hydraulics(cfg, n)
    blocks.run(n, _BLOCK_MIN, lambda k: h.step(k, pv_power.item(k)),
               lambda k, m, _: h.block(k, pv_power[k:k + m]))
    capacity_Wh = cfg.battery_capacity_Wh
    return h.columns, dict(
        final_soc_pct=h.soc, water_delivered_L=h.delivered,
        energy_harvested_Wh=h.harvested_Ws / 3600.0,
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
        self.delivered = 0.0
        self.pump1 = self.pump2 = False
        self.relay = True
        self.flow1 = self.flow2 = 0.0
        self.harvested_Ws = self.load_Ws = 0.0
        self.curtailed_pct = self.deficit_pct = 0.0
        self.columns = {name: np.zeros(n_steps) for name in (
            "soc_pct", "pump1_on", "pump2_on", "tank2_level_pct",
            "soil_moisture_pct", "battery_relay", "tank1_level_pct",
            "delivered_soil_L")}

    def law(self, pump1, pump2, flow1, flow2, tank1, tank2, soil, soc, power,
            ops):
        """
        One step from the given state at PV power ``power``, on floats
        (``ops`` is ``blocks.FLOATS``) or arrays (``blocks.ARRAYS``).
        Each ``min`` and ``max`` is spelled as a comparison and a
        ``where``, so both forms break a tie of 0.0 and -0.0 alike.

        Returns
        -------
        (pump1, pump2, battery relay, flow1, flow2, tank1 L, tank2 L,
        soil %, SOC %, load W, L moved to the soil, SOC % before its
        clamp): the state after the step, then what the ledgers take.
        """
        cfg = self.cfg
        dt = cfg.dt_s
        rated = cfg.pump_flow_Lpm
        pump1, pump2, relay = control_logic_step(
            pump1, pump2, 100.0 * tank2 / cfg.tank2_volume_L, soil, soc, cfg)
        # the battery relay and an empty source tank both stop the
        # physical flow (the latches are untouched)
        target1 = ops.where(pump1 & relay & (tank1 > 1e-9), rated, 0.0)
        flow1 = target1 + (flow1 - target1) * self.decay
        target2 = ops.where(pump2 & relay & (tank2 > 1e-9), rated, 0.0)
        flow2 = target2 + (flow2 - target2) * self.decay
        load = cfg.pump1_power_W * flow1 / rated \
            + cfg.pump2_power_W * flow2 / rated

        # water movement: tank1 -> tank2 -> soil, exactly ledgered; a
        # move is cut to what its source holds and tank2 has room for
        move1 = flow1 / 60.0 * dt
        move1 = ops.where(tank1 < move1, tank1, move1)
        room = cfg.tank2_volume_L - tank2
        move1 = ops.where(room < move1, room, move1)
        move1 = ops.where(move1 > 0.0, move1, 0.0)
        tank1 = tank1 - move1
        tank2 = tank2 + move1
        move2 = flow2 / 60.0 * dt
        move2 = ops.where(tank2 < move2, tank2, move2)
        move2 = ops.where(move2 > 0.0, move2, 0.0)
        tank2 = tank2 - move2
        soil = _percent(soil + cfg.soil_gain_pct_per_L * move2
                        - self.soil_decay, ops)

        # battery energy balance; the clamps' cuts go to the ledger
        raw = soc + (power - load) * dt / 3600.0 \
            / cfg.battery_capacity_Wh * 100.0
        return (pump1, pump2, relay, flow1, flow2, tank1, tank2, soil,
                _percent(raw, ops), load, move2, raw)

    def step(self, k, power):
        """Run step k at PV power ``power``; return the latches and flows."""
        cfg = self.cfg
        (self.pump1, self.pump2, self.relay, self.flow1, self.flow2,
         self.tank1, self.tank2, self.soil, self.soc, load, move2,
         raw) = self.law(
            self.pump1, self.pump2, self.flow1, self.flow2, self.tank1,
            self.tank2, self.soil, self.soc, power, blocks.FLOATS)
        cut = raw - self.soc        # > 0 at the clamp at 100, < 0 at 0
        self.curtailed_pct += max(cut, 0.0)
        self.deficit_pct += max(-cut, 0.0)
        self.harvested_Ws += power * cfg.dt_s
        self.load_Ws += load * cfg.dt_s
        self.delivered += move2
        self._write(k, self.tank1, self.tank2, self.soil, self.soc,
                    self.delivered)
        return self.pump1, self.pump2, self.relay, self.flow1, self.flow2

    def _write(self, rows, tank1, tank2, soil, soc, delivered):
        """Write the trace rows ``rows``, at the latches and relay held
        now."""
        cfg = self.cfg
        col = self.columns
        col["soc_pct"][rows] = soc
        col["pump1_on"][rows] = self.pump1
        col["pump2_on"][rows] = self.pump2
        col["tank2_level_pct"][rows] = 100.0 * tank2 / cfg.tank2_volume_L
        col["soil_moisture_pct"][rows] = soil
        col["battery_relay"][rows] = self.relay
        col["tank1_level_pct"][rows] = 100.0 * tank1 / cfg.tank1_volume_L
        col["delivered_soil_L"][rows] = delivered

    def block(self, k, power):
        """
        Run steps k, k + 1, ... at the PV powers ``power`` as a block of
        predicted states (module docstring) that :meth:`law` checks as
        arrays.  Write the leading steps that match the prediction bit
        for bit, :meth:`step`'s bit for bit, and return what
        ``blocks.run`` takes: their count, whether a miss stopped the
        block, and the latches and flows they held, at most 8 copies.
        """
        cfg = self.cfg
        rated = cfg.pump_flow_Lpm
        dt = cfg.dt_s
        n = len(power)
        settled_load = cfg.pump1_power_W * self.flow1 / rated \
            + cfg.pump2_power_W * self.flow2 / rated
        move1 = self.flow1 / 60.0 * dt
        move2 = self.flow2 / 60.0 * dt
        with np.errstate(all="ignore"):
            # the tanks, soil and SOC before each step and after the
            # last one
            ahead = np.empty((4, n + 1))
            ahead[0] = _partial_sums(self.tank1, np.full(n, -move1))
            ahead[1] = _partial_sums(self.tank2,
                                     np.tile([move1, -move2], n))[::2]
            ahead[2] = _predicted(self.soil, np.tile(
                [cfg.soil_gain_pct_per_L * move2, -self.soil_decay], (n, 1)))
            ahead[3] = _predicted(self.soc, ((power - settled_load) * dt
                                             / 3600.0 / cfg.battery_capacity_Wh
                                             * 100.0)[:, None])
            pump1, pump2, relay, *state, load, move2, raw = self.law(
                self.pump1, self.pump2, self.flow1, self.flow2,
                *ahead[:, :-1], power, blocks.ARRAYS)
            miss = (pump1 != self.pump1) | (pump2 != self.pump2) \
                | (relay != self.relay)
            for got, want in zip(state, (self.flow1, self.flow2,
                                         *ahead[:, 1:])):
                miss |= got.view(np.int64) != np.asarray(want).view(np.int64)
            bad = np.flatnonzero(miss)
            c = int(bad[0]) if bad.size else n
            if c == 0:
                return 0, True, []
            tank1, tank2, soil, soc = (x[:c] for x in state[2:])
            delivered = _partial_sums(self.delivered, move2[:c])
            self._write(slice(k, k + c), tank1, tank2, soil, soc,
                        delivered[1:])
            self.tank1, self.tank2 = tank1.item(-1), tank2.item(-1)
            self.soil, self.soc = soil.item(-1), soc.item(-1)
            self.delivered = delivered.item(-1)
            self.harvested_Ws = _partial_sums(self.harvested_Ws,
                                              power[:c] * dt).item(-1)
            self.load_Ws = _partial_sums(self.load_Ws,
                                         load[:c] * dt).item(-1)
            # what the SOC clamp cut off: > 0 at 100 and < 0 at 0
            cut = raw[:c] - soc
            self.curtailed_pct = _partial_sums(
                self.curtailed_pct, np.maximum(cut, 0.0)).item(-1)
            self.deficit_pct = _partial_sums(
                self.deficit_pct, np.maximum(-cut, 0.0)).item(-1)
        return c, c < n, [(self.pump1, self.pump2, self.relay, self.flow1,
                            self.flow2)] * min(c, 8)


def _percent(x, ops):
    """``min(100.0, max(0.0, x))``, on floats or arrays."""
    x = ops.where(x > 0.0, x, 0.0)
    return ops.where(x < 100.0, x, 100.0)


def _partial_sums(x, d):
    """``x``, ``x + d[0]``, ``x + d[0] + d[1]``, ...: added left to
    right, as a loop adds them."""
    return np.add.accumulate(np.concatenate(([x], d)))


def _predicted(x, d):
    """
    A state that each step moves to ``min(100.0, max(0.0, x + d0 + d1
    ...))``, predicted over a block whose step j adds the row ``d[j]``
    in order: before each step and after the last, a running sum, or
    ``x`` itself while pinned at 0 or 100.
    """
    if x == 0.0 or x == 100.0:
        return x
    return _partial_sums(x, d.ravel())[::d.shape[1]]


def run_scenario(cfg):
    """
    Run one scenario and return (SimTrace, ScenarioSummary).

    Passes: the profiles; the tracker, started aligned with the first
    sun point unless the config sets the start; MPPT and converter duty
    where the effective irradiance ``G cos(alpha)`` is positive; then
    relays, pump flows, water and battery (:func:`_hydraulics`).
    """
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

    # 3. harvest on the lit steps; the converter duty is 1 - V_bus/V_ref
    # for the 12 V bus (one minus the buck duty), clamped to [0, 0.95]
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
