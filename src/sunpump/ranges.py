"""
The closed range of every numeric input, and the one check against it.

A scenario config, ``tracking_sim``, ``MpptState``, ``SunPosition`` and
``pv.default_array`` each refuse a value outside its row here, with the
same message.
"""

from numbers import Real

import numpy as np


# the closed range (low, high, unit) of every numeric scenario input, by
# ScenarioConfig field or profile column (PROFILES), for the reason given
RANGES = {
    # a millisecond to an hour (a 1e307 s step read an infinite load)
    "dt_s": (1e-3, 3600.0, "s"),
    # one step of the shortest dt_s to MAX_STEPS steps of the longest
    "duration_s": (1e-3, 1.8e10, "s"),
    # a microliter, 1000 times the 1e-9 L flow gate, to a 1000 m3
    # cistern (at 1e308 L, 100 * level / volume overflowed)
    "tank1_volume_L": (1e-6, 1e6, "L"),
    "tank2_volume_L": (1e-6, 1e6, "L"),     # as tank1_volume_L
    # a step adds (power - load) * dt / capacity to the SOC percentage:
    # at 1e6 Wh one ulp of the SOC is 1.4e-10 Wh; at 1e14 Wh the harvest
    # rounds away, and at 1e-310 Wh the step overflows
    "battery_capacity_Wh": (1e-3, 1e6, "Wh"),
    "soc_init_pct": (0.0, 100.0, "%"),          # a share of the capacity
    "battery_min_soc_pct": (0.0, 100.0, "%"),   # a share of the capacity
    "tank1_init_pct": (0.0, 100.0, "%"),        # a share of the volume
    "tank2_init_pct": (0.0, 100.0, "%"),        # a share of the volume
    "soil_init_pct": (0.0, 100.0, "%"),         # a share of saturation
    # a sub-nanoliter trickle to a fire pump (1e308 L/min read inf load)
    "pump_flow_Lpm": (1e-9, 1e3, "L/min"),
    # a pump at rated flow within a millisecond, or within an hour
    "pump_tau_s": (1e-3, 3600.0, "s"),
    # an unpowered pump to 10 kW (a 1e308 W pump read an infinite load)
    "pump1_power_W": (0.0, 1e4, "W"),
    "pump2_power_W": (0.0, 1e4, "W"),       # as pump1_power_W
    "tank_low_pct": (0.0, 100.0, "%"),      # a share of the volume
    "tank_full_pct": (0.0, 100.0, "%"),     # a share of the volume
    "soil_dry_pct": (0.0, 100.0, "%"),      # a share of saturation
    "soil_wet_pct": (0.0, 100.0, "%"),      # a share of saturation
    # none to 10 mL saturating the soil, a seedling plug
    "soil_gain_pct_per_L": (0.0, 1e4, "%/L"),
    # none to saturated soil dried in 36 s, faster than any drainage
    "soil_decay_pct_per_hr": (0.0, 1e4, "%/h"),
    # a millivolt, finer than a 10-bit reading of the array voltage, to
    # twice its 23 V open-circuit voltage (at 1e308 V, V_ref overflowed)
    "mppt_dv_step": (1e-3, 50.0, "V"),
    # a 1/256 microstep to the elevation axis's whole 180 degree travel
    "motor_step_deg": (1e-3, 180.0, "deg"),
    # a turn either way: a park returns to a start outside the [0, 180]
    # travel too (a 1.8 degree step cannot move 1e20 degrees)
    "tracker_init_elev": (-360.0, 360.0, "deg"),
    # two turns either way, as the sun azimuth
    "tracker_init_azi": (-720.0, 720.0, "deg"),
    # the longest run, either side of t = 0 (interpolated from before it)
    "time": (-1.8e10, 1.8e10, "s"),
    # cloud edges lift ground irradiance briefly to about 1.8 kW/m2, over
    # the 1.36 kW/m2 solar constant (1e306 overflowed the LDR counts)
    "irradiance": (0.0, 2000.0, "W/m2"),
    "elevation": (-90.0, 90.0, "deg"),      # nadir to zenith
    # two turns either way: a sun path unwrapped over a day
    "azimuth": (-720.0, 720.0, "deg"),
}

# each breakpoint profile's columns, by their RANGES key
PROFILES = {"irradiance_profile": ("time", "irradiance"),
            "sun_path": ("time", "elevation", "azimuth")}


def check(key, x, error, where=""):
    """Raise ``error`` at the first value of ``x``, a scalar or a float
    array, that is not a real number inside ``RANGES[key]``."""
    low, high, unit = RANGES[key]
    bad = (x[~((x >= low) & (x <= high))] if isinstance(x, np.ndarray)
           else () if isinstance(x, Real) and low <= x <= high else (x,))
    if len(bad):
        raise error(
            f"{where}{key} = {bad[0]} outside [{low:g}, {high:g}] {unit}")
