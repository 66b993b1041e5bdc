"""
Seeded generator of the ``clouds`` scenario: a 24-hour day with passing
clouds, written as a ``key = value`` config file.

The day runs from midnight to midnight at dt = 2 s (43 200 steps).  The
sun path rises near 06:00 and sets near 18:00 and sits below the horizon
at night, so the tracker parks and PV/MPPT are skipped on about half of
the steps.  The irradiance profile carries about 1000 breakpoints: a
clear-sky bell times a two-state cloud attenuation whose dwell times are
drawn from the seed.  MPPT is Incremental Conductance and the reservoir
tank is small, so the pumps cycle often.

Only the standard library's ``random.Random`` is used, so a seed maps to
the same file on every platform and numpy version.
"""

import math
import random

DAY_S = 86400.0
DT_S = 2.0
SUN_POINTS = 97            # every 15 minutes, midnight to midnight
IRRADIANCE_POINTS = 1000


def _sun_elevation(t, rise, sett, peak):
    """Elevation in degrees: a sine arch by day, a dip to -peak/2 at night."""
    if rise <= t <= sett:
        return peak * math.sin(math.pi * (t - rise) / (sett - rise))
    night = DAY_S - (sett - rise)
    since_set = (t - sett) % DAY_S
    return -0.5 * peak * math.sin(math.pi * since_set / night)


def generate(seed):
    """
    Scenario inputs for one seed.

    Returns
    -------
    dict mapping config key to its value: floats, strings, and the two
    profiles as tuples of breakpoints.
    """
    rng = random.Random(seed)
    rise = 6.0 * 3600.0 + rng.uniform(-1800.0, 1800.0)
    sett = 18.0 * 3600.0 + rng.uniform(-1800.0, 1800.0)
    peak = rng.uniform(50.0, 70.0)

    sun_path = []
    for k in range(SUN_POINTS):
        t = DAY_S * k / (SUN_POINTS - 1)
        elev = round(_sun_elevation(t, rise, sett, peak), 4)
        azi = round(360.0 * t / DAY_S, 4)
        sun_path.append((t, elev, azi))

    # breakpoint times: sorted uniform draws, strictly ascending, with
    # both ends of the day pinned
    inner = sorted(round(rng.uniform(1.0, DAY_S - 1.0), 1)
                   for _ in range(IRRADIANCE_POINTS - 2))
    times = [0.0]
    for t in inner:
        if t > times[-1]:
            times.append(t)
    times.append(DAY_S)

    irradiance = []
    cloudy = False
    cover = 1.0
    for t in times:
        if rng.random() < 0.15:
            cloudy = not cloudy
            cover = rng.uniform(0.15, 0.6) if cloudy else 1.0
        elev = _sun_elevation(t, rise, sett, peak)
        clear = 1000.0 * math.sin(math.radians(elev)) ** 1.15 \
            if elev > 0.0 else 0.0
        irradiance.append((t, round(clear * cover, 2)))

    return {
        "duration_s": DAY_S,
        "dt_s": DT_S,
        "irradiance_profile": tuple(irradiance),
        "sun_path": tuple(sun_path),
        "battery_capacity_Wh": 20.0,
        "soc_init_pct": 25.0,
        "tank1_volume_L": 200.0,
        "tank2_volume_L": 8.0,
        "tank1_init_pct": 90.0,
        "tank2_init_pct": 30.0,
        "soil_init_pct": 40.0,
        "soil_decay_pct_per_hr": 6.0,
        "soil_gain_pct_per_L": 2.0,
        "mppt_algo": "ic",
        "tracker_init_elev": 90.0,
        "tracker_init_azi": 180.0,
    }
