"""
The three workloads: the inputs each hands the program and the CLI calls
one job makes.

The benchmark gives the program only files: scenario workloads get a
``key = value`` config file, written here.  ``DAYLIGHT`` spells out every
field of ``ScenarioConfig.default_daylight()`` so the reference run keeps
its inputs even if the package defaults move; the benchmark's tests check
that the two still agree.
"""

import os

import clouds

# section -> keys, in the order the files list them
SECTIONS = (
    ("scenario", ("duration_s", "dt_s")),
    ("environment", ("irradiance_profile", "sun_path")),
    ("battery", ("battery_capacity_Wh", "soc_init_pct",
                 "battery_min_soc_pct")),
    ("tanks", ("tank1_volume_L", "tank2_volume_L", "tank1_init_pct",
               "tank2_init_pct", "tank_low_pct", "tank_full_pct")),
    ("pumps", ("pump_flow_Lpm", "pump_tau_s", "pump1_power_W",
               "pump2_power_W")),
    ("soil", ("soil_init_pct", "soil_dry_pct", "soil_wet_pct",
              "soil_gain_pct_per_L", "soil_decay_pct_per_hr")),
    ("tracking", ("motor_step_deg", "tracker_init_elev",
                  "tracker_init_azi")),
    ("mppt", ("mppt_algo", "mppt_dv_step")),
)

# every ScenarioConfig field at its default_daylight() value; the two
# tracker_init keys stay unset (aligned with the first sun point)
DAYLIGHT = {
    "duration_s": 7200.0,
    "dt_s": 0.1,
    "irradiance_profile": ((0.0, 100.0), (1200.0, 400.0), (3600.0, 950.0),
                           (5400.0, 850.0), (7200.0, 60.0)),
    "sun_path": ((0.0, 30.0, 95.0), (3600.0, 60.0, 180.0),
                 (7200.0, 30.0, 265.0)),
    "battery_capacity_Wh": 60.0,
    "soc_init_pct": 30.0,
    "battery_min_soc_pct": 10.0,
    "tank1_volume_L": 39.5,
    "tank2_volume_L": 39.5,
    "tank1_init_pct": 95.0,
    "tank2_init_pct": 21.0,
    "soil_init_pct": 34.0,
    "pump_flow_Lpm": 5.0,
    "pump_tau_s": 0.1,
    "pump1_power_W": 80.0,
    "pump2_power_W": 20.0,
    "tank_low_pct": 20.0,
    "tank_full_pct": 90.0,
    "soil_dry_pct": 30.0,
    "soil_wet_pct": 70.0,
    "soil_gain_pct_per_L": 5.0,
    "soil_decay_pct_per_hr": 22.5,
    "mppt_algo": "po",
    "mppt_dv_step": 0.5,
    "motor_step_deg": 1.8,
}


def _format(value):
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ", ".join(":".join(repr(float(x)) for x in point)
                         for point in value)
    return repr(float(value))


def config_text(values):
    """Config file text for a dict of ScenarioConfig fields."""
    known = {key for _, keys in SECTIONS for key in keys}
    unknown = set(values) - known
    if unknown:
        raise KeyError(f"no config section for {sorted(unknown)}")
    lines = []
    for section, keys in SECTIONS:
        present = [k for k in keys if k in values]
        if not present:
            continue
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {_format(values[k])}" for k in present)
        lines.append("")
    return "\n".join(lines)


def merged(values):
    """The inputs with every field that ``values`` leaves out at its
    DAYLIGHT value: what the program will run."""
    full = dict(DAYLIGHT)
    full.update(values)
    return full


PRESETS = ("cascade", "metering_pump", "motor_paper", "motor_symbolic",
           "pump_loop", "pump_storage", "tank_001", "tank_2nd_order")
TF_MODES = (("step", "--closed"), ("bode",), ("rlocus",),
            ("errors", "--gains", "0.1:1000:40"), ("analyze",), ("routh",))
# CSV files each preset's tf calls leave behind
TF_OUTPUTS = ("step.csv", "bode.csv", "rlocus.csv", "ss_error.csv")

WHY = {
    "daylight": "ROADMAP reference run: 72000 steps, P&O MPPT, 8.3 MB "
                "trace CSV; the PV solve and the LDR tracker dominate it",
    "clouds": "seeded 24 h day with ~1000 irradiance breakpoints, IC MPPT "
              "and a parked night; per-step profile interpolation "
              "dominates it",
    "analysis": "validate plus six tf analyses on all 8 presets; bound by "
                "lti step responses, runs no scenario code",
}


def prepare(name, seed, run_dir):
    """
    Write the workload's inputs under ``run_dir`` and describe one job.

    Returns
    -------
    dict with ``workload``, ``config`` (path of the scenario config, or
    None), ``inputs`` (the scenario fields, or None), ``jobs`` (CLI
    argument lists run in order), ``out_dir`` and ``steps`` (simulated
    steps per job).
    """
    out_dir = os.path.join(run_dir, "out")
    if name == "analysis":
        jobs = [["validate", "--out", os.path.join(out_dir, "validate")]]
        for preset in PRESETS:
            where = os.path.join(out_dir, "tf", preset)
            jobs += [["tf", *mode, "--preset", preset, "--out", where]
                     for mode in TF_MODES]
        return {"workload": name, "config": None, "inputs": None,
                "jobs": jobs, "out_dir": out_dir, "steps": 0}
    if name == "daylight":
        values = dict(DAYLIGHT)
    elif name == "clouds":
        values = merged(clouds.generate(seed))
    else:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WHY)}")
    config = os.path.join(run_dir, f"{name}.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text(values))
    return {"workload": name, "config": config, "inputs": values,
            "jobs": [["scenario", "run", "--config", config,
                      "--out", out_dir]],
            "out_dir": out_dir,
            "steps": int(round(values["duration_s"] / values["dt_s"]))}
