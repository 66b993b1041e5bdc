"""
Output checks.  Each returns a list of problems; an empty list means the
outputs are correct.

The checks use tolerances, not byte equality, so a change that moves
trace values in the last digits (within a stated numeric contract) still
passes, while a change of behaviour does not:

* scenario trace: the 15 columns in order, one row per step, every value
  finite, SOC in [0, 100], water conserved to 1e-6 L on every row, pump
  latches consistent with the hysteresis thresholds, and pump cycles and
  on-steps equal to the reference (``expected.json``) where one is
  pinned;
* analysis: every CLI call exits 0, every expected CSV is written, and
  every validation-registry row keeps its reference status.
"""

import csv
import math
import os

from workloads import PRESETS, TF_OUTPUTS

TRACE_COLUMNS = ("t", "irradiance", "pv_power_W", "soc_pct", "pump1_on",
                 "pump2_on", "tank2_level_pct", "soil_moisture_pct",
                 "theta_TE", "theta_TA", "alpha", "battery_relay",
                 "tank1_level_pct", "delivered_soil_L", "duty_D")
WATER_TOL_L = 1e-6
# a level this close to a threshold cannot be placed on either side of
# it from the trace's 9 significant digits
THRESHOLD_TOL_PCT = 1e-6


def _latch(prev_on, level, on_below, off_at):
    """Expected pump latch after a step starting at ``level``; None when
    the printed level is too close to a threshold to decide."""
    if min(abs(level - on_below), abs(level - off_at)) < THRESHOLD_TOL_PCT:
        return None
    if level < on_below:
        return 1.0
    if level >= off_at:
        return 0.0
    return prev_on


def pump_counts(rows_on):
    """(cycles, on-steps) of a 0/1 latch column: cycles count 0 -> 1
    edges between rows."""
    cycles = sum(1 for a, b in zip(rows_on, rows_on[1:]) if b > a)
    return cycles, int(sum(rows_on))


def check_scenario(path, inputs, steps, expected=None):
    """
    Check one scenario trace CSV.

    Parameters
    ----------
    path : trace CSV written by ``sunpump scenario run``
    inputs : dict of the ScenarioConfig fields the run was given
    steps : number of steps the run must cover
    expected : dict of pinned pump cycles and on-steps, or None
    """
    problems = {}

    def problem(kind, message):
        problems.setdefault(kind, message)

    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        return [f"trace not readable: {exc}"]
    with fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != TRACE_COLUMNS:
            return [f"header {header} != {TRACE_COLUMNS}"]
        col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
        v1, v2 = inputs["tank1_volume_L"], inputs["tank2_volume_L"]
        water0 = (inputs["tank1_init_pct"] / 100.0 * v1
                  + inputs["tank2_init_pct"] / 100.0 * v2)
        tank2_pct = 100.0 * (inputs["tank2_init_pct"] / 100.0 * v2) / v2
        soil_pct = inputs["soil_init_pct"]
        pump1, pump2 = [], []
        worst_water = 0.0
        rows = 0
        for rows, row in enumerate(reader, start=1):
            try:
                vals = [float(x) for x in row]
            except ValueError:
                problem("parse", f"row {rows}: unparsable value in {row}")
                continue
            if len(vals) != len(TRACE_COLUMNS):
                problem("width", f"row {rows}: {len(vals)} values")
                continue
            bad = [n for n, v in zip(TRACE_COLUMNS, vals)
                   if not math.isfinite(v)]
            if bad:
                problem("finite", f"row {rows}: non-finite {bad}")
                continue
            soc = vals[col["soc_pct"]]
            if not 0.0 <= soc <= 100.0:
                problem("soc", f"row {rows}: soc_pct {soc} outside [0, 100]")
            water = (vals[col["tank1_level_pct"]] / 100.0 * v1
                     + vals[col["tank2_level_pct"]] / 100.0 * v2
                     + vals[col["delivered_soil_L"]])
            worst_water = max(worst_water, abs(water - water0))
            on1, on2 = vals[col["pump1_on"]], vals[col["pump2_on"]]
            if on1 not in (0.0, 1.0) or on2 not in (0.0, 1.0):
                problem("latch", f"row {rows}: pump flags {on1}, {on2}")
            want1 = _latch(pump1[-1] if pump1 else 0.0, tank2_pct,
                           inputs["tank_low_pct"], inputs["tank_full_pct"])
            want2 = _latch(pump2[-1] if pump2 else 0.0, soil_pct,
                           inputs["soil_dry_pct"], inputs["soil_wet_pct"])
            if want1 not in (None, on1) or want2 not in (None, on2):
                problem("hysteresis",
                        f"row {rows}: pumps {on1:g}/{on2:g} at tank2 "
                        f"{tank2_pct:.9g}% and soil {soil_pct:.9g}%")
            pump1.append(on1)
            pump2.append(on2)
            tank2_pct = vals[col["tank2_level_pct"]]
            soil_pct = vals[col["soil_moisture_pct"]]
    if rows != steps:
        problem("rows", f"{rows} rows for {steps} steps")
    if worst_water > WATER_TOL_L:
        problem("water", f"water off by {worst_water:.3g} L "
                         f"(tolerance {WATER_TOL_L:g} L)")
    if expected is not None:
        (c1, n1), (c2, n2) = pump_counts(pump1), pump_counts(pump2)
        got = {"pump1_cycles": c1, "pump1_on_steps": n1,
               "pump2_cycles": c2, "pump2_on_steps": n2}
        diff = {k: (got[k], expected[k]) for k in expected
                if got.get(k) != expected[k]}
        if diff:
            problem("pumps", "pump counts (got, reference): "
                    + ", ".join(f"{k} {v}" for k, v in sorted(diff.items())))
    return list(problems.values())


def check_registry(path, registry):
    """Every registry row of a ``validation_report.csv`` keeps its
    reference status, and no row appears without one."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            got = {row["id"]: row["status"] for row in csv.DictReader(fh)}
    except (OSError, KeyError) as exc:
        return [f"validation report not readable: {exc}"]
    problems = []
    changed = sorted(rid for rid in registry if got.get(rid) != registry[rid])
    extra = sorted(set(got) - set(registry))
    if changed:
        problems.append("registry status changed: " + ", ".join(
            f"{rid} {got.get(rid, 'missing')} (reference {registry[rid]})"
            for rid in changed))
    if extra:
        problems.append("registry rows without a reference: "
                        + ", ".join(extra))
    return problems


def check_analysis(out_dir, jobs, exit_codes, registry):
    """
    Check one ``analysis`` job.

    Parameters
    ----------
    out_dir : the job's output directory
    jobs : the CLI argument lists the job ran
    exit_codes : their exit codes, in order
    registry : reference id -> status of every validation-registry row
    """
    problems = [f"exit {code}: sunpump {' '.join(argv)}"
                for argv, code in zip(jobs, exit_codes) if code != 0]
    if len(exit_codes) != len(jobs):
        problems.append(f"{len(exit_codes)} exit codes for {len(jobs)} calls")
    problems += check_registry(
        os.path.join(out_dir, "validate", "validation_report.csv"), registry)
    for preset in PRESETS:
        for name in TF_OUTPUTS:
            path = os.path.join(out_dir, "tf", preset, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    lines = sum(1 for _ in fh)
            except OSError:
                problems.append(f"missing output tf/{preset}/{name}")
                continue
            if lines < 2:
                problems.append(f"tf/{preset}/{name} has no data rows")
    return problems
