"""
Reported-number validation registry.

Every numeric claim the source analyses make about the systems modeled
here is registered with the recomputation that checks it.  Rows never
raise: a disagreement is data (status DEVIATES), and claims that exist
only as plot features carry status QUALITATIVE.  Each row stores its own
tolerance: 1e-3 absolute for pole locations, 15% relative for
figure-readout step metrics and margins, 0.1% for analytic identities.

Several source gain values are internally inconsistent (a tracking-loop
gain written 1e4 times larger than the loop it describes, a printed
characteristic polynomial whose low-order coefficients are 100x the
assembled loop's, first-order pump step metrics inconsistent with the
stated time constant).  Those rows recompute both the literal reading
and, where one exists, the reconstruction that reproduces the claim;
the notes column records the derivation path taken.
"""

from dataclasses import dataclass, fields
import math

import numpy as np

from . import pv
from .lti import (Polynomial, TransferFunction, error_constants, poly_roots,
                  routh_table, ss_error_vs_gain, stability_margins,
                  stability_verdict_from_roots, step_metrics, step_response,
                  tf_feedback)
from .plants import (MOTOR_PAPER, PidParams, cascade_plant, cascade_system,
                     metering_pump_tf, motor_tf, MotorParams, pid_tf, pump_tf,
                     tank_second_order)

TOL_POLE_ABS = 1e-3
TOL_READOUT_REL = 0.15
TOL_ANALYTIC_REL = 1e-3


@dataclass(frozen=True)
class ReportedClaim:
    id: str
    description: str
    claimed_value: float
    unit: str
    computed_value: float
    abs_dev: float
    rel_dev: float
    status: str           # MATCH | DEVIATES | QUALITATIVE
    tolerance: float
    tolerance_kind: str   # "abs" | "rel" | "none"
    note: str = ""


def _row(rid, desc, claimed, unit, computed, tol=TOL_READOUT_REL,
         kind="rel", note=""):
    """
    One registry row: QUALITATIVE for kind "none", else MATCH when the
    deviation (absolute for kind "abs" or a zero claim) is within ``tol``,
    else DEVIATES, also when either value is missing (None or nan).
    """
    if claimed is None or computed is None:
        abs_dev = rel_dev = math.nan
    else:
        abs_dev = abs(computed - claimed)
        rel_dev = (abs_dev / abs(claimed) if claimed != 0
                   else 0.0 if abs_dev == 0.0 else math.inf)
    dev = rel_dev if kind == "rel" and claimed != 0 else abs_dev
    status = ("QUALITATIVE" if kind == "none"
              else "MATCH" if dev <= tol else "DEVIATES")
    return ReportedClaim(rid, desc, claimed, unit, computed,
                          abs_dev, rel_dev, status, tol, kind, note)


# claim name -> (field, unit, words) of a StepMetrics, of a StabilityMargins
_METRICS = dict(rise=("rise_time_s", "s", "rise time"),
                overshoot=("overshoot_pct", "%", "overshoot"),
                peak=("peak", "-", "peak"),
                peak_time=("peak_time_s", "s", "peak time"),
                settling=("settling_time_s", "s", "settling time"))
_MARGINS = dict(gm=("gain_margin_db", "dB", "gain margin"),
                gm_freq=("gm_freq_rad_s", "rad/s", "gain-margin frequency"),
                pm=("phase_margin_deg", "deg", "phase margin"),
                pm_freq=("pm_freq_rad_s", "rad/s", "phase-margin frequency"))


def _metric_rows(prefix, loop, t_end, claims, desc, note=""):
    """
    Rows ``{prefix}_{name}`` of the unity-feedback step metrics of the
    open loop ``loop``, nan without one; ``desc`` formats name and words.
    """
    m = (None if loop is None
         else step_metrics(step_response(tf_feedback(loop, 1.0), t_end)))
    rows = []
    for name, claimed in claims.items():
        field, unit, words = _METRICS[name]
        rows.append(_row(f"{prefix}_{name}",
                         desc.format(name=name, words=words), claimed, unit,
                         math.nan if m is None else getattr(m, field),
                         note=note))
    return rows


def _margin_rows(prefix, loop, claims, desc, freq_desc):
    """
    Rows ``{prefix}_{name}`` of the margins of ``loop``; ``desc`` formats
    each margin's words and ``freq_desc`` each crossover frequency's.
    """
    m = stability_margins(loop)
    rows = []
    for name, claimed in claims.items():
        field, unit, words = _MARGINS[name]
        template = freq_desc if name.endswith("_freq") else desc
        rows.append(_row(f"{prefix}_{name}", template.format(words), claimed,
                         unit, getattr(m, field)))
    return rows


def build_report():
    """Recompute every registered claim; returns a list of ReportedClaim."""
    rows = []
    add = rows.append

    # ----- second-order tank poles -------------------------------------
    osc = max(poly_roots(Polynomial([1.0, 0.02241, 5.0])), key=np.imag)
    add(_row("tank2nd_pole_re", "sensor-feedback tank pole, real part",
             -0.0112, "1/s", osc.real, TOL_POLE_ABS, "abs"))
    add(_row("tank2nd_pole_im", "sensor-feedback tank pole, imag part",
             2.236, "rad/s", osc.imag, TOL_POLE_ABS, "abs"))

    # ----- motor transfer function: bullets vs printed numerics --------
    add(_row("motor_tf_den_s2", "motor TF s^2 coefficient from listed "
             "parameters vs printed system (both normalized to s^3)",
             MOTOR_PAPER.den.coeffs[1], "-",
             motor_tf(MotorParams()).den.coeffs[1],
             TOL_ANALYTIC_REL,
             note="printed numeric system is not reproducible from the "
                  "listed motor parameters; both kept as presets"))

    # ----- tracking loop step metrics (gain scale reconstruction) ------
    for k_label, claims in (
            ("1e5", dict(rise=0.156, overshoot=2.79, peak_time=0.325)),
            ("1e6", dict(rise=0.0264, overshoot=51.7, peak=1.52,
                         peak_time=0.0687, settling=0.419))):
        k_eff = float(k_label) * 1e-4
        literal_stable = stability_verdict_from_roots(
            tf_feedback(float(k_label) * MOTOR_PAPER, 1.0).den)
        rows += _metric_rows(
            f"motor_K{k_label}", k_eff * MOTOR_PAPER, 1.5, claims,
            f"tracking loop K={k_label} step {{name}}",
            note=f"literal K={k_label} loop is {literal_stable}; metrics "
                 f"reproduce at effective gain K*1e-4 = {k_eff:g}, which "
                 f"is the reading recomputed here")

    # ----- Bode point and margins of the tracking loop -----------------
    g10 = 10.0 * MOTOR_PAPER
    add(_row("motor_bode_mag_116", "open-loop gain at 116 rad/s (K=1e5 "
             "read at effective gain 10)", -36.3, "dB",
             float(20.0 * np.log10(np.abs(g10(116j)))),
             note="literal K=1e5 gives +43.7 dB; effective gain K*1e-4 "
                  "reproduces the Bode figure"))
    add(_row("motor_bode_phase_893", "open-loop phase at 8.93 rad/s "
             "(claim read as 180 deg + phase)", 67.4, "deg",
             180.0 + float(np.degrees(np.angle(g10(8.93j)))),
             note="claimed 'phase magnitude' matches the phase measured "
                  "up from -180 deg"))
    rows += _margin_rows("motor_K1e6", 100.0 * MOTOR_PAPER,
                         dict(gm=16.3, gm_freq=116.0, pm=23.0, pm_freq=43.8),
                         "{} of the K=1e6 loop (effective gain 100)", "{}")

    # ----- steady-state error vs gain on the tracking loop -------------
    gains = np.geomspace(1e-2, 1e7, 400)
    _, _, targets = ss_error_vs_gain(MOTOR_PAPER, gains, error_kind="ramp")
    add(_row("motor_K_for_e01", "gain for steady-state error 0.1 "
             "(type-1 loop: ramp-error reading)", 9.36, "-", targets[0.1],
             note="step error of the type-1 loop is 0 for every gain; the "
                  "claim matches the ramp-error constant Kv"))
    add(_row("motor_K_for_e001", "gain for steady-state error 0.01 "
             "(type-1 loop: ramp-error reading)", 102.9, "-", targets[0.01],
             note="ramp-error reading, as above"))
    for rid, claimed, target in (("motor_K_cl_e01", 57582.0, 0.1),
                                 ("motor_K_cl_e001", 633400.0, 0.01)):
        add(_row(rid, f"closed-loop gain for steady-state error {target}",
                 claimed, "-", math.nan,
                 note="not reproducible: the unity-feedback loop on the "
                      "tracking motor is type 1, so its step error is 0 "
                      "for every positive gain and no finite gain maps to "
                      "this target"))

    # ----- characteristic quartic and its stability table --------------
    pid = PidParams(K_p=9.51202, K_i=5.6443, K_d=0.00022)
    char = tf_feedback(MOTOR_PAPER, pid_tf(pid)).den
    printed_quartic = Polynomial([1.0, 625.8, 1.382e4, 1.239e7, 7.349e6])
    for idx, name in ((1, "s3"), (2, "s2"), (3, "s1"), (4, "s0")):
        add(_row(f"charpoly_{name}", f"characteristic polynomial {name} "
                 "coefficient: computed loop vs printed",
                 printed_quartic.coeffs[idx], "-", char.coeffs[idx],
                 note="printed s^1 and s^0 coefficients are 100x the "
                      "assembled PID+motor loop"))
    routh_printed = routh_table(printed_quartic)
    oracle_printed = stability_verdict_from_roots(printed_quartic)
    add(_row("tableII_verdict", "printed quartic claimed stable; Routh "
             "verdict on the printed coefficients (1 = stable)",
             1.0, "-", float(routh_printed.verdict == "stable"),
             TOL_ANALYTIC_REL,
             note=f"Routh says {routh_printed.verdict} with "
                  f"{routh_printed.sign_changes} sign changes; root oracle "
                  f"agrees ({oracle_printed}); the printed table lists the "
                  "raw coefficients rather than computed Routh entries"))
    add(_row("charpoly_actual_stability", "assembled PID+motor loop "
             "stability (1 = stable, matching the stated conclusion)",
             1.0, "-", float(routh_table(char).verdict == "stable"),
             TOL_ANALYTIC_REL,
             note="the conclusion 'the system is stable' holds for the "
                  "assembled loop even though the printed quartic is "
                  "unstable"))

    # ----- PID-tuned motor table ---------------------------------------
    tuned = PidParams(K_p=-69.94, K_i=-729.46, K_d=-1.651, N_filter=4558.36)
    tuned_verdict = stability_verdict_from_roots(
        tf_feedback(pid_tf(tuned) * MOTOR_PAPER, 1.0).den)
    rows += _metric_rows(
        "tuned_motor", None, None,
        dict(rise=0.0303, settling=0.179, overshoot=23.2, peak=1.23),
        "tuned motor loop {words}", note=f"closed loop with the printed "
        f"negative gains is {tuned_verdict}; no step metrics exist for the "
        "printed controller")

    # ----- water pump (storage preset) ----------------------------------
    tau = 475.0
    add(_row("pump_rise", "storage pump rise time", 174.0, "s",
             tau * math.log(9.0), note="analytic first-order rise tau*ln 9"))
    add(_row("pump_settling", "storage pump settling time", 310.0, "s",
             tau * math.log(50.0),
             note="analytic first-order 2% settling tau*ln 50"))
    add(_row("pump_time_constant", "storage pump time constant", 112.0, "s",
             tau, note="the stated transfer function fixes tau = 475 s"))
    ec = error_constants(pump_tf(5.0, tau))
    add(_row("pump_Kp", "storage pump position constant", 5.0, "-",
             ec.Kp_pos, TOL_ANALYTIC_REL))
    add(_row("pump_Kv", "storage pump velocity constant", 0.0, "-",
             ec.Kv_vel, TOL_ANALYTIC_REL))
    add(_row("pump_Ka", "storage pump acceleration constant", 0.0, "-",
             ec.Ka_acc, TOL_ANALYTIC_REL))
    add(_row("pump_e_step", "storage pump steady-state step error",
             0.833, "-", ec.e_step, note="claim uses 5/(1+lim G); the "
             "standard 1/(1+Kp) gives 0.1667"))

    # ----- cascade plant and its error/stability analysis ---------------
    plant = cascade_plant()
    add(_row("cascade_num", "cascade plant numerator", 0.05, "-",
             plant.num.coeffs[0] * 0.1, TOL_ANALYTIC_REL,
             note="num coefficient recovered after monic normalization"))
    poles = poly_roots(plant.den)
    add(_row("cascade_pole_fast", "cascade plant fast pole", -10.0, "1/s",
             poles.real.min(), TOL_POLE_ABS, "abs"))
    add(_row("cascade_pole_slow", "cascade plant slow pole", -1.0, "1/s",
             poles.real.max(), TOL_POLE_ABS, "abs"))
    all_stable = all(routh_table(den).verdict == "stable"
                     and stability_verdict_from_roots(den) == "stable"
                     for den in (tf_feedback(k * plant, 1.0).den
                                 for k in (0.1, 1.0, 10.0, 100.0, 1e3, 1e6)))
    add(_row("tableIII_all_K", "cascade loop stable for all sampled K > 0 "
             "(1 = stable, Routh and root oracle)", 1.0, "-",
             float(all_stable), TOL_ANALYTIC_REL))
    gains = np.geomspace(1e-2, 1e6, 300)
    _, _, tgt = ss_error_vs_gain(plant, gains, error_kind="step")
    add(_row("cascade_K_for_e01", "cascade gain for step error 0.1",
             180.0, "-", tgt[0.1], TOL_ANALYTIC_REL))
    add(_row("cascade_K_for_e001", "cascade gain for step error 0.01",
             1980.0, "-", tgt[0.01], TOL_ANALYTIC_REL))
    add(_row("cascade_e_at_K1", "cascade unity-gain steady-state error",
             0.048, "-", error_constants(plant).e_step,
             note="claimed value equals the steady-state OUTPUT "
                  "G(0)/(1+G(0)) = 0.0476, not the error 1/(1+Kp) = 0.952"))

    # ----- oscillatory tank loop with the two-zero compensator ----------
    comp_num = 747.5 * np.convolve([0.12, 1.0], [0.12, 1.0])
    loop2 = TransferFunction(comp_num, [1.0, 0.0]) * tank_second_order(1.0)
    rows += _metric_rows(
        "pid2", loop2, 1.5,
        dict(rise=0.0204, overshoot=14.4, peak=1.14, peak_time=0.059,
             settling=0.165),
        "compensated tank loop {words}",
        note="loop: 747.5(1+0.12s)^2/s on 5/(s^2+0.02241s+5), unity "
             "feedback")
    add(_row("pid2_zero", "compensator double zero location", -8.24, "1/s",
             float(poly_roots(loop2.num).real.mean()),
             note="zeros of 747.5(1+0.12s)^2 sit at -1/0.12 = -8.33"))

    # ----- metering pump -------------------------------------------------
    mp = metering_pump_tf()
    add(_row("metering_dc_gain", "metering pump DC gain", None, "-",
             mp.dc_gain(), 0.0, "none",
             note="no numeric claim; recorded for reference"))
    add(_row("metering_pole_slow", "metering pump slow pole", None, "1/s",
             poly_roots(mp.den).real.max(), 0.0, "none",
             note="quadratic-formula poles -0.0373 and -12.283"))

    # ----- tuned cascade (sensor gain 50) --------------------------------
    tuned2 = cascade_system(50.0, PidParams(4.67, 3.91, -0.0047, 1002.69))
    for label, loop, claims in (
            ("cascade_tuned1",
             cascade_system(50.0, PidParams(0.653, 1.085, 0.03, 19.23)),
             dict(rise=0.812, settling=3.04, overshoot=7.47, peak=1.07)),
            ("cascade_tuned2", tuned2,
             dict(rise=0.146, settling=0.796, overshoot=18.1, peak=1.18))):
        rows += _metric_rows(label, loop, 12.0, claims,
                             "tuned cascade loop step {name}",
                             note="normalized loop step L/(1+L) with "
                                  "L = C * G * 50")
    rows += _margin_rows("cascade_tuned2", tuned2,
                         dict(gm=38.9, gm_freq=101.0, pm=49.3, pm_freq=8.77),
                         "tuned cascade {}", "tuned cascade {}")

    # ----- PV qualitative claims -----------------------------------------
    p_hot, p_cold = (35.0 * pv.array_current(
        pv.default_array(1000.0, t_c=t_c), 35.0) for t_c in (318.0, 298.0))
    add(_row("pv_power_vs_temp", "array power at 35 V decreases with cell "
             "temperature (1 = holds)", 1.0, "-", float(p_hot < p_cold),
             TOL_ANALYTIC_REL,
             note=f"P(35V, 318K) = {p_hot:.1f} W vs P(35V, 298K) = "
                  f"{p_cold:.1f} W on the default array"))
    mpps = [pv.find_mpp(pv.default_array(g)).P_mpp
            for g in (200.0, 600.0, 1000.0)]
    add(_row("pv_mpp_vs_irradiance", "maximum power rises with irradiance "
             "(1 = holds)", 1.0, "-", float(mpps[0] < mpps[1] < mpps[2]),
             TOL_ANALYTIC_REL,
             note="P_mpp at 200/600/1000 W/m2: "
                  + ", ".join(f"{p:.1f} W" for p in mpps)))

    return rows


def report_columns(rows):
    """
    Header and columns of the report CSV, one per ``ReportedClaim`` field
    in order: the float fields as float arrays (a missing value as nan),
    the rest as text.
    """
    header, columns = [], []
    for field in fields(ReportedClaim):
        header.append(field.name.removesuffix("_value"))
        values = [getattr(r, field.name) for r in rows]
        if field.type is float:
            values = np.array([math.nan if v is None else v for v in values],
                              dtype=float)
        columns.append(values)
    return header, columns


def format_report(rows):
    """Human-readable fixed-width table, deterministic ordering."""
    lines = [f"{'id':34} {'claimed':>12} {'computed':>12} "
             f"{'rel_dev':>9} status", "-" * 78]
    counts = dict.fromkeys(("MATCH", "DEVIATES", "QUALITATIVE"), 0)
    for r in rows:
        claimed = "-" if r.claimed_value is None else f"{r.claimed_value:.6g}"
        c = r.computed_value
        computed = "-" if c is None or math.isnan(c) else f"{c:.6g}"
        rel = "-" if math.isnan(r.rel_dev) else f"{r.rel_dev:8.2%}"
        lines.append(f"{r.id:34} {claimed:>12} {computed:>12} "
                     f"{rel:>9} {r.status}")
        counts[r.status] += 1
    lines += ["-" * 78, f"{len(rows)} rows: "
              + ", ".join(f"{n} {status}" for status, n in counts.items())]
    return "\n".join(lines)
