"""
Command-line entry point.

Subcommands::

    pv-curve      I-V / P-V characteristic of the default array
    solar-angles  per-timestamp solar and tracker angle table
    track-sim     closed-loop LDR tracking along a synthetic sun arc
    mppt-run      MPPT trajectory on the default array
    tf            analyze | step | bode | rlocus | routh | errors
    scenario      run a whole-system scenario from a config file
    validate      recompute every registered reported-number claim

Exit codes: 0 success, 1 usage error, 2 config error, 3 numeric failure,
4 output error (--out or a CSV in it cannot be written).
All outputs are deterministic; CSV files land in --out (default '.').
"""

import argparse
from dataclasses import replace
import os
import sys

import numpy as np

# the analysis modules (lti, plants, validation) are imported by the
# commands that run them, so that the other commands never load them
from . import csvio, mppt, pv
from .config import ANALYSIS_KINDS, parse_config, parse_gains
from .scenario import ConfigError, ScenarioConfig, run_scenario
from .solar import (SunPosition, TrackerOrientation, UndefinedDirectionError,
                    angle_of_incidence, declination, incidence_direction,
                    optimal_orientation, zenith_and_elevation)
from .tracking import tracking_sim


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # fills in help texts that need an analysis module; it runs only when
    # this parser prints its help
    fill_help = None

    def error(self, message):
        raise UsageError(message)

    def format_help(self):
        if self.fill_help is not None:
            self.fill_help()
        return super().format_help()


def _parse_span(text, parts=3):
    """Parse 'a:b' or 'a:b:n' into floats."""
    bits = text.split(":")
    if len(bits) != parts:
        raise UsageError(f"expected {parts} colon-separated values, got "
                         f"{text!r}")
    try:
        return [float(b) for b in bits]
    except ValueError:
        raise UsageError(f"unparsable number in {text!r}")


def _gain_grid(spec):
    try:
        a, b, n = parse_gains(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return np.geomspace(a, b, n)


def _resolve_tf(args):
    from .lti import tf_from_text
    from .plants import preset
    if getattr(args, "tf_text", None):
        try:
            return tf_from_text(args.tf_text)
        except ValueError as exc:
            raise UsageError(f"tf-text: {exc}") from None
    name = getattr(args, "preset", None) or "motor_paper"
    try:
        return preset(name)
    except KeyError as exc:
        raise UsageError(str(exc))


def _out_path(args, name):
    out_dir = getattr(args, "out", None) or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _cmd_pv_curve(args):
    if args.points < 0:
        raise UsageError("point count must be >= 0")
    ap = pv.default_array(args.g_t, t_c=args.t_c)
    voc = pv.open_circuit_voltage(ap)
    if voc > 0:
        curve = pv.iv_curve(ap, np.linspace(0.0, voc, args.points))
        columns = [curve.voltages, curve.currents, curve.powers]
    else:
        # a dark array carries no current: its curve is the point 0 V, 0 A
        columns = [np.zeros(min(args.points, 1))] * 3
    path = _out_path(args, "pv_curve.csv")
    csvio.emit_csv(["v", "i", "p"], columns, path)
    m = pv.find_mpp(ap)
    print(f"wrote {path} ({len(columns[0])} points, Voc = {voc:.3f} V)")
    print(f"MPP: V = {m.V_mpp:.3f} V, I = {m.I_mpp:.3f} A, "
          f"P = {m.P_mpp:.2f} W")
    return 0


def _cmd_solar_angles(args):
    st0, st1, n = _parse_span(args.hour_angles)
    az0, az1 = _parse_span(args.azimuth, 2)
    if not 0 <= n < np.inf or n != int(n):   # NaN fails the first test
        raise UsageError(f"hour-angle count must be a whole number >= 0, "
                         f"got {n:g}")
    n = int(n)
    delta = declination(args.day)
    k = np.arange(n)
    st = st0 + (st1 - st0) * k / max(n - 1, 1)
    theta_sa = az0 + (az1 - az0) * k / max(n - 1, 1)
    theta_z, theta_e = np.zeros(n), np.zeros(n)
    # rows with the sun at or below the horizon keep these values: no
    # target is sought there, so none is unreachable
    theta_te, theta_ta = np.zeros(n), theta_sa.copy()
    alpha, beta, reachable = np.full(n, 90.0), np.zeros(n), np.ones(n, bool)
    lit = 0
    for j, (s, sa) in enumerate(zip(st.tolist(), theta_sa.tolist())):
        theta_z[j], elevation = zenith_and_elevation(args.lat, delta, s)
        theta_e[j] = elevation
        if elevation <= 0:
            continue
        sun = SunPosition(elevation, sa)
        sol = optimal_orientation(sun, args.alpha_target, args.beta_target)
        lit += 1
        reachable[j] = sol.reachable
        to = sol.orientation
        theta_te[j], theta_ta[j] = to.theta_TE, to.theta_TA
        alpha[j] = angle_of_incidence(sun, to)
        try:
            beta[j] = incidence_direction(sun, to)
        except UndefinedDirectionError:
            pass    # sun along the panel normal: beta stays 0
    path = _out_path(args, "solar_angles.csv")
    csvio.emit_csv(["n", "ST", "delta", "theta_e", "theta_z", "theta_SA",
                    "theta_TE", "theta_TA", "alpha", "beta", "reachable"],
                   [np.full(n, args.day), st, np.full(n, delta), theta_e,
                    theta_z, theta_sa, theta_te, theta_ta, alpha, beta,
                    reachable], path)
    print(f"wrote {path} ({n} rows, declination {delta:.3f} deg)")
    print(f"unreachable target on {n - np.count_nonzero(reachable)} of "
          f"{lit} lit rows, answered with the nearest reachable one")
    return 0


def _cmd_track_sim(args):
    e0, e1 = _parse_span(args.elevation, 2)
    a0, a1 = _parse_span(args.azimuth, 2)
    n = args.steps
    if n < 1:
        raise UsageError("step count must be >= 1")
    k = np.arange(n)
    start = None
    if args.start:
        te, ta = _parse_span(args.start, 2)
        start = TrackerOrientation(te, ta)
    run = tracking_sim(e0 + (e1 - e0) * k / max(n - 1, 1),
                       a0 + (a1 - a0) * k / max(n - 1, 1),
                       motor_step_deg=args.motor_step,
                       irradiance=args.irradiance, start=start)
    path = _out_path(args, "track_sim.csv")
    csvio.emit_csv(["step", "theta_TE", "theta_TA", "alpha", "tl", "tr",
                    "bl", "br", "az_cmd", "el_cmd"],
                   [k, run.theta_TE, run.theta_TA, run.alpha,
                    *run.readings.T,
                    np.array(["right", "hold", "left"])[run.azimuth_step + 1],
                    np.array(["down", "hold", "up"])[run.elevation_step + 1]],
                   path)
    print(f"wrote {path}; final AOI = {run.alpha[-1]:.2f} deg")
    return 0


def _cmd_mppt_run(args):
    if args.steps < 1:
        raise UsageError("step count must be >= 1")
    ap = pv.default_array(args.g_t)
    v0 = args.start_v
    if v0 is None:
        v0 = 0.5 * pv.open_circuit_voltage(ap)
    st0 = mppt.initial_state(v0, args.dv_step)
    run = mppt.mppt_run(pv.default_array(1000.0), args.algo, st0, args.steps,
                        irradiance=args.g_t)
    path = _out_path(args, f"mppt_{args.algo}.csv")
    csvio.emit_csv(["iter", "v_ref", "i", "p"],
                   [np.arange(1, args.steps + 1), run.v_ref, run.i, run.p],
                   path)
    best = pv.find_mpp(ap)
    print(f"wrote {path}; final P = {run.p[-1]:.2f} W "
          f"(model MPP {best.P_mpp:.2f} W)")
    return 0


def _cmd_tf(args):
    from .lti import (NotSettledError, error_constants, frequency_response,
                      root_locus, routh_table, ss_error_vs_gain,
                      stability_margins, step_metrics, step_response,
                      tf_feedback, verdict_of_roots)
    if getattr(args, "config", None):
        from .config import AnalysisRequest
        req = parse_config(args.config)
        if not isinstance(req, AnalysisRequest):
            raise ConfigError(
                f"{args.config} holds a scenario, not an [analysis] request")
        args.mode = args.mode or req.kind
        for name in ("preset", "tf_text", "t_end", "dt", "gains"):
            if getattr(args, name, None) is None:
                setattr(args, name, getattr(req, name))
    if args.mode is None:
        raise UsageError("tf needs a mode argument or --config with kind")
    tf = _resolve_tf(args)
    mode = args.mode
    if mode == "analyze":
        poles = tf.poles()
        print(f"system: num degree {tf.num.degree}, den degree "
              f"{tf.den.degree}, proper: {tf.proper}")
        print(f"DC gain: {tf.dc_gain() if abs(tf.den(0)) > 0 else 'inf'}")
        print("poles:", ", ".join(f"{p:.6g}" for p in poles))
        if tf.num.degree >= 1:
            print("zeros:", ", ".join(f"{z:.6g}" for z in tf.zeros()))
        if poles.size:
            print("routh verdict:", routh_table(tf.den).verdict)
            print("root-sign verdict:", verdict_of_roots(poles))
        else:
            print("verdict: stable (no poles)")
        return 0
    if mode in ("routh", "rlocus") and tf.den.degree < 1:
        what = "a static gain" if tf.proper else "a polynomial"
        raise ValueError(f"tf {mode} needs poles, and {what} (den degree 0) "
                         f"has none")
    if mode == "step":
        t_end = args.t_end
        if t_end is None:
            poles = tf.poles()
            stable = poles[poles.real < -1e-12]
            t_end = 8.0 / abs(stable.real.max()) if stable.size else 10.0
        closed = tf_feedback(tf, 1.0) if args.closed else tf
        trace = step_response(closed, t_end, args.dt)
        path = _out_path(args, "step.csv")
        csvio.emit_csv(["t", "y"], [trace.t, trace.y], path)
        print(f"wrote {path} ({len(trace.t)} samples, t_end {t_end:.4g} s)")
        try:
            m = step_metrics(trace)
            print(f"rise {m.rise_time_s:.4g} s, settling "
                  f"{m.settling_time_s:.4g} s, overshoot "
                  f"{m.overshoot_pct:.3g}%, peak {m.peak:.4g} at "
                  f"{m.peak_time_s:.4g} s, steady state "
                  f"{m.steady_state_value:.4g}")
        except NotSettledError:
            print("trace did not settle; no metrics "
                  f"(diverged = {trace.diverged})")
        return 0
    if mode == "bode":
        fr = frequency_response(tf)
        path = _out_path(args, "bode.csv")
        csvio.emit_csv(["omega_rad_s", "magnitude_db", "phase_deg"],
                       [fr.omegas, fr.magnitude_db, fr.phase_deg], path)
        m = stability_margins(tf)
        print(f"wrote {path}")
        gm = ("absent" if m.gain_margin_db is None
              else f"{m.gain_margin_db:.3g} dB @ {m.gm_freq_rad_s:.4g} rad/s")
        pm = ("absent" if m.phase_margin_deg is None
              else f"{m.phase_margin_deg:.3g} deg @ "
                   f"{m.pm_freq_rad_s:.4g} rad/s")
        print(f"gain margin: {gm}\nphase margin: {pm}")
        return 0
    if mode == "rlocus":
        gains = _gain_grid(args.gains or "0.01:1000:60")
        locus = root_locus(tf, gains)
        path = _out_path(args, "rlocus.csv")
        csvio.emit_csv(["gain", "re", "im"],
                       [np.repeat(gains, locus.shape[1]),
                        locus.real.ravel(), locus.imag.ravel()], path)
        print(f"wrote {path} ({len(gains)} gains x {locus.shape[1]} poles)")
        return 0
    if mode == "routh":
        res = routh_table(tf.den)
        for i, row in enumerate(res.table):
            print(f"s^{tf.den.degree - i:<2d} " +
                  "  ".join(f"{v: .6g}" for v in row))
        print(f"sign changes: {res.sign_changes}; verdict: {res.verdict}")
        return 0
    if mode == "errors":
        gains = _gain_grid(args.gains) if args.gains else None
        ec = error_constants(tf)
        print(f"system type {ec.system_type}: Kp = {ec.Kp_pos:.6g}, "
              f"Kv = {ec.Kv_vel:.6g}, Ka = {ec.Ka_acc:.6g}")
        print(f"e_step = {ec.e_step:.6g}, e_ramp = {ec.e_ramp:.6g}, "
              f"e_parabola = {ec.e_parabola:.6g}")
        if gains is not None:
            ks, errs, targets = ss_error_vs_gain(tf, gains)
            path = _out_path(args, "ss_error.csv")
            csvio.emit_csv(["gain", "e_step"], [ks, errs], path)
            print(f"wrote {path}")
            for tgt, k in targets.items():
                where = "unreachable on range" if k is None else f"K = {k:.6g}"
                print(f"error {tgt}: {where}")
        return 0
    raise UsageError(f"unknown tf mode {mode!r}")


def _cmd_scenario(args):
    cfg = parse_config(args.config) if args.config else ScenarioConfig()
    if not isinstance(cfg, ScenarioConfig):
        raise ConfigError(
            f"{args.config} holds an [analysis] request, not a scenario")
    overrides = {"dt_s": args.dt, "duration_s": args.t_end}
    overrides = {name: v for name, v in overrides.items() if v is not None}
    if overrides:       # replace checks the config again
        cfg = replace(cfg, **overrides)
    trace, summary = run_scenario(cfg)
    path = _out_path(args, "scenario_trace.csv")
    csvio.emit_csv(trace.COLUMNS,
                   [getattr(trace, name) for name in trace.COLUMNS], path)
    print(f"wrote {path} ({len(trace)} steps)")
    print(f"final SOC: {summary.final_soc_pct:.2f}%")
    print(f"pump1: {summary.pump1_cycles} cycles, "
          f"{summary.pump1_on_steps} on-steps")
    print(f"pump2: {summary.pump2_cycles} cycles, "
          f"{summary.pump2_on_steps} on-steps")
    print(f"water delivered to soil: {summary.water_delivered_L:.3f} L")
    print(f"energy harvested: {summary.energy_harvested_Wh:.3f} Wh")
    print(f"energy to pumps: {summary.energy_load_Wh:.3f} Wh, "
          f"curtailed at full charge: {summary.energy_curtailed_Wh:.3f} Wh, "
          f"deficit at empty: {summary.energy_deficit_Wh:.3f} Wh")
    return 0


def _cmd_validate(args):
    from . import validation
    rows = validation.build_report()
    print(validation.format_report(rows))
    path = _out_path(args, "validation_report.csv")
    header, columns = validation.report_columns(rows)
    csvio.emit_csv(header, columns, path)
    print(f"wrote {path}")
    return 0


def build_parser():
    p = _Parser(prog="sunpump", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("pv-curve", help="emit the array I-V/P-V curve")
    q.add_argument("--points", type=int, default=200)
    q.add_argument("--g-t", type=float, default=1000.0,
                   help="irradiance W/m2")
    q.add_argument("--t-c", type=float, default=298.0,
                   help="cell temperature K")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_pv_curve)

    q = sub.add_parser("solar-angles", help="solar/tracker angle table")
    q.add_argument("--day", type=int, default=172, help="day of year")
    q.add_argument("--lat", type=float, default=45.0)
    q.add_argument("--hour-angles", default="-60:60:25",
                   help="start:stop:count, degrees")
    q.add_argument("--azimuth", default="110:250",
                   help="linear solar azimuth profile start:stop")
    q.add_argument("--alpha-target", type=float, default=0.0)
    q.add_argument("--beta-target", type=float, default=0.0)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_solar_angles)

    q = sub.add_parser("track-sim", help="LDR tracking along a sun arc")
    q.add_argument("--steps", type=int, default=200)
    q.add_argument("--elevation", default="30:60", help="start:stop deg")
    q.add_argument("--azimuth", default="90:270", help="start:stop deg")
    q.add_argument("--irradiance", type=float, default=1000.0)
    q.add_argument("--motor-step", type=float, default=1.8)
    q.add_argument("--start", help="initial orientation te:ta")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_track_sim)

    q = sub.add_parser("mppt-run", help="MPPT trajectory")
    q.add_argument("--algo", choices=("po", "ic"), default="po")
    q.add_argument("--steps", type=int, default=120)
    q.add_argument("--g-t", type=float, default=1000.0)
    q.add_argument("--dv-step", type=float, default=0.5)
    q.add_argument("--start-v", type=float)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_mppt_run)

    q = sub.add_parser("tf", help="transfer-function analyses")
    q.add_argument("mode", nargs="?", choices=ANALYSIS_KINDS)
    q.add_argument("--config",
                   help="config file with an [analysis] section")
    preset_arg = q.add_argument("--preset")
    q.add_argument("--tf-text", help="'num: ... / den: ...' literal system")
    q.add_argument("--closed", action="store_true",
                   help="close unity feedback before the step response")
    q.add_argument("--dt", type=float)
    q.add_argument("--t-end", type=float)
    q.add_argument("--gains",
                   help="a:b:n sweep of n log-spaced gains, b > a > 0")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_tf)

    def preset_help():
        from .plants import PRESETS
        preset_arg.help = "named system: " + ", ".join(sorted(PRESETS))
    q.fill_help = preset_help

    q = sub.add_parser("scenario", help="whole-system scenario")
    q.add_argument("action", choices=("run",))
    q.add_argument("--config", help="key = value config file")
    q.add_argument("--dt", type=float)
    q.add_argument("--t-end", type=float)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_scenario)

    validate = sub.add_parser(
        "validate", help="recompute registered reported-number claims",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    validate.add_argument("--out")
    validate.set_defaults(fn=_cmd_validate)

    def registry_help():
        from .validation import build_report
        validate.epilog = "registry rows:\n" + "\n".join(
            "  " + r.id for r in build_report())
    validate.fill_help = registry_help
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # a config that cannot be read is a config error already
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
