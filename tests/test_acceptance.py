"""
Acceptance gate: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from sunpump.lti import (Polynomial, TransferFunction, poly_roots,
                         routh_table, stability_verdict_from_roots,
                         step_metrics, step_response, tf_feedback)
from sunpump.mppt import ic_step, initial_state, mppt_run, po_step
from sunpump.plants import cascade_plant
from sunpump.pv import (array_current, default_array, find_mpp, iv_curve,
                        open_circuit_voltage)
from sunpump.scenario import ScenarioConfig, run_scenario
from sunpump.solar import SunPosition, optimal_orientation
from sunpump.validation import build_report
from test_pv import double_diode_residual
from test_solar import ref_grid_minimize


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" +
          (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_pole_reproduction():
    t0 = time.time()
    roots = poly_roots(Polynomial([1.0, 0.02241, 5.0]))
    osc = max(roots, key=lambda z: z.imag)
    ok = (abs(osc.real - (-0.0112)) < 1e-3
          and abs(osc.imag - 2.236) < 1e-3
          and time.time() - t0 < 1.0)
    _report("criterion 1: oscillatory tank poles -0.0112 +- 2.236i", ok,
            f"computed {osc:.5f}")


def test_criterion_2_cascade_plant_identity():
    plant = cascade_plant()
    target = TransferFunction([0.05], [0.1, 1.1, 1.0])
    ok = (plant.num.coeffs == pytest.approx(target.num.coeffs, rel=1e-12)
          and plant.den.coeffs == pytest.approx(target.den.coeffs,
                                                rel=1e-12))
    _report("criterion 2: pump x tank = 0.05/(0.1 s^2 + 1.1 s + 1)", ok,
            f"normalized num {plant.num.coeffs}, den {plant.den.coeffs}")


def test_criterion_3_stable_for_all_sampled_gains():
    plant = cascade_plant()
    results = []
    for k in (0.1, 1.0, 10.0, 100.0, 1000.0, 1e6):
        cl = tf_feedback(k * plant, 1.0)
        routh = routh_table(cl.den).verdict
        oracle = stability_verdict_from_roots(cl.den)
        results.append((k, routh, oracle))
    ok = all(r == "stable" and o == "stable" for _, r, o in results)
    _report("criterion 3: cascade loop stable for sampled K, Routh == "
            "oracle", ok, str(results))


def test_criterion_4_routh_oracle_equivalence():
    t0 = time.time()
    rng = np.random.RandomState(2024)
    agree = 0
    checked = 0
    while checked < 100:
        deg = rng.randint(2, 7)
        c = rng.uniform(-10.0, 10.0, deg + 1)
        if abs(c[0]) < 1e-3:
            continue
        p = Polynomial(c)
        roots = poly_roots(p)
        if np.any(np.abs(roots.real) < 1e-3):
            continue
        checked += 1
        if routh_table(p).verdict == stability_verdict_from_roots(p):
            agree += 1
    elapsed = time.time() - t0
    ok = agree == 100 and elapsed < 5.0
    _report("criterion 4: Routh verdict == root-sign oracle on 100 random "
            "polynomials", ok, f"{agree}/100 in {elapsed:.2f} s")


@pytest.mark.parametrize("tau", [0.1, 1.0, 475.0])
def test_criterion_5_first_order_analytic(tau):
    trace = step_response(TransferFunction([1.0], [tau, 1.0]), 12.0 * tau)
    m = step_metrics(trace)
    rise_err = abs(m.rise_time_s - tau * math.log(9)) / (tau * math.log(9))
    settle_err = abs(m.settling_time_s - tau * math.log(50)) / \
        (tau * math.log(50))
    ok = rise_err < 0.01 and settle_err < 0.01
    _report(f"criterion 5: first-order metrics at tau={tau}", ok,
            f"rise err {rise_err:.2%}, settling err {settle_err:.2%}")


def test_criterion_6_reported_number_suite():
    rows = {r.id: r for r in build_report()}
    required = {
        "pid2_rise": 0.0204, "pid2_overshoot": 14.4, "pid2_peak": 1.14,
        "pid2_settling": 0.165,
        "cascade_tuned2_rise": 0.146, "cascade_tuned2_settling": 0.796,
        "cascade_tuned2_overshoot": 18.1, "cascade_tuned2_peak": 1.18,
        "cascade_tuned2_gm": 38.9, "cascade_tuned2_gm_freq": 101.0,
        "cascade_tuned2_pm": 49.3, "cascade_tuned2_pm_freq": 8.77,
    }
    problems = []
    for rid, claimed in required.items():
        row = rows.get(rid)
        if row is None:
            problems.append(f"{rid} missing from report")
            continue
        if row.claimed_value != pytest.approx(claimed):
            problems.append(f"{rid} claims {row.claimed_value} != {claimed}")
        if row.status == "MATCH":
            continue
        if row.status == "DEVIATES" and row.note:
            continue   # documented deviation: acceptable outcome
        problems.append(f"{rid} status {row.status} without derivation note")
    # known-inconsistent inputs must be present as registry rows, not gates
    for rid in ("motor_K1e5_rise", "tableII_verdict", "pump_rise"):
        if rid not in rows:
            problems.append(f"{rid} missing from report")
    statuses = {rid: rows[rid].status for rid in required if rid in rows}
    _report("criterion 6: cross-check suite complete, rows MATCH or "
            "documented DEVIATES", not problems,
            "; ".join(problems) or str(statuses))


def test_criterion_7_optimal_orientation_sweep():
    t0 = time.time()
    targets = [(0.0, 0.0), (10.0, 0.0), (15.0, 20.0), (30.0, 45.0),
               (5.0, -30.0), (45.0, 10.0)]
    sun_positions = [SunPosition(se, sa)
                     for se in np.linspace(12.0, 64.0, 10)
                     for sa in np.linspace(40.0, 320.0, 5)]
    assert len(sun_positions) == 50
    unreachable = 0
    worst = 0.0
    for sp in sun_positions:
        for at, bt in targets:
            sol = optimal_orientation(sp, at, bt)
            if not sol.reachable:
                unreachable += 1
            assert sol.achieved_error_deg < 0.5, (sp, at, bt)
            worst = max(worst, sol.achieved_error_deg)
            # brute-force confirmation: the grid optimum is no better
            # than the closed-form answer beyond its own 0.1-degree pitch
            _, grid_err = ref_grid_minimize(sp, at, bt)
            assert grid_err < 0.5 + 0.15
            assert sol.achieved_error_deg <= grid_err + 0.15
    elapsed = time.time() - t0
    ok = unreachable < 0.05 * 300 and elapsed < 30.0
    _report("criterion 7: orientation sweep 50 positions x 6 "
            "targets, all grid-confirmed", ok,
            f"unreachable {unreachable}/300, worst error {worst:.2e} deg, "
            f"{elapsed:.1f} s")


def test_criterion_8_mppt_convergence():
    # synthetic concave curve with analytic maximum at 17 V
    def synthetic(v):
        return (100.0 - (v - 17.0) ** 2) / v if v > 0 else 0.0

    details = []
    ok = True
    for algo, step in (("po", po_step), ("ic", ic_step)):
        st = initial_state(10.0, 0.5)
        for _ in range(200):
            st = step(st, st.V_ref, synthetic(st.V_ref))
        err = abs(st.V_ref - 17.0)
        ok &= err <= 0.5
        details.append(f"{algo} synthetic |V-17| = {err:.3f}")
    ap = default_array()
    best = find_mpp(ap)
    for algo in ("po", "ic"):
        run = mppt_run(ap, algo, initial_state(0.6 * best.V_mpp, 0.5), 200,
                       irradiance=1000.0)
        frac = run.p[-1] / best.P_mpp
        ok &= frac >= 0.98
        details.append(f"{algo} array P/Pmpp = {frac:.4f}")
    _report("criterion 8: P&O and IC converge on synthetic and model "
            "curves", ok, "; ".join(details))


def test_criterion_9_pv_solver():
    ap = default_array()
    voc = open_circuit_voltage(ap)
    grid = np.linspace(0.0, voc, 120)
    curve = iv_curve(ap, grid)
    residuals = [abs(double_diode_residual(ap, v, i))
                 for v, i in zip(curve.voltages, curve.currents)]
    hot, cold = default_array(t_c=318.0), default_array(t_c=298.0)
    p_hot = 35.0 * array_current(hot, 35.0)
    p_cold = 35.0 * array_current(cold, 35.0)
    mpps = [find_mpp(default_array(g)).P_mpp for g in (200.0, 600.0, 1000.0)]
    ok = (max(residuals) < 1e-9 and not curve.skipped
          and p_hot < p_cold and mpps[0] < mpps[1] < mpps[2])
    _report("criterion 9: implicit-solve residuals and monotonicity "
            "properties", ok,
            f"max residual {max(residuals):.2e} A, P35 {p_hot:.0f} < "
            f"{p_cold:.0f} W, MPPs {[round(p, 1) for p in mpps]}")


def test_criterion_10_system_scenario():
    t0 = time.time()
    cfg = ScenarioConfig.default_daylight()
    trace, summary = run_scenario(cfg)
    elapsed = time.time() - t0

    t1 = trace.tank1_level_pct / 100.0 * cfg.tank1_volume_L
    t2 = trace.tank2_level_pct / 100.0 * cfg.tank2_volume_L
    total = t1 + t2 + trace.delivered_soil_L
    conservation = abs(total[-1] - total[0])

    level = trace.tank2_level_pct
    d = np.diff(trace.pump1_on)
    clean_transitions = (
        all(level[i] < cfg.tank_low_pct + 0.05 for i in np.nonzero(d > 0)[0])
        and all(level[i + 1] >= cfg.tank_full_pct - 0.05
                for i in np.nonzero(d < 0)[0]))

    soc = trace.soc_pct
    in_bounds = soc.min() >= 0.0 and soc.max() <= 100.0

    on1 = np.nonzero(d > 0)[0] + 1
    on2 = np.nonzero(np.diff(trace.pump2_on) > 0)[0] + 1
    w = 300
    events_ok = (on1.size >= 1 and on2.size >= 2
                 and soc[on1[0] - 1] > soc[0]            # rise phase
                 and soc[on1[0] + w] < soc[on1[0]]       # dip at pump1
                 and on2[-1] > on1[0]
                 and soc[min(on2[-1] + w, len(soc) - 1)] < soc[on2[-1]])

    ok = (conservation < 1e-6 and clean_transitions and in_bounds
          and events_ok and elapsed < 20.0)
    _report("criterion 10: scenario conservation, hysteresis, SOC shape",
            ok,
            f"conservation {conservation:.2e} L, transitions clean: "
            f"{clean_transitions}, SOC in [{soc.min():.1f}, "
            f"{soc.max():.1f}], events ok: {events_ok}, {elapsed:.1f} s")


def test_criterion_11_determinism(tmp_path):
    from sunpump.cli import main
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[scenario]\nduration_s = 60\ndt_s = 0.1\n")
    blobs = []
    for sub in ("r1", "r2"):
        d = tmp_path / sub
        assert main(["scenario", "run", "--config", str(cfg),
                     "--out", str(d)]) == 0
        assert main(["validate", "--out", str(d)]) == 0
        blobs.append((d / "scenario_trace.csv").read_bytes()
                     + (d / "validation_report.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report("criterion 11: byte-identical repeated runs", ok,
            f"{len(blobs[0])} bytes compared")
