import dataclasses
import math
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import (assume, example, given, settings,
                        strategies as st)
import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from sunpump import pv
from sunpump.pv import (PvCellParams, PvArrayParams, PvSolverError,
                        array_current, default_array, find_mpp, iv_curve,
                        open_circuit_voltage, thermal_voltage)


def double_diode_residual(ap, v, i):
    """
    Independent oracle for the 1e-9 A contract: the array equation
    written out here, apart from the solver,

        I - N_p (I_ph - I_o1 (e^(u/Vt1) - 1) - I_o2 (e^(u/Vt2) - 1) - u/R_p)

    with u = V/N_s + I R_s/N_p and the saturation currents at the cell
    temperature by the cubed-power law.  Each exponent is capped at 700,
    as the model caps it, so that the mismatch stays finite on the wide
    brackets a root finder tries.
    """
    c = ap.cell
    law = (c.T_c / 298.0) ** 3 * math.exp(min(
        1.12 / 8.617333262e-5 * (1.0 / 298.0 - 1.0 / c.T_c), 700.0))
    vt1 = c.a1 * 1.381e-23 * c.T_c / 1.602e-19
    vt2 = c.a2 * 1.381e-23 * c.T_c / 1.602e-19
    u = v / ap.N_s + i * c.R_s / ap.N_p
    return i - ap.N_p * (
        c.I_ph - c.I_o1 * law * (math.exp(min(u / vt1, 700.0)) - 1.0)
        - c.I_o2 * law * (math.exp(min(u / vt2, 700.0)) - 1.0) - u / c.R_p)


def cell_current(p, v):
    """The cell current: the array solve on a 1x1 array of cell ``p``."""
    return array_current(PvArrayParams(p), v)


def brute_force_cell_current(p, v, lo=-2.0, hi=10.0, step=1e-6):
    """Independent oracle: scan f(I) for its sign change, then bisect."""
    def f(i):
        vt1 = 1.381e-23 * p.a1 * p.T_c / 1.602e-19
        vt2 = 1.381e-23 * p.a2 * p.T_c / 1.602e-19
        u = v + i * p.R_s
        return i - (p.I_ph
                    - p.I_o1 * (math.exp(u / vt1) - 1.0)
                    - p.I_o2 * (math.exp(u / vt2) - 1.0)
                    - u / p.R_p)

    # coarse scan at 1e-3 to find the sign change, then refine to `step`
    prev_i, prev_f = lo, f(lo)
    found = None
    for i in np.arange(lo, hi, 1e-3):
        fi = f(i)
        if prev_f <= 0 <= fi or fi <= 0 <= prev_f:
            found = (prev_i, i)
            break
        prev_i, prev_f = i, fi
    assert found is not None
    a, b = found
    while b - a > step:
        mid = 0.5 * (a + b)
        if f(a) * f(mid) <= 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


class TestThermalVoltage:
    def test_room_temperature(self):
        assert thermal_voltage(1.0, 300.0) == pytest.approx(0.02586, abs=1e-5)

    def test_linearity_in_ideality(self):
        assert thermal_voltage(2.0, 300.0) == 2 * thermal_voltage(1.0, 300.0)

    def test_zero_temperature_boundary(self):
        assert thermal_voltage(1.0, 0.0) == 0.0


class TestCellCurrent:
    def test_dark_cell_short_circuit(self):
        p = PvCellParams(I_ph=0.0, I_o1=1e-10, I_o2=1e-6, R_s=0.01,
                         R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        assert cell_current(p, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_ideal_cell_short_circuit_is_photocurrent(self):
        p = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.0,
                         R_p=1e12, a1=1.0, a2=2.0, T_c=298.0)
        assert cell_current(p, 0.0) == pytest.approx(8.0, rel=1e-12)

    def test_against_bisection_oracle(self):
        p = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-10, R_s=0.01,
                         R_p=50.0, a1=1.0, a2=2.0, T_c=298.0)
        oracle = brute_force_cell_current(p, 0.5)
        assert cell_current(p, 0.5) == pytest.approx(oracle, abs=2e-6)

    def test_residual_contract(self):
        p = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.01,
                         R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        for v in (0.0, 0.2, 0.45, 0.6):
            i = cell_current(p, v)
            ap = PvArrayParams(cell=p)
            assert abs(double_diode_residual(ap, v, i)) < 1e-9


class TestArrayCurrent:
    def test_reduces_to_cell_at_1x1(self):
        ap = default_array()
        single = PvArrayParams(cell=ap.cell, N_s=1, N_p=1)
        assert array_current(single, 0.5) == pytest.approx(
            brute_force_cell_current(ap.cell, 0.5), abs=2e-6)

    def test_parallel_scaling_ideal(self):
        cell = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.0,
                            R_p=1e12, a1=1.0, a2=2.0, T_c=298.0)
        one = PvArrayParams(cell=cell, N_s=1, N_p=1)
        two = PvArrayParams(cell=cell, N_s=1, N_p=2)
        v = 0.4
        assert array_current(two, v) == pytest.approx(
            2 * array_current(one, v), rel=1e-12)

    def test_72_cell_config_oracle(self):
        # independent bisection oracle written directly on the array
        # equation, nothing shared with the implementation
        cell = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.01,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        n_s, n_p, v = 72, 2, 30.0
        ap = PvArrayParams(cell=cell, N_s=n_s, N_p=n_p)

        def f(i):
            vt1 = 1.381e-23 * cell.a1 * cell.T_c / 1.602e-19
            vt2 = 1.381e-23 * cell.a2 * cell.T_c / 1.602e-19
            u = v / n_s + i * cell.R_s / n_p
            return i - (n_p * cell.I_ph
                        - n_p * cell.I_o1 * (math.exp(u / vt1) - 1.0)
                        - n_p * cell.I_o2 * (math.exp(u / vt2) - 1.0)
                        - (n_p / cell.R_p) * u)

        lo, hi = -2.0, 20.0
        assert f(lo) < 0 < f(hi)
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        i = array_current(ap, v)
        assert i == pytest.approx(oracle, abs=1e-8)
        assert abs(double_diode_residual(ap, v, i)) < 1e-9

    def test_monotone_in_voltage(self):
        ap = default_array()
        voc = open_circuit_voltage(ap)
        grid = np.linspace(0.0, voc, 40)
        currents = [array_current(ap, v) for v in grid]
        assert all(a >= b - 1e-12 for a, b in zip(currents, currents[1:]))

    def test_photocurrent_proportionality(self):
        cell = PvCellParams(I_ph=4.0, I_o1=1e-10, I_o2=1e-6, R_s=0.0,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        lam = 1.7
        scaled = PvCellParams(I_ph=4.0 * lam, I_o1=1e-10, I_o2=1e-6,
                              R_s=0.0, R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        i1 = cell_current(cell, 0.0)
        i2 = cell_current(scaled, 0.0)
        assert i2 == pytest.approx(lam * i1, rel=1e-6)


def brentq_reference_current(ap, v):
    """The bracketed brentq solve, as the solver ran before Newton."""
    f = lambda i: double_diode_residual(ap, v, i)
    i_ph = ap.N_p * ap.cell.I_ph
    hi = i_ph + 1.0
    lo = -(i_ph + abs(v) / ap.cell.R_p + 10.0)
    if f(lo) * f(hi) > 0:
        lo, hi = lo * 10 - 10, hi * 10 + 10
    return brentq(f, lo, hi, xtol=1e-13, rtol=8.882e-16, maxiter=200)


class TestNewtonSolve:
    def test_matches_brentq_on_seeded_grid(self):
        rng = np.random.default_rng(2011)
        n = 10000
        grid = zip(rng.uniform(0.0, 1200.0, n).tolist(),
                   rng.uniform(250.0, 350.0, n).tolist(),
                   rng.uniform(-5.0, 25.0, n).tolist())
        worst_delta = worst_residual = 0.0
        for g, t, v in grid:
            ap = default_array(g, t)
            i = array_current(ap, v)
            worst_delta = max(worst_delta,
                              abs(i - brentq_reference_current(ap, v)))
            worst_residual = max(worst_residual,
                                 abs(double_diode_residual(ap, v, i)))
        assert worst_delta <= 1e-12
        assert worst_residual <= 1e-12

    def test_far_start_moves_to_closed_form(self):
        # R_s = 5 ohm at 0 V: the start I_ph + 1 lies ~1700 thermal
        # voltages right of the root, so Newton starts instead where one
        # diode alone carries more than I_ph + 1, f >= 1, and settles
        p = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=5.0,
                         R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        ap = PvArrayParams(cell=p)
        assert 9.0 * 5.0 / thermal_voltage(2.0, 298.0) > pv._START_EXP_MAX
        start = float(pv._right_start(pv.array_solve(ap), 0.0, 8.0))
        assert start < 9.0
        assert double_diode_residual(ap, 0.0, start) >= 1.0
        i = cell_current(p, 0.0)
        assert abs(double_diode_residual(ap, 0.0, i)) <= 1e-12
        assert i == pytest.approx(
            brute_force_cell_current(p, 0.0, lo=-2.0, hi=2.0), abs=2e-6)

    @pytest.mark.parametrize("v", [-10.0, -15.0, -20.0])
    def test_left_start_goes_on_from_closed_form(self, v, monkeypatch):
        # at these negative voltages I_ph + 1 lies left of the root, and
        # Newton's first step overshoots far right of it, from where it
        # did not settle within the budget; it goes on from the nearer
        # closed-form start instead
        monkeypatch.setattr(pv, "_NEWTON_MAX_ITER",
                            pv._NEWTON_MAX_ITER // 2)
        cell = PvCellParams(I_ph=2.33, I_o1=1.43e-8, I_o2=1.02e-4,
                            R_s=2.16, R_p=546.0, a1=0.635, a2=2.26,
                            T_c=393.5)
        ap = PvArrayParams(cell, N_s=1, N_p=2)
        assert double_diode_residual(ap, v, 2 * 2.33 + 1.0) < 0.0
        i = array_current(ap, v)
        assert abs(double_diode_residual(ap, v, i)) <= 1e-12
        assert pv.array_current_lanes(ap, v, np.array([1000.0]))[0][0] == i

    @pytest.mark.parametrize("n_p", [1, 2])
    def test_large_series_resistance_settles_by_newton(self, n_p):
        # R_s = 0.3 ohm on a cold array starts Newton far right of the
        # root; every solve still settles
        base = default_array(1000.0, 275.0)
        cell = PvCellParams(base.cell.I_ph, base.cell.I_o1, base.cell.I_o2,
                            0.3, base.cell.R_p, 1.0, 2.0, 275.0)
        ap = PvArrayParams(cell, N_s=36, N_p=n_p, area_A=0.5)
        g = np.random.default_rng(17).uniform(0.0, 1200.0, 300)
        for v in (0.0, 17.25):
            for x in g.tolist():
                lit = ap.at_irradiance(x)
                i = array_current(lit, v)
                assert abs(double_diode_residual(lit, v, i)) <= 1e-12
            assert pv.array_current_lanes(ap, v, g)[1].size == 0

    def test_explicit_without_series_resistance(self):
        p = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.0,
                         R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        v = 0.5
        vt1, vt2 = thermal_voltage(1.0, 298.0), thermal_voltage(2.0, 298.0)
        expected = (8.0 - 1e-10 * (math.exp(v / vt1) - 1.0)
                    - 1e-6 * (math.exp(v / vt2) - 1.0) - v / 100.0)
        assert cell_current(p, v) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("g", [50.0, 400.0, 1000.0])
    def test_daylight_range_never_falls_back(self, g):
        # the scenario's operating range, 0 to Voc of the default array,
        # settles at the 1e-12 A acceptance
        ap = default_array(g)
        voc = open_circuit_voltage(ap)
        for v in np.linspace(0.0, voc, 301).tolist():
            assert abs(double_diode_residual(ap, v, array_current(ap, v))) \
                <= 1e-12

    def test_large_series_resistance_matches_brentq(self):
        # the series resistances whose start I_ph + 1 lies far right of
        # the root, where the closed-form start takes over
        rng = np.random.default_rng(4242)
        n = 400
        worst_delta = worst_residual = 0.0
        for r_s, g, t, v in zip(rng.uniform(1.0, 10.0, n).tolist(),
                                rng.uniform(0.0, 1200.0, n).tolist(),
                                rng.uniform(250.0, 350.0, n).tolist(),
                                rng.uniform(-5.0, 25.0, n).tolist()):
            base = default_array(g, t).cell
            cell = PvCellParams(base.I_ph, base.I_o1, base.I_o2, r_s,
                                base.R_p, 1.0, 2.0, t)
            ap = PvArrayParams(cell, N_s=36)
            i = array_current(ap, v)
            worst_delta = max(worst_delta,
                              abs(i - brentq_reference_current(ap, v)))
            worst_residual = max(worst_residual,
                                 abs(double_diode_residual(ap, v, i)))
        assert worst_delta <= 1e-12
        assert worst_residual <= 1e-12

    def test_accepted_cells_settle_in_half_the_budget(self, monkeypatch):
        # a seeded sweep over cells the checks accept, at -1e4 V, 0 V,
        # -100 V to 3 V_oc and 1e4 V: every current and open-circuit
        # voltage settles within half of the Newton budget, which is
        # twice the worst case of larger sweeps (46 iterations, 14 for
        # V_oc)
        monkeypatch.setattr(pv, "_NEWTON_MAX_ITER",
                            pv._NEWTON_MAX_ITER // 2)
        rng = np.random.default_rng(2022)
        log_uniform = lambda lo, hi: float(10.0 ** rng.uniform(lo, hi))
        for _ in range(400):
            cell = PvCellParams(
                I_ph=rng.choice([0.0, log_uniform(-3.0, 1.5)]),
                I_o1=log_uniform(-20.0, -3.0), I_o2=log_uniform(-20.0, -3.0),
                R_s=log_uniform(-6.0, math.log10(50.0)),
                R_p=log_uniform(-2.0, 6.0), a1=float(rng.uniform(0.5, 3.0)),
                a2=float(rng.uniform(0.5, 3.0)),
                T_c=float(rng.uniform(50.0, 400.0)))
            ap = PvArrayParams(cell, N_s=int(rng.choice([1, 36, 72])),
                               N_p=int(rng.choice([1, 2])))
            voc = open_circuit_voltage(ap)
            v = np.concatenate([np.linspace(-100.0, 3.0 * voc, 20),
                                [-1e4, 0.0, 1e4]])
            for x in v.tolist():
                array_current(ap, x)
            assert pv.array_current_lanes(ap, v, ap.irradiance_G_T)[1] \
                .size == 0

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_nonfinite_voltage_fails_the_solve(self, v):
        # a NaN mismatch must not end the descent: the solve runs out
        # its budget and raises rather than return a current
        with pytest.raises(pv.PvSolverError):
            array_current(default_array(), v)


def brentq_reference_voc(ap):
    """The open-circuit voltage as ``brentq`` on I(V) = 0 located it
    before the explicit Newton."""
    p = ap.cell
    if p.I_ph <= 0:
        return 0.0
    io1 = pv._saturation_at_temperature(p.I_o1, p.T_c)
    io2 = pv._saturation_at_temperature(p.I_o2, p.T_c)
    vt1 = thermal_voltage(p.a1, p.T_c)
    vt2 = thermal_voltage(p.a2, p.T_c)
    bound = ap.N_s * min(vt1 * math.log(p.I_ph / io1 + 1.0),
                         vt2 * math.log(p.I_ph / io2 + 1.0)) + 1.0
    f = lambda v: array_current(ap, v)
    if f(0.0) <= 0:
        return 0.0
    return brentq(f, 0.0, bound, xtol=1e-10)


class TestOpenCircuitVoltage:
    def test_matches_brentq_on_seeded_grid(self):
        rng = np.random.default_rng(305)
        worst_delta = worst_current = 0.0
        for g, t in zip(rng.uniform(0.0, 1200.0, 305).tolist(),
                        rng.uniform(250.0, 350.0, 305).tolist()):
            ap = default_array(g, t)
            voc = open_circuit_voltage(ap)
            worst_delta = max(worst_delta,
                              abs(voc - brentq_reference_voc(ap)))
            worst_current = max(worst_current, abs(array_current(ap, voc)))
        assert worst_delta <= 1e-10
        assert worst_current <= 1e-12

    def test_bit_identical_at_the_scenario_array(self):
        # the scenario's only V_oc: its 0.8 V_oc MPPT start, and so the
        # daylight trace, depend on every bit of it
        ap = default_array(1000.0)
        assert open_circuit_voltage(ap) == brentq_reference_voc(ap)

    def test_overflowing_start_raises(self):
        # both saturation currents are so small that I_ph / io overflows:
        # the open-circuit root lies far beyond the exponent cap
        cell = PvCellParams(I_ph=8.0, I_o1=1e-320, I_o2=1e-320, R_s=0.01,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        with pytest.raises(pv.PvSolverError):
            open_circuit_voltage(PvArrayParams(cell, N_s=36))

    @pytest.mark.parametrize("i_o", [1e-305, 3e-304])
    def test_exponent_at_the_cap_raises(self, i_o):
        # u_oc / Vt1 = ln(8 A / I_o) is 704 and 701: the current solve caps
        # its exponents at 700 short of V_oc, so with I_o = 1e-305 the
        # array carried 7.7 A at a 651 V "V_oc" and find_mpp reported a
        # 5 kW maximum there
        cell = PvCellParams(I_ph=8.0, I_o1=i_o, I_o2=i_o, R_s=0.01,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        ap = PvArrayParams(cell, N_s=36)
        for fn in (open_circuit_voltage, find_mpp):
            with pytest.raises(PvSolverError, match="700"):
                fn(ap)

    def test_exponent_just_below_the_cap_solves(self):
        # u_oc / Vt1 = 699.74: below the cap the current vanishes at V_oc
        cell = PvCellParams(I_ph=8.0, I_o1=1e-303, I_o2=1e-303, R_s=0.01,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        ap = PvArrayParams(cell, N_s=36)
        voc = open_circuit_voltage(ap)
        assert 699.0 < voc / 36 / thermal_voltage(1.0, 298.0) < 700.0
        assert abs(array_current(ap, voc)) <= 1e-9

    @pytest.mark.parametrize("i_o", [1e-10, 1e-6, 3.7e-9])
    def test_saturation_law_is_exact_at_the_reference(self, i_o):
        assert pv._saturation_at_temperature(i_o, pv.T_REFERENCE_K) == i_o


def test_cli_import_loads_no_scipy():
    src = str(Path(pv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, sunpump.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


class TestIvCurve:
    def test_power_zero_at_zero_volts(self):
        ap = default_array()
        curve = iv_curve(ap, np.linspace(0.0, 10.0, 5))
        assert curve.powers[0] == 0.0
        assert np.allclose(curve.powers, curve.voltages * curve.currents)

    def test_temperature_lowers_power_at_high_voltage(self):
        hot = default_array(t_c=318.0)
        cold = default_array(t_c=298.0)
        p_hot = 35.0 * array_current(hot, 35.0)
        p_cold = 35.0 * array_current(cold, 35.0)
        assert p_hot < p_cold

    def test_temperature_lowers_voc(self):
        assert open_circuit_voltage(default_array(t_c=318.0)) < \
            open_circuit_voltage(default_array(t_c=298.0))

    def test_mpp_rises_with_irradiance(self):
        p200 = find_mpp(default_array(200.0)).P_mpp
        p600 = find_mpp(default_array(600.0)).P_mpp
        p1000 = find_mpp(default_array(1000.0)).P_mpp
        assert p200 < p600 < p1000

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            iv_curve(default_array(), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("grid", [
        [5.0, math.nan, 1.0], [0.0, math.nan], [math.nan], [0.0, math.inf],
        [-math.inf, 0.0], [1.0, 1.0]])
    def test_grid_must_be_finite_and_strictly_ascending(self, grid):
        # a NaN fails every comparison, so [5, nan, 1] used to pass the
        # ascending check and return a curve that runs backwards, [5, 1]
        with pytest.raises(ValueError, match="finite and strictly ascending"):
            iv_curve(default_array(), grid)


class TestFindMpp:
    def test_matches_grid_scan_oracle(self):
        ap = default_array()
        voc = open_circuit_voltage(ap)
        grid = np.arange(0.0, voc, 0.01)
        powers = np.array([v * array_current(ap, v) for v in grid])
        v_oracle = grid[int(np.argmax(powers))]
        m = find_mpp(ap)
        assert abs(m.V_mpp - v_oracle) < 1e-2 + 1e-3
        assert m.P_mpp >= powers.max() - 1e-6

    def test_dark_array(self):
        ap = default_array(0.0)
        m = find_mpp(ap)
        assert m.P_mpp == 0.0

    def test_result_has_no_unimodal_flag(self):
        # P(V) is concave on [0, V_oc]: there is no second peak to flag
        assert [f.name for f in dataclasses.fields(pv.MppResult)] == [
            "V_mpp", "I_mpp", "P_mpp"]

    @pytest.mark.parametrize("t_c", [250.0, 298.0, 340.0])
    @pytest.mark.parametrize("g", [1.0, 50.0, 200.0, 600.0, 1000.0, 1500.0])
    def test_matches_dense_grid_oracle(self, g, t_c):
        # the grid's best point lies within one grid step of the true
        # maximum, and the search's within half its 1e-4 V bracket
        base = default_array(1000.0, t_c)
        ap = base.at_irradiance(g)
        voc = open_circuit_voltage(ap)
        grid = np.linspace(0.0, voc, 4001)
        cur, left_open = pv.array_current_lanes(base, grid, g)
        assert left_open.size == 0
        powers = grid * cur
        k = int(np.argmax(powers))
        m = find_mpp(ap)
        assert abs(m.V_mpp - grid[k]) <= grid[1] + 0.5e-4
        assert m.P_mpp >= powers[k] * (1.0 - 1e-8)
        assert m.P_mpp == m.V_mpp * m.I_mpp

    def test_parallel_doubling_doubles_power(self):
        cell = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.0,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        one = PvArrayParams(cell=cell, N_s=36, N_p=1)
        two = PvArrayParams(cell=cell, N_s=36, N_p=2)
        assert find_mpp(two).P_mpp == pytest.approx(
            2 * find_mpp(one).P_mpp, rel=1e-3)


_log_uniform = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0 ** e)


@given(cell=st.builds(PvCellParams, I_ph=st.floats(0.1, 10.0),
                      I_o1=_log_uniform(-12, -6), I_o2=_log_uniform(-10, -4),
                      R_s=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                      R_p=_log_uniform(0, 4), a1=st.floats(0.5, 3.0),
                      a2=st.floats(0.5, 3.0), T_c=st.floats(50.0, 400.0)),
       n_s=st.sampled_from([1, 36, 72]), n_p=st.sampled_from([1, 2]))
def test_power_is_concave_up_to_voc(cell, n_s, n_p):
    """find_mpp's premise: below the exponent cap, which
    open_circuit_voltage checks, P(V) is concave on [0, V_oc], so its
    second differences on a grid are never positive and the search
    finds the grid's peak."""
    ap = PvArrayParams(cell, N_s=n_s, N_p=n_p)
    try:
        voc = open_circuit_voltage(ap)
    except PvSolverError:
        assume(False)
    v = np.linspace(0.0, voc, 401)
    cur, left_open = pv.array_current_lanes(ap, v, ap.irradiance_G_T)
    for j in left_open.tolist():    # lanes left to the scalar solve
        cur[j] = array_current(ap, v[j])
    powers = v * cur
    assert np.all(np.diff(powers, 2) <= 0.0)
    m = find_mpp(ap)
    assert abs(m.V_mpp - v[int(np.argmax(powers))]) <= v[1] + 0.5e-4


class TestEfficiency:
    def test_default_array_band(self):
        # conversion efficiency V I / (A G_T) at the MPP: the default
        # parameter set lands at 0.267 (8 A photocurrent on half a square
        # meter), so the sanity band tops out above that
        ap = default_array()
        m = find_mpp(ap)
        eta = m.V_mpp * m.I_mpp / (ap.area_A * ap.irradiance_G_T)
        assert 0.0 < eta < 0.30


class TestParamValidation:
    def test_bad_ideality(self):
        with pytest.raises(ValueError):
            PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.01,
                         R_p=100.0, a1=0.1, a2=2.0, T_c=298.0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            PvArrayParams(cell=default_array().cell, N_s=0)

    @pytest.mark.parametrize("field", ["I_ph", "I_o1", "I_o2", "R_s", "R_p",
                                       "a1", "a2", "T_c"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_cell_field(self, field, x):
        # a NaN photocurrent used to pass the I_ph < 0 check
        kwargs = dict(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.01, R_p=100.0,
                      a1=1.0, a2=2.0, T_c=298.0)
        kwargs[field] = x
        with pytest.raises(ValueError):
            PvCellParams(**kwargs)

    @pytest.mark.parametrize("t_c", [-1.0, 0.0, 5.0, 17.5, 18.0, 49.9])
    def test_cold_cell_rejected(self, t_c):
        # near 17 K the saturation currents underflow to 0, and the
        # solves fail with messages that name neither T_c nor its range
        with pytest.raises(ValueError, match=r"T_c = .* K .* T_c >= 50 K"):
            default_array(1000.0, t_c)

    @pytest.mark.parametrize("t_c", [50.0, 250.0, 298.0, 350.0])
    def test_supported_temperatures_solve(self, t_c):
        ap = default_array(1000.0, t_c)
        voc = open_circuit_voltage(ap)
        assert 0.0 < voc < math.inf
        assert abs(double_diode_residual(ap, 0.5 * voc,
                                    array_current(ap, 0.5 * voc))) <= 1e-9

    @pytest.mark.parametrize("field", ["N_s", "N_p", "area_A",
                                       "irradiance_G_T"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_array_field(self, field, x):
        with pytest.raises(ValueError):
            PvArrayParams(cell=default_array().cell, **{field: x})

    def test_dark_array_cannot_be_lit_again(self):
        # the dark array's 0 A was taken as its 1000 W/m2 photocurrent,
        # so lighting it again gave 0 A
        dark = default_array(0.0)
        with pytest.raises(ValueError, match="dark array"):
            dark.at_irradiance(1000.0)
        with pytest.raises(ValueError, match="dark array"):
            pv.array_current_lanes(dark, 10.0, np.array([1000.0]))

    def test_lit_cell_at_zero_irradiance_rejected(self):
        # its 8 A used to be scaled as a 1000 W/m2 value: 4 A at 500
        with pytest.raises(ValueError,
                           match="I_ph = 8 A at irradiance_G_T = 0"):
            PvArrayParams(default_array().cell, N_s=36, irradiance_G_T=0.0)

    def test_lit_arrays_scale_as_before(self):
        ap = default_array(250.0)
        assert ap.at_irradiance(500.0).cell.I_ph == \
            ap.cell.I_ph / (250.0 / 1000.0) * 500.0 / 1000.0
        assert ap.at_irradiance(0.0).cell.I_ph == 0.0


class TestCurrentLanes:
    """``array_current_lanes`` equals the scalar solve lane by lane, bit
    for bit, and leaves to it the lanes it does not settle."""

    @pytest.mark.parametrize("t_c,r_s", [(298.0, 0.01), (320.0, 0.01),
                                         (298.0, 0.0), (275.0, 0.3),
                                         (298.0, 5.0)])
    def test_lanes_match_scalar_solve(self, t_c, r_s):
        # at R_s = 5 ohm most lanes start at the closed form; every lane
        # settles
        base = default_array(1000.0, t_c)
        cell = PvCellParams(base.cell.I_ph, base.cell.I_o1, base.cell.I_o2,
                            r_s, base.cell.R_p, 1.0, 2.0, t_c)
        ap = PvArrayParams(cell, N_s=36, N_p=2, area_A=0.5)
        rng = np.random.default_rng(17)
        g = np.concatenate([rng.uniform(0.0, 1200.0, 300), [0.0, 1e-6]])
        for v in (-40.0, 0.0, 9.5, 17.25, 20.0, 23.0):
            cur, left_open = pv.array_current_lanes(ap, v, g)
            assert left_open.size == 0
            want = np.array([array_current(ap.at_irradiance(x), v)
                             for x in g.tolist()])
            assert np.array_equal(cur.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("r_s", [0.01, 0.0, 5.0])
    def test_per_lane_voltages_match_scalar_solve(self, r_s):
        # one voltage per lane, mixed: 0 V and -0.0, negative voltages,
        # and voltages far above V_oc, where the current is the model's
        # root, -2 698.33 A at 1000 V; every lane settles
        base = default_array(1000.0)
        cell = PvCellParams(base.cell.I_ph, base.cell.I_o1, base.cell.I_o2,
                            r_s, base.cell.R_p, 1.0, 2.0, 298.0)
        ap = PvArrayParams(cell, N_s=36, N_p=1, area_A=0.5)
        rng = np.random.default_rng(29)
        special = [0.0, -0.0, -0.0, 0.0, -1.0, -40.0, 30.0, 1000.0, 1e4]
        v = np.concatenate([rng.uniform(-40.0, 25.0, 150), special])
        g = np.concatenate([rng.uniform(0.0, 1200.0, 150),
                            [800.0, 800.0, 0.0, 1e-6, 500.0, 900.0, 1000.0,
                             900.0, 200.0]])
        cur, left_open = pv.array_current_lanes(ap, v, g)
        assert left_open.size == 0
        want = np.array([array_current(ap.at_irradiance(y), x)
                         for x, y in zip(v.tolist(), g.tolist())])
        assert np.array_equal(cur.view(np.int64), want.view(np.int64))
        if r_s == 0.01:
            assert cur[157] == pytest.approx(-2698.33, abs=5e-3)   # 1000 V

    def test_rejected_photocurrent_left_open(self):
        ap = default_array()
        cur, left_open = pv.array_current_lanes(
            ap, 10.0, np.array([500.0, -1.0, np.nan, 800.0]))
        assert left_open.tolist() == [1, 2]
        assert np.isnan(cur[[1, 2]]).all()
        assert cur[3] == array_current(ap.at_irradiance(800.0), 10.0)


def _outcome(solve):
    """A solve's current as its int64 bits, or its error as (type,
    message)."""
    try:
        return int(np.float64(solve()).view(np.int64))
    except (ValueError, PvSolverError) as exc:
        return type(exc), str(exc)


class TestCurrentAtMatchesLitArray:
    """``array_current_at`` on a solve set up once equals the solve on
    the lit array, ``array_current(ap.at_irradiance(g), v)``, bit for
    bit, and raises what it raises.  The examples pin the paths a draw
    may miss: the closed-form start (R_s = 5 ohm near 0 V, and the 50 K
    array at 1.9 and 3 V_oc), the irradiances ``at_irradiance`` refuses,
    and a dark array."""

    @settings(max_examples=300)
    @given(g0=st.sampled_from([1000.0, 400.0]),
           r_s=st.sampled_from([0.0, 0.01, 5.0]),
           t_c=st.sampled_from([50.0, 298.0, 400.0]),
           n_p=st.sampled_from([1, 2]),
           g=st.one_of(st.sampled_from([0.0, 1e-6, math.nan, -1.0,
                                        math.inf]),
                       st.floats(0.0, 1200.0)),
           at=st.floats(0.0, 1.0))
    @example(g0=1000.0, r_s=5.0, t_c=298.0, n_p=1, g=800.0,
             at=100.0 / (3 * 23.18 + 100.0))
    @example(g0=1000.0, r_s=0.01, t_c=50.0, n_p=1, g=1000.0, at=0.8)
    @example(g0=1000.0, r_s=0.01, t_c=50.0, n_p=2, g=1200.0, at=1.0)
    @example(g0=1000.0, r_s=0.01, t_c=298.0, n_p=1, g=-1.0, at=0.5)
    @example(g0=1000.0, r_s=0.01, t_c=298.0, n_p=1, g=math.nan, at=0.5)
    @example(g0=1000.0, r_s=0.01, t_c=298.0, n_p=1, g=math.inf, at=0.5)
    @example(g0=0.0, r_s=0.01, t_c=298.0, n_p=1, g=500.0, at=0.5)
    def test_bits_and_errors(self, g0, r_s, t_c, n_p, g, at):
        # V runs over [-100, 3 V_oc] of the array at g0
        base = default_array(g0, t_c)
        cell = dataclasses.replace(base.cell, R_s=r_s)
        ap = PvArrayParams(cell, N_s=36, N_p=n_p, area_A=0.5,
                           irradiance_G_T=g0)
        v = -100.0 + at * (3.0 * open_circuit_voltage(ap) + 100.0)
        want = _outcome(lambda: array_current(ap.at_irradiance(g), v))
        got = _outcome(lambda: pv.array_current_at(pv.array_solve(ap), v,
                                                   g))
        assert got == want, (v, g)


def mpmath_current(ap, v):
    """
    Independent oracle for the 1e-9 A contract at 50 digits: the root of
    the array equation (as in :func:`double_diode_residual`, uncapped)
    found by bisection on a bracket the mismatch changes sign on,
    returned as a float.  The bracket starts at (-1, N_p I_ph + 1) and
    each end widens tenfold until it holds the root, which lies below -1
    far above V_oc and above N_p I_ph + 1 at strongly negative voltages.
    ``mpmath.findroot``'s bracketing solvers miss many of these roots,
    where the mismatch is exponentially steep.
    """
    c = ap.cell
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        t_c = mpf(c.T_c)
        law = (t_c / 298) ** 3 * mpmath.exp(
            mpf(1.12) / mpf(8.617333262e-5) * (mpf(1) / 298 - 1 / t_c))
        vt1 = c.a1 * mpf(1.381e-23) * t_c / mpf(1.602e-19)
        vt2 = c.a2 * mpf(1.381e-23) * t_c / mpf(1.602e-19)

        def f(i):
            u = mpf(v) / ap.N_s + i * mpf(c.R_s) / ap.N_p
            return i - ap.N_p * (
                c.I_ph - c.I_o1 * law * mpmath.expm1(u / vt1)
                - c.I_o2 * law * mpmath.expm1(u / vt2) - u / c.R_p)

        lo, hi = mpf(-1), ap.N_p * mpf(c.I_ph) + 1
        while not f(lo) < 0:
            lo *= 10
        while not f(hi) > 0:
            hi *= 10
        for _ in range(80):   # to 1e-20 A and finer: far below a float
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


class TestCurrentAgainstMpmath:
    """The solve meets the 1e-9 A contract against a 50-digit root of
    the same equation, whichever exp the solve uses.  The mismatch has
    slope >= 1 in I, so a current within 1e-9 A of the root is the
    residual contract stated on the current itself."""

    @pytest.mark.parametrize("t_c", [250.0, 298.0, 350.0],
                             ids=["cold", "reference", "hot"])
    def test_current_within_contract(self, t_c):
        rng = np.random.default_rng(int(t_c))
        for g in [1000.0, 1200.0, 50.0, *rng.uniform(1.0, 1200.0, 3)]:
            ap = default_array(g, t_c)
            voc = open_circuit_voltage(ap)
            volts = [0.0, 0.5 * voc, voc * (1.0 - 1e-6), voc,
                     *rng.uniform(0.0, voc, 4)]
            lanes, left_open = pv.array_current_lanes(
                default_array(1000.0, t_c), np.array(volts),
                np.full(len(volts), g))
            assert left_open.size == 0
            for v, lane in zip(volts, lanes.tolist()):
                want = mpmath_current(ap, v)
                assert abs(array_current(ap, v) - want) <= 1e-9, (g, v)
                assert abs(lane - want) <= 1e-9, (g, v)

    @pytest.mark.parametrize("t_c,r_s", [(50.0, 0.01), (298.0, 5.0),
                                         (298.0, 50.0), (50.0, 50.0)])
    def test_far_starts_within_contract(self, t_c, r_s):
        # the closed-form start: large series resistances, the coldest
        # cell, strongly negative voltages and 1000 V, far above V_oc;
        # at 50 K and 56.86 V the iterates cycle over 3 floats
        base = default_array(1000.0, t_c)
        ap = PvArrayParams(dataclasses.replace(base.cell, R_s=r_s), N_s=36,
                           N_p=1, area_A=0.5)
        voc = open_circuit_voltage(ap)
        volts = [-100.0, 0.0, 0.5 * voc, voc, 56.86, 3.0 * voc, 1000.0]
        for g in (1000.0, 200.0):
            lanes, left_open = pv.array_current_lanes(
                ap, np.array(volts), np.full(len(volts), g))
            assert left_open.size == 0
            lit = ap.at_irradiance(g)
            for v, lane in zip(volts, lanes.tolist()):
                want = mpmath_current(lit, v)
                assert abs(array_current(lit, v) - want) <= 1e-9, (g, v)
                assert lane == array_current(lit, v), (g, v)


def assert_elementwise(fn, x, rng):
    """``float(fn(a))`` on each float a of ``x`` has the bits of ``fn``
    on any array holding it: whole, sliced, strided or gathered."""
    want = np.array([float(fn(a)) for a in x.tolist()])
    # a numpy float64 argument, as the solve may get, gives the same
    assert np.array_equal(want.view(np.int64),
                          np.array([float(fn(a)) for a in x]).view(np.int64))

    def check(idx, got):
        assert np.array_equal(got.view(np.int64),
                              want[idx].view(np.int64)), idx

    check(slice(None), fn(x))
    for size in [*range(1, 14), 31, 33, 63, 65, 255, 257]:
        for start in range(0, x.size - size + 1, 97 * size + 1):
            check(slice(start, start + size), fn(x[start:start + size]))
    for view in (slice(None, None, 2), slice(1, None, 3), slice(5, 900, 7)):
        check(view, fn(x[view]))
    for size in (1, 2, 3, 7, 64, 1000, x.size):
        idx = np.sort(rng.choice(x.size, size, replace=False))
        check(idx, fn(x[idx]))
        check(idx[::-1], fn(x[idx[::-1]]))


class TestNumpyExpIsElementwise:
    """The premise that lets the lanes equal the scalar solve bit for
    bit: ``float(np.exp(x))`` on one float has the bits of ``np.exp``
    on any array holding x, whatever its length, offset, positive
    stride or gather, and so has ``np.log``.  numpy picks SIMD kernels
    by CPU; if a host's kernels give a lane other bits than a lone
    float, this test says so directly.  A negative stride is left out:
    numpy runs it through the C library's exp instead, which differs in
    the last bit.  The solve never hands exp or log one, since every
    argument it takes is a fresh array from arithmetic, which numpy lays
    out with positive strides."""

    def test_float_matches_every_array_shape(self):
        rng = np.random.default_rng(5)
        # the exponents the solve sees: capped at 700, mostly within
        # tens of zero, down to where exp underflows to subnormals and 0
        x = np.concatenate([
            rng.uniform(-40.0, 40.0, 6000), rng.uniform(-760.0, 700.0, 2000),
            rng.normal(0.0, 1e-3, 1000),
            [0.0, -0.0, 700.0, -708.5, -740.0, -746.0, 1e-300, -1e-300]])
        assert_elementwise(np.exp, x, rng)

    def test_log_matches_every_array_shape(self):
        rng = np.random.default_rng(6)
        # the closed-form start takes ln(1 + X/k): from 1 up, over
        # hundreds of decades for the tiny saturation currents of a cold
        # cell, and NaN or inf at a non-finite voltage
        x = np.concatenate([
            1.0 + 10.0 ** rng.uniform(-17.0, 300.0, 6000),
            rng.uniform(1.0, 1e3, 2000),
            [1.0, 1.0 + 2.0 ** -52, 2.0, 1e308, np.inf, np.nan]])
        assert_elementwise(np.log, x, rng)

    def test_reversed_inputs_match_scalar_solve(self):
        # voltages and irradiances given as negative-stride views still
        # reach exp as fresh arrays, so every lane keeps the scalar bits
        ap = default_array()
        rng = np.random.default_rng(3)
        v = rng.uniform(-5.0, 22.0, 400)[::-1]
        g = rng.uniform(0.0, 1200.0, 400)[::-1]
        cur, left_open = pv.array_current_lanes(ap, v, g)
        assert left_open.size == 0
        want = np.array([array_current(ap.at_irradiance(y), x)
                         for x, y in zip(v.tolist(), g.tolist())])
        assert np.array_equal(cur.view(np.int64), want.view(np.int64))
