import math
import os
from pathlib import Path
import subprocess
import sys

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

    def test_falls_back_to_brentq(self, monkeypatch):
        # R_s = 5 ohm at 0 V: the start I_ph + 1 lies ~1700 thermal
        # voltages right of the root, too far for the Newton budget
        calls = []
        real = pv._solve_current_bracketed
        monkeypatch.setattr(
            pv, "_solve_current_bracketed",
            lambda *a, **k: calls.append(a) or real(*a, **k))
        p = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=5.0,
                         R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        i = cell_current(p, 0.0)
        assert len(calls) == 1
        assert abs(double_diode_residual(PvArrayParams(cell=p), 0.0,
                                         i)) <= 1e-9
        assert i == pytest.approx(
            brute_force_cell_current(p, 0.0, lo=-2.0, hi=2.0), abs=2e-6)

    @pytest.mark.parametrize("n_p", [1, 2])
    def test_large_series_resistance_settles_by_newton(self, monkeypatch,
                                                       n_p):
        # R_s = 0.3 ohm on a cold array starts Newton far right of the
        # root; the iteration budget still lets every solve settle
        def no_fallback(*args, **kwargs):
            raise AssertionError("bisection fallback ran")
        monkeypatch.setattr(pv, "_solve_current_bracketed", no_fallback)
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

    def test_explicit_without_series_resistance(self, monkeypatch):
        def no_root_find(*args, **kwargs):
            raise AssertionError("R_s = 0 needs no root find")
        monkeypatch.setattr(pv, "_solve_current_bracketed", no_root_find)
        p = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.0,
                         R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        v = 0.5
        vt1, vt2 = thermal_voltage(1.0, 298.0), thermal_voltage(2.0, 298.0)
        expected = (8.0 - 1e-10 * (math.exp(v / vt1) - 1.0)
                    - 1e-6 * (math.exp(v / vt2) - 1.0) - v / 100.0)
        assert cell_current(p, v) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("g", [50.0, 400.0, 1000.0])
    def test_daylight_range_never_falls_back(self, monkeypatch, g):
        # the scenario's operating range, 0 to Voc of the default array,
        # must be solved by Newton alone
        ap = default_array(g)
        voc = open_circuit_voltage(ap)

        def no_fallback(*args, **kwargs):
            raise AssertionError("bisection fallback ran")
        monkeypatch.setattr(pv, "_solve_current_bracketed", no_fallback)
        for v in np.linspace(0.0, voc, 301).tolist():
            assert abs(double_diode_residual(ap, v, array_current(ap, v))) \
                <= 1e-12

    def test_bisection_matches_brentq(self):
        # the fallback alone, on the series resistances that need it
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
            i = pv._solve_current_bracketed(
                pv._array_mismatch(cell, 36, 1, v), cell, 1, v)
            worst_delta = max(worst_delta,
                              abs(i - brentq_reference_current(ap, v)))
            worst_residual = max(worst_residual,
                                 abs(double_diode_residual(ap, v, i)))
        assert worst_delta <= 1e-12
        assert worst_residual <= 1e-12

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_nonfinite_voltage_fails_the_solve(self, v):
        # a NaN bracket must fail the sign test, not bisect forever
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
        # Newton from an infinite start would return inf
        cell = PvCellParams(I_ph=8.0, I_o1=1e-320, I_o2=1e-320, R_s=0.01,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        with pytest.raises(pv.PvSolverError):
            open_circuit_voltage(PvArrayParams(cell, N_s=36))


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

    def test_parallel_doubling_doubles_power(self):
        cell = PvCellParams(I_ph=8.0, I_o1=1e-10, I_o2=1e-6, R_s=0.0,
                            R_p=100.0, a1=1.0, a2=2.0, T_c=298.0)
        one = PvArrayParams(cell=cell, N_s=36, N_p=1)
        two = PvArrayParams(cell=cell, N_s=36, N_p=2)
        assert find_mpp(two).P_mpp == pytest.approx(
            2 * find_mpp(one).P_mpp, rel=1e-3)


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


class TestCurrentLanes:
    """``array_current_lanes`` equals the scalar solve lane by lane, bit
    for bit, and leaves to it the lanes it does not settle."""

    @pytest.mark.parametrize("t_c,r_s", [(298.0, 0.01), (320.0, 0.01),
                                         (298.0, 0.0), (275.0, 0.3),
                                         (298.0, 5.0)])
    def test_lanes_match_scalar_solve(self, t_c, r_s):
        # at R_s = 5 ohm most lanes need more Newton iterations than
        # allowed and are left open; at the others every lane settles
        base = default_array(1000.0, t_c)
        cell = PvCellParams(base.cell.I_ph, base.cell.I_o1, base.cell.I_o2,
                            r_s, base.cell.R_p, 1.0, 2.0, t_c)
        ap = PvArrayParams(cell, N_s=36, N_p=2, area_A=0.5)
        rng = np.random.default_rng(17)
        g = np.concatenate([rng.uniform(0.0, 1200.0, 300), [0.0, 1e-6]])
        for v in (-40.0, 0.0, 9.5, 17.25, 20.0, 23.0):
            cur, left_open = pv.array_current_lanes(ap, v, g)
            assert np.isnan(cur[left_open]).all()
            settled = np.setdiff1d(np.arange(g.size), left_open)
            assert settled.size > 0
            if r_s < 1.0:
                assert left_open.size == 0
            want = np.array([array_current(ap.at_irradiance(x), v)
                             for x in g[settled].tolist()])
            assert np.array_equal(cur[settled].view(np.int64),
                                  want.view(np.int64))

    @pytest.mark.parametrize("r_s", [0.01, 0.0, 5.0])
    def test_per_lane_voltages_match_scalar_solve(self, r_s):
        # one voltage per lane, mixed: 0 V and -0.0, negative voltages,
        # and voltages far above V_oc, whose scalar solve raises
        # PvSolverError; at R_s = 5 ohm Newton leaves lanes open
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
        failed = []
        for j, (x, y) in enumerate(zip(v.tolist(), g.tolist())):
            try:
                want = array_current(ap.at_irradiance(y), x)
            except PvSolverError:
                failed.append(j)
                continue
            if j not in left_open:
                assert np.float64(want).view(np.int64) == \
                    cur[j:j + 1].view(np.int64)[0], (x, y)
        assert np.isnan(cur[left_open]).all()
        assert set(failed) <= set(left_open.tolist())
        if r_s == 5.0:
            assert left_open.size > 0
        if r_s == 0.01:
            assert failed == [157, 158]   # 1000 V and 1e4 V
        assert left_open.size < v.size

    def test_rejected_photocurrent_left_open(self):
        ap = default_array()
        cur, left_open = pv.array_current_lanes(
            ap, 10.0, np.array([500.0, -1.0, np.nan, 800.0]))
        assert left_open.tolist() == [1, 2]
        assert np.isnan(cur[[1, 2]]).all()
        assert cur[3] == array_current(ap.at_irradiance(800.0), 10.0)
