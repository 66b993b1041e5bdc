import pytest

from sunpump.mppt import (ConverterSetting, InvalidDutyError, MpptState,
                          boost_ratio, duty_for_ratio, ic_step,
                          initial_state, mppt_run, po_step)
from sunpump.pv import (PvSolverError, array_current, default_array,
                        find_mpp)


def synthetic_measure(v):
    """Concave P(V) = 100 - (V - 17)^2, served as a current measurement."""
    if v <= 0:
        return 0.0
    return (100.0 - (v - 17.0) ** 2) / v


class TestBoost:
    def test_passthrough(self):
        assert boost_ratio(ConverterSetting(0.0)) == 1.0

    def test_half_duty(self):
        assert boost_ratio(ConverterSetting(0.5)) == pytest.approx(2.0)

    def test_ninety_percent(self):
        assert boost_ratio(ConverterSetting(0.9)) == pytest.approx(10.0)

    def test_invalid_duty(self):
        with pytest.raises(InvalidDutyError):
            ConverterSetting(1.0)

    def test_duty_mapping_clamped(self):
        assert duty_for_ratio(10.0, 12.0) == 0.0        # step-down request
        assert duty_for_ratio(10.0, 5.0) == pytest.approx(0.5)
        assert duty_for_ratio(1000.0, 1.0) == 0.95      # clamp


class TestPoStep:
    def test_both_positive_increases(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=11.0)
        new = po_step(st, 11.0, 1.2)   # dP = 3.2 > 0, dV = 1 > 0
        assert new.V_ref == st.V_ref + st.dV_step

    def test_power_up_voltage_down_decreases(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=9.0)
        new = po_step(st, 9.0, 1.3)    # dP = 1.7 > 0, dV = -1 < 0
        assert new.V_ref == st.V_ref - st.dV_step

    def test_no_change_holds(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=10.0)
        new = po_step(st, 10.0, 1.0)   # dP = 0, dV = 0
        assert new.V_ref == st.V_ref

    def test_printed_variant_reverses(self):
        st = MpptState(V_prev=10.0, I_prev=1.0, P_prev=10.0, V_ref=11.0)
        std = po_step(st, 11.0, 1.2)
        printed = po_step(st, 11.0, 1.2, printed_variant=True)
        assert std.V_ref - st.V_ref == -(printed.V_ref - st.V_ref)

    def test_history_stores_current(self):
        st = MpptState(V_prev=1.0, I_prev=1.0, P_prev=1.0, V_ref=5.0)
        new = po_step(st, 5.0, 2.0)
        assert new.V_prev == 5.0
        assert new.I_prev == 2.0
        assert new.P_prev == 10.0
        assert new.iteration == st.iteration + 1


class TestIcStep:
    def test_hold_at_no_change(self):
        st = MpptState(V_prev=10.0, I_prev=2.0, P_prev=20.0, V_ref=10.0)
        assert ic_step(st, 10.0, 2.0).V_ref == st.V_ref

    def test_dv_zero_di_positive(self):
        st = MpptState(V_prev=10.0, I_prev=2.0, P_prev=20.0, V_ref=10.0)
        assert ic_step(st, 10.0, 2.5).V_ref == st.V_ref + st.dV_step

    def test_dv_zero_di_negative(self):
        st = MpptState(V_prev=10.0, I_prev=2.0, P_prev=20.0, V_ref=10.0)
        assert ic_step(st, 10.0, 1.5).V_ref == st.V_ref - st.dV_step

    def test_hold_exactly_at_mpp(self):
        # construct (i - 5)/(v - 10) == -i/v exactly: v = 12, i = 30/7
        st = MpptState(V_prev=10.0, I_prev=5.0, P_prev=50.0, V_ref=10.0)
        new = ic_step(st, 12.0, 30.0 / 7.0)
        assert new.V_ref == st.V_ref

    def test_left_of_mpp_increases(self):
        # conductance above the negated operating ratio
        st = MpptState(V_prev=10.0, I_prev=5.0, P_prev=50.0, V_ref=10.0)
        new = ic_step(st, 10.5, 4.9)   # dI/dV = -0.2 > -4.9/10.5 = -0.467
        assert new.V_ref == st.V_ref + st.dV_step

    def test_zero_voltage_flagged_hold(self):
        st = MpptState(V_prev=5.0, I_prev=2.0, P_prev=10.0, V_ref=0.0)
        new = ic_step(st, 0.0, 1.0)
        assert new.V_ref == st.V_ref
        assert new.flag == "conductance-undefined"


class TestClosedLoop:
    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_synthetic_hill_climb(self, algo):
        st0 = initial_state(10.0, 0.5)
        run = mppt_run(None, algo, st0, 100, measure=synthetic_measure)
        assert abs(run.final.V_ref - 17.0) <= 0.5
        assert len(run.v_ref) == 100

    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_limit_cycle_band(self, algo):
        st0 = initial_state(10.0, 0.5)
        run = mppt_run(None, algo, st0, 200, measure=synthetic_measure)
        refs = [*run.v_ref.tolist(), run.final.V_ref]
        inside = [k for k, v in enumerate(refs) if abs(v - 17.0) <= 0.5]
        first = inside[0]
        assert all(abs(v - 17.0) <= 2 * 0.5 + 1e-12 for v in refs[first:])

    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_step_bound_per_iteration(self, algo):
        st0 = initial_state(10.0, 0.5)
        run = mppt_run(None, algo, st0, 150, measure=synthetic_measure)
        refs = [*run.v_ref.tolist(), run.final.V_ref]
        assert all(abs(b - a) <= 0.5 + 1e-12
                   for a, b in zip(refs, refs[1:]))

    @pytest.mark.parametrize("algo", ["po", "ic"])
    def test_reaches_model_mpp(self, algo):
        ap = default_array()
        best = find_mpp(ap)
        st0 = initial_state(0.6 * best.V_mpp, 0.5)
        run = mppt_run(ap, algo, st0, 200)
        final_power = run.p[-1]
        assert final_power >= 0.98 * best.P_mpp

    def test_determinism(self):
        st0 = initial_state(10.0, 0.5)
        a = mppt_run(None, "po", st0, 50, measure=synthetic_measure)
        b = mppt_run(None, "po", st0, 50, measure=synthetic_measure)
        assert (a.v_ref.tolist(), a.i.tolist(), a.p.tolist()) == \
            (b.v_ref.tolist(), b.i.tolist(), b.p.tolist())

    def test_solver_failure_records_zero_current_and_goes_on(self):
        calls = []

        def flaky(v):
            calls.append(v)
            if len(calls) == 5:
                raise PvSolverError("no bracket")
            return synthetic_measure(v)

        run = mppt_run(None, "po", initial_state(10.0, 0.5), 20,
                       measure=flaky)
        assert len(run.v_ref) == len(run.i) == 20
        assert run.i[4] == 0.0
        assert all(run.i[k] > 0.0 for k in range(20) if k != 4)

    def test_per_step_irradiance_scales_the_array(self):
        ap = default_array()
        irr = [1000.0, 400.0, 0.0, 750.0]
        run = mppt_run(ap, "po", initial_state(15.0, 0.5), 4, irradiance=irr)
        for k, g in enumerate(irr):
            assert run.i[k] == array_current(ap.at_irradiance(g),
                                             run.v_ref[k])

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            mppt_run(None, "po", initial_state(10.0), 0,
                     measure=synthetic_measure)
