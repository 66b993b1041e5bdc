import math

import numpy as np
import pytest

from sunpump.lti import (DegenerateSystemError, TransferFunction, poly_roots,
                         routh_table, stability_verdict_from_roots,
                         tf_feedback)
from sunpump.plants import (MOTOR_PAPER, MotorParams, PidParams,
                            TankParams, cascade_plant, cascade_system,
                            metering_pump_tf, motor_tf, pid_tf, preset,
                            pump_tf, tank_second_order, tank_tf)


class TestMotor:
    def test_symbolic_coefficients_from_listed_parameters(self):
        tf = motor_tf(MotorParams())
        # L J = 0.005, bL + RJ = 0.0100005, Rb + Kt Ke = 1.5725e-4
        den = np.asarray(tf.den.coeffs) * 0.005   # undo monic scaling
        assert den == pytest.approx([0.005, 0.0100005, 1.5725e-4, 0.0],
                                    rel=1e-12)
        num = tf.num.coeffs[0] * 0.005
        assert num == pytest.approx(0.0125)

    def test_zero_torque_rejected(self):
        with pytest.raises(ValueError):
            motor_tf(MotorParams(K_t=0.0))

    def test_printed_system_not_reproducible_from_bullets(self):
        sym = motor_tf(MotorParams())
        assert not np.allclose(sym.den.coeffs, MOTOR_PAPER.den.coeffs,
                               rtol=0.5)

    def test_numeric_motor_preset_type_one(self):
        assert MOTOR_PAPER.den.coeffs[-1] == 0.0
        assert MOTOR_PAPER.den.degree == 3


class TestPid:
    def test_ideal_form_coefficients(self):
        tf = pid_tf(PidParams(K_p=9.51202, K_i=5.6443, K_d=0.00022))
        assert tf.num.coeffs == pytest.approx((0.00022, 9.51202, 5.6443))
        assert tf.den.coeffs == (1.0, 0.0)

    def test_pure_gain(self):
        tf = pid_tf(PidParams(K_p=3.0))
        assert tf.num.coeffs == pytest.approx((3.0,))
        assert tf.den.coeffs == (1.0,)
        assert tf(7.3) == pytest.approx(3.0)

    def test_two_zero_compensator_expansion(self):
        # 747.5 (1 + 0.12 s)^2 / s = (10.764 s^2 + 179.4 s + 747.5)/s
        expanded = 747.5 * np.convolve([0.12, 1.0], [0.12, 1.0])
        assert expanded == pytest.approx([10.764, 179.4, 747.5])

    def test_filtered_form_matches_parallel_sum(self):
        pp = PidParams(K_p=2.0, K_i=3.0, K_d=0.5, N_filter=10.0)
        tf = pid_tf(pp)
        for s in (0.5 + 0.2j, 2.0 + 0.0j, 1j):
            direct = (pp.K_p + pp.K_i / s
                      + pp.K_d * pp.N_filter * s / (s + pp.N_filter))
            assert tf(s) == pytest.approx(direct, rel=1e-12)


class TestCharPoly:
    """The characteristic polynomial of the loop G C is the monic
    denominator of its closure ``tf_feedback(g, c)``."""

    def test_integrator_unity(self):
        c = TransferFunction([1.0], [1.0])
        g = TransferFunction([1.0], [1.0, 0.0])
        assert tf_feedback(g, c).den.coeffs == pytest.approx((1.0, 1.0))

    def test_quoted_pid_gains_on_numeric_motor(self):
        c = pid_tf(PidParams(K_p=9.51202, K_i=5.6443, K_d=0.00022))
        char = tf_feedback(MOTOR_PAPER, c).den
        assert char.degree == 4
        # s^3 coefficient reproduces the printed 625.8; the printed s^1
        # and s^0 terms are 100x the assembled loop (validation report)
        assert char.coeffs[1] == pytest.approx(625.83, abs=0.1)
        assert char.coeffs[3] == pytest.approx(123894, rel=1e-3)
        assert stability_verdict_from_roots(char) == "stable"

    def test_cancellation_is_degenerate(self):
        g = TransferFunction([1.0], [1.0, 1.0])
        c = TransferFunction([-1.0, -1.0], [1.0])   # G C = -1
        with pytest.raises(DegenerateSystemError):
            tf_feedback(g, c)

    def test_zero_controller_gives_plant_poles(self):
        g = TransferFunction([2.0], [1.0, 3.0])
        c = TransferFunction([1e-300], [1.0])  # effectively zero
        char = tf_feedback(g, c).den
        assert char.coeffs == pytest.approx((1.0, 3.0))


class TestPumpTank:
    def test_storage_pump(self):
        tf = pump_tf(5.0, 475.0)
        assert tf.dc_gain() == pytest.approx(5.0)
        assert poly_roots(tf.den)[0].real == pytest.approx(-1 / 475.0)

    def test_tank_001(self):
        tf = tank_tf(TankParams(area_A=100.0, outflow_R=0.01))
        assert tf.num.coeffs == pytest.approx((0.01,))
        assert tf.den.coeffs == pytest.approx((1.0, 1.0))

    def test_tank_time_constant(self):
        tf = tank_tf(TankParams(area_A=50.0, outflow_R=0.2))
        pole = poly_roots(tf.den)[0].real
        assert pole == pytest.approx(-1.0 / (0.2 * 50.0))
        assert tf.dc_gain() == pytest.approx(0.2)


class TestSecondOrderTank:
    def test_oscillator_poles(self):
        r = poly_roots(tank_second_order(1.0).den)
        assert r[0].real == pytest.approx(-0.0112, abs=1e-3)
        assert abs(r[0].imag) == pytest.approx(2.236, abs=1e-3)

    def test_damping_parameters(self):
        wn = math.sqrt(5.0)
        zeta = 0.02241 / (2 * wn)
        assert wn == pytest.approx(2.2360679)
        assert zeta == pytest.approx(0.005011, abs=1e-5)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            tank_second_order(0.0)


class TestMeteringPump:
    def test_dc_gain(self):
        assert metering_pump_tf().dc_gain() == pytest.approx(
            1.869 / 0.4582, rel=1e-12)

    def test_overdamped_real_poles(self):
        r = poly_roots(metering_pump_tf().den)
        assert np.all(r.imag == 0)
        assert np.all(r.real < 0)


class TestCascade:
    def test_plant_identity_exact(self):
        g = cascade_plant()
        # 0.05/(0.1 s^2 + 1.1 s + 1): monic form s^2 + 11 s + 10, num 0.5
        assert g.den.coeffs == pytest.approx((1.0, 11.0, 10.0), rel=1e-12)
        assert g.num.coeffs == pytest.approx((0.5,), rel=1e-12)

    def test_plant_poles_real_negative(self):
        r = poly_roots(cascade_plant().den)
        assert sorted(x.real for x in r) == pytest.approx([-10.0, -1.0])
        assert np.all(r.imag == 0)

    @pytest.mark.parametrize("k", [1.0, 10.0, 100.0, 1000.0])
    def test_routh_first_column_positive_under_gain(self, k):
        cl = tf_feedback(k * cascade_plant(), 1.0)
        res = routh_table(cl.den)
        assert res.verdict == "stable"
        assert all(v > 0 for v in res.first_column)

    def test_assembly_shapes(self):
        pid = PidParams(K_p=1.0, K_i=0.5, K_d=0.1, N_filter=20.0)
        loop = cascade_system(50.0, pid)
        assert isinstance(loop, TransferFunction)
        # the sensor gain 50 multiplies C*G
        assert loop(2.0j) == pytest.approx(
            50.0 * pid_tf(pid)(2.0j) * cascade_plant()(2.0j), rel=1e-12)
        # loop = C*G*H: DC of loop num vs den: integrator makes it type 1
        assert loop.den.coeffs[-1] == pytest.approx(0.0)
        assert tf_feedback(loop, 1.0).dc_gain() == pytest.approx(1.0)


class TestPresets:
    def test_known_ids(self):
        for name in ("motor_paper", "motor_symbolic", "pump_storage",
                     "pump_loop", "tank_001", "tank_2nd_order", "cascade",
                     "metering_pump"):
            tf = preset(name)
            assert isinstance(tf, TransferFunction)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            preset("nope")
