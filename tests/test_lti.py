import math
import tracemalloc

import numpy as np
import pytest

from sunpump import lti
from sunpump.lti import (DegenerateSystemError, ImproperSystemError,
                         NotSettledError, Polynomial, TransferFunction,
                         error_constants, frequency_response, poly_roots,
                         root_locus, routh_table, ss_error_vs_gain,
                         stability_margins, stability_verdict_from_roots,
                         step_metrics, step_response, tf_feedback,
                         tf_feedback_gain, tf_from_text)


def root_residual_bound(p, root):
    """The root-quality contract of ``poly_roots``:
    ``|p(r)| <= 1e-9 * sum|c_i| * max(1, |r|)**deg``."""
    c = np.asarray(p.coeffs, dtype=float)
    return 1e-9 * np.sum(np.abs(c)) * max(1.0, abs(root)) ** (len(c) - 1)


class TestPolynomial:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([0.0, 0.0])

    def test_leading_zeros_trimmed(self):
        p = Polynomial([0.0, 0.0, 2.0, 1.0])
        assert p.degree == 1
        assert p.coeffs == (2.0, 1.0)

    def test_eval_and_multiply(self):
        p = Polynomial([1.0, 2.0])  # s + 2
        q = Polynomial([1.0, 3.0])  # s + 3
        assert (p * q).coeffs == (1.0, 5.0, 6.0)
        assert p(2.0) == 4.0


class TestRoots:
    def test_factorable_quadratic(self):
        r = poly_roots([1.0, 3.0, 2.0])
        assert r == pytest.approx([-2.0, -1.0])

    def test_tank_oscillator_poles(self):
        # underdamped pair of s^2 + 0.02241 s + 5
        r = poly_roots([1.0, 0.02241, 5.0])
        assert sorted(x.real for x in r) == pytest.approx([-0.011205] * 2,
                                                          abs=1e-6)
        assert sorted(x.imag for x in r) == pytest.approx([-2.23604, 2.23604],
                                                          abs=1e-4)

    def test_metering_pump_quadratic_formula(self):
        # quadratic formula oracle for s^2 + 12.32 s + 0.4582
        b, c = 12.32, 0.4582
        sq = math.sqrt(b * b - 4 * c)
        expected = sorted([(-b - sq) / 2, (-b + sq) / 2])
        r = poly_roots([1.0, b, c])
        assert [x.real for x in r] == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx([-12.2826955, -0.0373045], abs=1e-6)

    def test_residual_contract_random(self):
        rng = np.random.RandomState(42)
        for _ in range(50):
            deg = rng.randint(2, 7)
            c = rng.uniform(-10, 10, deg + 1)
            if abs(c[0]) < 0.1:
                c[0] = 1.0
            p = Polynomial(c)
            for r in poly_roots(p):
                assert abs(p(r)) <= root_residual_bound(p, r)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([3.0])

    def test_double_root_survives_polish(self):
        # 53.82 s^2 + 897 s + 3737.5 = 53.82 (s + 25/3)^2 exactly
        r = poly_roots([53.82, 897.0, 3737.5])
        assert [x.real for x in r] == pytest.approx([-25.0 / 3] * 2,
                                                    rel=1e-6)

    def test_triple_root(self):
        # (s + 2)^3
        r = poly_roots(np.convolve(np.convolve([1, 2], [1, 2]), [1, 2]))
        assert sorted(x.real for x in r) == pytest.approx([-2.0] * 3,
                                                          abs=1e-4)


class TestFeedback:
    def test_pure_integrator_unity(self):
        g = TransferFunction([1.0], [1.0, 0.0])
        cl = tf_feedback(g, TransferFunction([1.0], [1.0]))
        assert cl.den.coeffs == pytest.approx((1.0, 1.0))
        assert cl.num.coeffs == pytest.approx((1.0,))

    def test_motor_loop_denominator(self):
        k = 1e5
        g = k * TransferFunction([0.0001563],
                                 [1.2e-8, 7.51e-6, 0.0001625, 0.0])
        cl = tf_feedback_gain(g, 1.0)
        # den scaled monic; check ratios against {1.2e-8, 7.51e-6,
        # 0.0001625, 0.0001563 K}
        expect = np.array([1.2e-8, 7.51e-6, 0.0001625, 0.0001563 * k])
        assert np.allclose(cl.den.coeffs, expect / 1.2e-8, rtol=1e-12)

    def test_open_loop_h_zero(self):
        g = TransferFunction([5.0], [475.0, 1.0])
        assert tf_feedback(g, 0.0) is g

    def test_degenerate(self):
        g = TransferFunction([1.0], [1.0, 0.0])   # 1/s
        h = TransferFunction([-1.0, 0.0], [1.0])  # -s
        with pytest.raises(DegenerateSystemError):
            tf_feedback(g, h)


class TestStepResponse:
    def test_first_order_analytic_point(self):
        tr = step_response(TransferFunction([1.0], [1.0, 1.0]), 5.0)
        y1 = np.interp(1.0, tr.t, tr.y)
        assert y1 == pytest.approx(1 - math.exp(-1), abs=1e-3)

    def test_pump_storage_analytic(self):
        tr = step_response(TransferFunction([5.0], [475.0, 1.0]), 475.0 * 6)
        y_tau = np.interp(475.0, tr.t, tr.y)
        assert y_tau == pytest.approx(5 * (1 - math.exp(-1)), rel=1e-4)

    def test_dc_gain_convergence(self):
        # stable 2nd order: final value -> num(0)/den(0) within 0.5%
        tf = TransferFunction([3.0], [1.0, 2.0, 4.0])
        tr = step_response(tf, 20.0)
        assert tr.y[-1] == pytest.approx(tf.dc_gain(), rel=5e-3)
        assert not tr.diverged

    def test_improper_rejected(self):
        with pytest.raises(ImproperSystemError):
            step_response(TransferFunction([1.0, 0.0, 0.0], [1.0, 1.0]), 1.0)

    def test_unstable_flagged(self):
        tr = step_response(TransferFunction([1.0], [1.0, -1.0]), 5.0)
        assert tr.diverged
        with pytest.raises(NotSettledError):
            step_metrics(tr)

    def test_direct_feedthrough(self):
        # (s + 2)/(s + 1): starts at 1, settles at 2
        tr = step_response(TransferFunction([1.0, 2.0], [1.0, 1.0]), 12.0)
        assert tr.y[0] == pytest.approx(1.0)
        assert tr.y[-1] == pytest.approx(2.0, rel=1e-4)

    def test_sample_ceiling(self, monkeypatch):
        # the ceiling itself, lowered: exactly MAX_SAMPLES samples run
        monkeypatch.setattr(lti, "MAX_SAMPLES", 1000)
        tf = TransferFunction([1.0], [1.0, 1.0])
        assert len(step_response(tf, 0.999, dt=1e-3).t) == 1000
        with pytest.raises(ValueError, match="more than 1000 samples"):
            step_response(tf, 1.0, dt=1e-3)

    @pytest.mark.parametrize("t_end, dt", [
        (8000.0, None), (1e9, 1e-6), (math.inf, 1.0), (math.nan, 1.0)])
    def test_sample_ceiling_checked_before_allocating(self, t_end, dt):
        # poles at -1e-3 and -1e6: the default dt over 8000 s asks for
        # 1.6e11 samples; the response must refuse before any array exists
        tf = TransferFunction([1.0], [1.0, 1000000.001, 1000.0])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="samples"):
                step_response(tf, t_end, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_dt_halving_stability(self):
        tf = TransferFunction([10.0], [1.0, 2.0, 10.0])
        m1 = step_metrics(step_response(tf, 12.0, dt=0.004))
        m2 = step_metrics(step_response(tf, 12.0, dt=0.002))
        for attr in ("rise_time_s", "settling_time_s", "peak"):
            a, b = getattr(m1, attr), getattr(m2, attr)
            assert abs(a - b) <= 0.005 * abs(b)


class TestStepMetrics:
    @pytest.mark.parametrize("tau", [0.1, 1.0, 475.0])
    def test_first_order_formulas(self, tau):
        tr = step_response(TransferFunction([2.0], [tau, 1.0]), 12.0 * tau)
        m = step_metrics(tr)
        assert m.rise_time_s == pytest.approx(tau * math.log(9), rel=0.01)
        assert m.settling_time_s == pytest.approx(tau * math.log(50),
                                                  rel=0.01)
        assert m.overshoot_pct == 0.0
        assert m.steady_state_value == pytest.approx(2.0, rel=1e-3)

    def test_constant_trace(self):
        from sunpump.lti import StepTrace
        t = np.linspace(0, 1, 100)
        m = step_metrics(StepTrace(t, np.ones_like(t)))
        assert m.rise_time_s == 0.0
        assert m.overshoot_pct == 0.0
        assert m.steady_state_value == 1.0

    def test_second_order_overshoot(self):
        # zeta = 0.5: overshoot = exp(-pi zeta / sqrt(1 - zeta^2))
        wn, zeta = 3.0, 0.5
        tf = TransferFunction([wn * wn], [1.0, 2 * zeta * wn, wn * wn])
        m = step_metrics(step_response(tf, 10.0))
        expect = 100 * math.exp(-math.pi * zeta / math.sqrt(1 - zeta ** 2))
        assert m.overshoot_pct == pytest.approx(expect, rel=0.01)
        assert m.peak_time_s == pytest.approx(
            math.pi / (wn * math.sqrt(1 - zeta ** 2)), rel=0.01)


class TestRouth:
    def test_stable_quadratic(self):
        res = routh_table([1.0, 2.0, 5.0])
        assert res.verdict == "stable"
        assert res.sign_changes == 0
        assert len(res.table) == 3

    def test_negative_coefficient_unstable(self):
        assert routh_table([1.0, -1.0, 1.0]).verdict == "unstable"

    def test_printed_quartic_matches_root_oracle(self):
        p = Polynomial([1.0, 625.8, 1.382e4, 1.239e7, 7.349e6])
        res = routh_table(p)
        assert res.verdict == stability_verdict_from_roots(p)
        assert res.verdict == "unstable"

    def test_marginal_pure_imaginary(self):
        # s^2 + 4: roots on the axis
        res = routh_table([1.0, 0.0, 4.0])
        assert res.verdict == "marginal"
        assert stability_verdict_from_roots([1.0, 0.0, 4.0]) == "marginal"

    def test_full_zero_row_auxiliary(self):
        # (s^2+1)(s+1) = s^3 + s^2 + s + 1 -> zero row at s^1
        res = routh_table([1.0, 1.0, 1.0, 1.0])
        assert res.verdict == "marginal"

    def test_oracle_agreement_random(self):
        rng = np.random.RandomState(7)
        checked = 0
        while checked < 100:
            deg = rng.randint(2, 7)
            c = rng.uniform(-10, 10, deg + 1)
            if abs(c[0]) < 1e-3:
                continue
            p = Polynomial(c)
            roots = poly_roots(p)
            if np.any(np.abs(roots.real) < 1e-3):
                continue
            assert routh_table(p).verdict == stability_verdict_from_roots(p)
            checked += 1


class TestFrequencyResponse:
    def test_integrator_point(self):
        fr = frequency_response(TransferFunction([1.0], [1.0, 0.0]),
                                np.array([1.0, 2.0]))
        assert fr.magnitude_db[0] == pytest.approx(0.0, abs=1e-12)
        assert fr.phase_deg[0] == pytest.approx(-90.0)

    def test_corner_frequency(self):
        fr = frequency_response(TransferFunction([1.0], [1.0, 1.0]),
                                np.array([1.0, 2.0]))
        assert fr.magnitude_db[0] == pytest.approx(-3.0103, abs=1e-3)
        assert fr.phase_deg[0] == pytest.approx(-45.0)

    def test_grid_validation(self):
        tf = TransferFunction([1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            frequency_response(tf, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            frequency_response(tf, np.array([-1.0, 1.0]))

    def test_phase_unwrapped(self):
        tf = TransferFunction([1.0], [1.0, 2.0, 2.0, 1.0])
        fr = frequency_response(tf, np.geomspace(0.01, 100, 500))
        assert fr.phase_deg[-1] == pytest.approx(-270.0, abs=2.0)


class TestMargins:
    def test_analytic_double_pole_crossover(self):
        # |G(jw)| = 1 for 1/(s(s+1)) at w^2(w^2+1) = 1
        g = TransferFunction([1.0], [1.0, 1.0, 0.0])
        fr = frequency_response(g, np.geomspace(1e-2, 1e2, 4000))
        m = stability_margins(fr)
        w = math.sqrt((math.sqrt(5) - 1) / 2)
        pm = 180 - 90 - math.degrees(math.atan(w))
        assert m.pm_freq_rad_s == pytest.approx(w, rel=1e-3)
        assert m.phase_margin_deg == pytest.approx(pm, rel=1e-3)
        assert m.gain_margin_db is None   # phase never reaches -180

    def test_no_crossing_absent(self):
        g = TransferFunction([1.0], [1.0, 1.0])
        m = stability_margins(frequency_response(g))
        assert m.gain_margin_db is None
        assert m.phase_margin_deg is None

    def test_stable_loop_positive_pm(self):
        for k in (0.5, 2.0, 10.0):
            g = k * TransferFunction([1.0], [1.0, 2.0, 1.0, 0.0])
            cl = tf_feedback_gain(g, 1.0)
            if np.all(poly_roots(cl.den).real < 0):
                m = stability_margins(frequency_response(
                    g, np.geomspace(1e-3, 1e3, 4000)))
                if m.phase_margin_deg is not None:
                    assert m.phase_margin_deg > 0


class TestRootLocus:
    def test_starts_at_open_loop_pole(self):
        g = TransferFunction([1.0], [1.0, 1.0])
        locus = root_locus(g, [1e-9])
        assert locus[0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_double_pole_at_unity_gain(self):
        g = TransferFunction([1.0], [1.0, 2.0, 0.0])
        locus = root_locus(g, [1.0])
        assert np.allclose(sorted(locus[0].real), [-1.0, -1.0], atol=1e-6)
        assert np.allclose(locus[0].imag, 0.0, atol=1e-9)

    def test_pump_locus_negative_real_axis(self):
        g = TransferFunction([5.0], [475.0, 1.0])
        gains = np.geomspace(0.01, 100, 30)
        locus = root_locus(g, gains)
        expected = -(1 + 5 * gains) / 475.0
        assert np.allclose(locus[:, 0].real, expected, rtol=1e-9)
        assert np.all(locus.imag == 0)
        assert np.all(locus.real < 0)

    def test_empty_gains_rejected(self):
        with pytest.raises(ValueError):
            root_locus(TransferFunction([1.0], [1.0, 1.0]), [])


class TestErrorConstants:
    def test_pump_final_value_theorem(self):
        ec = error_constants(TransferFunction([5.0], [475.0, 1.0]))
        assert ec.Kp_pos == pytest.approx(5.0)
        assert ec.Kv_vel == 0.0
        assert ec.Ka_acc == 0.0
        assert ec.e_step == pytest.approx(1.0 / 6.0)
        assert ec.system_type == 0

    def test_type_one(self):
        ec = error_constants(TransferFunction([1.0], [1.0, 0.0]))
        assert math.isinf(ec.Kp_pos)
        assert ec.e_step == 0.0
        assert ec.Kv_vel == pytest.approx(1.0)
        assert ec.system_type == 1

    def test_ss_error_monotone_decreasing(self):
        g = TransferFunction([0.05], [0.1, 1.1, 1.0])
        gains, errors, _ = ss_error_vs_gain(g, np.geomspace(0.1, 1e4, 50))
        assert np.all(np.diff(errors) < 0)

    def test_gain_for_targets_cascade(self):
        # e = 1/(1 + 0.05 K): 0.1 -> K = 180, 0.01 -> K = 1980
        g = TransferFunction([0.05], [0.1, 1.1, 1.0])
        _, _, targets = ss_error_vs_gain(g, np.geomspace(0.1, 1e5, 200))
        assert targets[0.1] == pytest.approx(180.0, rel=1e-6)
        assert targets[0.01] == pytest.approx(1980.0, rel=1e-6)

    def test_type_one_targets_trivially_met(self):
        g = TransferFunction([1.0], [1.0, 0.0])
        gains, errors, targets = ss_error_vs_gain(g, np.array([1.0, 10.0]))
        assert np.all(errors == 0.0)
        assert targets[0.1] == 1.0 and targets[0.01] == 1.0


def _bisected_targets(g, gains, error_kind):
    """The gain for each error target, located by bisection on the first
    gain interval whose errors bracket it: the closed form's oracle."""
    attr = {"step": "e_step", "ramp": "e_ramp"}[error_kind]

    def err_at(k):
        return getattr(error_constants(k * g), attr)

    errors = [err_at(k) for k in gains]
    out = {}
    for target in (0.1, 0.01):
        out[target] = None
        for i in range(len(gains) - 1):
            e0, e1 = errors[i], errors[i + 1]
            if (e0 - target) * (e1 - target) <= 0 and e0 != e1:
                lo, hi = gains[i], gains[i + 1]
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if (err_at(lo) - target) * (err_at(mid) - target) <= 0:
                        hi = mid
                    else:
                        lo = mid
                out[target] = 0.5 * (lo + hi)
                break
    return out


class TestGainForError:
    @pytest.mark.parametrize("g, kind", [
        (TransferFunction([0.05], [0.1, 1.1, 1.0]), "step"),    # type 0
        (TransferFunction([0.0001563],
                          [1.2e-8, 7.51e-6, 0.0001625, 0.0]), "ramp"),
    ])
    def test_closed_form_matches_bisection(self, g, kind):
        gains = np.geomspace(1e-2, 1e7, 400)
        _, _, targets = ss_error_vs_gain(g, gains, error_kind=kind)
        oracle = _bisected_targets(g, gains, kind)
        for target in (0.1, 0.01):
            assert targets[target] == pytest.approx(oracle[target],
                                                    rel=1e-9)

    def test_target_off_the_gain_range_is_unreachable(self):
        # e = 1/(1 + 0.05 K) stays above 0.6 for K <= 10
        g = TransferFunction([0.05], [0.1, 1.1, 1.0])
        _, errors, targets = ss_error_vs_gain(g, np.geomspace(0.1, 10.0, 30))
        assert errors.min() > 0.6
        assert targets == {0.1: None, 0.01: None}

    def test_negative_base_is_unreachable(self):
        # Kp = -2: e = 1/(1 - 2K) jumps from +inf to -inf at K = 0.5 and
        # equals 0.1 only at the negative gain K = -4.5
        g = TransferFunction([-2.0], [1.0, 1.0])
        assert error_constants(g).Kp_pos == -2.0
        gains = np.geomspace(0.1, 100.0, 50)
        assert not np.any(gains == 0.5)
        _, errors, targets = ss_error_vs_gain(g, gains)
        assert errors[0] > 1.0 and errors[-1] < 0.0
        assert targets == {0.1: None, 0.01: None}


def tf_to_text(tf):
    """The ``--tf-text`` form of a system, every coefficient exact."""
    num = " ".join("%.17g" % c for c in tf.num.coeffs)
    den = " ".join("%.17g" % c for c in tf.den.coeffs)
    return f"num: {num} / den: {den}"


class TestSerialization:
    def test_round_trip(self):
        tf = TransferFunction([0.0001563], [1.2e-8, 7.51e-6, 0.0001625, 0.0])
        again = tf_from_text(tf_to_text(tf))
        assert again.num.coeffs == tf.num.coeffs
        assert again.den.coeffs == tf.den.coeffs

    def test_format(self):
        tf = tf_from_text("num: 2 / den: 1 3")
        assert (tf.num.coeffs, tf.den.coeffs) == ((2.0,), (1.0, 3.0))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            tf_from_text("den: 1 2 / num: 1")


class TestPoleOnGrid:
    def test_pole_exactly_on_grid_point_is_nudged(self):
        # pure oscillator: den(j*1) == 0 exactly at omega = 1
        tf = TransferFunction([1.0], [1.0, 0.0, 1.0])
        fr = frequency_response(tf, np.array([0.5, 1.0, 2.0]))
        assert np.all(np.isfinite(fr.magnitude_db))
        assert fr.magnitude_db[1] > 100.0   # huge but finite


def _loop_step_y(tf, t_end, dt=None):
    """The RK4 recurrence stepped one sample at a time: the blocked
    step_response's oracle."""
    from sunpump.lti import _canonical_state_space, default_step_dt
    if dt is None:
        dt = default_step_dt(tf, t_end)
    A, B, C, D = _canonical_state_space(tf)
    n_steps = int(round(t_end / dt))
    n = len(B)
    dA = dt * A
    M = np.eye(n)
    for k in (4, 3, 2, 1):
        M = np.eye(n) + dA @ M / k
    g = dt * B
    for k in (4, 3, 2):
        g = dt * (B + A @ g / k)
    y = np.empty(n_steps + 1)
    x = np.zeros(n)
    y[0] = C @ x + D
    for i in range(n_steps):
        x = M @ x + g
        y[i + 1] = C @ x + D
    return y


def _random_system(rng, order, kind):
    """Seeded proper system of one order: all poles in the left half
    plane, or one in the right half plane, or one at the origin."""
    poles = list(-rng.uniform(0.05, 5.0, order))
    if order >= 2 and rng.random() < 0.5:
        w = rng.uniform(0.1, 5.0)
        poles[0], poles[1] = poles[0] + 1j * w, poles[0] - 1j * w
    if kind == "unstable":
        poles[-1] = rng.uniform(0.01, 0.3)
    elif kind == "integrating":
        poles[-1] = 0.0
    num = rng.normal(size=int(rng.integers(1, order + 2)))
    return TransferFunction(num, np.real(np.poly(poles)))


class TestBlockedStepResponse:
    @pytest.mark.parametrize("kind", ["stable", "unstable", "integrating"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_matches_sample_by_sample_recurrence(self, kind, order):
        rng = np.random.default_rng(1000 * order + len(kind))
        for _ in range(3):
            tf = _random_system(rng, order, kind)
            t_end = rng.uniform(5.0, 60.0)
            tr = step_response(tf, t_end)
            y = _loop_step_y(tf, t_end)
            assert tr.y.shape == y.shape == tr.t.shape
            assert tr.y[0] == y[0]
            assert np.max(np.abs(tr.y - y)) <= 1e-12 * np.max(np.abs(y))
            assert tr.diverged == (kind != "stable")

    @pytest.mark.parametrize("t_end", [0.1, 2.55, 2.56, 2.57, 51.3])
    def test_partial_and_short_blocks(self, t_end):
        # dt 0.01: 10 samples (shorter than one block), one block
        # exactly, one sample over it, and many blocks with a partial tail
        tf = TransferFunction([2.0, 3.0], [1.0, 0.7, 4.0])
        tr = step_response(tf, t_end, dt=0.01)
        y = _loop_step_y(tf, t_end, dt=0.01)
        assert len(tr.y) == len(y)
        assert np.max(np.abs(tr.y - y)) <= 1e-12 * np.max(np.abs(y))

    def test_longest_validate_response(self):
        # the tuned cascade loop of the validation report: 240 675 samples
        from sunpump.plants import PidParams, cascade_system
        closed = cascade_system(
            50.0, PidParams(4.67, 3.91, -0.0047, 1002.69)).closed_loop_unity
        tr = step_response(closed, 12.0)
        y = _loop_step_y(closed, 12.0)
        assert len(y) == 240675
        assert np.max(np.abs(tr.y - y)) <= 1e-12 * np.max(np.abs(y))


class TestPlateauRounding:
    def _monotone(self):
        t = np.linspace(0.0, 20.0, 2001)
        return t, 3.0 * (1.0 - np.exp(-t))

    def test_ulp_bump_on_plateau_is_no_overshoot(self):
        from sunpump.lti import StepTrace
        t, y = self._monotone()
        final = y[-1]
        y[1500] = np.nextafter(np.nextafter(final, np.inf), np.inf)
        assert y[1500] > final
        m = step_metrics(StepTrace(t, y))
        assert m.overshoot_pct == 0.0
        assert m.peak == final
        assert m.peak_time_s == t[-1]

    def test_exact_plateau_peaks_at_the_last_sample(self):
        from sunpump.lti import StepTrace
        t = np.linspace(0.0, 1.0, 100)
        m = step_metrics(StepTrace(t, np.minimum(5.0 * t, 2.0)))
        assert m.peak == 2.0 and m.overshoot_pct == 0.0
        assert m.peak_time_s == t[-1]

    def test_real_overshoot_still_reported(self):
        from sunpump.lti import StepTrace
        t, y = self._monotone()
        final = y[-1]
        y[1500] = final * (1.0 + 1e-9)
        m = step_metrics(StepTrace(t, y))
        assert m.overshoot_pct == pytest.approx(1e-7, rel=1e-3)
        assert m.peak_time_s == t[1500]


def _old_poly_roots(c):
    """np.roots plus the two guarded np.polyval Newton passes, one
    polynomial at a time: poly_roots' oracle."""
    c = np.asarray(Polynomial(c).coeffs)
    roots = np.roots(c).astype(complex)
    dc = np.polyder(c)
    for _ in range(2):
        residual = np.abs(np.polyval(c, roots))
        deriv = np.polyval(dc, roots)
        ok = np.abs(deriv) > 0
        cand = roots.copy()
        cand[ok] = roots[ok] - np.polyval(c, roots[ok]) / deriv[ok]
        better = np.abs(np.polyval(c, cand)) < residual
        roots[better] = cand[better]
    return roots[np.lexsort((roots.imag, roots.real))]


def _per_gain_locus(g, gains):
    """Root locus solved gain by gain with poly_roots, greedy-matched."""
    num, den = np.asarray(g.num.coeffs), np.asarray(g.den.coeffs)
    branches, prev = [], None
    for k in gains:
        r = poly_roots(Polynomial(np.polyadd(den, k * num)))
        if prev is not None and len(r) == len(prev):
            used = np.zeros(len(r), dtype=bool)
            matched = np.empty_like(r)
            for i, p in enumerate(prev):
                dist = np.abs(r - p)
                dist[used] = np.inf
                j = int(np.argmin(dist))
                used[j] = True
                matched[i] = r[j]
            r = matched
        branches.append(r)
        prev = r
    return np.vstack(branches)


def _bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a, dtype=complex).view(float),
        np.asarray(b, dtype=complex).view(float))


class TestBatchedRoots:
    def test_poly_roots_unchanged_on_seeded_polynomials(self):
        rng = np.random.default_rng(11)
        for trial in range(600):
            deg = 1 + trial % 8
            c = rng.normal(size=deg + 1) * 10.0 ** rng.uniform(-3, 3,
                                                              deg + 1)
            zeros_at_origin = trial % 3 if deg > 2 else 0
            if zeros_at_origin:
                c[-zeros_at_origin:] = 0.0
            assert _bit_equal(poly_roots(c), _old_poly_roots(c)), c

    def test_trailing_zeros_and_degree_one(self):
        for c in ([2.0, 0.0], [1.0, 3.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [4.0, -1.0], [1.0, 2.0, 1.0, 0.0]):
            r = poly_roots(c)
            assert _bit_equal(r, _old_poly_roots(c))
            assert len(r) == len(c) - 1

    def test_presets_batched_equal_per_gain(self):
        from sunpump.plants import PRESETS, preset
        gains = np.geomspace(0.01, 1000.0, 60)
        for name in PRESETS:
            g = preset(name)
            assert _bit_equal(root_locus(g, gains), _per_gain_locus(g, gains))

    def test_random_systems_batched_equal_per_gain(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            nd = int(rng.integers(1, 7))
            den = rng.normal(size=nd + 1)
            num = rng.normal(size=int(rng.integers(1, nd + 1)))
            if rng.random() < 0.3:
                den[-1] = 0.0
            g = TransferFunction(num, den)
            gains = np.geomspace(10 ** rng.uniform(-3, 0),
                                 10 ** rng.uniform(1, 4),
                                 int(rng.integers(1, 60)))
            assert _bit_equal(root_locus(g, gains), _per_gain_locus(g, gains))

    def test_degree_change_along_sweep_rejected(self):
        # (1 - K) s^2 + (2 + K) s + 3: the s^2 term cancels at K = 1
        g = TransferFunction([-1.0, 1.0, 0.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="degree"):
            root_locus(g, [0.5, 1.0, 2.0])
        with pytest.raises(ValueError):
            _per_gain_locus(g, [0.5, 1.0, 2.0])


class TestClosedFormErrorSweep:
    @pytest.mark.parametrize("kind, attr", [("step", "e_step"),
                                            ("ramp", "e_ramp"),
                                            ("parabola", "e_parabola")])
    def test_equals_per_gain_error_constants(self, kind, attr):
        from sunpump.plants import PRESETS, preset
        gains = np.geomspace(0.1, 1000.0, 40)
        systems = [preset(name) for name in PRESETS] + [
            TransferFunction([3.0, 0.7], [1.0, 0.3, 0.0, 0.0]),
            TransferFunction([0.37], [2.9, 1.3, 0.11])]
        for g in systems:
            _, errors, _ = ss_error_vs_gain(g, gains, error_kind=kind)
            expect = np.array([getattr(error_constants(k * g), attr)
                               for k in gains])
            assert np.array_equal(errors, expect)

    def test_no_per_gain_error_constants_calls(self, monkeypatch):
        import sunpump.lti as lti
        calls = []
        real = lti.error_constants
        monkeypatch.setattr(lti, "error_constants",
                            lambda g: calls.append(g) or real(g))
        ss_error_vs_gain(TransferFunction([0.05], [0.1, 1.1, 1.0]),
                         np.geomspace(0.1, 1000.0, 40))
        assert calls == []
