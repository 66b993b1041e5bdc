import math
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import mpmath
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from sunpump import lti
from sunpump.lti import (DegenerateSystemError, ImproperSystemError,
                         NotSettledError, Polynomial, TransferFunction,
                         error_constants, frequency_response, poly_roots,
                         root_locus, routh_table, ss_error_vs_gain,
                         stability_margins, stability_verdict_from_roots,
                         step_metrics, step_response, tf_feedback,
                         tf_from_text)
from sunpump.plants import MOTOR_PAPER, PRESETS, preset


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

    @pytest.mark.parametrize("coeffs,degree", [
        ([1.0, 20.0, 1e14], 2), ([1.0, 3e6, 3e12, 1e18], 3),
        ([1.0, 1e14, 1.0], 2), ([1.0, 1e14], 1), ([0.0, 1e-300, 1.0], 1),
        (np.poly(np.arange(1.0, 17.0)), 16)])
    def test_only_exact_zeros_are_trimmed(self, coeffs, degree):
        # a 1e-13 * max|c| rule used to drop the leading term of each
        p = Polynomial(coeffs)
        assert p.degree == degree
        assert p.coeffs == tuple(np.trim_zeros(np.asarray(coeffs), "f"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        for coeffs in ([1.0, bad], [bad, 1.0], [bad]):
            with pytest.raises(ValueError, match="finite"):
                Polynomial(coeffs)
        with pytest.raises(ValueError, match="finite"):
            tf_from_text(f"num: {bad} / den: 1 1")

    @pytest.mark.parametrize("num,den", [
        ([1e308], [1e-308, 1.0]), ([1.0], [1e-308, 1e10])])
    def test_overflow_while_made_monic_is_not_finite(self, num, den):
        # the division by the leading coefficient overflows to inf; it
        # raised numpy's RuntimeWarning (an error under -W error) first
        with pytest.raises(ValueError, match="finite"):
            TransferFunction(num, den)

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

    def test_wide_coefficient_poles(self):
        # s^2 + 20 s + 1e14 came back as first order, one pole at -5e12
        r = TransferFunction([1.0], [1.0, 20.0, 1e14]).poles()
        assert r == pytest.approx([-10.0 - 1e7j, -10.0 + 1e7j], rel=1e-12)
        assert poly_roots([1.0, 1e14]).tolist() == [-1e14]

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


def _mp_poly_derivative(co, k):
    """Coefficients of the k-th derivative, highest degree first."""
    for _ in range(k):
        n = len(co) - 1
        co = [c * (n - i) for i, c in enumerate(co[:-1])]
    return co


class TestRootsAgainstMpmath:
    """
    ``poly_roots`` against a 50-digit oracle on ill-conditioned cases.

    The oracle solves the given float coefficients exactly: a product of
    known factors whose float coefficients are checked to be exact, or
    ``mpmath.polyroots`` at 50 digits.  Each computed root r has to
    meet the docstring's residual contract evaluated at 50 digits, and
    lie within the conditioning bound of the nearest oracle root z of
    multiplicity k:

        |r - z| <= |z| (n eps kappa_k)**(1/k),
        kappa_k = k! sum|c_i| |z|**(n-i) / (|p^(k)(z)| |z|**k),

    the first-order effect on a k-fold root of relative perturbations
    of n eps in the coefficients, about eps**(1/k) for a k-fold
    cluster.  A root at 0 (an exact trailing zero) must be exactly 0.
    """

    CASES = {
        "wilkinson-12": (np.poly(np.arange(1.0, 13.0)),
                         [(k, 1) for k in range(1, 13)]),
        "wilkinson-16": (np.poly(np.arange(1.0, 17.0)),
                         [(k, 1) for k in range(1, 17)]),
        "(s+1)^6": ([1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0], [(-1, 6)]),
        "(s+1e6)^3": ([1.0, 3e6, 3e12, 1e18], [(-10 ** 6, 3)]),
        "spread-1e-3-1e3": (np.poly(-np.logspace(-3.0, 3.0, 7)), None),
        "near-double-1e-7": (np.poly([-1.0, -1.0 - 1e-7]), None),
        "printed-quartic": ([1.0, 625.8, 1.382e4, 1.239e7, 7.349e6], None),
        "motor-paper-den": (MOTOR_PAPER.den.coeffs, None),
    }

    @staticmethod
    def _oracle(co, known):
        if known is None:
            return [(z, 1) for z in mpmath.polyroots(co, maxsteps=200,
                                                     extraprec=300)]
        product = [mpmath.mpf(1)]
        for z, k in known:
            for _ in range(k):
                product = [a - z * b
                           for a, b in zip(product + [0], [0] + product)]
        assert product == co    # the float coefficients are exact
        return [(mpmath.mpf(z), k) for z, k in known]

    @pytest.mark.parametrize("name", list(CASES))
    def test_roots_within_conditioning_bound(self, name):
        coeffs, known = self.CASES[name]
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            co = [mpmath.mpf(float(c)) for c in coeffs]
            n = len(co) - 1
            roots = poly_roots(coeffs)
            assert len(roots) == n
            oracle = self._oracle(co, known)
            scale = sum(abs(c) for c in co)
            for r in roots.tolist():
                rm = mpmath.mpc(r)
                assert abs(mpmath.polyval(co, rm)) <= \
                    1e-9 * scale * max(1, abs(rm)) ** n
                z, k = min(oracle, key=lambda zk: abs(rm - zk[0]))
                if z == 0:
                    assert r == 0
                    continue
                kappa = (mpmath.factorial(k)
                         * sum(abs(c) * abs(z) ** (n - i)
                               for i, c in enumerate(co))
                         / (abs(mpmath.polyval(_mp_poly_derivative(co, k), z))
                            * abs(z) ** k))
                assert abs(rm - z) <= \
                    abs(z) * (n * eps * kappa) ** (mpmath.mpf(1) / k)


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
        cl = tf_feedback(g, 1.0)
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

    @pytest.mark.parametrize("k", [1.0, -2.5, 1e5])
    def test_gain_is_a_constant_feedback_path(self, k):
        g = TransferFunction([0.5, 2.0], [1.0, 3.0, 0.0])
        by_gain = tf_feedback(g, k)
        by_path = tf_feedback(g, TransferFunction([k], [1.0]))
        assert by_gain.num.coeffs == pytest.approx(by_path.num.coeffs)
        assert by_gain.den.coeffs == pytest.approx(by_path.den.coeffs)

    def test_degenerate_gain(self):
        with pytest.raises(DegenerateSystemError):
            tf_feedback(TransferFunction([1.0], [1.0]), -1.0)


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

    @pytest.mark.parametrize("den, t_end, dt", [
        ([1.0, 1e300], 1e11, 1e10),     # G dt overflows
        ([1.0, -1000.0], 100.0, 10.0)])  # G dt is finite, e^(G dt) is not
    def test_overflowing_hold_step_is_refused(self, den, t_end, dt):
        # both used to return a trace of nan after the first sample
        with pytest.raises(ValueError, match=r"overflows at dt = 1"):
            step_response(TransferFunction([1.0], den), t_end, dt)

    def test_overflowing_response_is_refused(self):
        # 1/(s - 1) passes the float range at t = 710 s: this used to warn
        # and return inf, then nan, from there on
        with pytest.raises(ValueError, match=r"overflows at t = 710 s"):
            step_response(TransferFunction([1.0], [1.0, -1.0]), 1000.0, 1.0)

    def test_finite_divergence_is_kept(self):
        # motor_symbolic's closed loop grows to about 3e45 by its default
        # t_end: a divergent trace, but a finite one
        tr = step_response(tf_feedback(preset("motor_symbolic"), 1.0),
                           504.7377257004022)
        assert tr.diverged and np.all(np.isfinite(tr.y))
        assert 1e45 < np.abs(tr.y).max() < 1e46

    def test_time_axis_is_the_sample_index_times_dt(self):
        tr = step_response(TransferFunction([1.0], [1.0, 1.0]), 5.0, 0.003)
        assert np.array_equal(tr.t, np.arange(tr.t.size) * 0.003)

    @pytest.mark.parametrize("k, want", [(0.0, 2.0), (1.0, 2.0 / 3.0)])
    def test_static_gain(self, k, want):
        # 2 / 1 has no poles, which used to make poles() raise
        tf = tf_feedback(TransferFunction([2.0], [1.0]), k)
        assert tf.poles().size == 0 and tf.poles().dtype == complex
        tr = step_response(tf, 10.0)
        assert tr.t.size == 2001 and not tr.diverged
        assert np.all(tr.y == want)

    @pytest.mark.parametrize("name, t_end, dt", [
        ("t_end", -5.0, None), ("t_end", 0.0, None), ("t_end", -0.0, None),
        ("t_end", math.nan, None), ("t_end", math.inf, None),
        ("t_end", -math.inf, 0.1), ("dt", 10.0, 0.0), ("dt", 10.0, -1.0),
        ("dt", 10.0, math.nan), ("dt", 10.0, math.inf)])
    def test_bad_t_end_or_dt_named(self, name, t_end, dt):
        # checked before the default dt is derived from t_end, so the
        # message names the argument that is wrong
        tf = TransferFunction([1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            step_response(tf, t_end, dt)

    def test_default_dt_overflowing_to_0_refused(self):
        # 20 |p| overflows at the closed loop's pole at -1e308: numpy's
        # RuntimeWarning (an error under -W error) came first
        tf = tf_feedback(TransferFunction([1e308], [1.0, 1e-300]), 1.0)
        with pytest.raises(ValueError, match="default dt for t_end = 10.0 "
                           "is 0"):
            step_response(tf, 10.0)

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
        # (a t_end that is not finite is refused by name, before that)
        tf = TransferFunction([1.0], [1.0, 1000000.001, 1000.0])
        message = "samples" if math.isfinite(t_end) else "t_end must be"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("where", [-1, -3])
    def test_nan_in_the_tail_is_not_settled(self, where):
        # a NaN compared False against the 1% band, so the metrics came
        # out as "peak nan ... steady state nan"
        from sunpump.lti import StepTrace
        t = np.linspace(0.0, 10.0, 1001)
        y = 1.0 - np.exp(-t)
        y[where] = np.nan
        with pytest.raises(NotSettledError):
            step_metrics(StepTrace(t, y))

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

    def test_an_overflowing_array_raises(self):
        # its s^2 row overflowed to nan under numpy's RuntimeWarnings, and
        # the verdict read "unstable" off the sign of a nan
        with pytest.raises(ArithmeticError, match=r"overflows at row s\^2$"):
            routh_table([1.0, 1e200, 1e200, 1e200, 1e200])

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


def _routh_loop(p):
    """The Routh array built cell by cell, as routh_table built it before
    its rows became array steps: the bit-level oracle of those steps."""
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    n = p.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    coeffs = np.asarray(p.coeffs)
    if coeffs[0] < 0:
        coeffs = -coeffs
    eps = 1e-9 * np.max(np.abs(coeffs))

    width = n // 2 + 1
    rows = [np.zeros(width), np.zeros(width)]
    rows[0][: len(coeffs[0::2])] = coeffs[0::2]
    rows[1][: len(coeffs[1::2])] = coeffs[1::2]
    zero_event = False

    table = [rows[0].copy(), rows[1].copy()]
    for i in range(2, n + 1):
        prev, prev2 = table[i - 1], table[i - 2]
        if np.all(prev == 0.0):
            # full zero row: differentiate the auxiliary polynomial of prev2
            zero_event = True
            order = n - (i - 2)
            aux_pows = np.arange(order, -1, -2, dtype=float)
            prev = prev2[: len(aux_pows)] * aux_pows
            padded = np.zeros(width)
            padded[: len(prev)] = prev
            prev = padded
            table[i - 1] = prev
        pivot = prev[0]
        if pivot == 0.0:
            zero_event = True
            pivot = eps
            prev = prev.copy()
            prev[0] = pivot
            table[i - 1] = prev
        row = np.zeros(width)
        for j in range(width - 1):
            row[j] = (pivot * prev2[j + 1] - prev2[0] * prev[j + 1]) / pivot
        # scale for numerical health; positive factor keeps signs intact
        m = np.max(np.abs(row))
        if m > 0:
            row = row / m
        table.append(row)

    first = [table[i][0] for i in range(n + 1)]
    signs = [math.copysign(1.0, v) for v in first if v != 0.0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if changes > 0:
        verdict = "unstable"
    elif zero_event:
        verdict = "marginal"
    else:
        verdict = "stable"
    return lti.RouthResult(
        tuple(tuple(r) for r in table), tuple(first), changes, verdict)


# coefficients that make zero pivots (0.0, -0.0), near-zero pivots and a
# wide spread of magnitudes
_ROUTH_COEFFS = (st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1e9])
                 | st.integers(-4, 4).map(float))


@st.composite
def _routh_polys(draw):
    """A polynomial of degree 1-9, times s^2 + a for some of them: a
    factor with roots on the imaginary axis (or at 0) forces zero rows."""
    deg = draw(st.integers(1, 9))
    c = [draw(_ROUTH_COEFFS.filter(bool))] + draw(
        st.lists(_ROUTH_COEFFS, min_size=deg, max_size=deg))
    a = draw(st.sampled_from([None, 0.0, 0.25, 1.0, 4.0]))
    return c if a is None else np.convolve(c, [1.0, 0.0, a]).tolist()


def _int_bits(cells):
    return np.array(cells, dtype=float).view(np.int64)


class TestRouthRows:
    @settings(max_examples=300)
    @given(_routh_polys())
    @example([1.0, 2.0, 24.0, 48.0, -25.0, -50.0])   # zero row at s^3
    @example([1.0, 1.0, 2.0, 2.0, 3.0])              # zero pivot at s^2
    @example([1.0, 0.0, 0.0, 0.0])                   # s^3
    @example([1.0, 0.0, 4.0])                        # s^2 + 4
    @example([-2.0, 1.0, -3.0, 5.0])                 # leading coefficient < 0
    def test_bits_equal_the_cell_loop(self, c):
        got, want = routh_table(c), _routh_loop(c)
        assert np.array_equal(_int_bits(got.table), _int_bits(want.table))
        assert np.array_equal(_int_bits(got.first_column),
                              _int_bits(want.first_column))
        assert (got.sign_changes, got.verdict) == (want.sign_changes,
                                                   want.verdict)


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


def _mp_margins(tf):
    """
    ``Margins`` of ``tf`` at 50 digits: with ``N(jw) = A(x) + jw B(x)``
    and ``D(jw) = C(x) + jw E(x)``, ``x = w**2``, the gain crossovers
    are the positive real roots of ``A^2 + x B^2 - C^2 - x E^2`` and the
    phase crossovers those of ``B C - A E`` with
    ``A C + x B E < 0``, found by ``mpmath.polyroots``.
    """
    def parts(p):
        c = [mpmath.mpf(v) for v in reversed(p.coeffs)]   # lowest first
        even = [(-1) ** (k // 2) * c[k] for k in range(0, len(c), 2)]
        odd = [(-1) ** (k // 2) * c[k] for k in range(1, len(c), 2)]
        return even or [0], odd or [0]

    def mul(a, b):
        out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for k, v in enumerate(b):
                out[i + k] += u * v
        return out

    def add(*terms):
        out = [mpmath.mpf(0)] * max(len(t) for t in terms)
        for t in terms:
            for i, v in enumerate(t):
                out[i] += v
        return out

    def neg(a):
        return [-v for v in a]

    def xtimes(a):
        return [mpmath.mpf(0)] + a

    def positive_roots(lowest_first):
        c = list(lowest_first)
        while c and c[-1] == 0:
            c.pop()
        while c and c[0] == 0:      # roots at w = 0
            c.pop(0)
        if len(c) < 2:
            return []
        roots = mpmath.polyroots(c[::-1], maxsteps=500, extraprec=500)
        return sorted(mpmath.sqrt(r.real) for r in map(mpmath.mpc, roots)
                      if r.real > 0 and abs(r.imag) <= 1e-30 * abs(r))

    def g(w):
        s = mpmath.mpc(0, w)
        return (mpmath.polyval([mpmath.mpf(v) for v in tf.num.coeffs], s)
                / mpmath.polyval([mpmath.mpf(v) for v in tf.den.coeffs], s))

    with mpmath.workdps(50):
        A, B = parts(tf.num)
        C, E = parts(tf.den)
        gain = add(mul(A, A), xtimes(mul(B, B)), neg(mul(C, C)),
                   neg(xtimes(mul(E, E))))
        cross = add(mul(B, C), neg(mul(A, E)))
        gms = [(-20 * mpmath.log10(abs(g(w))), w)
               for w in positive_roots(cross) if mpmath.re(g(w)) < 0]
        pms = [(mpmath.degrees(mpmath.arg(g(w))) + 180, w)
               for w in positive_roots(gain)]
        pms = [(pm - 360 if pm > 180 else pm, w) for pm, w in pms]
        gm = min(gms, default=(None, None))
        pm = min(pms, key=lambda c: abs(c[0]), default=(None, None))
        return [None if v is None else float(v) for v in (*gm, *pm)]


def _registry_loops():
    from sunpump.plants import PidParams, cascade_system
    return {"motor_K1e6": 100.0 * MOTOR_PAPER,
            "cascade_tuned2": cascade_system(
                50.0, PidParams(4.67, 3.91, -0.0047, 1002.69)),
            "slow_lag": TransferFunction([5.0], [1000.0, 1.0])}


_MARGIN_LOOPS = {**{name: preset(name) for name in sorted(PRESETS)},
                 **_registry_loops()}


class TestMargins:
    @pytest.mark.parametrize("name", list(_MARGIN_LOOPS))
    def test_match_a_50_digit_reference(self, name):
        tf = _MARGIN_LOOPS[name]
        m = stability_margins(tf)
        got = [m.gain_margin_db, m.gm_freq_rad_s, m.phase_margin_deg,
               m.pm_freq_rad_s]
        want = _mp_margins(tf)
        assert [v is None for v in got] == [v is None for v in want]
        for g, w in zip(got, want):
            if w is not None:
                assert g == pytest.approx(w, rel=1e-9, abs=0.0)

    def test_crossover_below_the_bode_grid(self):
        # 5/(1000 s + 1) meets 0 dB at sqrt(24)/1000 rad/s, under the
        # 1e-2 rad/s where tf bode's CSV grid starts
        m = stability_margins(TransferFunction([5.0], [1000.0, 1.0]))
        w = math.sqrt(24.0) / 1000.0
        assert m.pm_freq_rad_s == pytest.approx(w, rel=1e-14)
        assert m.phase_margin_deg == pytest.approx(
            180.0 - math.degrees(math.atan(math.sqrt(24.0))), rel=1e-13)
        assert m.gain_margin_db is None

    def test_analytic_double_pole_crossover(self):
        # |G(jw)| = 1 for 1/(s(s+1)) at w^2(w^2+1) = 1
        g = TransferFunction([1.0], [1.0, 1.0, 0.0])
        m = stability_margins(g)
        w = math.sqrt((math.sqrt(5) - 1) / 2)
        pm = 180 - 90 - math.degrees(math.atan(w))
        assert m.pm_freq_rad_s == pytest.approx(w, rel=1e-14)
        assert m.phase_margin_deg == pytest.approx(pm, rel=1e-13)
        assert m.gain_margin_db is None   # phase never reaches -180

    def test_no_crossing_absent(self):
        g = TransferFunction([1.0], [1.0, 1.0])
        m = stability_margins(g)
        assert m.gain_margin_db is None
        assert m.phase_margin_deg is None

    def test_phase_margin_reduced_mod_360(self):
        # -2/(s+1) meets 0 dB at sqrt(3) rad/s with a phase of +120 deg;
        # its unity-feedback loop has a pole at +1, so the margin is -60,
        # not 180 + 120 = 300
        m = stability_margins(TransferFunction([-2.0], [1.0, 1.0]))
        assert m.pm_freq_rad_s == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert m.phase_margin_deg == pytest.approx(-60.0, abs=1e-12)

    def test_gain_margin_at_every_odd_half_turn(self):
        # -(s/10 + 1)^2 / ((s + 1)(s/100 + 1)) unwraps from just under
        # +180 deg and crosses it again at w = 10, where G = -2/10.1; no
        # -180 crossing exists
        g = TransferFunction(-np.polymul([0.1, 1.0], [0.1, 1.0]),
                             np.polymul([1.0, 1.0], [0.01, 1.0]))
        fr = frequency_response(g, np.geomspace(1e-2, 1e4, 4000))
        assert fr.phase_deg.min() > -180.0
        m = stability_margins(g)
        assert m.gm_freq_rad_s == pytest.approx(10.0, rel=1e-14)
        assert m.gain_margin_db == pytest.approx(20.0 * math.log10(5.05),
                                                 rel=1e-13)

    @pytest.mark.parametrize("num,den", [
        ([1.0], [1.0, 0.0, 1.0]), ([1.0], [1.0, 1.0, 0.05, 0.05]),
        ([-1.0], [1.0, 1.0, 0.05, 0.05]), ([1.0, 1.0], [1.0, 0.0, 0.3])])
    def test_a_pole_on_the_axis_is_no_crossing(self, num, den):
        # the phase polynomial of each has a root at its pole on the
        # axis, where Re(N conj D) is 0 or a rounding error of 1e-17;
        # -1/((s + 1)(s^2 + 0.05)) read a gain margin of -343 dB there
        with np.errstate(all="raise"):
            m = stability_margins(TransferFunction(num, den))
        assert m.gain_margin_db is None

    @pytest.mark.parametrize("num", [1.0, -1.0, -3.0])
    def test_a_real_constant_has_no_crossings(self, num):
        # |G| = 1 everywhere, or G real everywhere: no isolated crossing
        m = stability_margins(TransferFunction([num], [1.0]))
        assert m == lti.Margins()

    @pytest.mark.parametrize("num,den", [
        ([1e200], [1.0, 1.0]), ([1.0], [1e-160, 1.0, 1.0]),
        ([1e300, 0.0, 0.0], [1.0, 1.0, 1.0])])
    def test_extreme_coefficients_raise_nothing(self, num, den):
        # |N|^2 of 1e200 overflows, and |D|^2 of 1e-160 s^2 leads with
        # 1e-320, which made the companion matrix infinite; no crossing
        # lies between 1e-150 and 1e150 rad/s
        with np.errstate(all="raise"):
            m = stability_margins(TransferFunction(num, den))
        assert m == lti.Margins()

    def test_all_pass_has_no_phase_margin(self):
        # (1 - s)/(1 + s): |G(jw)| = 1 at every w
        m = stability_margins(TransferFunction([-1.0, 1.0], [1.0, 1.0]))
        assert m.phase_margin_deg is None and m.pm_freq_rad_s is None

    def test_a_tangent_crossover_is_found(self):
        # |N|^2 - |D|^2 = -(w^2 - 1)^2: |G| touches 1 at w = 1 without
        # crossing it, and the double root in w^2 comes out as a complex
        # pair 2e-8 off the real axis
        c = math.sqrt(2.0)
        b = math.sqrt(2.0 * c - 2.0)
        m = stability_margins(TransferFunction([1.0], [1.0, b, c]))
        assert m.pm_freq_rad_s == pytest.approx(1.0, rel=1e-7)
        assert m.phase_margin_deg == pytest.approx(
            180.0 - math.degrees(math.atan2(b, c - 1.0)), rel=1e-6)

    def test_stable_loop_positive_pm(self):
        for k in (0.5, 2.0, 10.0):
            g = k * TransferFunction([1.0], [1.0, 2.0, 1.0, 0.0])
            cl = tf_feedback(g, 1.0)
            if stability_verdict_from_roots(cl.den) == "stable":
                m = stability_margins(g)
                if m.phase_margin_deg is not None:
                    assert m.phase_margin_deg > 0
        # at k = 2 the closed loop is (s^2 + 1)(s + 2): marginal, with
        # both margins 0 at w = 1
        m = stability_margins(2.0 * TransferFunction([1.0],
                                                     [1.0, 2.0, 1.0, 0.0]))
        assert abs(m.phase_margin_deg) <= 1e-9
        assert abs(m.gain_margin_db) <= 1e-9
        assert abs(m.pm_freq_rad_s - 1.0) <= 1e-9
        assert abs(m.gm_freq_rad_s - 1.0) <= 1e-9


@st.composite
def stable_loops(draw):
    """K N / D with D of degree 2 to 4, its poles in the open left
    half-plane, and N 1 or one real zero of either sign."""
    den = [1.0]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            wn = draw(st.floats(0.1, 10.0))
            zeta = draw(st.floats(0.02, 0.95))
            den = np.polymul(den, [1.0, 2.0 * zeta * wn, wn * wn])
        else:
            den = np.polymul(den, [1.0, draw(st.floats(0.1, 10.0))])
    if len(den) < 3:
        den = np.polymul(den, [1.0, draw(st.floats(0.1, 10.0))])
    num = [1.0]
    if draw(st.booleans()):
        num = [1.0, draw(st.sampled_from([-1.0, 1.0]))
               * draw(st.floats(0.1, 100.0))]
    k = 10.0 ** draw(st.floats(-1.0, 4.0))
    return TransferFunction(k * np.asarray(num), den)


class TestCrossoverProperty:
    @settings(max_examples=150)
    @given(tf=stable_loops())
    def test_every_bracketed_crossing_is_found(self, tf):
        # every crossing that a dense log grid brackets is among the
        # exact ones, and each exact one is a crossing
        w = np.geomspace(1e-3, 1e4, 20001)
        g = tf(1j * w)
        (gain_w, _), (phase_w, _) = lti._crossovers(tf)
        lo, hi = w[:-1] * (1 - 1e-9), w[1:] * (1 + 1e-9)
        mag = np.abs(g) - 1.0
        for i in np.flatnonzero(mag[:-1] * mag[1:] < 0):
            assert np.any((gain_w >= lo[i]) & (gain_w <= hi[i])), w[i]
        im, re = g.imag, g.real
        for i in np.flatnonzero((im[:-1] * im[1:] < 0) & (re[:-1] < 0)
                                & (re[1:] < 0)):
            assert np.any((phase_w >= lo[i]) & (phase_w <= hi[i])), w[i]
        assert np.all(np.abs(np.abs(tf(1j * gain_w)) - 1.0) <= 1e-9)
        at = tf(1j * phase_w)
        assert np.all(at.real < 0)
        assert np.all(np.abs(at.imag) <= 1e-9 * np.abs(at))


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

    @pytest.mark.parametrize("sweep", [root_locus, ss_error_vs_gain])
    @pytest.mark.parametrize("gains", [
        [], [0.0, 1.0, 10.0], [-1.0, 4.25, 10.0], [1.0, 10.0, 5.0],
        [1.0, 1.0], [math.nan, 1.0]])
    def test_gains_must_be_positive_ascending(self, sweep, gains):
        # K <= 0 is no loop gain: a sweep through it is refused
        with pytest.raises(ValueError, match="gain"):
            sweep(TransferFunction([0.05], [0.1, 1.1, 1.0]), gains)


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

    def test_tiny_constant_term_is_type_zero(self):
        # s^2 + 1e14 s + 1 was read as type 1 with Kp = inf
        ec = error_constants(tf_from_text("num: 1 / den: 1 1e14 1"))
        assert ec.system_type == 0
        assert ec.Kp_pos == 1.0
        assert ec.e_step == 0.5

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

    def test_zero_exactly_on_grid_point_is_nudged(self):
        # 10 (s^2 + 1) / (s + 1)^2: num(j*1) == 0 exactly; log10(0) gave
        # -inf dB with a divide-by-zero warning and phase 0
        tf = TransferFunction([10.0, 0.0, 10.0], [1.0, 2.0, 1.0])
        fr = frequency_response(tf, np.array([0.5, 1.0, 2.0]))
        assert fr.magnitude_db[1] == pytest.approx(-220.0, abs=0.01)
        assert fr.phase_deg[1] == pytest.approx(90.0, abs=1e-9)
        assert fr.magnitude_db[0] == fr.magnitude_db[2] == pytest.approx(
            20.0 * math.log10(6.0))

    def test_overflowing_response_refused(self):
        # inf / inf gave NaN phases and a NaN phase margin at 1 rad/s
        tf = TransferFunction([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"omega = 1e\+200 rad/s"):
            frequency_response(tf, np.array([1.0, 1e200, 1e201]))


def _loop_step_y(tf, t_end, dt=None):
    """The hold recurrence ``z <- e^{G dt} z`` stepped one sample at a
    time: the blocked step_response's oracle."""
    from sunpump.lti import _expm, _hold_realization, _step_dt
    if dt is None:
        dt = _step_dt(tf.poles(), t_end)
    G, c = _hold_realization(tf)
    F = _expm(G * dt)
    n_steps = int(round(t_end / dt))
    y = np.empty(n_steps + 1)
    z = np.zeros(len(c))
    z[-1] = 1.0
    for i in range(n_steps + 1):
        y[i] = c @ z
        z = F @ z
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
        closed = tf_feedback(cascade_system(
            50.0, PidParams(4.67, 3.91, -0.0047, 1002.69)), 1.0)
        tr = step_response(closed, 12.0)
        y = _loop_step_y(closed, 12.0)
        assert len(y) == 240675
        assert np.max(np.abs(tr.y - y)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("blocks", [1, 16, 128, 1024])
    def test_buffer_ends_within_a_block_of_the_trace(self, blocks):
        # n one sample past 256 * 2**k: only the block starts the trace
        # needs are built, so y's buffer outgrows n by less than a block
        n = 256 * blocks + 1
        tr = step_response(TransferFunction([1.0], [1.0, 1.0]),
                           (n - 1) * 0.01, 0.01)
        assert len(tr.y) == n
        assert (tr.y if tr.y.base is None else tr.y.base).size <= n + 255


def _hold_step(name):
    """``G dt`` of a preset's closed loop at the t_end and dt that
    ``tf step --closed`` picks by default, or of the probe
    100 / (s + 100) at dt = 0.1."""
    if name == "probe":
        G, _ = lti._hold_realization(TransferFunction([100.0], [1.0, 100.0]))
        return G * 0.1
    tf = preset(name)
    poles = tf.poles()
    stable = poles[poles.real < -1e-12]
    t_end = 8.0 / abs(stable.real.max()) if stable.size else 10.0
    closed = tf_feedback(tf, 1.0)
    G, _ = lti._hold_realization(closed)
    return G * lti._step_dt(closed.poles(), t_end)


class TestExactStepResponse:
    @pytest.mark.parametrize("num, den, t_end, dt", [
        ([2.0], [0.5, 1.0], 5.0, None),
        # dt = 10 time constants: RK4 wrote y(5 s) = -1.57e123 here
        ([100.0], [1.0, 100.0], 5.0, 0.1),
        ([1.0, 2.0], [1.0, 1.0], 12.0, None),   # direct feedthrough
        ([5.0], [475.0, 1.0], 475.0 * 6, None)])
    def test_first_order_closed_form(self, num, den, t_end, dt):
        # (b1 s + b0) / (a1 s + a0): y = b0/a0 + (b1/a1 - b0/a0) e^(-a0 t/a1)
        tr = step_response(TransferFunction(num, den), t_end, dt)
        (b1, b0), (a1, a0) = np.pad(num, (2 - len(num), 0)), den
        want = b0 / a0 + (b1 / a1 - b0 / a0) * np.exp(-a0 / a1 * tr.t)
        assert np.max(np.abs(tr.y - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("wn, zeta, t_end, dt", [
        (3.0, 0.5, 10.0, None),
        (math.sqrt(5.0), 0.005, 714.0, None),   # as lightly damped as the
        (math.sqrt(5.0), 0.005, 714.0, 0.5),    # tank_2nd_order loop
        (10.0, 0.2, 5.0, 0.3)])                 # under 2 samples a period
    def test_underdamped_second_order_closed_form(self, wn, zeta, t_end, dt):
        tf = TransferFunction([wn * wn], [1.0, 2 * zeta * wn, wn * wn])
        tr = step_response(tf, t_end, dt)
        root = math.sqrt(1 - zeta ** 2)
        want = 1 - np.exp(-zeta * wn * tr.t) * (
            np.cos(wn * root * tr.t) + zeta / root * np.sin(wn * root * tr.t))
        assert np.max(np.abs(tr.y - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", [*sorted(PRESETS), "probe"])
    def test_expm_matches_scipy_and_50_digits(self, name):
        X = _hold_step(name)
        with mpmath.workdps(50):
            exact = mpmath.expm(mpmath.matrix(X.tolist()))
            exact = np.array(exact.tolist(), dtype=float)
        E = lti._expm(X)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(E - exact)) <= 1e-14 * scale
        assert np.max(np.abs(E - scipy_expm(X))) <= 1e-14 * scale

    @pytest.mark.parametrize("a", [1e300, 1e308])
    def test_expm_scales_a_huge_norm(self, a):
        # 1 / (s + a) at dt = 1: 1e308 takes s = 1025 halvings, and
        # 2.0 ** 1025 overflows; e^X = [[e^-a, (1 - e^-a) / a], [0, 1]]
        G, _ = lti._hold_realization(TransferFunction([1.0], [1.0, a]))
        E = lti._expm(G)
        assert E[0, 0] == 0.0 and E[1, 1] == 1.0 and E[1, 0] == 0.0
        assert E[0, 1] == pytest.approx(1.0 / a, rel=1e-14)

    def test_static_gain_is_the_one_by_one_case(self):
        G, c = lti._hold_realization(TransferFunction([3.0], [1.5]))
        assert G.tolist() == [[0.0]] and c.tolist() == [2.0]

    def test_probe_through_cli(self, tmp_path, capsys):
        # RK4 at dt = 10 time constants wrote y(5 s) = -1.57e123 and
        # printed "trace did not settle"
        from sunpump.cli import main
        assert main(["tf", "step", "--tf-text", "num: 100 / den: 1 100",
                     "--t-end", "5", "--dt", "0.1",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rise 0.08 s, settling 0.098 s, overshoot 0%" in out
        t, y = np.loadtxt(tmp_path / "step.csv", delimiter=",",
                          skiprows=1)[-1]
        assert t == 5.0 and abs(y - 1.0) <= 1e-12


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


def _argmin_pairing(roots):
    """``root_locus``' greedy pairing as a loop of np.argmin over the
    poles of each gain: the reference for the pairing from one distance
    matrix.  Rows of unequal length stay unpaired, and np.vstack refuses
    them."""
    branches, prev = [], None
    for r in roots:
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


def _per_gain_locus(g, gains):
    """Root locus solved gain by gain with poly_roots, greedy-matched."""
    num, den = np.asarray(g.num.coeffs), np.asarray(g.den.coeffs)
    return _argmin_pairing([poly_roots(Polynomial(np.polyadd(den, k * num)))
                            for k in gains])


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

    def test_overflowing_constant_is_an_error_of_0(self):
        # K 1e10 overflows from K = 1.8e298: the error is 1/(1 + inf) = 0,
        # and numpy's RuntimeWarning (an error under -W error) came first
        g = TransferFunction([1e10], [1.0, 1.0])
        _, errors, _ = ss_error_vs_gain(g, np.geomspace(1e300, 1e308, 3))
        assert np.array_equal(errors, np.zeros(3))

    def test_closed_loop_pole_at_the_origin(self):
        # Kp = -1: the closed loop -1 / (s + 1 - 1) has its pole at s = 0,
        # so the step error is inf; numpy warned of the division by 0
        ec = error_constants(TransferFunction([-1.0], [1.0, 1.0]))
        assert (ec.Kp_pos, ec.e_step) == (-1.0, math.inf)

    def test_sweep_through_a_pole_at_the_origin(self):
        # K = 1 meets 1 + K Kp = 0: the sweep raised there, where
        # error_constants(K * G) answered inf
        g = TransferFunction([-1.0], [1.0, 1.0])
        _, errors, targets = ss_error_vs_gain(g, [0.5, 1.0, 2.0])
        assert errors.tolist() == [2.0, math.inf, -1.0]
        assert error_constants(1.0 * g).e_step == math.inf
        assert targets == {0.1: None, 0.01: None}

    def test_no_per_gain_error_constants_calls(self, monkeypatch):
        import sunpump.lti as lti
        calls = []
        real = lti.error_constants
        monkeypatch.setattr(lti, "error_constants",
                            lambda g: calls.append(g) or real(g))
        ss_error_vs_gain(TransferFunction([0.05], [0.1, 1.1, 1.0]),
                         np.geomspace(0.1, 1000.0, 40))
        assert calls == []


def _exact_step_at(tf, idx, dt):
    """y(k dt) at each k of ``idx`` from the partial fractions of
    N / (s D), solved at 60 digits: the exact zero-order-hold samples of
    a system whose poles are simple and nonzero."""
    with mpmath.workdps(60):
        num = [mpmath.mpf(x) for x in tf.num.coeffs]
        den = [mpmath.mpf(x) for x in tf.den.coeffs]
        poles = mpmath.polyroots(den, maxsteps=400, extraprec=400)
        dden = [c * (len(den) - 1 - i) for i, c in enumerate(den[:-1])]
        res = [mpmath.polyval(num, p) / (p * mpmath.polyval(dden, p))
               for p in poles]
        y0 = mpmath.polyval(num, 0) / mpmath.polyval(den, 0)
        return np.array([float(mpmath.re(y0 + sum(
            r * mpmath.exp(p * int(k) * mpmath.mpf(dt))
            for r, p in zip(res, poles)))) for k in idx])


def _underdamped_step(wn, zeta, t):
    root = math.sqrt(1.0 - zeta ** 2)
    return 1.0 - np.exp(-zeta * wn * t) * (
        np.cos(wn * root * t) + zeta / root * np.sin(wn * root * t))


class TestStepAccuracyContract:
    """``step_response`` against the exact samples: within
    n 2**-52 max|y| on an n-sample trace, and within 1e-12 max|y| on the
    presets' closed loops.  Three of the validation registry's five
    loops lie 1.4e-12 to 2.1e-12 max|y| off, as the sample-by-sample
    recurrence does: the rounding of e^{G dt} carried through 18 114 to
    240 675 steps."""

    @pytest.mark.parametrize("num, den, t_end, dt, exact", [
        ([1.0], [1.0, -0.3], 60.0, 1e-4, lambda t: np.expm1(0.3 * t) / 0.3),
        ([1.0], [1.0, 0.0], 1000.0, 1e-3, lambda t: t),
        ([5.0], [1.0, 0.01 * math.sqrt(5.0), 5.0], 1000.0, 1e-3,
         lambda t: _underdamped_step(math.sqrt(5.0), 0.005, t))],
        ids=["growing-exponential", "ramp", "second-order-zeta-0.005"])
    def test_long_trace_within_its_rounding_bound(self, num, den, t_end, dt,
                                                   exact):
        # 600 001 and 1 000 001 samples; stepping z <- e^{G dt} z one
        # sample at a time ends the ramp at 999.99999998327
        tr = step_response(TransferFunction(num, den), t_end, dt)
        want = exact(tr.t)
        n = len(tr.y)
        assert n >= 600_001
        assert np.max(np.abs(tr.y - want)) <= n * 2.0 ** -52 * np.max(
            np.abs(want))

    @staticmethod
    def _assert_within(tf, trace, rel):
        idx = np.unique(np.linspace(0, len(trace.t) - 1, 300).astype(int))
        want = _exact_step_at(tf, idx, trace.t[1])
        assert np.max(np.abs(trace.y[idx] - want)) <= rel * np.max(
            np.abs(trace.y))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_closed_loops(self, name):
        tf = preset(name)
        poles = tf.poles()
        stable = poles[poles.real < -1e-12]
        t_end = 8.0 / abs(stable.real.max()) if stable.size else 10.0
        closed = tf_feedback(tf, 1.0)
        self._assert_within(closed, step_response(closed, t_end), 1e-12)

    def test_registry_loops(self, monkeypatch):
        from sunpump import validation
        seen = []

        def record(tf, t_end, dt=None):
            seen.append((tf, step_response(tf, t_end, dt)))
            return seen[-1][1]
        monkeypatch.setattr(validation, "step_response", record)
        validation.build_report()
        assert len(seen) == 5
        for tf, trace in seen:
            self._assert_within(tf, trace, len(trace.t) * 2.0 ** -52)


class TestOneRootSolve:
    @staticmethod
    def _count(monkeypatch):
        calls = []
        real = lti._polished_roots
        monkeypatch.setattr(lti, "_polished_roots",
                            lambda c: calls.append(c.copy()) or real(c))
        return calls

    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_step_response(self, monkeypatch, dt):
        # the default dt and the diverged flag each solved the poles
        calls = self._count(monkeypatch)
        step_response(tf_feedback(preset("cascade"), 1.0), 5.0, dt)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["cascade", "motor_paper"])
    def test_tf_analyze_solves_the_denominator_once(self, monkeypatch,
                                                    capsys, name):
        # the root-sign verdict solved the printed poles again
        from sunpump.cli import main
        calls = self._count(monkeypatch)
        assert main(["tf", "analyze", "--preset", name]) == 0
        den = np.asarray(preset(name).den.coeffs)
        assert sum(np.array_equal(c[0], den) for c in calls) == 1
        assert "root-sign verdict: " in capsys.readouterr().out

    @pytest.mark.parametrize("dt", [0.25, 0.5, 2.0])
    def test_overflow_time_at_other_block_layouts(self, dt):
        # 1/(s - 1) passes the float range at t = 709.78 s, whichever
        # power of e^(G dt) first overflows
        with pytest.raises(ValueError, match=r"overflows at t = 710 s"):
            step_response(TransferFunction([1.0], [1.0, -1.0]), 1000.0, dt)


def _parent_polished_roots(c):
    """``_polished_roots`` as it evaluated each polish pass's residual
    afresh: the reference for carrying the candidates' values over."""
    rows, width = c.shape
    roots = np.zeros((rows, width - 1), dtype=complex)
    core_len = width - np.argmax(c[:, ::-1] != 0.0, axis=1)
    for n in np.unique(core_len):
        if n < 2:
            continue
        sel = core_len == n
        core = c[sel, :n]
        companion = np.zeros((len(core), n - 1, n - 1))
        companion[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
        companion[:, 0, :] = -core[:, 1:] / core[:, :1]
        roots[sel, :n - 1] = np.linalg.eigvals(companion)
    dc = c[:, :-1] * np.arange(width - 1, 0, -1)
    for _ in range(2):
        value = lti._horner(c, roots)
        deriv = lti._horner(dc, roots)
        ok = np.abs(deriv) > 0
        cand = roots - np.divide(value, deriv, out=np.zeros_like(value),
                                 where=ok)
        better = np.abs(lti._horner(c, cand)) < np.abs(value)
        roots = np.where(better, cand, roots)
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                  b.view(np.int64))


# few distinct parts, so that roots repeat and distances tie
_PARTS = st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5, 3.0, 1e300, -1e300,
                          math.inf, math.nan])


@st.composite
def root_stacks(draw):
    """A (gains, degree) stack of roots, degree 1 to 6."""
    deg, rows = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    flat = draw(st.lists(st.builds(complex, _PARTS, _PARTS),
                         min_size=deg * rows, max_size=deg * rows))
    return np.array(flat, dtype=complex).reshape(rows, deg)


@st.composite
def meeting_loops(draw):
    """``(G, gains)``: D + K0 N = (s - a)**2 Q, of degree 2 to 6, for an
    integer a and Q, so two branches meet at K0, which is among the
    gains; N has integer roots, some repeated, and a lower degree."""
    small = st.integers(-4, 2)
    a = draw(small)
    q = np.poly(draw(st.lists(small, max_size=4)))
    closed = np.polymul(np.poly([a, a]), q)
    num = np.poly(draw(st.lists(small, max_size=len(closed) - 2)))
    num = num * draw(st.sampled_from([1.0, -1.0]))
    k0 = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]))
    den = np.polysub(closed, k0 * num)
    gains = sorted({k0, *draw(st.lists(
        st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
        max_size=8))})
    return TransferFunction(num, den), np.array(gains)


class TestKernelsKeepTheirBits:
    @settings(max_examples=300)
    @given(stack=root_stacks())
    def test_pairing_equals_the_per_pole_argmin_loop(self, stack):
        g = TransferFunction([1.0], np.ones(stack.shape[1] + 1))
        gains = np.arange(1.0, len(stack) + 1.0)
        with np.errstate(invalid="ignore", over="ignore"):
            want = _argmin_pairing(stack)
            real = lti._polished_roots
            lti._polished_roots = lambda c: stack
            try:
                got = root_locus(g, gains)
            finally:
                lti._polished_roots = real
        assert _same_bits(got, want)

    @settings(max_examples=200)
    @given(loop=meeting_loops())
    def test_locus_where_branches_meet(self, loop):
        g, gains = loop
        assert _same_bits(root_locus(g, gains), _per_gain_locus(g, gains))

    @settings(max_examples=300)
    @given(roots=st.lists(st.lists(st.sampled_from(
               [0.0, 1.0, -1.0, -2.0, 0.5, -3.0, 1e-3, -1e3]),
               min_size=1, max_size=6), min_size=1, max_size=6),
           scale=st.floats(1e-3, 1e3))
    def test_polish_equals_fresh_residuals(self, roots, scale):
        # repeated roots make the guarded polish refuse some steps
        deg = len(roots[0])
        c = np.array([np.poly(r[:deg] + [r[0]] * (deg - len(r)))
                      for r in roots]) * scale
        assert _same_bits(lti._polished_roots(c), _parent_polished_roots(c))
