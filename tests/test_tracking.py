import math

import numpy as np
import pytest

from sunpump.solar import (SunPosition, TrackerOrientation,
                          angle_of_incidence, sun_vector, tracker_basis)
from sunpump.tracking import (LdrReadings, TrackerCommand,
                              TrackingThresholds, apply_command, ldr_model,
                              tracking_sim, tracking_step)


def vector_ldr_model(sp, to, irradiance):
    """Reference: each quadrant normal built as a 3-vector and dotted
    with the sun vector."""
    s = sun_vector(sp)
    x_m, normal, z_m = tracker_basis(to)
    scale = 1023.0 * irradiance / 1000.0
    half = math.sqrt(0.5)

    def count(diag):
        c = max(0.0, float(s @ (half * (normal + diag))))
        return int(min(1023, round(scale * c)))

    up = half * z_m
    right = half * x_m
    return LdrReadings(count(up - right), count(up + right),
                       count(-up - right), count(-up + right))


class TestLdrModel:
    def test_matches_vector_reference(self):
        rng = np.random.default_rng(4)
        n = 50000
        sun_elev = rng.uniform(-90.0, 90.0, n)
        sun_azi = rng.uniform(0.0, 360.0, n)
        # half the trackers point near the sun, as a converged one does
        near = rng.random(n) < 0.5
        te = np.where(near, np.clip(sun_elev + rng.uniform(-5, 5, n), 0, 180),
                      rng.uniform(0.0, 180.0, n))
        ta = np.where(near, sun_azi + rng.uniform(-5, 5, n),
                      rng.uniform(-360.0, 360.0, n))
        irr = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1200.0, n),
                       rng.integers(0, 1200, n))
        for se, sa, e, a, g in zip(sun_elev.tolist(), sun_azi.tolist(),
                                   te.tolist(), ta.tolist(), irr.tolist()):
            sp, to = SunPosition(se, sa), TrackerOrientation(e, a)
            assert ldr_model(sp, to, g) == vector_ldr_model(sp, to, g)

    def test_aligned_zenith_equal_quadrants(self):
        sp = SunPosition(90.0, 0.0)
        to = TrackerOrientation(90.0, 0.0)
        r = ldr_model(sp, to, 1000.0)
        assert r.top_left == r.top_right == r.bottom_left == r.bottom_right
        assert r.top_left > 700   # cos 45 of full scale

    def test_dark(self):
        r = ldr_model(SunPosition(40.0, 100.0),
                      TrackerOrientation(40.0, 100.0), 0.0)
        assert (r.top_left, r.top_right, r.bottom_left, r.bottom_right) == \
            (0, 0, 0, 0)

    def test_sun_toward_plus_x_favors_right_pair(self):
        # tracker at azimuth 180, sun displaced toward smaller azimuth:
        # s . x_m = cos(se) sin(sa - ta) < 0 for sa < ta, so displacement
        # toward +x means sa > ta
        sp = SunPosition(45.0, 200.0)
        to = TrackerOrientation(45.0, 180.0)
        r = ldr_model(sp, to, 1000.0)
        assert r.top_right > r.top_left
        assert r.bottom_right > r.bottom_left

    def test_counts_in_range(self):
        r = ldr_model(SunPosition(45.0, 100.0),
                      TrackerOrientation(45.0, 100.0), 1500.0)
        for v in (r.top_left, r.top_right, r.bottom_left, r.bottom_right):
            assert 0 <= v <= 1023


class TestTrackingStep:
    def test_balanced_holds(self):
        cmd = tracking_step(LdrReadings(500, 500, 500, 500),
                            TrackingThresholds())
        assert cmd == TrackerCommand("hold", "hold", park=False)

    def test_night_parks(self):
        cmd = tracking_step(LdrReadings(1, 1, 1, 1), TrackingThresholds())
        assert cmd.park
        assert cmd.azimuth_move == "hold"
        assert cmd.elevation_move == "hold"

    def test_park_dominates_differences(self):
        cmd = tracking_step(LdrReadings(7, 0, 7, 0), TrackingThresholds())
        assert cmd.park

    def test_top_brighter_moves_up(self):
        cmd = tracking_step(LdrReadings(600, 600, 500, 500),
                            TrackingThresholds())
        assert cmd.elevation_move == "up"
        assert cmd.azimuth_move == "hold"

    def test_left_brighter_commands_right_label(self):
        cmd = tracking_step(LdrReadings(600, 500, 600, 500),
                            TrackingThresholds())
        assert cmd.azimuth_move == "right"
        assert cmd.elevation_move == "hold"

    def test_within_deadband_holds(self):
        cmd = tracking_step(LdrReadings(505, 500, 505, 500),
                            TrackingThresholds())
        assert cmd.azimuth_move == "hold"


class TestApplyCommand:
    def test_elevation_clamped(self):
        to = TrackerOrientation(179.5, 0.0)
        moved = apply_command(to, TrackerCommand("hold", "up"), 1.8)
        assert moved.theta_TE == 180.0

    def test_park_returns_initial(self):
        init = TrackerOrientation(90.0, 50.0)
        here = TrackerOrientation(40.0, 120.0)
        parked = apply_command(here, TrackerCommand("hold", "hold", True),
                               1.8, initial=init)
        assert parked == init

    def test_bounded_actuation(self):
        to = TrackerOrientation(50.0, 100.0)
        moved = apply_command(to, TrackerCommand("left", "down"), 1.8)
        assert abs(moved.theta_TE - to.theta_TE) <= 1.8
        assert abs(moved.theta_TA - to.theta_TA) <= 1.8


class TestTrackingSim:
    def test_fixed_sun_converges(self):
        run = tracking_sim([45.0] * 120, [180.0] * 120, TrackingThresholds(),
                           motor_step_deg=1.8,
                           start=TrackerOrientation(45.0, 160.0))
        aois = run.alpha.tolist()
        # decreasing alignment error until the deadband stalls motion
        assert aois[-1] < 3.0
        worst_late = max(aois[60:])
        assert worst_late <= aois[0]

    def test_deadband_freezes_orientation(self):
        run = tracking_sim([45.0] * 200, [180.0] * 200, TrackingThresholds(),
                           motor_step_deg=1.8,
                           start=TrackerOrientation(45.0, 180.0))
        # aligned from the start: orientation never changes
        orientations = set(zip(run.theta_TE.tolist(), run.theta_TA.tolist()))
        assert len(orientations) == 1

    def test_zero_irradiance_parks_at_initial(self):
        start = TrackerOrientation(80.0, 150.0)
        run = tracking_sim([45.0] * 10, [180.0] * 10, TrackingThresholds(),
                           irradiance=0.0, start=start)
        assert all(run.park)
        assert all(TrackerOrientation(te, ta) == start for te, ta in
                   zip(run.theta_TE.tolist(), run.theta_TA.tolist()))

    def test_east_to_west_arc_followed(self):
        n = 400
        azi = [120.0 + 120.0 * k / (n - 1) for k in range(n)]
        run = tracking_sim([40.0] * n, azi, TrackingThresholds(),
                           motor_step_deg=1.8,
                           start=TrackerOrientation(40.0, 120.0))
        assert abs(run.theta_TA[-1] - 240.0) < 6.0
        assert run.alpha[-1] < 6.0

    def test_per_step_bound(self):
        run = tracking_sim([45.0] * 50, [180.0] * 50, TrackingThresholds(),
                           motor_step_deg=1.8,
                           start=TrackerOrientation(30.0, 150.0))
        orientations = [TrackerOrientation(te, ta) for te, ta in
                        zip(run.theta_TE.tolist(), run.theta_TA.tolist())]
        prev = orientations[0]
        for o in orientations[1:]:
            assert abs(o.theta_TE - prev.theta_TE) <= 1.8 + 1e-9
            assert abs(o.theta_TA - prev.theta_TA) <= 1.8 + 1e-9
            prev = o

    def test_columns_match_the_step_functions(self):
        elev, azi, irr = [30.0, 31.0, 32.0], [100.0, 104.0, 108.0], 800.0
        start = TrackerOrientation(30.0, 95.0)
        run = tracking_sim(elev, azi, TrackingThresholds(), start=start,
                           irradiance=irr)
        to = start
        for k in range(3):
            sp = SunPosition(elev[k], azi[k])
            r = ldr_model(sp, to, irr)
            cmd = tracking_step(r, TrackingThresholds())
            to = apply_command(to, cmd, 1.8, initial=start)
            assert (run.theta_TE[k], run.theta_TA[k]) == (to.theta_TE,
                                                          to.theta_TA)
            assert run.alpha[k] == angle_of_incidence(sp, to)
            assert run.readings[k].tolist() == [
                r.top_left, r.top_right, r.bottom_left, r.bottom_right]
            assert (run.azimuth_move[k], run.elevation_move[k],
                    run.park[k]) == (cmd.azimuth_move, cmd.elevation_move,
                                     cmd.park)

    def test_sun_below_range_rejected(self):
        with pytest.raises(ValueError):
            tracking_sim([30.0, 95.0], [100.0, 100.0], TrackingThresholds())

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            tracking_sim([], [], TrackingThresholds())
