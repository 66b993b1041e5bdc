import math

import numpy as np
import pytest

from sunpump.solar import (SunPosition,
                           TrackerOrientation, UndefinedDirectionError,
                           _grid_errors, _grid_minimize,
                           angle_of_incidence, declination,
                           incidence_direction, optimal_orientation,
                           orientation_quartic, quartic_even_roots,
                           sun_on_frame, zenith_and_elevation,
                           QuarticCoeffs)


# The vector oracle for ``sun_on_frame``: the sun direction and the
# tracker frame as 3-vectors, whose dot products the kernel expands.

def sun_vector(sp):
    """Unit vector to the sun: [sin(az) cos(el), cos(az) cos(el), sin(el)]."""
    se, sa = math.radians(sp.theta_SE), math.radians(sp.theta_SA)
    return np.array([math.sin(sa) * math.cos(se),
                     math.cos(sa) * math.cos(se),
                     math.sin(se)])


def tracker_basis(to):
    """
    Right-handed orthonormal frame of the tracker face.

    Returns
    -------
    (x_m, y_m, z_m) unit vectors: in-face horizontal, outward normal,
    in-face up.  ``x_m cross y_m == z_m`` and the normal satisfies
    ``cos(alpha) = s . y_m`` for the incidence formula.
    """
    te, ta = math.radians(to.theta_TE), math.radians(to.theta_TA)
    x_m = np.array([math.cos(ta), -math.sin(ta), 0.0])
    y_m = np.array([math.sin(ta) * math.cos(te),
                    math.cos(ta) * math.cos(te),
                    math.sin(te)])
    z_m = np.array([-math.sin(te) * math.sin(ta),
                    -math.sin(te) * math.cos(ta),
                    math.cos(te)])
    return x_m, y_m, z_m


def on_frame(sp, to):
    """The kernel's (s . x_m, s . y_m, s . z_m) for degree angles."""
    return sun_on_frame(math.radians(sp.theta_SE), math.radians(to.theta_TE),
                        math.radians(sp.theta_SA - to.theta_TA),
                        math.sin, math.cos)


# References: the incidence formulas as each function first wrote them
# out, before they shared the kernel.

def ref_angle_of_incidence(sp, to):
    arg = (math.sin(math.radians(sp.theta_SE))
           * math.sin(math.radians(to.theta_TE))
           + math.cos(math.radians(sp.theta_SE))
           * math.cos(math.radians(to.theta_TE))
           * math.cos(math.radians(sp.theta_SA - to.theta_TA)))
    arg = max(-1.0, min(1.0, arg))
    return math.degrees(math.acos(arg))


def ref_incidence_projections(sp, to):
    se, te = math.radians(sp.theta_SE), math.radians(to.theta_TE)
    dazi = math.radians(sp.theta_SA - to.theta_TA)
    s_x = math.cos(se) * math.sin(dazi)
    s_z = (math.sin(se) * math.cos(te)
           - math.cos(se) * math.sin(te) * math.cos(dazi))
    return s_x, s_z


def ref_grid_errors(sp, alpha_target, beta_target, te_deg, ta_deg):
    se = math.radians(sp.theta_SE)
    te = np.radians(te_deg)[:, None]
    ddeg = np.radians(sp.theta_SA - ta_deg)[None, :]
    cosa = math.sin(se) * np.sin(te) + math.cos(se) * np.cos(te) * np.cos(ddeg)
    a = np.degrees(np.arccos(np.clip(cosa, -1.0, 1.0)))
    sx = math.cos(se) * np.sin(ddeg) + 0.0 * te
    sz = math.sin(se) * np.cos(te) - math.cos(se) * np.sin(te) * np.cos(ddeg)
    b = np.degrees(np.arctan2(sx, sz))
    err_a = np.abs(a - alpha_target)
    if alpha_target < 0.25:
        return err_a
    err_b = np.abs((b - beta_target + 180.0) % 360.0 - 180.0)
    return np.maximum(err_a, err_b)


def ref_grid_minimize(sp, alpha_target, beta_target):
    te0 = np.arange(0.0, 180.0 + 1.0, 1.0)
    ta0 = np.arange(sp.theta_SA - 180.0, sp.theta_SA + 180.0, 1.0)
    e0 = ref_grid_errors(sp, alpha_target, beta_target, te0, ta0)
    i, j = np.unravel_index(np.argmin(e0), e0.shape)
    te1 = np.arange(te0[i] - 1.5, te0[i] + 1.5 + 0.05, 0.1)
    ta1 = np.arange(ta0[j] - 1.5, ta0[j] + 1.5 + 0.05, 0.1)
    e1 = ref_grid_errors(sp, alpha_target, beta_target, te1, ta1)
    i1, j1 = np.unravel_index(np.argmin(e1), e1.shape)
    return TrackerOrientation(float(te1[i1]), float(ta1[j1])), float(e1[i1, j1])


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestDeclination:
    def test_full_cosine_period(self):
        assert declination(355) == pytest.approx(-23.45, abs=1e-9)

    def test_summer_solstice_region(self):
        # direct evaluation: -23.45 cos(360/365 * 182)
        expect = -23.45 * math.cos(math.radians(360 / 365 * 182))
        assert declination(172) == pytest.approx(expect)
        assert declination(172) == pytest.approx(23.45, abs=0.05)

    def test_equinox_region(self):
        assert abs(declination(81)) < 0.5

    def test_day_range(self):
        with pytest.raises(ValueError):
            declination(0)


class TestZenithElevation:
    def test_sun_overhead(self):
        theta_z, theta_e = zenith_and_elevation(23.45, 23.45, 0.0)
        assert theta_z == pytest.approx(0.0, abs=1e-5)
        assert theta_e == pytest.approx(90.0)

    def test_pure_hour_angle(self):
        theta_z, theta_e = zenith_and_elevation(0.0, 0.0, 60.0)
        assert theta_z == pytest.approx(60.0)
        assert theta_e == pytest.approx(30.0)

    def test_trig_oracle(self):
        l_st, delta, st = 45.0, 23.45, 30.0
        arg = (math.sin(math.radians(l_st)) * math.sin(math.radians(delta))
               + math.cos(math.radians(l_st)) * math.cos(math.radians(delta))
               * math.cos(math.radians(st)))
        expect = math.degrees(math.acos(arg))
        theta_z, theta_e = zenith_and_elevation(l_st, delta, st)
        assert theta_z == pytest.approx(expect, rel=1e-12)
        assert theta_z + theta_e == pytest.approx(90.0)

    @pytest.mark.parametrize("args", [(math.nan, 23.45, 0.0),
                                      (45.0, math.inf, 0.0),
                                      (45.0, 23.45, -math.inf)])
    def test_nonfinite_rejected(self, args):
        # a NaN cosine argument used to clamp to 1: elevation 90
        with pytest.raises(ValueError, match="finite"):
            zenith_and_elevation(*args)


class TestSunVector:
    def test_zenith(self):
        v = sun_vector(SunPosition(90.0, 0.0))
        assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-12)

    def test_due_east_horizon(self):
        v = sun_vector(SunPosition(0.0, 90.0))
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)

    def test_componentwise_oracle_and_norm(self):
        se, sa = 30.0, 135.0
        v = sun_vector(SunPosition(se, sa))
        expect = [math.sin(math.radians(sa)) * math.cos(math.radians(se)),
                  math.cos(math.radians(sa)) * math.cos(math.radians(se)),
                  math.sin(math.radians(se))]
        assert np.allclose(v, expect, atol=1e-15)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestTrackerBasis:
    def test_face_up(self):
        x, normal, z = tracker_basis(TrackerOrientation(90.0, 0.0))
        assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(normal, [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(z, [0.0, -1.0, 0.0], atol=1e-12)

    def test_orthonormal_over_grid(self):
        for te in range(0, 181, 10):
            for ta in range(0, 360, 10):
                x, y, z = tracker_basis(TrackerOrientation(te, ta))
                for v in (x, y, z):
                    assert abs(np.linalg.norm(v) - 1.0) < 1e-10
                assert abs(x @ y) < 1e-10
                assert abs(y @ z) < 1e-10
                assert abs(x @ z) < 1e-10
                det = np.linalg.det(np.column_stack([x, y, z]))
                assert abs(abs(det) - 1.0) < 1e-9

    def test_normal_gives_incidence_formula(self):
        sp = SunPosition(40.0, 120.0)
        to = TrackerOrientation(55.0, 140.0)
        _, normal, _ = tracker_basis(to)
        cos_alpha = float(sun_vector(sp) @ normal)
        assert math.degrees(math.acos(cos_alpha)) == pytest.approx(
            angle_of_incidence(sp, to), abs=1e-9)


class TestIncidence:
    def test_aligned_zero(self):
        sp = SunPosition(35.0, 150.0)
        assert angle_of_incidence(sp, TrackerOrientation(35.0, 150.0)) == \
            pytest.approx(0.0, abs=1e-6)

    def test_vertical_panel_sun_at_30(self):
        sp = SunPosition(30.0, 100.0)
        assert angle_of_incidence(sp, TrackerOrientation(90.0, 100.0)) == \
            pytest.approx(60.0)

    def test_orthogonal(self):
        sp = SunPosition(0.0, 0.0)
        assert angle_of_incidence(sp, TrackerOrientation(0.0, 90.0)) == \
            pytest.approx(90.0)

    def test_alignment_iff_zero(self):
        rng = np.random.RandomState(3)
        for _ in range(30):
            se = rng.uniform(5, 85)
            sa = rng.uniform(0, 360)
            sp = SunPosition(se, sa)
            assert angle_of_incidence(sp, TrackerOrientation(se, sa)) < 1e-5
            # any 5-degree offset must cost at least a degree of AOI
            off = TrackerOrientation(se + 5.0, sa)
            assert angle_of_incidence(sp, off) > 1.0


class TestIncidenceDirection:
    def test_plane_of_symmetry(self):
        sp = SunPosition(20.0, 150.0)
        beta = incidence_direction(sp, TrackerOrientation(50.0, 150.0))
        assert beta in (0.0, 180.0) or abs(beta) < 1e-9 or \
            abs(beta - 180.0) < 1e-9

    def test_expansion_equals_dot_products(self):
        sp = SunPosition(45.0, 100.0)
        to = TrackerOrientation(30.0, 80.0)
        s = sun_vector(sp)
        x_m, _, z_m = tracker_basis(to)
        s_x, _, s_z = on_frame(sp, to)
        assert s_x == pytest.approx(float(s @ x_m), abs=1e-9)
        assert s_z == pytest.approx(float(s @ z_m), abs=1e-9)
        beta = incidence_direction(sp, to)
        assert beta == pytest.approx(
            math.degrees(math.atan2(float(s @ x_m), float(s @ z_m))),
            abs=1e-9)

    def test_expansion_identity_over_grid(self):
        for te in range(0, 181, 20):
            for ta in range(0, 360, 40):
                sp = SunPosition(37.0, 210.0)
                to = TrackerOrientation(float(te), float(ta))
                s = sun_vector(sp)
                x_m, _, z_m = tracker_basis(to)
                s_x, _, s_z = on_frame(sp, to)
                assert abs(s_x - float(s @ x_m)) < 1e-9
                assert abs(s_z - float(s @ z_m)) < 1e-9

    def test_aligned_undefined(self):
        sp = SunPosition(35.0, 150.0)
        with pytest.raises(UndefinedDirectionError):
            incidence_direction(sp, TrackerOrientation(35.0, 150.0))


def kernel_samples(n):
    """Seeded (se, sa, te, ta) rows in degrees, with the edges mixed in:
    se = +-90, dazi = 0 (ta = sa) and te in {0, 180}."""
    rng = np.random.default_rng(11)
    se = rng.uniform(-90.0, 90.0, n)
    sa = rng.uniform(-360.0, 360.0, n)
    te = rng.uniform(-10.0, 190.0, n)
    ta = rng.uniform(-360.0, 360.0, n)
    pick = rng.random((3, n)) < 0.1
    se[pick[0]] = rng.choice([-90.0, 90.0], pick[0].sum())
    ta[pick[1]] = sa[pick[1]]
    te[pick[2]] = rng.choice([0.0, 180.0], pick[2].sum())
    return se, sa, te, ta


class TestSunOnFrameKernel:
    """Every caller of ``sun_on_frame`` returns the bits its inline
    formula returned."""

    N = 50_000

    def test_scalar_callers_bit_identical(self):
        se, sa, te, ta = kernel_samples(self.N)
        assert {90.0, -90.0} <= set(se.tolist())
        assert {0.0, 180.0} <= set(te.tolist())
        assert np.sum(sa == ta) > 1000
        got, want = [], []
        for row in zip(se.tolist(), sa.tolist(), te.tolist(), ta.tolist()):
            sp, to = SunPosition(row[0], row[1]), TrackerOrientation(*row[2:])
            s_x, _, s_z = on_frame(sp, to)
            got.append((angle_of_incidence(sp, to), s_x, s_z))
            want.append((ref_angle_of_incidence(sp, to),
                         *ref_incidence_projections(sp, to)))
        assert np.array_equal(bits(got), bits(want))

    def test_array_kernel_matches_the_scalar_formulas(self):
        se, sa, te, ta = kernel_samples(self.N)
        s_x, _, s_z = sun_on_frame(np.radians(se), np.radians(te),
                                   np.radians(sa - ta), np.sin, np.cos)
        want = [ref_incidence_projections(SunPosition(*r[:2]),
                                          TrackerOrientation(*r[2:]))
                for r in zip(se.tolist(), sa.tolist(), te.tolist(),
                             ta.tolist())]
        assert np.array_equal(bits(np.stack([s_x, s_z], axis=1)), bits(want))

    @pytest.mark.parametrize("se", [-90.0, -35.0, 0.0, 12.5, 64.0, 90.0])
    @pytest.mark.parametrize("target", [(0.0, 0.0), (0.2, 40.0),
                                        (15.0, 20.0), (30.0, -67.3)])
    def test_grid_errors_bit_identical(self, se, target):
        # the coarse grid holds te = 0 and 180 and ta = sa (dazi = 0); at
        # sa = -0.0 the dazi = -0.0 column gives s . x_m = -0.0, whose
        # bearing -180 rounds the beta error of -67.3 apart from +180
        for sa in (-0.0, 0.0, 137.25):
            sp = SunPosition(se, sa)
            te = np.arange(0.0, 181.0, 1.0)
            ta = np.arange(sa - 180.0, sa + 180.0, 1.0)
            got = _grid_errors(sp, *target, te, ta)
            assert got.size >= 65_000
            assert np.array_equal(bits(got),
                                  bits(ref_grid_errors(sp, *target, te, ta)))

    def test_grid_minimize_identical(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            sp = SunPosition(rng.uniform(-90.0, 90.0),
                             rng.uniform(0.0, 360.0))
            at, bt = rng.uniform(0.0, 60.0), rng.uniform(-180.0, 180.0)
            (to, err), (want_to, want_err) = (
                _grid_minimize(sp, at, bt), ref_grid_minimize(sp, at, bt))
            assert bits([to.theta_TE, to.theta_TA, err]).tolist() == \
                bits([want_to.theta_TE, want_to.theta_TA, want_err]).tolist()


class TestQuarticRoots:
    def test_factorable(self):
        qc = QuarticCoeffs(a=1.0, b=-5.0, c=4.0, C=0, N=0, D=0, A=0)
        assert quartic_even_roots(qc) == pytest.approx([-2.0, -1.0, 1.0, 2.0])

    def test_no_real_roots(self):
        qc = QuarticCoeffs(a=1.0, b=2.0, c=1.0, C=0, N=0, D=0, A=0)
        assert quartic_even_roots(qc) == []

    def test_scan_oracle_on_generated_coefficients(self):
        qc = orientation_quartic(SunPosition(40.0, 180.0), 20.0, 10.0)
        roots = quartic_even_roots(qc)
        assert roots, "expected real roots for a feasible target"
        # sign-change scan oracle on the quartic itself
        w = np.arange(-1.5, 1.5, 1e-6)
        vals = qc.a * w ** 4 + qc.b * w ** 2 + qc.c
        signs = np.sign(vals)
        flips = np.nonzero(np.diff(signs))[0]
        scan_roots = sorted(0.5 * (w[i] + w[i + 1]) for i in flips)
        assert len(scan_roots) == len(roots)
        for found, scanned in zip(roots, scan_roots):
            assert found == pytest.approx(scanned, abs=5e-6)
        for r in roots:
            residual = abs(qc.a * r ** 4 + qc.b * r * r + qc.c)
            assert residual < 1e-8 * (abs(qc.a) + abs(qc.b) + abs(qc.c))


class TestOptimalOrientation:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_azimuth_rejected(self, x):
        # a NaN azimuth used to give NaN incidence angles with alpha = 0
        with pytest.raises(ValueError, match="azimuth"):
            SunPosition(35.0, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_beta_target_rejected(self, x):
        # a NaN target used to select the grid's first cell
        with pytest.raises(ValueError, match="beta target"):
            optimal_orientation(SunPosition(35.0, 150.0), 5.0, x)

    def test_point_at_sun(self):
        sp = SunPosition(35.0, 150.0)
        sol = optimal_orientation(sp, 0.0, 0.0)
        assert sol.analytic
        assert sol.orientation.theta_TE == pytest.approx(35.0, abs=0.5)
        assert sol.orientation.theta_TA == pytest.approx(150.0, abs=0.5)

    def test_achieved_targets_at_grid_oracle(self):
        sp = SunPosition(35.0, 150.0)
        sol = optimal_orientation(sp, 15.0, 20.0)
        assert sol.analytic
        to = sol.orientation
        assert angle_of_incidence(sp, to) == pytest.approx(15.0, abs=0.5)
        assert incidence_direction(sp, to) == pytest.approx(20.0, abs=0.5)

    def test_beta_90_falls_back(self):
        sp = SunPosition(45.0, 180.0)
        sol = optimal_orientation(sp, 20.0, 90.0)
        assert not sol.analytic
        assert angle_of_incidence(sp, sol.orientation) == pytest.approx(
            20.0, abs=0.5)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            optimal_orientation(SunPosition(40.0, 100.0), 90.0, 0.0)

    def test_sweep_analytic_accuracy(self):
        targets = [(0.0, 0.0), (10.0, 0.0), (15.0, 20.0), (30.0, 45.0),
                   (5.0, -30.0), (45.0, 10.0)]
        fallbacks = 0
        total = 0
        for se in np.linspace(15, 60, 4):
            for sa in np.linspace(60, 300, 3):
                for at, bt in targets:
                    sol = optimal_orientation(SunPosition(se, sa), at, bt)
                    total += 1
                    fallbacks += 0 if sol.analytic else 1
                    assert sol.achieved_error_deg < 0.5
        assert fallbacks == 0
