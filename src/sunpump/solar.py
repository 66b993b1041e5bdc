"""
Solar position angles, tracker orientation geometry, and the optimal
tracker orientation as the closed-form inverse of the sun's projections
on the tracker frame.

Angle conventions (all degrees at the API surface):

* solar azimuth is a compass bearing, clockwise from north;
* the tracker face carries a right-handed orthonormal frame
  ``(x_m, y_m, z_m)`` where ``y_m`` is the outward panel normal, ``x_m``
  lies horizontal in the face and ``z_m`` is the in-face "up";
* the angle of incidence ``alpha`` is measured from the normal, and the
  incidence direction ``beta`` is the in-face bearing
  ``atan2(s . x_m, s . z_m)`` of the sun's projection.
"""

from dataclasses import dataclass
import math

import numpy as np


class UndefinedDirectionError(ValueError):
    """Sun along the panel normal: the in-face direction is a 0/0."""


def _d(x):
    return math.radians(x)


@dataclass(frozen=True)
class SunPosition:
    """Solar elevation and azimuth, degrees."""

    theta_SE: float
    theta_SA: float

    def __post_init__(self):
        if not -90.0 <= self.theta_SE <= 90.0:
            raise ValueError("solar elevation must lie in [-90, 90]")
        if not math.isfinite(self.theta_SA):
            raise ValueError("solar azimuth must be finite")


@dataclass(frozen=True)
class TrackerOrientation:
    """Tracker elevation/azimuth pair, degrees."""

    theta_TE: float
    theta_TA: float


def declination(n):
    """Seasonal declination, degrees: -23.45 cos(360/365 (n + 10))."""
    if not 1 <= n <= 366:
        raise ValueError("day of year must lie in [1, 366]")
    return -23.45 * math.cos(_d(360.0 / 365.0 * (n + 10)))


def zenith_and_elevation(l_st, delta, st):
    """
    Zenith and elevation angles from latitude-like angle (in [-90, 90]),
    declination and hour angle (all degrees).

    Returns
    -------
    (theta_z, theta_e) in degrees.
    """
    if not all(map(math.isfinite, (l_st, delta, st))):
        raise ValueError("solar angles must be finite")
    if not -90.0 <= l_st <= 90.0:
        raise ValueError("latitude must lie in [-90, 90]")
    arg = (math.sin(_d(l_st)) * math.sin(_d(delta))
           + math.cos(_d(l_st)) * math.cos(_d(delta)) * math.cos(_d(st)))
    if abs(arg) > 1.0 + 1e-12:
        raise ValueError(f"cosine argument {arg} out of range")
    arg = max(-1.0, min(1.0, arg))
    theta_z = math.degrees(math.acos(arg))
    return theta_z, 90.0 - theta_z


def sun_on_frame(se, te, dazi, sin, cos):
    """The sun's projections ``(s . x_m, s . y_m, s . z_m)`` on the tracker
    frame from the sun elevation, tracker elevation and azimuth difference
    (sun minus tracker) in radians; ``sin`` and ``cos`` are ``math``'s on
    floats or ``numpy``'s on arrays."""
    cos_se, sin_se = cos(se), sin(se)
    cos_te, sin_te = cos(te), sin(te)
    cos_d = cos(dazi)
    return (cos_se * sin(dazi),
            sin_se * sin_te + cos_se * cos_te * cos_d,
            sin_se * cos_te - cos_se * sin_te * cos_d)


def _projections(sp, to):
    """:func:`sun_on_frame` for a sun position and orientation."""
    return sun_on_frame(_d(sp.theta_SE), _d(to.theta_TE),
                        _d(sp.theta_SA - to.theta_TA), math.sin, math.cos)


def angle_of_incidence(sp, to):
    """Angle between the sun direction and the panel normal, degrees."""
    arg = max(-1.0, min(1.0, _projections(sp, to)[1]))
    return math.degrees(math.acos(arg))


def incidence_direction(sp, to):
    """
    In-face bearing of the sun's projection, degrees in (-180, 180].

    Raises
    ------
    UndefinedDirectionError
        When both projections vanish (sun along the panel normal).
    """
    s_x, _, s_z = _projections(sp, to)
    if abs(s_x) < 1e-12 and abs(s_z) < 1e-12:
        raise UndefinedDirectionError("sun is along the panel normal")
    return math.degrees(math.atan2(s_x, s_z))


def _target_error(sp, to, alpha_target, beta_target):
    """Max-norm achieved-vs-target error; beta ignored for tiny alpha."""
    a_ach = angle_of_incidence(sp, to)
    err_a = abs(a_ach - alpha_target)
    if alpha_target < 0.25:
        return err_a
    try:
        b_ach = incidence_direction(sp, to)
    except UndefinedDirectionError:
        return math.inf
    err_b = abs((b_ach - beta_target + 180.0) % 360.0 - 180.0)
    return max(err_a, err_b)


# the refined pitch of the grid that answers unreachable targets, degrees
_GRID_STEP_DEG = 0.1


def _grid_errors(sp, alpha_target, beta_target, te_deg, ta_deg):
    """:func:`_target_error` over the grid of tracker elevations
    ``te_deg`` (rows) and azimuths ``ta_deg`` (columns)."""
    te = np.radians(te_deg)[:, None]
    sx, cosa, sz = sun_on_frame(_d(sp.theta_SE), te,
                                np.radians(sp.theta_SA - ta_deg)[None, :],
                                np.sin, np.cos)
    a = np.degrees(np.arccos(np.clip(cosa, -1.0, 1.0)))
    err_a = np.abs(a - alpha_target)
    if alpha_target < 0.25:
        return err_a
    # "+ 0.0 * te" reads a -0.0 projection as 0.0 in the bearing
    b = np.degrees(np.arctan2(sx + 0.0 * te, sz))
    err_b = np.abs((b - beta_target + 180.0) % 360.0 - 180.0)
    return np.maximum(err_a, err_b)


def _grid_minimize(sp, alpha_target, beta_target):
    """Brute-force orientation search, coarse pass then local refinement."""
    te0 = np.arange(0.0, 180.0 + 1.0, 1.0)
    ta0 = np.arange(sp.theta_SA - 180.0, sp.theta_SA + 180.0, 1.0)
    e0 = _grid_errors(sp, alpha_target, beta_target, te0, ta0)
    i, j = np.unravel_index(np.argmin(e0), e0.shape)
    step = _GRID_STEP_DEG
    te1 = np.arange(te0[i] - 1.5, te0[i] + 1.5 + step / 2, step)
    ta1 = np.arange(ta0[j] - 1.5, ta0[j] + 1.5 + step / 2, step)
    e1 = _grid_errors(sp, alpha_target, beta_target, te1, ta1)
    i1, j1 = np.unravel_index(np.argmin(e1), e1.shape)
    return TrackerOrientation(float(te1[i1]), float(ta1[j1])), float(e1[i1, j1])


@dataclass(frozen=True)
class OrientationSolution:
    orientation: TrackerOrientation
    achieved_error_deg: float
    analytic: bool   # False when the target is unreachable: the grid answer


def optimal_orientation(sp, alpha_target, beta_target):
    """
    Tracker orientation achieving a requested (alpha, beta).

    The target fixes the sun's projections on the tracker frame,
    ``(s_x, s_y, s_z) = (sin a sin b, cos a, sin a cos b)``, and the
    orientation follows by inverting :func:`sun_on_frame`:
    ``s_x = cos(se) sin(dazi)`` gives the azimuth difference up to the
    sign of ``cos(dazi)``, and ``(s_y, s_z)`` is ``(cos(se) cos(dazi),
    sin(se))`` turned by the tracker elevation.  The two signs are the
    mirrored gimbal pair (180 - E, A - 180); the one nearest the sun
    angles is kept.  A target is reachable exactly when
    ``|s_x| <= cos(se)``; one that is not is answered by a 0.1-degree
    brute-force grid minimization and flagged non-analytic.
    """
    if not 0.0 <= alpha_target < 90.0:
        raise ValueError("alpha target must lie in [0, 90)")
    if not math.isfinite(beta_target):
        raise ValueError("beta target must be finite")
    a, b = _d(alpha_target), _d(beta_target)
    s_x, s_y, s_z = (math.sin(a) * math.sin(b), math.cos(a),
                     math.sin(a) * math.cos(b))
    se = _d(sp.theta_SE)
    cos_se, sin_se = math.cos(se), math.sin(se)
    if abs(s_x) > cos_se:
        fallback, err = _grid_minimize(sp, alpha_target, beta_target)
        return OrientationSolution(fallback, err, False)
    sin_d = s_x / cos_se
    cos_d = math.sqrt(1.0 - sin_d * sin_d)
    cands = []
    for c in (cos_d, -cos_d):
        te = math.degrees(math.atan2(s_y, s_z)
                          - math.atan2(cos_se * c, sin_se))
        if te > 180.0:
            te -= 360.0
        elif te <= -180.0:
            te += 360.0
        cands.append(TrackerOrientation(
            te, sp.theta_SA - math.degrees(math.atan2(sin_d, c))))
    best = min(cands, key=lambda to: (
        abs(to.theta_TE - sp.theta_SE)
        + abs((to.theta_TA - sp.theta_SA + 180.0) % 360.0 - 180.0)))
    return OrientationSolution(
        best, _target_error(sp, best, alpha_target, beta_target), True)
