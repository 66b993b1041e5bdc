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

from .ranges import check


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
        check("elevation", self.theta_SE, ValueError)
        check("azimuth", self.theta_SA, ValueError)


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


# both in-face projections below this: the bearing is undefined
_DIRECTION_EPS = 1e-12


def incidence_direction(sp, to):
    """
    In-face bearing of the sun's projection, degrees in (-180, 180].

    Raises
    ------
    UndefinedDirectionError
        When both projections vanish (sun along the panel normal).
    """
    s_x, _, s_z = _projections(sp, to)
    if abs(s_x) < _DIRECTION_EPS and abs(s_z) < _DIRECTION_EPS:
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


@dataclass(frozen=True)
class OrientationSolution:
    orientation: TrackerOrientation
    achieved_error_deg: float
    reachable: bool   # False: the answer meets the nearest reachable target


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
    angles is kept.

    A target is reachable exactly when ``|s_x| <= cos(se)``.  One that
    is not is moved to the nearest reachable target in the max-norm of
    :func:`_target_error`: ``a`` and the bearing's distance ``d`` from
    the 0/180 axis both shrink by the ``delta`` with
    ``sin(a - delta) sin(d - delta) = cos(se)``.  Only the bearing moves,
    onto the axis, when ``a`` < 0.25 degrees (the error ignores the
    bearing) or ``cos(se)`` is below the bearing guard (``|se|`` within
    6e-11 degrees of 90): there ``s_x`` is below the guard at every
    orientation, and the corner would land at ``a`` = 0, with no bearing.
    """
    if not 0.0 <= alpha_target < 90.0:
        raise ValueError("alpha target must lie in [0, 90)")
    if not math.isfinite(beta_target):
        raise ValueError("beta target must be finite")
    a, b = _d(alpha_target), _d(beta_target)
    sin_a, sin_b, cos_b = math.sin(a), math.sin(b), math.cos(b)
    se = _d(sp.theta_SE)
    cos_se, sin_se = math.cos(se), math.sin(se)
    reachable = abs(sin_a * sin_b) <= cos_se
    if not reachable:
        if alpha_target < 0.25 or cos_se < _DIRECTION_EPS:
            sin_b, cos_b = 0.0, math.copysign(1.0, cos_b)
        else:
            # product-to-sum: cos(a - d) - cos(a + d - 2 delta) = 2 cos(se)
            d = math.atan2(abs(sin_b), abs(cos_b))
            delta = 0.5 * (a + d - math.acos(math.cos(a - d) - 2.0 * cos_se))
            a -= delta
            sin_a = math.sin(a)
            sin_b = math.copysign(math.sin(d - delta), sin_b)
            cos_b = math.copysign(math.cos(d - delta), cos_b)
    s_x, s_y, s_z = sin_a * sin_b, math.cos(a), sin_a * cos_b
    sin_d = max(-1.0, min(1.0, s_x / cos_se))
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
        best, _target_error(sp, best, alpha_target, beta_target), reachable)
