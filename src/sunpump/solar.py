"""
Solar position angles, tracker orientation geometry, and the closed-form
optimal tracker orientation.

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
    Zenith and elevation angles from latitude-like angle, declination and
    hour angle (all degrees).

    Returns
    -------
    (theta_z, theta_e) in degrees.
    """
    if not all(map(math.isfinite, (l_st, delta, st))):
        raise ValueError("solar angles must be finite")
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


@dataclass(frozen=True)
class QuarticCoeffs:
    """Even quartic a w^4 + b w^2 + c with its generating intermediates."""

    a: float
    b: float
    c: float
    C: float
    N: float
    D: float
    A: float


def orientation_quartic(sp, alpha_target, beta_target):
    """Coefficients of the even quartic whose roots give cos(theta_TE)."""
    C = math.cos(_d(sp.theta_SE))
    N = math.sin(_d(sp.theta_SE))
    D = math.tan(_d(beta_target))
    A = math.cos(_d(alpha_target))
    a = (D * D * A * A + 1.0) ** 2
    b = -2.0 * (D * D + 1.0) * (A ** 4 * D * D - A * A * D * D * N * N
                                - 2.0 * A * A * N * N + A * A + N * N)
    c = (D * D + 1.0) ** 2 * (A * A - N * N) ** 2
    return QuarticCoeffs(a, b, c, C, N, D, A)


def quartic_even_roots(qc):
    """
    Real roots of ``a w^4 + b w^2 + c`` via the substitution u = w^2.

    Slightly negative u (>= -1e-12 after scaling) is clamped to zero;
    each returned root is verified against the quartic residual.
    """
    a, b, c = qc.a, qc.b, qc.c
    scale = abs(a) + abs(b) + abs(c)
    if scale == 0.0:
        return []
    if a == 0.0:
        us = [] if b == 0.0 else [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < -1e-9 * max(b * b, abs(4.0 * a * c), 1e-300):
            return []
        disc = max(disc, 0.0)
        sq = math.sqrt(disc)
        us = [(-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)]
    roots = []
    for u in us:
        if u < -1e-12:
            continue
        w = math.sqrt(max(u, 0.0))
        for r in {w, -w}:
            residual = abs(a * r ** 4 + b * r * r + c)
            if residual < 1e-8 * scale:
                roots.append(r)
    return sorted(roots)


def _candidates_from_roots(sp, qc, roots):
    """Orientation candidates from each quartic root R = cos(theta_TE)."""
    C, N, D, A = qc.C, qc.N, qc.D, qc.A
    cands = []
    if abs(C) < 1e-9 or abs(N) < 1e-9 or abs(A) < 1e-9:
        return cands
    for r in roots:
        if abs(r) < 1e-12:
            continue
        dd = D * D
        f = (dd * A * A + dd * N * N + A * A + N * N
             - r * r * (dd * A * A + 1.0)) / (2.0 * A * N * (dd + 1.0))
        g = D * (dd * N * N - dd * A * A + N * N - A * A
                 + r * r * (dd * A * A + 1.0)) / ((dd + 1.0) * C * N * r)
        h = (A * A + dd * A * A - N * N - dd * N * N
             + r * r * (dd * A * A + 1.0)) / ((dd + 1.0) * C * A * r)
        theta_te = math.degrees(math.atan2(f, r))
        theta_ta = sp.theta_SA - math.degrees(math.atan2(g, h))
        cands.append(TrackerOrientation(theta_te, theta_ta))
    return cands


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


# the fallback grid's refined pitch, and the error above which the
# closed-form orientation gives way to it, degrees
_GRID_STEP_DEG = 0.1
_MAX_ERROR_DEG = 0.5


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
    analytic: bool   # False when the grid fallback produced the answer


def optimal_orientation(sp, alpha_target, beta_target):
    """
    Tracker orientation achieving a requested (alpha, beta).

    The closed-form path evaluates every real root of the even quartic
    and keeps the candidate whose achieved incidence pair is closest to
    the targets (max-norm).  If no candidate lands within 0.5 degrees
    (``_MAX_ERROR_DEG``) the answer falls back to a 0.1-degree
    brute-force grid minimization and is flagged non-analytic.
    """
    if not 0.0 <= alpha_target < 90.0:
        raise ValueError("alpha target must lie in [0, 90)")
    if not math.isfinite(beta_target):
        raise ValueError("beta target must be finite")
    best, best_err, best_rank = None, math.inf, math.inf
    if abs(abs(beta_target) - 90.0) > 1e-9:   # tan singularity guard
        qc = orientation_quartic(sp, alpha_target, beta_target)
        roots = quartic_even_roots(qc)
        for cand in _candidates_from_roots(sp, qc, roots):
            err = _target_error(sp, cand, alpha_target, beta_target)
            # mirrored gimbal branches (180 - E, A - 180) describe the
            # same plane; break ties toward the representation nearest
            # the sun angles
            rank = (abs(cand.theta_TE - sp.theta_SE)
                    + abs((cand.theta_TA - sp.theta_SA + 180.0) % 360.0
                          - 180.0))
            if err < best_err - 1e-9 or (abs(err - best_err) <= 1e-9
                                         and rank < best_rank):
                best, best_err, best_rank = cand, err, rank
    if best is not None and best_err < _MAX_ERROR_DEG:
        return OrientationSolution(best, best_err, True)
    fallback, err = _grid_minimize(sp, alpha_target, beta_target)
    return OrientationSolution(fallback, err, False)
