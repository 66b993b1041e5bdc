"""
Four-quadrant LDR sensing model and the tracking state machine.

The sensor model projects the sun direction onto four quadrant normals
(the panel normal tilted 45 degrees toward each in-face half-axis), from
the sun's projections on the tracker frame (``solar.sun_on_frame``), and
quantizes to 10-bit ADC counts, full scale at 1000 W/m2 normal
incidence.  The state machine compares pairwise averages against a
deadband and commands one signed motor step per axis per cycle: azimuth
+1 on the printed "left" branch and -1 on "right", elevation +1 "up" and
-1 "down", 0 to hold.  Left-brighter commands "right", a negative
azimuth step, so the loop converges either way.  A park snaps the
tracker back to its start.

The law is written once, :func:`sense_and_decide`, on floats or arrays.
``tracking_sim`` runs the steps that move the panel through it on
floats, and the hold stretches between them on numpy blocks: while the
orientation is fixed the counts and commands of a step depend on that
step's sun and irradiance alone.  Both take the same operations in the
same order, so every column is bit-identical to a step-by-step loop.
"""

from dataclasses import dataclass
import math

import numpy as np

from .solar import TrackerOrientation, sun_on_frame

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class TrackingThresholds:
    avgsum_min: float = 8.0
    diff_deadband: float = 10.0

    def __post_init__(self):
        if self.avgsum_min <= 0 or self.diff_deadband <= 0:
            raise ValueError("thresholds must be positive")


def _clip(x, lo, hi):
    """``np.clip`` on one number."""
    return min(max(x, lo), hi)


def sense_and_decide(se, te, dazi, irradiance, th, sin, cos, rint, clip):
    """
    One cycle of the tracker law: quadrant counts, then the state machine.

    Each count is ``round(1023 * irradiance/1000 * cos angle)``, clipped
    to [0, 1023], for the angle between the sun vector and that
    quadrant's normal, where the quadrant normals are the panel normal
    tilted 45 degrees toward the four diagonal in-face directions:
    ``sqrt(1/2) (y_m + sqrt(1/2) (+-z_m +- x_m))``.  The cosines are
    taken in closed form from the sun's projections on the tracker
    frame.  The counts then go through :func:`tracking_step`.

    Parameters
    ----------
    se, te, dazi : sun elevation, tracker elevation and azimuth difference
        (sun minus tracker), radians, as for ``solar.sun_on_frame``
    irradiance : W/m2, >= 0
    th : TrackingThresholds
    sin, cos, rint, clip : ``math.sin``, ``math.cos``, ``round`` and
        ``_clip`` on floats, or ``np.sin``, ``np.cos``, ``np.rint`` and
        ``np.clip`` on arrays

    Returns
    -------
    (top_left, top_right, bottom_left, bottom_right, azimuth step,
    elevation step, park)
    """
    s_x, s_y, s_z = sun_on_frame(se, te, dazi, sin, cos)
    axial = _SQRT_HALF * s_y
    scale = 1023.0 * irradiance / 1000.0
    counts = [clip(rint(scale * c), 0, 1023) for c in (
        axial + 0.5 * (s_z - s_x), axial + 0.5 * (s_z + s_x),
        axial - 0.5 * (s_z + s_x), axial + 0.5 * (s_x - s_z))]
    return (*counts, *tracking_step(*counts, th))


def ldr_model(sun_elev, sun_azi, tracker_elev, tracker_azi, irradiance):
    """Quadrant counts (top left, top right, bottom left, bottom right)
    for one sun position and tracker orientation in degrees:
    :func:`sense_and_decide` on floats."""
    if irradiance < 0:
        raise ValueError("irradiance must be >= 0")
    return sense_and_decide(
        math.radians(sun_elev), math.radians(tracker_elev),
        math.radians(sun_azi - tracker_azi), irradiance,
        TrackingThresholds(), math.sin, math.cos, round, _clip)[:4]


def tracking_step(tl, tr, bl, br, th):
    """
    The tracking state machine on quadrant counts, floats or arrays.

    Pairwise averages feed two difference signals; below the light
    threshold the tracker parks and holds, inside the deadband an axis
    holds, otherwise the printed branch directions apply: a positive
    azimuth difference commands "right" (-1), a negative one "left"
    (+1), a positive elevation difference "up" (+1), a negative one
    "down" (-1).

    Returns
    -------
    (azimuth step, elevation step, park)
    """
    avg_top = (tl + tr) / 2.0
    avg_bottom = (bl + br) / 2.0
    avg_left = (tl + bl) / 2.0
    avg_right = (tr + br) / 2.0
    avgsum = (avg_top + avg_bottom + avg_left + avg_right) / 4.0
    lit = avgsum >= th.avgsum_min
    diff_azi = avg_left - avg_right
    diff_elev = avg_top - avg_bottom
    db = th.diff_deadband
    azi = (lit & (abs(diff_azi) > db)) * (1 - 2 * (diff_azi > 0))
    elev = (lit & (abs(diff_elev) > db)) * (2 * (diff_elev > 0) - 1)
    return azi, elev, avgsum < th.avgsum_min


def _move(te, ta, azi_step, elev_step, park, motor_step_deg, start):
    """Orientation ``(te, ta)`` after one command: a signed motor step per
    axis with the elevation clamped to [0, 180]; a park snaps to
    ``start``."""
    if park:
        return start
    return (_clip(te + elev_step * motor_step_deg, 0.0, 180.0),
            ta + azi_step * motor_step_deg)


@dataclass(frozen=True)
class TrackingRun:
    """Per-step columns of :func:`tracking_sim`, each of length n."""

    theta_TE: np.ndarray        # orientation after the step's command
    theta_TA: np.ndarray
    alpha: np.ndarray           # angle of incidence there, degrees
    readings: np.ndarray        # (n, 4) sensed counts: tl, tr, bl, br
    azimuth_step: np.ndarray    # int8: +1 left, -1 right, 0 hold
    elevation_step: np.ndarray  # int8: +1 up, -1 down, 0 hold
    park: np.ndarray


# A block pass starts after this many scalar steps in a row leave the
# orientation unchanged; a block covers this many steps at first and
# doubles after each block the tracker holds through, up to the maximum.
_SETTLE_STEPS = 8
_BLOCK_MIN = 32
_BLOCK_MAX = 4096


def _same_orientation(a, b):
    """Bit-for-bit equal ``(te, ta)`` pairs: 0.0 and -0.0 differ."""
    return a == b and all(math.copysign(1.0, x) == math.copysign(1.0, y)
                          for x, y in zip(a, b))


def _incidence_angles(se, azi, te, ta):
    """:func:`~sunpump.solar.angle_of_incidence` over arrays (sun
    elevation ``se`` in radians), in its operation order, with
    ``math.acos`` on each element (``np.arccos`` differs from it in the
    last bit on some arguments)."""
    arg = sun_on_frame(se, np.radians(te), np.radians(azi - ta),
                       np.sin, np.cos)[1]
    arg = np.where(arg < 1.0, arg, 1.0)
    arg = np.where(arg > -1.0, arg, -1.0)
    return np.degrees(np.fromiter(map(math.acos, arg), float, arg.size))


def tracking_sim(sun_elev, sun_azi, th, motor_step_deg=1.8,
                 irradiance=1000.0, start=None):
    """
    Closed-loop tracking along a sun path.

    Per step: sense quadrant counts, run the state machine, move at most
    one motor step per axis (elevation clamped to [0, 180]).  Steps that
    follow a move run one by one through :func:`sense_and_decide` on
    floats; once the orientation has held for a few steps, the steps run
    through it on arrays from the fixed orientation until the first step
    that changes it (module docstring).

    Parameters
    ----------
    sun_elev, sun_azi : sequences of n floats, the solar elevation and
        azimuth per step in degrees; every elevation must lie in
        [-90, 90] and every azimuth must be finite
    th : TrackingThresholds
    motor_step_deg : float, finite and > 0
    irradiance : float or sequence of n floats, finite and >= 0, W/m2
        (a scalar is broadcast)
    start : TrackerOrientation with finite angles, optional (defaults to
        face-up at the first sun azimuth); parking snaps back to it

    Returns
    -------
    TrackingRun
    """
    if not 0.0 < motor_step_deg < math.inf:
        raise ValueError("motor step must be finite and > 0")
    elev = np.asarray(sun_elev, dtype=float)
    azi = np.asarray(sun_azi, dtype=float)
    n = len(elev)
    if n == 0:
        raise ValueError("sun path must be nonempty")
    if len(azi) != n:
        raise ValueError("sun elevation and azimuth lengths differ")
    irr = np.broadcast_to(np.asarray(irradiance, dtype=float), (n,))
    if not np.all((elev >= -90.0) & (elev <= 90.0)):
        raise ValueError("solar elevation must lie in [-90, 90]")
    if not np.all(np.isfinite(azi)):
        raise ValueError("solar azimuth must be finite")
    if not np.all(np.isfinite(irr)):
        raise ValueError("irradiance must be finite")
    if not np.all(irr >= 0.0):
        raise ValueError("irradiance must be >= 0")
    if start is None:
        start = TrackerOrientation(90.0, azi.item(0))
    start = (float(start.theta_TE), float(start.theta_TA))
    if not all(map(math.isfinite, start)):
        raise ValueError("start orientation must be finite")
    se = np.radians(elev)
    theta_te, theta_ta = np.empty(n), np.empty(n)
    readings = np.empty((n, 4), dtype=np.int16)
    azi_step = np.empty(n, dtype=np.int8)
    elev_step = np.empty(n, dtype=np.int8)
    park = np.empty(n, dtype=bool)
    here = te, ta = start
    k = held = 0
    while k < n:
        if held < _SETTLE_STEPS:
            *counts, az, el, pk = sense_and_decide(
                se.item(k), math.radians(te), math.radians(azi.item(k) - ta),
                irr.item(k), th, math.sin, math.cos, round, _clip)
            moved = _move(te, ta, az, el, pk, motor_step_deg, start)
            held = held + 1 if _same_orientation(moved, here) else 0
            here = te, ta = moved
            theta_te[k], theta_ta[k] = moved
            readings[k] = counts
            azi_step[k], elev_step[k], park[k] = az, el, pk
            k += 1
            if held == _SETTLE_STEPS:
                # where each command leads from here, indexed by the code
                # 3 * azimuth step + elevation step + 4 (9 for a park),
                # and whether it leaves the orientation
                dest = [_move(te, ta, a, e, False, motor_step_deg, start)
                        for a in (-1, 0, 1) for e in (-1, 0, 1)] + [start]
                leaves = np.array([not _same_orientation(d, here)
                                   for d in dest])
                block = _BLOCK_MIN
            continue
        stop = min(k + block, n)
        *counts, az, el, pk = sense_and_decide(
            se[k:stop], math.radians(te), np.radians(azi[k:stop] - ta),
            irr[k:stop], th, np.sin, np.cos, np.rint, np.clip)
        code = np.where(pk, 9, 3 * az + el + 4)
        leaving = np.flatnonzero(leaves[code])
        end = stop if leaving.size == 0 else k + leaving[0] + 1
        m = end - k
        span = slice(k, end)
        readings[span] = np.stack(counts, axis=1)[:m]
        azi_step[span], elev_step[span], park[span] = az[:m], el[:m], pk[:m]
        theta_te[span], theta_ta[span] = here
        if leaving.size:
            here = te, ta = dest[code[m - 1]]
            theta_te[end - 1], theta_ta[end - 1] = here
            held = 0
        else:
            block = min(2 * block, _BLOCK_MAX)
        k = end
    return TrackingRun(theta_te, theta_ta,
                       _incidence_angles(se, azi, theta_te, theta_ta),
                       readings, azi_step, elev_step, park)
