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

The law, :func:`sense_and_decide` and the move :func:`_move`, is written
once on floats or arrays, and ``tracking_sim`` runs it on the schedule
of ``blocks.run``: a float step returns its orientation, which falls
into a 4-cycle at a hold, a parked night, a clamp at 0 or 180 degrees
and the up/down dither, and a block runs the law as arrays over the
orientations that cycle predicts.  Both forms take the same operations
in the same order, so every column is bit-identical to a step-by-step
loop.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import blocks
from .ranges import check
from .solar import TrackerOrientation, sun_on_frame

_SQRT_HALF = math.sqrt(0.5)

# the state machine's thresholds, in ADC counts: below this mean count
# the tracker parks; an axis holds while its difference stays within
# the deadband
AVGSUM_MIN = 8.0
DIFF_DEADBAND = 10.0


def sense_and_decide(se, te, dazi, irradiance, ops):
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
    ops : ``blocks.FLOATS`` on floats, or ``blocks.ARRAYS`` on arrays

    Returns
    -------
    (top_left, top_right, bottom_left, bottom_right, azimuth step,
    elevation step, park)
    """
    s_x, s_y, s_z = sun_on_frame(se, te, dazi, ops.sin, ops.cos)
    axial = _SQRT_HALF * s_y
    scale = 1023.0 * irradiance / 1000.0
    counts = [ops.clip(ops.rint(scale * c), 0, 1023) for c in (
        axial + 0.5 * (s_z - s_x), axial + 0.5 * (s_z + s_x),
        axial - 0.5 * (s_z + s_x), axial + 0.5 * (s_x - s_z))]
    return (*counts, *tracking_step(*counts))


def tracking_step(tl, tr, bl, br):
    """
    The tracking state machine on quadrant counts, floats or arrays.

    Pairwise averages feed two difference signals; below the light
    threshold ``AVGSUM_MIN`` the tracker parks and holds, inside the
    deadband ``DIFF_DEADBAND`` an axis
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
    lit = avgsum >= AVGSUM_MIN
    diff_azi = avg_left - avg_right
    diff_elev = avg_top - avg_bottom
    azi = (lit & (abs(diff_azi) > DIFF_DEADBAND)) * (1 - 2 * (diff_azi > 0))
    elev = (lit & (abs(diff_elev) > DIFF_DEADBAND)) * (2 * (diff_elev > 0) - 1)
    return azi, elev, avgsum < AVGSUM_MIN


def _move(te, ta, azi_step, elev_step, park, motor_step_deg, start, ops):
    """Orientation ``(te, ta)`` after one command: a signed motor step per
    axis with the elevation clamped to [0, 180]; a park snaps to
    ``start``.  On floats or arrays (``ops`` as for
    :func:`sense_and_decide`)."""
    return (ops.where(park, start[0],
                      ops.clip(te + elev_step * motor_step_deg, 0.0, 180.0)),
            ops.where(park, start[1], ta + azi_step * motor_step_deg))


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


# the first block's size (``blocks.run``): a block costs about 80 us plus
# 0.1 us a step (2-vCPU x86 host), so a shorter one loses more than it saves
_BLOCK_MIN = 256


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


def tracking_sim(sun_elev, sun_azi, motor_step_deg=1.8, irradiance=1000.0,
                 start=None):
    """
    Closed-loop tracking along a sun path.

    Per step: sense quadrant counts, run the state machine, move at most
    one motor step per axis (elevation clamped to [0, 180]); on floats,
    or in checked blocks of predicted orientations (module docstring).

    Parameters
    ----------
    sun_elev, sun_azi : sequences of n floats, the solar elevation and
        azimuth per step in degrees
    motor_step_deg : float
    irradiance : float or sequence of n floats in W/m2 (a scalar is
        broadcast)
    start : TrackerOrientation, optional (defaults to face-up at the
        first sun azimuth); parking snaps back to it

    Each input lies in its ``ranges.RANGES`` row (the start in the
    ``tracker_init_`` rows), or ``ValueError`` names it and the row.

    Returns
    -------
    TrackingRun
    """
    check("motor_step_deg", motor_step_deg, ValueError)
    elev = np.asarray(sun_elev, dtype=float)
    azi = np.asarray(sun_azi, dtype=float)
    n = len(elev)
    if n == 0:
        raise ValueError("sun path must be nonempty")
    if len(azi) != n:
        raise ValueError("sun elevation and azimuth lengths differ")
    irr = np.broadcast_to(np.asarray(irradiance, dtype=float), (n,))
    check("elevation", elev, ValueError)
    check("azimuth", azi, ValueError)
    check("irradiance", irr, ValueError)
    if start is None:
        start = TrackerOrientation(90.0, azi.item(0))
    start = (float(start.theta_TE), float(start.theta_TA))
    check("tracker_init_elev", start[0], ValueError)
    check("tracker_init_azi", start[1], ValueError)
    se = np.radians(elev)
    theta_te, theta_ta = np.empty(n), np.empty(n)
    readings = np.empty((n, 4), dtype=np.int16)
    azi_step = np.empty(n, dtype=np.int8)
    elev_step = np.empty(n, dtype=np.int8)
    park = np.empty(n, dtype=bool)

    def step(k):
        te, ta = (theta_te.item(k - 1), theta_ta.item(k - 1)) if k else start
        *counts, az, el, pk = sense_and_decide(
            se.item(k), math.radians(te), math.radians(azi.item(k) - ta),
            irr.item(k), blocks.FLOATS)
        te, ta = _move(te, ta, az, el, pk, motor_step_deg, start,
                       blocks.FLOATS)
        theta_te[k], theta_ta[k] = te, ta
        readings[k] = counts
        azi_step[k], elev_step[k], park[k] = az, el, pk
        return te, ta

    def block(k, m, cycle):
        # the cycle's orientations, and which one each step of the block
        # is predicted to start from and to end at
        cte, cta = (np.array(c) for c in zip(*cycle))
        ahead, behind = blocks.PHASE[:m], blocks.PHASE[3:m + 3]
        te_0, ta_0 = cte[behind], cta[behind]
        *counts, az, el, pk = sense_and_decide(
            se[k:k + m], np.radians(cte)[behind],
            np.radians(azi[k:k + m] - ta_0), irr[k:k + m], blocks.ARRAYS)
        te_1, ta_1 = _move(te_0, ta_0, az, el, pk, motor_step_deg, start,
                           blocks.ARRAYS)
        miss = np.flatnonzero(
            (te_1.view(np.int64) != cte[ahead].view(np.int64))
            | (ta_1.view(np.int64) != cta[ahead].view(np.int64)))
        c = int(miss[0]) + 1 if miss.size else m
        span = slice(k, k + c)
        theta_te[span], theta_ta[span] = te_1[:c], ta_1[:c]
        readings[span] = np.stack(counts, axis=1)[:c]
        azi_step[span], elev_step[span], park[span] = az[:c], el[:c], pk[:c]
        return c, bool(miss.size), list(zip(te_1[:c][-8:].tolist(),
                                            ta_1[:c][-8:].tolist()))

    blocks.run(n, _BLOCK_MIN, step, block)
    return TrackingRun(theta_te, theta_ta,
                       _incidence_angles(se, azi, theta_te, theta_ta),
                       readings, azi_step, elev_step, park)
