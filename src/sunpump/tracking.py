"""
Four-quadrant LDR sensing model and the tracking state machine.

The sensor model projects the sun direction onto four quadrant normals
(the panel normal tilted 45 degrees toward each in-face half-axis), from
the sun's projections on the tracker frame (``solar.sun_on_frame``), and
quantizes to 10-bit ADC counts, full scale at 1000 W/m2 normal
incidence; a block's counts are one (4, m) matrix, scaled, rounded and
clipped in place.  The state machine parks below a total of 32 counts
and steps an axis once its pair sums differ by more than 20: the paper's
mean of 8 counts and 10-count deadband, decision for decision, as every
/2 and /4 average of integer counts is exact.  One signed motor step per
axis per cycle: azimuth +1 on the printed "left" branch, -1 on "right",
elevation +1 "up", -1 "down", 0 to hold; left-brighter commands "right",
so the loop converges either way.  A park snaps back to the start.

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
from .solar import TrackerOrientation, sun_on_frame, sun_on_normal

_SQRT_HALF = math.sqrt(0.5)

# the state machine's thresholds on count sums (module docstring)
TOTAL_MIN = 32
DIFF_DEADBAND = 20


def sense_and_decide(se, te, dazi, irradiance, ops):
    """
    One cycle of the tracker law: quadrant counts, then the state machine.

    Each count is ``round(1023 * irradiance/1000 * cos angle)``, clipped
    to [0, 1023], for the angle between the sun vector and a quadrant
    normal, the panel normal tilted 45 degrees toward a diagonal in-face
    direction: ``sqrt(1/2) (y_m + sqrt(1/2) (+-z_m +- x_m))``; in closed
    form from ``sun_on_frame`` (each half-difference once), quantized by
    ``ops.counts``, then decided by :func:`tracking_step`.

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
    half_diff, half_sum = 0.5 * (s_z - s_x), 0.5 * (s_z + s_x)
    counts = ops.counts((axial + half_diff, axial + half_sum,
                         axial - half_sum, axial - half_diff),
                        1023.0 * irradiance / 1000.0, 1023)
    return (*counts, *tracking_step(*counts))


def tracking_step(tl, tr, bl, br):
    """
    The tracking state machine on quadrant counts, floats or arrays.

    Below a total of ``TOTAL_MIN`` counts the tracker parks; an axis
    steps toward its brighter pair once the pair sums differ by more
    than ``DIFF_DEADBAND``: right brighter commands "left" (+1), left
    brighter "right" (-1), top brighter "up" (+1), bottom brighter
    "down" (-1).

    Returns
    -------
    (azimuth step, elevation step, park)
    """
    top, bottom = tl + tr, bl + br
    total = top + bottom
    lit = total >= TOTAL_MIN
    return (_axis_step((tr + br) - (tl + bl), lit),
            _axis_step(top - bottom, lit), total < TOTAL_MIN)


def _axis_step(diff, lit):
    """+1 above the deadband, -1 below it, 0 inside it or unlit."""
    return lit * ((diff > DIFF_DEADBAND) - 1 * (diff < -DIFF_DEADBAND))


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


# the first block's size (``blocks.run``): 128 ran slower on both scenario
# workloads, 768 faster on daylight but slower on clouds (2-vCPU x86 host)
_BLOCK_MIN = 256


def _incidence_angles(se, azi, te, ta):
    """:func:`~sunpump.solar.angle_of_incidence` over arrays (``se`` in
    radians), in its operation order, with ``math.acos`` on each element
    (``np.arccos`` differs in the last bit on some arguments) and the
    elevation's cosine and sine once per stretch of equal bits."""
    bits = te.view(np.int64)
    first = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    held = np.diff(first, append=te.size)
    cos_te, sin_te = (np.repeat(f(np.radians(te[first])), held)
                      for f in (np.cos, np.sin))
    arg = sun_on_normal(np.cos(se), np.sin(se), cos_te, sin_te,
                        np.cos(np.radians(azi - ta)))
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
    azi_step, elev_step = np.empty((2, n), dtype=np.int8)
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
        readings[span] = np.array(counts).T[:c]
        azi_step[span], elev_step[span], park[span] = az[:c], el[:c], pk[:c]
        return c, bool(miss.size), list(zip(te_1[:c][-8:].tolist(),
                                            ta_1[:c][-8:].tolist()))

    blocks.run(n, _BLOCK_MIN, step, block)
    return TrackingRun(theta_te, theta_ta,
                       _incidence_angles(se, azi, theta_te, theta_ta),
                       readings, azi_step, elev_step, park)
