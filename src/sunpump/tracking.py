"""
Four-quadrant LDR sensing model and the tracking state machine.

The sensor model projects the sun direction onto four quadrant normals
(the panel normal tilted 45 degrees toward each in-face half-axis) and
quantizes to 10-bit ADC counts, full scale at 1000 W/m2 normal
incidence.  The state machine compares pairwise averages against a
deadband and commands one motor step per axis per cycle.

Command labels follow the tracking algorithm's printed branches
(left-brighter commands "right"); the simulation maps "right" to a
negative azimuth step so the loop converges either way.

``tracking_sim`` runs the steps that move the panel through the scalar
functions below, and the hold stretches between them as numpy blocks:
while the orientation is fixed the counts and commands of a step depend
on that step's sun and irradiance alone.  The blocks repeat the scalar
operations in the same order, so every column is bit-identical to a
step-by-step loop over ``ldr_model``, ``tracking_step`` and
``apply_command``.
"""

from dataclasses import dataclass
import math

import numpy as np

from .solar import SunPosition, TrackerOrientation

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class LdrReadings:
    """Quadrant ADC counts, each in [0, 1023]."""

    top_left: int
    top_right: int
    bottom_left: int
    bottom_right: int

    def __post_init__(self):
        for v in (self.top_left, self.top_right,
                  self.bottom_left, self.bottom_right):
            if not 0 <= v <= 1023:
                raise ValueError("ADC count out of [0, 1023]")


@dataclass(frozen=True)
class TrackingThresholds:
    avgsum_min: float = 8.0
    diff_deadband: float = 10.0

    def __post_init__(self):
        if self.avgsum_min <= 0 or self.diff_deadband <= 0:
            raise ValueError("thresholds must be positive")


@dataclass(frozen=True)
class TrackerCommand:
    azimuth_move: str   # "left" | "right" | "hold"
    elevation_move: str  # "up" | "down" | "hold"
    park: bool = False


def ldr_model(sp, to, irradiance):
    """
    Quadrant sensor counts for a sun position and tracker orientation.

    Each reading is ``round(1023 * irradiance/1000 * max(0, cos angle))``
    between the sun vector and that quadrant's normal, where the
    quadrant normals are the panel normal tilted 45 degrees toward the
    four diagonal in-face directions: ``sqrt(1/2) (y_m + sqrt(1/2)
    (+-z_m +- x_m))``.  The cosines are taken in closed form from the
    sun's projections on the tracker frame (``s . y_m``, and
    ``s . x_m``, ``s . z_m`` as in ``incidence_projections``).
    """
    if irradiance < 0:
        raise ValueError("irradiance must be >= 0")
    scale = 1023.0 * irradiance / 1000.0

    def count(c):
        return int(min(1023, round(scale * max(0.0, c))))

    return LdrReadings(*map(count, _quadrant_cosines(
        math.radians(sp.theta_SE), math.radians(to.theta_TE),
        math.radians(sp.theta_SA - to.theta_TA), math.sin, math.cos)))


def _quadrant_cosines(se, te, dazi, sin, cos):
    """
    Cosines between the sun and the quadrant normals (top left, top
    right, bottom left, bottom right) from the sun elevation, tracker
    elevation and azimuth difference in radians; ``sin`` and ``cos``
    are ``math``'s on floats or ``numpy``'s on arrays.
    """
    cos_se, sin_se = cos(se), sin(se)
    cos_te, sin_te = cos(te), sin(te)
    cos_d = cos(dazi)
    s_y = sin_se * sin_te + cos_se * cos_te * cos_d
    s_x = cos_se * sin(dazi)
    s_z = sin_se * cos_te - cos_se * sin_te * cos_d
    axial = _SQRT_HALF * s_y
    return (axial + 0.5 * (s_z - s_x), axial + 0.5 * (s_z + s_x),
            axial - 0.5 * (s_z + s_x), axial + 0.5 * (s_x - s_z))


def tracking_step(r, th):
    """
    One pass of the tracking state machine.

    Pairwise averages feed two difference signals; below the light
    threshold the tracker parks, inside the deadband an axis holds,
    otherwise the printed branch directions apply (positive azimuth
    difference commands "right", positive elevation difference "up").
    """
    avg_top = (r.top_left + r.top_right) / 2.0
    avg_bottom = (r.bottom_left + r.bottom_right) / 2.0
    avg_left = (r.top_left + r.bottom_left) / 2.0
    avg_right = (r.top_right + r.bottom_right) / 2.0
    avgsum = (avg_top + avg_bottom + avg_left + avg_right) / 4.0
    if avgsum < th.avgsum_min:
        return TrackerCommand("hold", "hold", park=True)
    diff_azi = avg_left - avg_right
    diff_elev = avg_top - avg_bottom
    if abs(diff_azi) <= th.diff_deadband:
        azi = "hold"
    else:
        azi = "right" if diff_azi > 0 else "left"
    if abs(diff_elev) <= th.diff_deadband:
        elev = "hold"
    else:
        elev = "up" if diff_elev > 0 else "down"
    return TrackerCommand(azi, elev, park=False)


# command label -> signed orientation increment, in motor steps
_AZI_STEP = {"left": +1.0, "right": -1.0, "hold": 0.0}
_ELEV_STEP = {"up": +1.0, "down": -1.0, "hold": 0.0}


def apply_command(to, cmd, motor_step_deg, initial=None):
    """Orientation after one command; park snaps to the initial position."""
    if cmd.park:
        return initial if initial is not None else to
    te = to.theta_TE + _ELEV_STEP[cmd.elevation_move] * motor_step_deg
    ta = to.theta_TA + _AZI_STEP[cmd.azimuth_move] * motor_step_deg
    te = min(max(te, 0.0), 180.0)
    return TrackerOrientation(te, ta)


@dataclass(frozen=True)
class TrackingRun:
    """Per-step columns of :func:`tracking_sim`, each of length n."""

    theta_TE: np.ndarray        # orientation after the step's command
    theta_TA: np.ndarray
    alpha: np.ndarray           # angle of incidence there, degrees
    readings: np.ndarray        # (n, 4) sensed counts: tl, tr, bl, br
    azimuth_move: np.ndarray    # command labels
    elevation_move: np.ndarray
    park: np.ndarray


# A block pass starts after this many scalar steps in a row leave the
# orientation unchanged; a block covers this many steps at first and
# doubles after each block the tracker holds through, up to the maximum.
_SETTLE_STEPS = 8
_BLOCK_MIN = 32
_BLOCK_MAX = 4096

# command codes, indices into the label arrays
_AZI_LABELS = np.array(["hold", "left", "right"], dtype="<U5")
_ELEV_LABELS = np.array(["hold", "up", "down"], dtype="<U5")
_AZI_CODE = {label: j for j, label in enumerate(_AZI_LABELS.tolist())}
_ELEV_CODE = {label: j for j, label in enumerate(_ELEV_LABELS.tolist())}
# a block step's command as one code: 3 * azimuth + elevation, or park
_PARK_CODE = 9
_COMMANDS = tuple(TrackerCommand(azi, elev) for azi in _AZI_LABELS.tolist()
                  for elev in _ELEV_LABELS.tolist()) + (
    TrackerCommand("hold", "hold", park=True),)


def _same_orientation(a, b):
    """Bit-for-bit equal orientations: 0.0 and -0.0 differ, and NaN
    equals nothing."""
    sign = math.copysign
    return (a.theta_TE == b.theta_TE and a.theta_TA == b.theta_TA
            and sign(1.0, a.theta_TE) == sign(1.0, b.theta_TE)
            and sign(1.0, a.theta_TA) == sign(1.0, b.theta_TA))


def _block_commands(to, elev, azi, irr, th):
    """
    Counts and command codes of steps sensed from the fixed orientation
    ``to``: :func:`ldr_model` and :func:`tracking_step` over arrays, in
    their operation order.

    Returns
    -------
    (counts (m, 4) float array, azimuth codes, elevation codes, park)
    """
    c = np.stack(_quadrant_cosines(
        np.radians(elev), np.radians(np.full(elev.size, to.theta_TE)),
        np.radians(azi - to.theta_TA), np.sin, np.cos), axis=1)
    scale = 1023.0 * irr / 1000.0
    counts = np.minimum(1023, np.rint(scale[:, None]
                                      * np.where(c > 0.0, c, 0.0)))
    tl, tr, bl, br = counts.T
    avg_top = (tl + tr) / 2.0
    avg_bottom = (bl + br) / 2.0
    avg_left = (tl + bl) / 2.0
    avg_right = (tr + br) / 2.0
    avgsum = (avg_top + avg_bottom + avg_left + avg_right) / 4.0
    park = avgsum < th.avgsum_min
    diff_azi = avg_left - avg_right
    diff_elev = avg_top - avg_bottom
    azi_code = np.where(
        park | (np.abs(diff_azi) <= th.diff_deadband), _AZI_CODE["hold"],
        np.where(diff_azi > 0, _AZI_CODE["right"], _AZI_CODE["left"]))
    elev_code = np.where(
        park | (np.abs(diff_elev) <= th.diff_deadband), _ELEV_CODE["hold"],
        np.where(diff_elev > 0, _ELEV_CODE["up"], _ELEV_CODE["down"]))
    return counts, azi_code, elev_code, park


def _incidence_angles(elev, azi, te, ta):
    """:func:`~sunpump.solar.angle_of_incidence` over arrays, in its
    operation order, with ``math.acos`` on each element (``np.arccos``
    differs from it in the last bit on some arguments)."""
    se, te = np.radians(elev), np.radians(te)
    arg = (np.sin(se) * np.sin(te)
           + np.cos(se) * np.cos(te) * np.cos(np.radians(azi - ta)))
    arg = np.where(arg < 1.0, arg, 1.0)
    arg = np.where(arg > -1.0, arg, -1.0)
    return np.degrees(np.fromiter(map(math.acos, arg), float, arg.size))


def tracking_sim(sun_elev, sun_azi, th, motor_step_deg=1.8,
                 irradiance=1000.0, start=None):
    """
    Closed-loop tracking along a sun path.

    Per step: sense quadrant counts, run the state machine, move at most
    one motor step per axis (elevation clamped to [0, 180]).  Steps that
    follow a move run one by one through :func:`ldr_model`,
    :func:`tracking_step` and :func:`apply_command`; once the orientation
    has held for a few steps, the steps run as blocks from the fixed
    orientation until the first step that changes it (module docstring).

    Parameters
    ----------
    sun_elev, sun_azi : sequences of n floats, the solar elevation and
        azimuth per step in degrees; every elevation must lie in
        [-90, 90]
    th : TrackingThresholds
    motor_step_deg : float, > 0
    irradiance : float or sequence of n floats, finite and >= 0, W/m2
        (a scalar is broadcast)
    start : TrackerOrientation, optional (defaults to face-up at the
        first sun azimuth); parking snaps back to it

    Returns
    -------
    TrackingRun
    """
    if motor_step_deg <= 0:
        raise ValueError("motor step must be > 0")
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
    if not np.all(np.isfinite(irr)):
        raise ValueError("irradiance must be finite")
    if not np.all(irr >= 0.0):
        raise ValueError("irradiance must be >= 0")
    if start is None:
        start = TrackerOrientation(90.0, azi.item(0))
    theta_te, theta_ta = np.empty(n), np.empty(n)
    readings = np.empty((n, 4), dtype=np.int16)
    azi_code = np.empty(n, dtype=np.int8)
    elev_code = np.empty(n, dtype=np.int8)
    park = np.empty(n, dtype=bool)
    orientation = start
    k = held = 0
    while k < n:
        if held < _SETTLE_STEPS:
            r = ldr_model(SunPosition(elev.item(k), azi.item(k)),
                          orientation, irr.item(k))
            cmd = tracking_step(r, th)
            moved = apply_command(orientation, cmd, motor_step_deg,
                                  initial=start)
            held = held + 1 if _same_orientation(moved, orientation) else 0
            orientation = moved
            theta_te[k], theta_ta[k] = moved.theta_TE, moved.theta_TA
            readings[k] = (r.top_left, r.top_right,
                           r.bottom_left, r.bottom_right)
            azi_code[k] = _AZI_CODE[cmd.azimuth_move]
            elev_code[k] = _ELEV_CODE[cmd.elevation_move]
            park[k] = cmd.park
            k += 1
            if held == _SETTLE_STEPS:
                # where each command code leads from here, and whether
                # it leaves the orientation
                dest = [apply_command(orientation, c, motor_step_deg,
                                      initial=start) for c in _COMMANDS]
                leaves = np.array([not _same_orientation(d, orientation)
                                   for d in dest])
                block = _BLOCK_MIN
            continue
        stop = min(k + block, n)
        counts, az, el, pk = _block_commands(
            orientation, elev[k:stop], azi[k:stop], irr[k:stop], th)
        code = np.where(pk, _PARK_CODE, 3 * az + el)
        leaving = np.flatnonzero(leaves[code])
        end = stop if leaving.size == 0 else k + leaving[0] + 1
        span = slice(k, end)
        readings[span] = counts[:end - k]
        azi_code[span], elev_code[span] = az[:end - k], el[:end - k]
        park[span] = pk[:end - k]
        theta_te[span] = orientation.theta_TE
        theta_ta[span] = orientation.theta_TA
        if leaving.size:
            orientation = dest[code[end - k - 1]]
            theta_te[end - 1] = orientation.theta_TE
            theta_ta[end - 1] = orientation.theta_TA
            held = 0
        else:
            block = min(2 * block, _BLOCK_MAX)
        k = end
    return TrackingRun(theta_te, theta_ta,
                       _incidence_angles(elev, azi, theta_te, theta_ta),
                       readings, _AZI_LABELS[azi_code],
                       _ELEV_LABELS[elev_code], park)
