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
"""

from dataclasses import dataclass
import math

import numpy as np

from .solar import SunPosition, TrackerOrientation, angle_of_incidence

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
    se, te = math.radians(sp.theta_SE), math.radians(to.theta_TE)
    dazi = math.radians(sp.theta_SA - to.theta_TA)
    cos_se, sin_se = math.cos(se), math.sin(se)
    cos_te, sin_te = math.cos(te), math.sin(te)
    cos_d = math.cos(dazi)
    s_y = sin_se * sin_te + cos_se * cos_te * cos_d
    s_x = cos_se * math.sin(dazi)
    s_z = sin_se * cos_te - cos_se * sin_te * cos_d
    scale = 1023.0 * irradiance / 1000.0
    axial = _SQRT_HALF * s_y

    def count(c):
        return int(min(1023, round(scale * max(0.0, c))))

    return LdrReadings(
        top_left=count(axial + 0.5 * (s_z - s_x)),
        top_right=count(axial + 0.5 * (s_z + s_x)),
        bottom_left=count(axial - 0.5 * (s_z + s_x)),
        bottom_right=count(axial + 0.5 * (s_x - s_z)),
    )


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


def tracking_sim(sun_elev, sun_azi, th, motor_step_deg=1.8,
                 irradiance=1000.0, start=None):
    """
    Closed-loop tracking along a sun path.

    Per step: sense quadrant counts, run the state machine, move at most
    one motor step per axis (elevation clamped to [0, 180]).

    Parameters
    ----------
    sun_elev, sun_azi : sequences of n floats, the solar elevation and
        azimuth per step in degrees; each step's ``SunPosition`` (and
        its range check) is built as the loop reaches it
    th : TrackingThresholds
    motor_step_deg : float, > 0
    irradiance : float or sequence of n floats, W/m2 (scalar is broadcast)
    start : TrackerOrientation, optional (defaults to face-up at the
        first sun azimuth); parking snaps back to it

    Returns
    -------
    TrackingRun
    """
    if motor_step_deg <= 0:
        raise ValueError("motor step must be > 0")
    elev = np.asarray(sun_elev, dtype=float).tolist()
    azi = np.asarray(sun_azi, dtype=float).tolist()
    n = len(elev)
    if n == 0:
        raise ValueError("sun path must be nonempty")
    irr = np.broadcast_to(np.asarray(irradiance, dtype=float), (n,)).tolist()
    if start is None:
        start = TrackerOrientation(90.0, azi[0])
    run = TrackingRun(np.empty(n), np.empty(n), np.empty(n),
                      np.empty((n, 4), dtype=np.int16),
                      np.empty(n, dtype="<U5"), np.empty(n, dtype="<U5"),
                      np.empty(n, dtype=bool))
    orientation = start
    for k in range(n):
        sp = SunPosition(elev[k], azi[k])
        r = ldr_model(sp, orientation, irr[k])
        cmd = tracking_step(r, th)
        orientation = apply_command(orientation, cmd, motor_step_deg,
                                    initial=start)
        run.theta_TE[k] = orientation.theta_TE
        run.theta_TA[k] = orientation.theta_TA
        run.alpha[k] = angle_of_incidence(sp, orientation)
        run.readings[k] = (r.top_left, r.top_right,
                           r.bottom_left, r.bottom_right)
        run.azimuth_move[k] = cmd.azimuth_move
        run.elevation_move[k] = cmd.elevation_move
        run.park[k] = cmd.park
    return run
