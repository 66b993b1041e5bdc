"""
Maximum-power-point tracking update laws and the boost-converter ratio.

Both hill-climbing laws are pure step functions (state in, state out):
Perturb-and-Observe moves the voltage reference by one fixed step in the
direction that last increased power, Incremental-Conductance compares
dI/dV against -I/V and holds exactly at the equality.
"""

from dataclasses import dataclass

import numpy as np

from . import pv


class InvalidDutyError(ValueError):
    """Boost converter duty cycle outside [0, 1)."""


@dataclass(frozen=True)
class ConverterSetting:
    duty_D: float

    def __post_init__(self):
        if not 0.0 <= self.duty_D < 1.0:
            raise InvalidDutyError("duty cycle must lie in [0, 1)")


def boost_ratio(cs):
    """Ideal boost conversion ratio ``Vout/Vin = 1 / (1 - D)``."""
    return 1.0 / (1.0 - cs.duty_D)


def duty_for_ratio(v_in, v_out, d_max=0.95):
    """Boost-law duty ``1 - v_out/v_in``, clamped to [0, d_max]; 0 when
    v_in <= 0."""
    if v_in <= 0:
        return 0.0
    return min(max(1.0 - v_out / v_in, 0.0), d_max)


@dataclass(frozen=True)
class MpptState:
    """Tracker memory: previous operating point plus the voltage command."""

    V_prev: float
    I_prev: float
    P_prev: float
    V_ref: float
    dV_step: float = 0.5
    iteration: int = 0
    flag: str = ""

    def __post_init__(self):
        if self.dV_step <= 0:
            raise ValueError("perturbation step must be > 0")
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")


def initial_state(v_ref, dv_step=0.5):
    return MpptState(V_prev=v_ref, I_prev=0.0, P_prev=0.0,
                     V_ref=v_ref, dV_step=dv_step)


def po_step(st, v_now, i_now, printed_variant=False):
    """
    One Perturb-and-Observe update.

    The standard law: move the reference up when the last power change
    and voltage change share a sign, down when they differ, hold when
    power did not change.  ``printed_variant=True`` flips the move
    directions (a non-converging variant kept for comparison only).
    """
    p_now = v_now * i_now
    dp = p_now - st.P_prev
    dv = v_now - st.V_prev
    if dp == 0.0:
        move = 0.0
    elif dp * dv > 0.0:
        move = st.dV_step
    else:
        move = -st.dV_step
    if printed_variant:
        move = -move
    return MpptState(v_now, i_now, p_now, st.V_ref + move, st.dV_step,
                     st.iteration + 1, "")


def ic_step(st, v_now, i_now, rel_tol=1e-6):
    """
    One Incremental-Conductance update.

    Branches: with no voltage change the current change alone steers the
    move; otherwise dI/dV is compared against -I/V and the reference
    holds at equality (tested with relative tolerance ``rel_tol``).
    """
    dv = v_now - st.V_prev
    di = i_now - st.I_prev
    move = 0.0
    flag = ""
    if dv == 0.0:
        if di > 0.0:
            move = st.dV_step
        elif di < 0.0:
            move = -st.dV_step
    elif v_now == 0.0:
        flag = "conductance-undefined"
    else:
        inc = di / dv
        ref = -i_now / v_now
        scale = max(abs(inc), abs(ref), 1e-12)
        if abs(inc - ref) <= rel_tol * scale:
            move = 0.0
        elif inc > ref:
            move = st.dV_step
        else:
            move = -st.dV_step
    return MpptState(v_now, i_now, v_now * i_now, st.V_ref + move,
                     st.dV_step, st.iteration + 1, flag)


@dataclass(frozen=True)
class MpptRun:
    """Per-step columns of :func:`mppt_run` and its final state."""

    v_ref: np.ndarray   # voltage reference each step operated at
    i: np.ndarray       # current measured there
    final: MpptState

    @property
    def p(self):
        return self.v_ref * self.i


def mppt_run(ap, algo, st0, steps, irradiance=None, measure=None):
    """
    Closed-loop MPPT against the PV array model.

    Each step measures ``I = array_current(V_ref)`` and applies the
    chosen update law.  A step whose current solve fails
    (``PvSolverError``) records ``I = 0`` and the run goes on.

    Parameters
    ----------
    ap : PvArrayParams
    algo : "po" | "ic"
    st0 : MpptState
    steps : int, >= 1
    irradiance : sequence of ``steps`` floats, optional
        Per-step irradiance in W/m2: step k measures on
        ``ap.at_irradiance(irradiance[k])``.  Without it every step
        measures on ``ap`` as given.
    measure : callable, optional
        Replacement for the array model: ``measure(v) -> i``.  Used by
        tests to climb synthetic power curves.

    Returns
    -------
    MpptRun
    """
    if steps < 1:
        raise ValueError("need at least one step")
    step_fn = {"po": po_step, "ic": ic_step}[algo]
    if irradiance is not None:
        irradiance = np.broadcast_to(irradiance, (steps,)).tolist()
    v_ref = np.empty(steps)
    cur = np.empty(steps)
    st = st0
    for k in range(steps):
        v = st.V_ref
        try:
            if measure is not None:
                i = measure(v)
            elif irradiance is None:
                i = pv.array_current(ap, v)
            else:
                i = pv.array_current(ap.at_irradiance(irradiance[k]), v)
        except pv.PvSolverError:
            i = 0.0
        st = step_fn(st, v, i)
        v_ref[k] = v
        cur[k] = i
    return MpptRun(v_ref, cur, st)
