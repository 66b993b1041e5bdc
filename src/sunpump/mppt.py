"""
Maximum-power-point tracking update laws and the converter duty.

Both hill-climbing laws are pure step functions (state in, state out):
Perturb-and-Observe moves the voltage reference by one fixed step in the
direction that last increased power, Incremental-Conductance compares
dI/dV against -I/V and holds exactly at the equality.  The move
decisions are plain-float helpers shared by the step functions and by
the walk of :func:`mppt_run`, the one closed MPPT loop.

The walk only ever moves ``V_ref`` by ``+-dV_step`` or holds it, so it
revisits few voltages.  ``mppt_run`` keeps a table per exact ``V_ref``:
a voltage's first visit is one scalar solve at that step's irradiance,
and each later visit that runs past its table solves the next block of
steps at that voltage at once with ``pv.array_current_lanes`` (8 steps,
doubling up to 4096).  Every current is the scalar solve's, bit for
bit.  A ``measure`` function given in place of the irradiance is called
on every step instead, with no table.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import pv

# steps a voltage's table covers on its second visit; each later
# re-tabulation doubles it, up to the maximum
_TABLE_MIN = 8
_TABLE_MAX = 4096

D_MAX = 0.95          # largest boost duty the converter is driven at
IC_REL_TOL = 1e-6     # relative tolerance of the IC law's hold test


def duty_for_ratio(v_in, v_out):
    """Boost-law duty ``1 - v_out/v_in``, clamped to [0, D_MAX]; 0 where
    v_in <= 0.  ``v_in`` is a float or an array."""
    v = np.asarray(v_in, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(v <= 0.0, 0.0, np.clip(1.0 - v_out / v, 0.0, D_MAX))
    return d if d.ndim else float(d)


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
        if not all(map(math.isfinite, (self.V_prev, self.I_prev, self.P_prev,
                                       self.V_ref))):
            raise ValueError("operating point and reference must be finite")
        if not 0.0 < self.dV_step < math.inf:
            raise ValueError("perturbation step must be finite and > 0")
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")


def initial_state(v_ref, dv_step=0.5):
    return MpptState(V_prev=v_ref, I_prev=0.0, P_prev=0.0,
                     V_ref=v_ref, dV_step=dv_step)


def _po_move(dv_step, v_prev, p_prev, v_now, p_now):
    """P&O reference move: up when the power and voltage changes share a
    sign, down when they differ, none when the power did not change."""
    dp = p_now - p_prev
    if dp == 0.0:
        return 0.0
    return dv_step if dp * (v_now - v_prev) > 0.0 else -dv_step


def _ic_move(dv_step, v_prev, i_prev, v_now, i_now):
    """IC reference move and flag (see :func:`ic_step`)."""
    dv = v_now - v_prev
    di = i_now - i_prev
    if dv == 0.0:
        if di > 0.0:
            return dv_step, ""
        if di < 0.0:
            return -dv_step, ""
        return 0.0, ""
    if v_now == 0.0:
        return 0.0, "conductance-undefined"
    inc = di / dv
    ref = -i_now / v_now
    scale = max(abs(inc), abs(ref), 1e-12)
    if abs(inc - ref) <= IC_REL_TOL * scale:
        return 0.0, ""
    return (dv_step if inc > ref else -dv_step), ""


def po_step(st, v_now, i_now):
    """
    One Perturb-and-Observe update.

    The standard law: move the reference up when the last power change
    and voltage change share a sign, down when they differ, hold when
    power did not change.
    """
    p_now = v_now * i_now
    move = _po_move(st.dV_step, st.V_prev, st.P_prev, v_now, p_now)
    return MpptState(v_now, i_now, p_now, st.V_ref + move, st.dV_step,
                     st.iteration + 1, "")


def ic_step(st, v_now, i_now):
    """
    One Incremental-Conductance update.

    Branches: with no voltage change the current change alone steers the
    move; otherwise dI/dV is compared against -I/V and the reference
    holds at equality (tested with relative tolerance ``IC_REL_TOL``).
    """
    move, flag = _ic_move(st.dV_step, st.V_prev, st.I_prev, v_now, i_now)
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

    Step k measures ``I = array_current(ap.at_irradiance(irradiance[k]),
    V_ref)`` (module docstring) and applies the chosen update law.  A
    step whose current solve fails records ``I = 0`` and the run goes on.

    Parameters
    ----------
    ap : PvArrayParams
    algo : "po" | "ic"
    st0 : MpptState
    steps : int, >= 1
    irradiance : float or sequence of ``steps`` floats, W/m2
        (a float is broadcast); required unless ``measure`` is given
    measure : callable, optional
        ``measure(v) -> i`` in place of the array model, called once per
        step; tests climb synthetic power curves with it.

    Returns
    -------
    MpptRun
    """
    if steps < 1:
        raise ValueError("need at least one step")
    ic = {"po": False, "ic": True}[algo]
    # V_ref -> [first step of its table, currents from there, next length]
    tables = {}
    # miss(k, v, t): step k's current at v where v's table t (None before
    # v's first visit) does not reach step k
    if measure is not None:
        def miss(k, v, t):
            return _or_zero(measure, v)
    elif irradiance is None:
        raise ValueError("need the irradiance or a measure function")
    else:
        g = np.broadcast_to(np.asarray(irradiance, dtype=float), (steps,))

        def miss(k, v, t):
            if t is None:
                tables[v] = [k, (), _TABLE_MIN]
                return _or_zero(pv.array_current,
                                ap.at_irradiance(g.item(k)), v)
            m = t[2]
            t[:] = [k, _tabulate(ap, v, g[k:k + m]), min(2 * m, _TABLE_MAX)]
            return t[1][0]
    v_ref = np.empty(steps)
    cur = np.empty(steps)
    dv_step = st0.dV_step
    v_prev, i_prev, p_prev = st0.V_prev, st0.I_prev, st0.P_prev
    v, flag = st0.V_ref, ""
    for k in range(steps):
        t = tables.get(v)
        if t is not None and k - t[0] < len(t[1]):
            i = t[1][k - t[0]]
        else:
            i = miss(k, v, t)
        p_now = v * i
        if ic:
            move, flag = _ic_move(dv_step, v_prev, i_prev, v, i)
        else:
            move = _po_move(dv_step, v_prev, p_prev, v, p_now)
        v_ref[k] = v
        cur[k] = i
        v_prev, i_prev, p_prev = v, i, p_now
        v = v + move
    final = MpptState(v_prev, i_prev, p_prev, v, dv_step,
                      st0.iteration + steps, flag)
    return MpptRun(v_ref, cur, final)


def _or_zero(current, *args):
    """``current(*args)``, with a failed solve as 0 A."""
    try:
        return current(*args)
    except pv.PvSolverError:
        return 0.0


def _tabulate(ap, v, g):
    """Currents at voltage v over the irradiances g, as a list; lanes the
    lane solve leaves open take the scalar path."""
    cur, left_open = pv.array_current_lanes(ap, v, g)
    for j in left_open.tolist():
        cur[j] = _or_zero(pv.array_current, ap.at_irradiance(g.item(j)), v)
    return cur.tolist()
