"""
Maximum-power-point tracking update laws and the converter duty.

Both hill-climbing laws are pure step functions (state in, state out):
Perturb-and-Observe moves the voltage reference by one fixed step in the
direction that last increased power, Incremental-Conductance compares
dI/dV against -I/V and holds exactly at the equality.  Each law's move
is written once, branch-free, on floats or arrays: the step functions
and the scalar steps of :func:`mppt_run`, the one closed MPPT loop, run
it on floats, and the loop's blocks run it on arrays.

The walk only ever moves ``V_ref`` by ``+-dV_step`` or holds it, and its
moves soon repeat with period 4: a hold, the P&O limit cycle V*, V*+d,
V*, V*-d, or a monotone IC drift.  :func:`mppt_run` runs the law on the
schedule of ``blocks.run``, whose repeat test reads the moves.  A float
step is one scalar solve, set up once per run (``pv.array_solve``).  A
block repeats the last 4 moves from ``V_ref``, solves each predicted
voltage at once with ``pv.array_current_lanes``, and runs the move
kernel over the block as arrays, with the same IEEE operations: every
current and decision is the scalar loop's, bit for bit.

A monotone rise repeats its move too, and 128 steps of +0.5 V would
predict 64 V above the start, far past V_oc, where the walk turns back
and lanes need more iterations (uncut, perfbench's seed-1 ``clouds``
harvest solves 228 k lanes in 1 360 iterations, not 183 k in 1 132).
A block therefore ends before its first voltage above ``max(V_ref,
V_oc)``, V_oc at its brightest irradiance.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import blocks, pv
from .ranges import check

# the first block's size (``blocks.run``)
_BLOCK_MIN = 128

D_MAX = 0.95          # largest duty the converter is driven at
IC_REL_TOL = 1e-6     # relative tolerance of the IC law's hold test


def duty_for_ratio(v_in, v_out):
    """The duty ``1 - v_out/v_in``, clamped to [0, D_MAX]; 0 where
    v_in <= 0.  ``v_in`` is a float or an array.

    This is one minus the buck duty ``v_out/v_in``; it is not the boost
    law ``1 - v_in/v_out``.  Which converter law the 12 V bus implies is
    an open decision (ROADMAP item 2), so the formula stays as it is."""
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
        check("mppt_dv_step", self.dV_step, ValueError)
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")


def initial_state(v_ref, dv_step=0.5):
    return MpptState(V_prev=v_ref, I_prev=0.0, P_prev=0.0,
                     V_ref=v_ref, dV_step=dv_step)


def _po_move(dv_step, v_prev, p_prev, v_now, p_now):
    """P&O reference move, on floats or arrays: up when the power and
    voltage changes share a sign, down when they differ, none when the
    power did not change."""
    dp = p_now - p_prev
    return (dp != 0.0) * (2 * (dp * (v_now - v_prev) > 0.0) - 1) * dv_step


def _ic_move(dv_step, v_prev, i_prev, v_now, i_now, ops):
    """
    IC reference move (see :func:`ic_step`) and whether the conductance
    is undefined (a voltage change onto 0 V), on floats with
    ``blocks.FLOATS`` or on arrays with ``blocks.ARRAYS`` (numpy's
    errors off).
    """
    dv = v_now - v_prev
    di = i_now - i_prev
    inc = ops.divide(di, dv)
    ref = ops.divide(-i_now, v_now)
    hold = abs(inc - ref) <= IC_REL_TOL * ops.maximum(
        ops.maximum(abs(inc), abs(ref)), 1e-12)
    steer = 1 * (di > 0.0) - (di < 0.0)
    climb = (v_now != 0.0) * (1 - hold) * (2 * (inc > ref) - 1)
    move = ((dv == 0.0) * steer + (dv != 0.0) * climb) * dv_step
    return move, (dv != 0.0) & (v_now == 0.0)


def _flag(undefined):
    return "conductance-undefined" if undefined else ""


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
    move, undefined = _ic_move(st.dV_step, st.V_prev, st.I_prev, v_now,
                               i_now, blocks.FLOATS)
    return MpptState(v_now, i_now, v_now * i_now, st.V_ref + move,
                     st.dV_step, st.iteration + 1, _flag(undefined))


@dataclass(frozen=True)
class MpptRun:
    """Per-step columns of :func:`mppt_run` and its final state."""

    v_ref: np.ndarray   # voltage reference each step operated at
    i: np.ndarray       # current measured there
    final: MpptState

    @property
    def p(self):
        return self.v_ref * self.i


def mppt_run(ap, algo, st0, steps, irradiance):
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
        (a float is broadcast)

    Returns
    -------
    MpptRun
    """
    if steps < 1:
        raise ValueError("need at least one step")
    ic = {"po": False, "ic": True}[algo]
    g = np.broadcast_to(np.asarray(irradiance, dtype=float), (steps,))
    v_ref, cur = np.empty(steps), np.empty(steps)
    solve = pv.array_solve(ap)
    dv_step = st0.dV_step
    v_prev, i_prev, p_prev = st0.V_prev, st0.I_prev, st0.P_prev
    v, flag = st0.V_ref, ""

    def step(k):
        nonlocal v_prev, i_prev, p_prev, v, flag
        i = _or_zero(pv.array_current_at, solve, v, g.item(k))
        p_now = v * i
        if ic:
            move, undefined = _ic_move(dv_step, v_prev, i_prev, v, i,
                                       blocks.FLOATS)
            flag = _flag(undefined)
        else:
            move = _po_move(dv_step, v_prev, p_prev, v, p_now)
        v_ref[k], cur[k] = v, i
        v_prev, i_prev, p_prev = v, i, p_now
        v = v + move
        return move

    def block(k, n, cycle):
        nonlocal v_prev, i_prev, p_prev, v, flag
        vs = np.add.accumulate(np.concatenate(
            ([v], np.array(cycle)[blocks.PHASE[:n]])))
        # end before the first voltage past the bound (module docstring)
        past = np.flatnonzero(vs[1:n] > _voc_bound(ap, v, g[k:k + n]))
        if past.size:
            if not past[0]:
                return 0, False, []
            n = int(past[0]) + 1
            vs = vs[:n + 1]
        i = _currents(ap, solve, vs[:n], g[k:k + n])
        before = np.concatenate(([v_prev], vs[:n - 1]))
        with np.errstate(all="ignore"):
            if ic:
                move, undefined = _ic_move(
                    dv_step, before, np.concatenate(([i_prev], i[:-1])),
                    vs[:n], i, blocks.ARRAYS)
            else:
                p = vs[:n] * i
                move = _po_move(dv_step, before, np.concatenate(
                    ([p_prev], p[:-1])), vs[:n], p)
                undefined = np.zeros(n, dtype=bool)
        after = vs[:n] + move
        miss = np.flatnonzero(after.view(np.int64) != vs[1:].view(np.int64))
        c = int(miss[0]) + 1 if miss.size else n
        v_ref[k:k + c], cur[k:k + c] = vs[:c], i[:c]
        v_prev, i_prev, v = vs.item(c - 1), i.item(c - 1), after.item(c - 1)
        p_prev = v_prev * i_prev
        flag = _flag(undefined[c - 1])
        return c, bool(miss.size), move[:c][-8:].tolist()

    blocks.run(steps, _BLOCK_MIN, step, block)
    final = MpptState(v_prev, i_prev, p_prev, v, dv_step,
                      st0.iteration + steps, flag)
    return MpptRun(v_ref, cur, final)


def _or_zero(current, *args):
    """``current(*args)``, with a failed solve as 0 A."""
    try:
        return current(*args)
    except pv.PvSolverError:
        return 0.0


def _voc_bound(ap, v, g):
    """The highest voltage a block may predict from ``V_ref = v`` over
    the irradiances ``g`` (module docstring): v, or the open-circuit
    voltage at the brightest finite irradiance of ``g`` if higher.  A
    NaN, infinite or negative irradiance is left to its own step, which
    raises the scalar loop's error."""
    g_top = np.fmax.reduce(g, initial=0.0, where=np.isfinite(g))
    return max(v, pv.open_circuit_voltage(ap.at_irradiance(float(g_top))))


def _currents(ap, solve, v, g):
    """Currents at the voltages v over the irradiances g, lane by lane;
    lanes the lane solve leaves open take the scalar path (``solve`` is
    ``pv.array_solve(ap)``)."""
    cur, left_open = pv.array_current_lanes(ap, v, g)
    for j in left_open.tolist():
        cur[j] = _or_zero(pv.array_current_at, solve, v.item(j), g.item(j))
    return cur
