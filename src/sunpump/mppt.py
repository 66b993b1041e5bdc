"""
Maximum-power-point tracking update laws and the converter duty.

Both hill-climbing laws are pure step functions (state in, state out):
Perturb-and-Observe moves the voltage reference by one fixed step in the
direction that last increased power, Incremental-Conductance compares
dI/dV against -I/V and holds exactly at the equality.  Each law's move
is written once, branch-free, on floats or arrays: the step functions
and the scalar steps of :func:`mppt_run`, the one closed MPPT loop, run
it on floats, and the loop's blocks run it on arrays.

The walk only ever moves ``V_ref`` by ``+-dV_step`` or holds it, and it
soon falls into a pattern whose moves repeat with period 4: a hold, the
P&O limit cycle V*, V*+d, V*, V*-d, or a monotone IC drift.
``mppt_run`` steps the law one scalar solve at a time until its last 8
moves repeat with period 4.  Then it predicts a block of voltages by
repeating the last 4 moves from the current ``V_ref``, solves each step
at its own predicted voltage at once with ``pv.array_current_lanes``,
and runs the same move kernel over the block on arrays, with the same
IEEE operations.  The block is kept up to and including the first
step whose next voltage leaves the prediction, and the walk goes back
to scalar steps from there; a block that checks out doubles the next
one (8 steps, up to 4096).  Every current and every decision is the
scalar loop's, bit for bit.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import pv

# steps in the first block after scalar steps; each block that checks
# out doubles the next, up to the maximum
_BLOCK_MIN = 8
_BLOCK_MAX = 4096

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
    """P&O reference move, on floats or arrays: up when the power and
    voltage changes share a sign, down when they differ, none when the
    power did not change."""
    dp = p_now - p_prev
    return (dp != 0.0) * (2 * (dp * (v_now - v_prev) > 0.0) - 1) * dv_step


def _ic_move(dv_step, v_prev, i_prev, v_now, i_now, maximum, divide):
    """
    IC reference move (see :func:`ic_step`) and whether the conductance
    is undefined (a voltage change onto 0 V), on floats or arrays.

    ``maximum`` and ``divide`` are ``max`` and :func:`_divide` on floats,
    or ``np.maximum`` and ``np.divide`` (numpy's errors off) on arrays.
    A quotient over a zero divisor only feeds a branch the law does not
    take, and a NaN fails every test, so both forms decide alike.
    """
    dv = v_now - v_prev
    di = i_now - i_prev
    inc = divide(di, dv)
    ref = divide(-i_now, v_now)
    hold = abs(inc - ref) <= IC_REL_TOL * maximum(
        maximum(abs(inc), abs(ref)), 1e-12)
    steer = 1 * (di > 0.0) - (di < 0.0)
    climb = (v_now != 0.0) * (1 - hold) * (2 * (inc > ref) - 1)
    move = ((dv == 0.0) * steer + (dv != 0.0) * climb) * dv_step
    return move, (dv != 0.0) & (v_now == 0.0)


def _divide(a, b):
    """``a / b`` on floats, 0.0 where ``b`` is 0."""
    return a / b if b else 0.0


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
                               i_now, max, _divide)
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
    v_ref = np.empty(steps)
    cur = np.empty(steps)
    dv_step = st0.dV_step
    v_prev, i_prev, p_prev = st0.V_prev, st0.I_prev, st0.P_prev
    v, flag = st0.V_ref, ""
    moves = []          # the moves of the last 8 steps, oldest first
    size = _BLOCK_MIN
    k = 0
    while k < steps:
        if len(moves) == 8 and moves[:4] == moves[4:]:
            n = min(size, steps - k)
            vs = np.add.accumulate(np.concatenate(([v],
                                                   np.resize(moves[4:], n))))
            i = _currents(ap, vs[:n], g[k:k + n])
            before = np.concatenate(([v_prev], vs[:n - 1]))
            with np.errstate(all="ignore"):
                if ic:
                    move, undefined = _ic_move(
                        dv_step, before, np.concatenate(([i_prev], i[:-1])),
                        vs[:n], i, np.maximum, np.divide)
                else:
                    p = vs[:n] * i
                    move = _po_move(dv_step, before,
                                    np.concatenate(([p_prev], p[:-1])),
                                    vs[:n], p)
                    undefined = np.zeros(n, dtype=bool)
            after = vs[:n] + move
            miss = np.flatnonzero(after.view(np.int64)
                                  != vs[1:].view(np.int64))
            c = int(miss[0]) + 1 if miss.size else n
            v_ref[k:k + c] = vs[:c]
            cur[k:k + c] = i[:c]
            v_prev, i_prev, v = vs.item(c - 1), i.item(c - 1), \
                after.item(c - 1)
            p_prev = v_prev * i_prev
            flag = _flag(undefined[c - 1])
            moves = (moves + move[:c].tolist())[-8:]
            size = _BLOCK_MIN if miss.size else min(2 * size, _BLOCK_MAX)
            k += c
            continue
        i = _or_zero(pv.array_current, ap.at_irradiance(g.item(k)), v)
        p_now = v * i
        if ic:
            move, undefined = _ic_move(dv_step, v_prev, i_prev, v, i, max,
                                       _divide)
            flag = _flag(undefined)
        else:
            move = _po_move(dv_step, v_prev, p_prev, v, p_now)
        v_ref[k] = v
        cur[k] = i
        v_prev, i_prev, p_prev = v, i, p_now
        v = v + move
        moves = (moves + [move])[-8:]
        k += 1
    final = MpptState(v_prev, i_prev, p_prev, v, dv_step,
                      st0.iteration + steps, flag)
    return MpptRun(v_ref, cur, final)


def _or_zero(current, *args):
    """``current(*args)``, with a failed solve as 0 A."""
    try:
        return current(*args)
    except pv.PvSolverError:
        return 0.0


def _currents(ap, v, g):
    """Currents at the voltages v over the irradiances g, lane by lane;
    lanes the lane solve leaves open take the scalar path."""
    cur, left_open = pv.array_current_lanes(ap, v, g)
    for j in left_open.tolist():
        cur[j] = _or_zero(pv.array_current, ap.at_irradiance(g.item(j)),
                          v.item(j))
    return cur
