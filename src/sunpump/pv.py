"""
Double-diode photovoltaic cell and array model.

The cell current solves the implicit circuit equation

    I = I_ph - I_o1 (exp((V + I Rs)/Vt1) - 1)
             - I_o2 (exp((V + I Rs)/Vt2) - 1) - (V + I Rs)/Rp

with Vt_k = a_k * kB * T / q.  The array version scales voltages by the
series count and currents by the parallel count.  The current solve is
Newton's method, started right of the root (the mismatch is increasing
and convex in I, so the iterates descend onto it) and accepted at a
1e-12 A residual; when it does not get there, a bisection on a
sign-changing bracket takes over.  Either way the 1e-9 A residual
contract holds.  The open-circuit voltage needs no current solve: at
I = 0 the cell voltage solves an explicit equation (see
:func:`open_circuit_voltage`).

``array_current_lanes`` runs the same Newton over lanes that each pair
a voltage with an irradiance (or share one voltage), with the scalar
operations in the same order and ``math.exp`` on each lane, so every
settled lane is bit-identical to ``array_current(ap.at_irradiance(g),
v)``.  The MPPT harvest solves each step of a block at its own
predicted voltage with it.
"""

from dataclasses import dataclass
import math

import numpy as np

BOLTZMANN_J_PER_K = 1.381e-23
ELECTRON_CHARGE_C = 1.602e-19

# Saturation-current temperature law (cubed-power diode model), silicon gap.
# The reference temperature matches the default cell temperature so the
# model reduces to the plain two-diode equation there.
BANDGAP_SILICON_EV = 1.12
T_REFERENCE_K = 298.0
_BOLTZMANN_EV_PER_K = 8.617333262e-5

# Coldest cell the model supports.  The saturation law scales I_o by
# about e^-222 at 50 K, so the default array's open-circuit exponent
# ln(I_ph / I_o1) is 247 there, far below the 700 cap of the current
# solve; it reaches the cap near 18.3 K, and near 17 K I_o underflows.
T_C_MIN_K = 50.0


class PvSolverError(RuntimeError):
    """Implicit current solve failed to bracket or converge."""


def thermal_voltage(a, t_c):
    """Diode thermal voltage ``a * kB * T / q`` in volts."""
    if a <= 0 or t_c < 0:
        raise ValueError("ideality factor must be > 0 and temperature >= 0")
    return a * BOLTZMANN_J_PER_K * t_c / ELECTRON_CHARGE_C


@dataclass(frozen=True)
class PvCellParams:
    """Double-diode cell parameters (photocurrent at the given irradiance)."""

    I_ph: float
    I_o1: float
    I_o2: float
    R_s: float
    R_p: float
    a1: float
    a2: float
    T_c: float

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("cell parameters must be finite")
        if self.I_ph < 0:
            raise ValueError("photocurrent must be >= 0")
        if self.I_o1 <= 0 or self.I_o2 <= 0:
            raise ValueError("saturation currents must be > 0")
        if self.R_s < 0 or self.R_p <= 0:
            raise ValueError("R_s must be >= 0 and R_p > 0")
        if not (0.5 <= self.a1 <= 3.0 and 0.5 <= self.a2 <= 3.0):
            raise ValueError("ideality factors must lie in [0.5, 3]")
        if not self.T_c >= T_C_MIN_K:
            raise ValueError(
                f"cell temperature T_c = {self.T_c:g} K is outside the "
                f"range the model supports, T_c >= {T_C_MIN_K:g} K")


@dataclass(frozen=True)
class PvArrayParams:
    """A cell replicated N_s in series and N_p in parallel."""

    cell: PvCellParams
    N_s: int = 1
    N_p: int = 1
    area_A: float = 1.0
    irradiance_G_T: float = 1000.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.N_s, self.N_p, self.area_A,
                                       self.irradiance_G_T))):
            raise ValueError("array parameters must be finite")
        if self.N_s < 1 or self.N_p < 1:
            raise ValueError("module counts must be >= 1")
        if int(self.N_s) != self.N_s or int(self.N_p) != self.N_p:
            raise ValueError("module counts must be integers")
        if self.area_A <= 0:
            raise ValueError("array area must be > 0")
        if self.irradiance_G_T < 0:
            raise ValueError("irradiance must be >= 0")

    def photocurrent(self, g_t):
        """Cell photocurrent scaled linearly to irradiance ``g_t`` (a float
        or an array)."""
        c = self.cell
        scale_old = self.irradiance_G_T / 1000.0
        i_ph_stc = c.I_ph / scale_old if scale_old > 0 else c.I_ph
        return i_ph_stc * g_t / 1000.0

    def at_irradiance(self, g_t):
        """Same array with photocurrent scaled linearly to irradiance."""
        c = self.cell
        cell = PvCellParams(self.photocurrent(g_t), c.I_o1, c.I_o2, c.R_s,
                            c.R_p, c.a1, c.a2, c.T_c)
        return PvArrayParams(cell, self.N_s, self.N_p, self.area_A, g_t)


def default_array(g_t=1000.0, t_c=T_REFERENCE_K):
    """
    Illustrative default array (not ground truth from any datasheet):
    I_ph 8 A at 1000 W/m2, I_o1 1e-10 A, I_o2 1e-6 A, R_s 0.01, R_p 100,
    a1 1, a2 2, 36 series cells, 0.5 m2.
    """
    cell = PvCellParams(I_ph=8.0 * g_t / 1000.0, I_o1=1e-10, I_o2=1e-6,
                        R_s=0.01, R_p=100.0, a1=1.0, a2=2.0, T_c=t_c)
    return PvArrayParams(cell=cell, N_s=36, N_p=1, area_A=0.5,
                         irradiance_G_T=g_t)


def _saturation_at_temperature(i_o_ref, t_c):
    """Cubed-power-law diode saturation current at cell temperature."""
    if t_c == T_REFERENCE_K:
        return i_o_ref
    expo = (BANDGAP_SILICON_EV / _BOLTZMANN_EV_PER_K) * (
        1.0 / T_REFERENCE_K - 1.0 / t_c)
    return i_o_ref * (t_c / T_REFERENCE_K) ** 3 * math.exp(min(expo, 700.0))


def _exp_lanes(x):
    """``math.exp`` of each element (``np.exp`` differs from it in the
    last bit on some arguments)."""
    return np.fromiter(map(math.exp, x.tolist()), float, len(x))


def _array_mismatch(p, n_s, n_p, v, i_ph=None):
    """
    The mismatch f(I) = I - RHS(I) at array voltage ``v`` and its slope,
    as one function ``I -> (f, df/dI)`` with the thermal voltages and
    saturation currents computed once.  f is strictly increasing and
    convex in I and zero at the solution.  The exponents are capped at
    700 so that f stays finite on any bracket.

    ``i_ph``, an array of cell photocurrents in place of ``p.I_ph``,
    makes the function act on arrays of currents, one lane per
    photocurrent, with the same operations in the same order; ``v`` may
    then be an array too, one voltage per lane.  The function then takes
    an optional second argument, the indices of the lanes its currents
    belong to (all lanes by default).
    """
    if i_ph is None:
        i_ph, exp, cap = p.I_ph, math.exp, min
    else:
        exp, cap = _exp_lanes, np.minimum
    vt1 = thermal_voltage(p.a1, p.T_c)
    vt2 = thermal_voltage(p.a2, p.T_c)
    io1 = _saturation_at_temperature(p.I_o1, p.T_c)
    io2 = _saturation_at_temperature(p.I_o2, p.T_c)
    v_cell = v / n_s
    r_s = p.R_s
    du_di = r_s / n_p
    i_ph = n_p * i_ph
    k1, k2, g_p = n_p * io1, n_p * io2, n_p / p.R_p

    def f_df(i, lanes=None):
        vc, iph = (v_cell, i_ph) if lanes is None else \
            (v_cell[lanes], i_ph[lanes])
        u = vc + i * r_s / n_p
        e1 = exp(cap(u / vt1, 700.0))
        e2 = exp(cap(u / vt2, 700.0))
        f = i - (iph - k1 * (e1 - 1.0) - k2 * (e2 - 1.0) - g_p * u)
        return f, 1.0 + du_di * (k1 * e1 / vt1 + k2 * e2 / vt2 + g_p)
    return f_df


# Newton acceptance: |f| at or below this, in amperes, within this many
# iterations; otherwise the bracketing fallback runs.  The descent from
# the right is monotone, so the budget only decides how far right of the
# root a start may lie: 200 settles every start up to R_s = 0.3 ohm on a
# cold (275 K) array.
_NEWTON_TOL_A = 1e-12
_NEWTON_MAX_ITER = 200


def _solve_current(p, n_s, n_p, v):
    f_df = _array_mismatch(p, n_s, n_p, v)
    if p.R_s == 0.0:
        # current appears only through I*Rs; the equation is explicit
        return -f_df(0.0)[0]
    # Newton from the right of the root: f is increasing and convex, so
    # the iterates descend onto the root without overshooting it; the
    # step from the accepted iterate is taken too, as it is free
    i = n_p * p.I_ph + 1.0
    for _ in range(_NEWTON_MAX_ITER):
        f, df = f_df(i)
        i -= f / df
        if abs(f) <= _NEWTON_TOL_A:
            return i
    return _solve_current_bracketed(f_df, p, n_p, v)


def _solve_current_bracketed(f_df, p, n_p, v):
    """Fallback: bisection on a sign-changing bracket down to adjacent
    floats, 1e-9 A residual.  A NaN mismatch fails the sign test."""
    f = lambda i: f_df(i)[0]
    hi = n_p * p.I_ph + 1.0
    lo = -(n_p * p.I_ph + abs(v) / p.R_p + 10.0)
    if not f(lo) <= 0.0 <= f(hi):
        lo, hi = lo * 10 - 10, hi * 10 + 10   # widen once
        if not f(lo) <= 0.0 <= f(hi):
            raise PvSolverError(
                f"no sign change bracketing the current at V={v}")
    for _ in range(200):   # f(lo) <= 0 <= f(hi) throughout
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    i = lo if -f(lo) <= f(hi) else hi
    if abs(f(i)) > 1e-9:
        raise PvSolverError(f"residual {f(i):.2e} A exceeds contract at V={v}")
    return i


def array_current(ap, v_a):
    """Array output current solving the implicit double-diode equation;
    a 1x1 array gives the cell current."""
    return _solve_current(ap.cell, ap.N_s, ap.N_p, v_a)


def array_current_lanes(ap, v_a, g_t):
    """
    Array currents over lanes of voltages and irradiances: lane j is
    ``array_current(ap.at_irradiance(g_t[j]), v_a[j])``, bit for bit,
    for every lane the Newton iteration settles.  A float ``v_a`` is
    the voltage of every lane.

    Returns
    -------
    (currents, open): ``open`` holds the indices of the lanes left to
    the scalar path, whose currents are NaN here: lanes still unsettled
    after the Newton iterations, and lanes whose photocurrent is
    negative (``at_irradiance`` rejects it) or NaN.
    """
    p, n_s, n_p = ap.cell, ap.N_s, ap.N_p
    i_ph = ap.photocurrent(np.asarray(g_t, dtype=float))
    v, i_ph = np.broadcast_arrays(np.asarray(v_a, dtype=float), i_ph)
    out = np.full(i_ph.shape, np.nan)
    ok = i_ph >= 0.0
    lanes = np.flatnonzero(ok)
    with np.errstate(all="ignore"):
        f_df = _array_mismatch(p, n_s, n_p, v[lanes], i_ph[lanes])
        if p.R_s == 0.0:
            out[lanes] = -f_df(np.zeros(lanes.size))[0]
            return out, np.flatnonzero(~ok)
        # the lanes still iterating, as indices into ``lanes``
        left = np.arange(lanes.size)
        i = n_p * i_ph[lanes] + 1.0
        for _ in range(_NEWTON_MAX_ITER):
            if left.size == 0:
                break
            f, df = f_df(i, left)
            i = i - f / df
            done = np.abs(f) <= _NEWTON_TOL_A
            out[lanes[left[done]]] = i[done]
            left, i = left[~done], i[~done]
    return out, np.sort(np.concatenate([np.flatnonzero(~ok), lanes[left]]))


def open_circuit_voltage(ap):
    """
    Array open-circuit voltage ``N_s u``.  At I = 0 the I Rs term drops
    out and the cell voltage u solves the explicit equation

        h(u) = I_o1 (exp(u/Vt1) - 1) + I_o2 (exp(u/Vt2) - 1) + u/Rp - I_ph,

    increasing and convex in u.  Newton starts where one diode alone
    carries I_ph, right of the root, and descends onto it; the first
    iterate that does not descend is returned.
    """
    p = ap.cell
    if p.I_ph <= 0:
        return 0.0
    io1 = _saturation_at_temperature(p.I_o1, p.T_c)
    io2 = _saturation_at_temperature(p.I_o2, p.T_c)
    vt1 = thermal_voltage(p.a1, p.T_c)
    vt2 = thermal_voltage(p.a2, p.T_c)
    u = min(vt1 * math.log(p.I_ph / io1 + 1.0),
            vt2 * math.log(p.I_ph / io2 + 1.0))
    if math.isinf(u):   # I_ph / io overflowed: a cell far below 20 K
        raise PvSolverError("no finite start for the open-circuit voltage")
    for _ in range(_NEWTON_MAX_ITER):
        e1 = math.exp(u / vt1)
        e2 = math.exp(u / vt2)
        h = io1 * (e1 - 1.0) + io2 * (e2 - 1.0) + u / p.R_p - p.I_ph
        step = u - h / (io1 * e1 / vt1 + io2 * e2 / vt2 + 1.0 / p.R_p)
        if not step < u:
            return ap.N_s * u
        u = step
    raise PvSolverError("open-circuit voltage did not converge")


@dataclass(frozen=True)
class IvCurve:
    """Sampled I-V and P-V characteristic."""

    voltages: np.ndarray
    currents: np.ndarray
    powers: np.ndarray
    skipped: tuple = ()   # grid indices where the solver failed


def iv_curve(ap, v_grid):
    """Pointwise array currents and powers over an ascending voltage grid."""
    v_grid = np.asarray(v_grid, dtype=float)
    if np.any(np.diff(v_grid) <= 0):
        raise ValueError("voltage grid must be ascending")
    volts, amps, skipped = [], [], []
    for idx, v in enumerate(v_grid):
        try:
            amps.append(array_current(ap, v))
            volts.append(v)
        except PvSolverError:
            skipped.append(idx)
    volts = np.asarray(volts)
    amps = np.asarray(amps)
    return IvCurve(volts, amps, volts * amps, tuple(skipped))


@dataclass(frozen=True)
class MppResult:
    V_mpp: float
    I_mpp: float
    P_mpp: float
    unimodal: bool = True


_MPP_TOL_V = 1e-4    # MPP search stops at this bracket width, V


def find_mpp(ap):
    """
    Maximum power point by golden-section search on P(V) over [0, Voc].

    A coarse scan first checks unimodality; if several local maxima show
    up the global scan maximum is returned with ``unimodal=False``.
    """
    voc = open_circuit_voltage(ap)
    if voc <= 0:
        return MppResult(0.0, 0.0, 0.0)

    def power(v):
        return v * array_current(ap, v)

    scan_v = np.linspace(0.0, voc, 201)
    scan_p = np.array([power(v) for v in scan_v])
    interior = scan_p[1:-1]
    peaks = np.sum((interior > scan_p[:-2]) & (interior >= scan_p[2:]))
    if peaks > 1:
        k = int(np.argmax(scan_p))
        return MppResult(scan_v[k], scan_p[k] / max(scan_v[k], 1e-12),
                         scan_p[k], unimodal=False)

    k = int(np.argmax(scan_p))
    lo = scan_v[max(k - 1, 0)]
    hi = scan_v[min(k + 1, len(scan_v) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = power(c), power(d)
    while (b - a) > _MPP_TOL_V:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = power(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = power(d)
    v = 0.5 * (a + b)
    i = array_current(ap, v)
    return MppResult(v, i, v * i)
