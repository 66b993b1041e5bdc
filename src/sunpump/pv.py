"""
Double-diode photovoltaic cell and array model.

The cell current solves the implicit circuit equation

    I = I_ph - I_o1 (exp((V + I Rs)/Vt1) - 1)
             - I_o2 (exp((V + I Rs)/Vt2) - 1) - (V + I Rs)/Rp

with Vt_k = a_k * kB * T / q.  The array version scales voltages by the
series count and currents by the parallel count.  The current solve is
Newton's method from I_ph + 1 or a closed-form start right of the root
(the mismatch is increasing and convex in I, so the iterates descend
onto it), stopped at a 1e-12 A residual or where rounding stops the
descent: within 1e-9 A of the root (at 1e4 V, -27 692 A, the residual
is 1.2e-8 A).  The open-circuit voltage needs no current solve: at
I = 0 the cell voltage solves an explicit equation.

The thermal voltages and saturation currents depend on the cell and its
temperature only, so they are computed once per cell
(:func:`_diode_constants`).  Everything else the solve needs of the
array alone is set up once by :func:`array_solve`; the MPPT harvest
does that once per run and then hands each step only its voltage and
irradiance (:func:`array_current_at`, which builds no array).
``array_current_lanes`` runs the same Newton over lanes that each pair
a voltage with an irradiance (or share one voltage), on the same
mismatch with the same operations in the same order and numpy's exp
and log on floats and lanes alike (a float gets the bits it gets in any
array), so every lane is bit-identical to
``array_current(ap.at_irradiance(g), v)``.  The harvest solves each
step of a block at its own predicted voltage with it.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from . import ranges

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
    """A PV solve did not settle, or its exponent reached the cap."""


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
        if self.irradiance_G_T == 0 and self.cell.I_ph > 0:
            raise ValueError(f"a cell carrying I_ph = {self.cell.I_ph:g} A "
                             f"at irradiance_G_T = 0 is not dark")

    def photocurrent(self, g_t):
        """Cell photocurrent scaled linearly to irradiance ``g_t`` (a float
        or an array); a dark array has no photocurrent to scale."""
        if self.irradiance_G_T == 0:
            raise ValueError("a dark array (irradiance_G_T = 0) cannot be "
                             "lit again: build it at a nonzero irradiance")
        i_ph_stc = self.cell.I_ph / (self.irradiance_G_T / 1000.0)
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
    ranges.check("irradiance", g_t, ValueError)
    cell = PvCellParams(I_ph=8.0 * g_t / 1000.0, I_o1=1e-10, I_o2=1e-6,
                        R_s=0.01, R_p=100.0, a1=1.0, a2=2.0, T_c=t_c)
    return PvArrayParams(cell=cell, N_s=36, N_p=1, area_A=0.5,
                         irradiance_G_T=g_t)


def _saturation_at_temperature(i_o_ref, t_c):
    """Cubed-power-law diode saturation current at cell temperature (the
    exponent is below E_g / (k T_ref) = 43.6; at T_ref it is 0)."""
    expo = (BANDGAP_SILICON_EV / _BOLTZMANN_EV_PER_K) * (
        1.0 / T_REFERENCE_K - 1.0 / t_c)
    return i_o_ref * (t_c / T_REFERENCE_K) ** 3 * math.exp(expo)


@functools.lru_cache(maxsize=64)
def _diode_constants(a1, a2, t_c, i_o1, i_o2):
    """The thermal voltages and temperature-scaled saturation currents
    ``(Vt1, Vt2, I_o1(T), I_o2(T))`` of a cell; they do not depend on
    the irradiance, so a harvest computes them once."""
    return (thermal_voltage(a1, t_c), thermal_voltage(a2, t_c),
            _saturation_at_temperature(i_o1, t_c),
            _saturation_at_temperature(i_o2, t_c))


def array_solve(ap):
    """
    The part of the current solve that depends on the array alone, set
    up once and handed to :func:`array_current_at` for every voltage and
    irradiance: the tuple ``(ap, N_s, N_p, R_s, R_p, Vt1, Vt2,
    N_p I_o1(T), N_p I_o2(T), N_p / R_p, R_s / N_p)``.
    """
    p, n_p = ap.cell, ap.N_p
    vt1, vt2, io1, io2 = _diode_constants(p.a1, p.a2, p.T_c, p.I_o1, p.I_o2)
    return (ap, ap.N_s, n_p, p.R_s, p.R_p, vt1, vt2, n_p * io1, n_p * io2,
            n_p / p.R_p, p.R_s / n_p)


def _mismatch(s, v_cell, i_ph, i, exp):
    """
    The mismatch f(I) = I - RHS(I) of the array set up by
    :func:`array_solve`, at cell voltage ``v_cell`` and array
    photocurrent ``i_ph`` (N_p I_ph), and its slope df/dI.  f is
    strictly increasing and convex in I and zero at the solution.

    ``exp`` is :func:`_capped_exp` on floats or :func:`_capped_exp_lanes`
    on arrays of lanes (one voltage, photocurrent and current per lane):
    numpy's exp either way, with the same operations in the same order.
    """
    _, _, n_p, r_s, _, vt1, vt2, k1, k2, g_p, du_di = s
    u = v_cell + i * r_s / n_p
    e1 = exp(u / vt1)
    e2 = exp(u / vt2)
    f = i - (i_ph - k1 * (e1 - 1.0) - k2 * (e2 - 1.0) - g_p * u)
    return f, 1.0 + du_di * (k1 * e1 / vt1 + k2 * e2 / vt2 + g_p)


def _capped_exp(x):
    """numpy's exp of a float exponent capped at 700 (so that the
    mismatch stays finite at any iterate), as a float; a NaN exponent
    stays NaN, as under ``np.minimum``."""
    return float(np.exp(700.0 if x > 700.0 else x))


def _capped_exp_lanes(x):
    """:func:`_capped_exp` on an array."""
    return np.exp(np.minimum(x, 700.0))


# Newton acceptance |f| in amperes; the budget is twice the worst case
# of seeded sweeps over 9 000 accepted cells (R_s to 50 ohm, 50-400 K,
# +-1e4 V): 46 iterations, 14 for open_circuit_voltage, which shares it
_NEWTON_TOL_A = 1e-12
_NEWTON_MAX_ITER = 100
_START_EXP_MAX = 40.0   # the largest diode exponent u/Vt of a start


def _right_start(s, v_cell, i_ph):
    """The smaller single-diode start (ln(1 + X/k) Vt - v)/r on floats or
    lanes, X = N_p I_ph + 1 + max(v, 0)/r + |v| N_p/R_p, k = N_p I_o(T):
    diode k alone carries X there, so f >= 1, right of the root."""
    _, _, _, _, _, vt1, vt2, k1, k2, g_p, r = s
    with np.errstate(all="ignore"):   # a non-finite voltage gives NaN
        x = i_ph + 1.0 + np.maximum(v_cell, 0.0) / r + np.abs(v_cell) * g_p
        return (np.minimum(vt1 * np.log(1.0 + x / k1),
                           vt2 * np.log(1.0 + x / k2)) - v_cell) / r


def _solve_current(s, v, i_ph):
    """The current at array voltage ``v`` and cell photocurrent ``i_ph``
    of the array set up by :func:`array_solve`."""
    _, n_s, n_p, r_s, _, vt1, vt2 = s[:7]
    v_cell = v / n_s
    i_ph = n_p * i_ph
    if r_s == 0.0:
        # current appears only through I*Rs; the equation is explicit
        return -_mismatch(s, v_cell, i_ph, 0.0, _capped_exp)[0]
    # the step from the accepted iterate is free; a start left of the
    # root overshoots, then goes on from _right_start if that is nearer;
    # from the third iterate, one that does not descend (rounding has
    # stopped Newton) ends it at the better of it and the last; NaN never
    i = i_ph + 1.0
    if v_cell + i * r_s / n_p > _START_EXP_MAX * min(vt1, vt2):
        i = float(_right_start(s, v_cell, i_ph))
    for n in range(_NEWTON_MAX_ITER):
        f, df = _mismatch(s, v_cell, i_ph, i, _capped_exp)
        if abs(f) <= _NEWTON_TOL_A:
            return i - f / df
        if n > 1 and (f <= 0.0 or i >= i_prev):
            return i if abs(f) < abs(f_prev) else i_prev
        i_prev, f_prev, i = i, f, i - f / df
        if n == 0 and f < 0.0:
            i = float(np.minimum(i, _right_start(s, v_cell, i_ph)))
    raise PvSolverError(f"current solve did not settle at V={v}")


def array_current(ap, v_a):
    """Array output current solving the implicit double-diode equation;
    a 1x1 array gives the cell current."""
    return _solve_current(array_solve(ap), v_a, ap.cell.I_ph)


def array_current_at(s, v_a, g_t):
    """
    ``array_current(ap.at_irradiance(g_t), v_a)``, bit for bit, for the
    array ``ap`` that :func:`array_solve` set ``s`` up for, without
    building the lit array: the photocurrent is ``ap.photocurrent(g_t)``,
    as ``at_irradiance`` takes it.  An irradiance that ``at_irradiance``
    refuses (NaN, negative or infinite) raises its error.
    """
    ap = s[0]
    i_ph = ap.photocurrent(g_t)
    if not (0.0 <= g_t < math.inf and 0.0 <= i_ph < math.inf):
        # the checked constructors raise here
        return array_current(ap.at_irradiance(g_t), v_a)
    return _solve_current(s, v_a, i_ph)


def array_current_lanes(ap, v_a, g_t):
    """
    Array currents over lanes of voltages and irradiances: lane j is
    ``array_current(ap.at_irradiance(g_t[j]), v_a[j])``, bit for bit.
    A float ``v_a`` is the voltage of every lane.

    Returns
    -------
    (currents, open): ``open`` holds the indices of the lanes left to
    the scalar path, whose currents are NaN here: lanes whose
    photocurrent is negative (``at_irradiance`` rejects it) or NaN, and
    lanes the Newton does not settle, as at a non-finite voltage.
    """
    s = array_solve(ap)
    _, _, n_p, r_s, _, vt1, vt2 = s[:7]
    i_ph = ap.photocurrent(np.asarray(g_t, dtype=float))
    v, i_ph = np.broadcast_arrays(np.asarray(v_a, dtype=float), i_ph)
    bad = ~(i_ph >= 0.0)
    with np.errstate(all="ignore"):
        v_cell, i_ph = v / ap.N_s, n_p * i_ph
        if r_s == 0.0:
            i = -_mismatch(s, v_cell, i_ph, np.zeros(i_ph.shape),
                           _capped_exp_lanes)[0]
            left = bad
        else:
            # every lane iterates and stops as the scalar solve does
            left, i = ~bad, i_ph + 1.0
            far = v_cell + i * r_s / n_p > _START_EXP_MAX * min(vt1, vt2)
            if far.any():
                i = np.where(far, _right_start(s, v_cell, i_ph), i)
            for n in range(_NEWTON_MAX_ITER):
                f, df = _mismatch(s, v_cell, i_ph, i, _capped_exp_lanes)
                af, nxt = np.abs(f), i - f / df
                stop = af <= _NEWTON_TOL_A
                if n == 0 and (back := f < -_NEWTON_TOL_A).any():
                    nxt = np.where(back, np.minimum(
                        nxt, _right_start(s, v_cell, i_ph)), nxt)
                elif n > 1:
                    bend = ~stop & ((f <= 0.0) | (i >= i_prev))
                    if bend.any():
                        stop |= bend
                        nxt = np.where(bend, np.where(af < af_prev, i,
                                                      i_prev), nxt)
                i_prev, af_prev, i = i, af, np.where(left, nxt, i)
                left &= ~stop
                if not left.any():
                    break
            left |= bad
    i[left] = np.nan
    return i, np.flatnonzero(left)


def open_circuit_voltage(ap):
    """
    Array open-circuit voltage ``N_s u``.  At I = 0 the I Rs term drops
    out and the cell voltage u solves the explicit equation

        h(u) = I_o1 (exp(u/Vt1) - 1) + I_o2 (exp(u/Vt2) - 1) + u/Rp - I_ph,

    increasing and convex in u.  Newton starts where one diode alone
    carries I_ph, right of the root, and descends onto it; the first
    iterate that does not descend is returned.  A cell whose u/Vt reaches
    the current solve's exponent cap, 700, raises :class:`PvSolverError`.
    """
    p = ap.cell
    if p.I_ph <= 0:
        return 0.0
    vt1, vt2, io1, io2 = _diode_constants(p.a1, p.a2, p.T_c, p.I_o1, p.I_o2)
    # a start clamped to the cap stays right of any root below it, so
    # Newton leaves it exactly when the root lies at or beyond the cap
    u_cap = 700.0 * min(vt1, vt2)
    u = min(u_cap, vt1 * math.log(p.I_ph / io1 + 1.0),
            vt2 * math.log(p.I_ph / io2 + 1.0))
    for _ in range(_NEWTON_MAX_ITER):
        e1 = math.exp(u / vt1)
        e2 = math.exp(u / vt2)
        h = io1 * (e1 - 1.0) + io2 * (e2 - 1.0) + u / p.R_p - p.I_ph
        step = u - h / (io1 * e1 / vt1 + io2 * e2 / vt2 + 1.0 / p.R_p)
        if not step < u:
            if u == u_cap:
                raise PvSolverError("open-circuit u/Vt reaches the 700 cap")
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
    """Pointwise currents and powers over a finite, strictly ascending grid."""
    v_grid = np.asarray(v_grid, dtype=float)
    if not (np.all(np.isfinite(v_grid)) and np.all(np.diff(v_grid) > 0)):
        raise ValueError("voltage grid must be finite and strictly ascending")
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


_MPP_TOL_V = 1e-4    # MPP search stops at this bracket width, V


def find_mpp(ap):
    """
    Maximum power point by golden-section search on P(V) over [0, Voc].

    P is strictly concave there, so it needs no scan.  Per cell, with
    u = V + I Rs and the diode current D(u): I(u) = I_ph - D(u) - u/Rp,
    V(u) = u - Rs I(u), V'(u) > 0, so d2I/dV2 = -D''(u) / V'(u)**3 < 0
    and P'' = 2 I' + V I'' < 0.  u rises to its open-circuit value, below
    the current solve's exponent cap (:func:`open_circuit_voltage`).
    """
    voc = open_circuit_voltage(ap)
    if voc <= 0:
        return MppResult(0.0, 0.0, 0.0)

    def power(v):
        return v * array_current(ap, v)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, voc
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
