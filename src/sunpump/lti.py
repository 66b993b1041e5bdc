"""
Polynomial and rational transfer-function mathematics.

Everything here works on continuous-time LTI systems given as coefficient
lists (highest degree first).  Time responses are produced by converting to
controllable-canonical state equations and integrating with fixed-step
classical Runge-Kutta, so traces are bit-reproducible across runs.  RK4
on a linear system is the recurrence ``x <- M x + g``; it is evaluated a
block of ``_STEP_BLOCK`` samples at a time from precomputed powers of
``M``, within 1e-12 * max|y| of the sample-by-sample recurrence.

Roots come from one routine, ``_polished_roots``, which solves a stack of
equal-degree polynomials with one batched eigenvalue call; ``poly_roots``
hands it one polynomial and ``root_locus`` all the gains of a sweep.
"""

from dataclasses import dataclass
import math

import numpy as np


class DegenerateSystemError(ValueError):
    """Feedback interconnection collapsed to a zero denominator."""


class ImproperSystemError(ValueError):
    """Numerator degree exceeds denominator degree (unsupported)."""


class NotSettledError(ValueError):
    """Step trace has not settled and carries no divergence flag."""


def _first_kept(c):
    """Index, along the last axis, of the first coefficient that is not
    exactly or relatively zero."""
    scale = np.max(np.abs(c), axis=-1, keepdims=True)
    if np.any(scale == 0.0):
        raise ValueError("zero polynomial")
    return np.argmax(np.abs(c) > 1e-13 * scale, axis=-1)


def _trim(coeffs):
    """Drop leading coefficients that are exactly or relatively zero."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        raise ValueError("empty coefficient list")
    return c[int(_first_kept(c)):]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients highest degree first."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(float(x) for x in _trim(coeffs)))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, s):
        return np.polyval(self.coeffs, s)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(np.asarray(self.coeffs) * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return Polynomial(np.polyadd(self.coeffs, other.coeffs))

    def monic(self):
        return Polynomial(np.asarray(self.coeffs) / self.coeffs[0])


@dataclass(frozen=True)
class TransferFunction:
    """Rational LTI system num/den, canonicalized so den is monic."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        lead = den.coeffs[0]
        object.__setattr__(self, "num", Polynomial(np.asarray(num.coeffs) / lead))
        object.__setattr__(self, "den", den.monic())

    @property
    def proper(self):
        return self.num.degree <= self.den.degree

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def __mul__(self, other):
        if isinstance(other, TransferFunction):
            return TransferFunction(self.num * other.num, self.den * other.den)
        return TransferFunction(self.num * float(other), self.den)

    __rmul__ = __mul__

    def dc_gain(self):
        return self.num(0.0) / self.den(0.0)

    def poles(self):
        return poly_roots(self.den)

    def zeros(self):
        if self.num.degree < 1:
            return np.array([], dtype=complex)
        return poly_roots(self.num)


def tf_from_text(text):
    """Parse ``num: c_n ... c_0 / den: d_m ... d_0``."""
    body = text.strip()
    if not body.startswith("num:") or "/" not in body:
        raise ValueError(f"malformed transfer-function text: {text!r}")
    num_part, den_part = body.split("/", 1)
    den_part = den_part.strip()
    if not den_part.startswith("den:"):
        raise ValueError(f"malformed transfer-function text: {text!r}")
    num = [float(x) for x in num_part[4:].split()]
    den = [float(x) for x in den_part[4:].split()]
    return TransferFunction(num, den)


def poly_roots(p):
    """
    All roots of a polynomial, with one Newton polish pass.

    Roots come from the companion-matrix eigenvalues and are then refined
    with a single Newton step each, which keeps the residual
    ``|p(r)|`` below ``1e-9 * sum|c_i| * max(1, |r|)**deg``.

    Parameters
    ----------
    p : Polynomial or coefficient sequence

    Returns
    -------
    ndarray of complex, sorted by (real, imag), length == degree
    """
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    if p.degree < 1:
        raise ValueError("need degree >= 1 to extract roots")
    return _polished_roots(np.asarray(p.coeffs)[None, :])[0]


def _horner(c, x):
    """Row i of ``c`` evaluated at row i of ``x``, as np.polyval does."""
    y = np.zeros_like(x)
    for j in range(c.shape[1]):
        y = y * x + c[:, j, None]
    return y


def _polished_roots(c):
    """
    Roots of each row of ``c``, a 2-D stack of trimmed coefficient rows of
    one degree >= 1: the np.roots eigenvalues, two guarded Newton passes,
    then each row sorted by (real, imag).
    """
    rows, width = c.shape
    roots = np.zeros((rows, width - 1), dtype=complex)
    # np.roots: exact trailing zeros are roots at the origin, appended
    # after the companion eigenvalues of the rest
    core_len = width - np.argmax(c[:, ::-1] != 0.0, axis=1)
    for n in np.unique(core_len):
        if n < 2:
            continue
        sel = core_len == n
        core = c[sel, :n]
        companion = np.zeros((len(core), n - 1, n - 1))
        companion[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
        companion[:, 0, :] = -core[:, 1:] / core[:, :1]
        roots[sel, :n - 1] = np.linalg.eigvals(companion)
    dc = c[:, :-1] * np.arange(width - 1, 0, -1)
    # guarded Newton polish: near multiple roots the derivative vanishes
    # and a raw step diverges, so only accept residual improvements
    for _ in range(2):
        value = _horner(c, roots)
        deriv = _horner(dc, roots)
        ok = np.abs(deriv) > 0
        cand = roots - np.divide(value, deriv, out=np.zeros_like(value),
                                 where=ok)
        better = np.abs(_horner(c, cand)) < np.abs(value)
        roots = np.where(better, cand, roots)
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def tf_feedback(g, h):
    """
    Closed loop ``G / (1 + G H)``.

    Parameters
    ----------
    g : TransferFunction
        Forward path.
    h : TransferFunction or float
        Feedback path; a plain number is a constant gain and 0 leaves
        the loop open (returns ``g`` unchanged).

    Raises
    ------
    DegenerateSystemError
        If ``1 + G H`` has an identically zero numerator.
    """
    if not isinstance(h, TransferFunction):
        return tf_feedback_gain(g, float(h))
    ng, dg = g.num, g.den
    nh, dh = h.num, h.den
    den_coeffs = np.polyadd(np.convolve(dg.coeffs, dh.coeffs),
                            np.convolve(ng.coeffs, nh.coeffs))
    try:
        den = Polynomial(den_coeffs)
    except ValueError as exc:
        raise DegenerateSystemError("1 + GH collapsed to zero") from exc
    return TransferFunction(ng * dh, den)


def tf_feedback_gain(g, k=1.0):
    """Closed loop of ``g`` under constant feedback gain ``k`` (0 = open)."""
    if k == 0.0:
        return g
    den_coeffs = np.polyadd(g.den.coeffs, k * np.asarray(g.num.coeffs))
    try:
        den = Polynomial(den_coeffs)
    except ValueError as exc:
        raise DegenerateSystemError("1 + kG collapsed to zero") from exc
    return TransferFunction(g.num, den)


@dataclass(frozen=True)
class StepTrace:
    """Unit-step response trace with a divergence flag."""

    t: np.ndarray
    y: np.ndarray
    diverged: bool = False


def _canonical_state_space(tf):
    """Controllable-canonical (A, B, C, D) for a proper transfer function."""
    den = np.asarray(tf.den.coeffs)            # monic
    num = np.asarray(tf.num.coeffs)
    n = len(den) - 1
    if n == 0:
        return None, None, None, num[0]
    d = 0.0
    if len(num) == len(den):
        d = num[0]
        num = np.polysub(num, d * den)[1:]   # remainder has lower degree
    b = np.zeros(n)
    b[n - len(num):] = num                     # ascending later
    a = den[1:]                                # a_{n-1} ... a_0
    A = np.zeros((n, n))
    if n > 1:
        A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -a[::-1]
    B = np.zeros(n)
    B[-1] = 1.0
    C = b[::-1]                                # coefficient of s^i at index i
    return A, B, C, d


def default_step_dt(tf, t_end):
    """dt = min(tau_min / 20, t_end / 2000) with tau_min = 1 / max|pole|."""
    poles = tf.poles()
    mags = np.abs(poles)
    dt = t_end / 2000.0
    if mags.size and mags.max() > 0:
        dt = min(dt, 1.0 / (20.0 * mags.max()))
    return dt


# most samples a step response may ask for: checked before the trace is
# allocated (about 16 MB per million samples for t and y alone)
MAX_SAMPLES = 5_000_000


def step_response(tf, t_end, dt=None):
    """
    Unit-step response by RK4 on the controllable-canonical realization.

    Parameters
    ----------
    tf : TransferFunction
        Must be proper (num degree <= den degree).
    t_end : float
        Final simulation time, must be at least 10*dt, and at most
        ``MAX_SAMPLES - 1`` steps of dt.
    dt : float, optional
        Fixed integration step; defaults to
        ``min(tau_min/20, t_end/2000)`` with ``tau_min = 1/max|pole|``.

    Returns
    -------
    StepTrace
        ``diverged`` is set when the system is not strictly stable.
        ``y`` is within ``1e-12 * max|y|`` of stepping the RK4
        recurrence one sample at a time.
    """
    if not tf.proper:
        raise ImproperSystemError(
            f"num degree {tf.num.degree} > den degree {tf.den.degree}")
    if dt is None:
        dt = default_step_dt(tf, t_end)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 10 * dt:
        raise ValueError("t_end must cover at least 10 integration steps")
    steps = t_end / dt
    if not steps <= MAX_SAMPLES - 1:
        raise ValueError(f"t_end / dt = {steps:.3g} asks for more than "
                         f"{MAX_SAMPLES} samples")
    poles = tf.poles()
    diverged = bool(np.any(poles.real >= -1e-12))

    A, B, C, D = _canonical_state_space(tf)
    n_steps = int(round(steps))
    t = np.arange(n_steps + 1) * dt
    if A is None:
        return StepTrace(t, np.full(t.shape, D), False)
    # classical RK4 on x' = A x + B u with u = 1 collapses to the linear
    # recurrence x <- M x + g
    n = len(B)
    dA = dt * A
    M = np.eye(n)
    for k in (4, 3, 2, 1):
        M = np.eye(n) + dA @ M / k
    g = dt * B
    for k in (4, 3, 2):
        g = dt * (B + A @ g / k)
    y = np.empty(n_steps + 1)
    y[0] = C @ np.zeros(n) + D
    y[1:] = _recurrence_outputs(M, g, C, n_steps) + D
    return StepTrace(t, y, diverged)


# samples per block of the blocked recurrence in step_response
_STEP_BLOCK = 256


def _recurrence_outputs(M, g, C, n_steps):
    """
    ``C x_i`` for i = 1..n_steps of ``x_i = M x_{i-1} + g``, ``x_0 = 0``.

    With ``S_j = sum_{i<j} M^i``, ``x_{k+j} = M^j x_k + S_j g``: the rows
    ``C M^j`` and numbers ``C S_j g`` for j = 1..b turn the b outputs
    after each block start ``x_k`` into one matrix product, and the block
    starts follow from ``x_{k+b} = M^b x_k + S_b g``.
    """
    n = len(g)
    b = min(_STEP_BLOCK, n_steps)
    P = np.empty((b, n))
    Sg = np.empty((b, n))
    Mj = np.eye(n)
    w = np.zeros(n)
    for j in range(b):
        Mj = M @ Mj
        w = M @ w + g
        P[j] = C @ Mj
        Sg[j] = w
    starts = np.empty((-(-n_steps // b), n))
    x = np.zeros(n)
    for k in range(len(starts)):
        starts[k] = x
        x = Mj @ x + w
    return (starts @ P.T + Sg @ C).ravel()[:n_steps]


@dataclass(frozen=True)
class StepMetrics:
    """Classical step-response figures of merit (10-90% rise, 2% settling)."""

    rise_time_s: float
    settling_time_s: float
    overshoot_pct: float
    peak: float
    peak_time_s: float
    steady_state_value: float


def _cross_time(t, y, level, rising=True):
    """First time y crosses `level`, linearly interpolated."""
    above = y >= level if rising else y <= level
    idx = np.argmax(above)
    if not above.any():
        return None
    if idx == 0:
        return t[0]
    y0, y1 = y[idx - 1], y[idx]
    if y1 == y0:
        return t[idx]
    frac = (level - y0) / (y1 - y0)
    return t[idx - 1] + frac * (t[idx] - t[idx - 1])


def step_metrics(trace):
    """
    Rise, settling, overshoot, and steady-state of a unit-step trace.

    Rise time is the first 10% to first 90% crossing of the final value,
    settling time is the last exit from the +-2% band, overshoot is
    ``(peak - final) / final * 100``.  A peak within ``1e-12 * |final|``
    of the final value (the ``step_response`` accuracy) is no overshoot:
    the peak is the final value, at the last sample's time.

    Raises
    ------
    NotSettledError
        When the final 5% of samples vary by 1% or more of the final
        value, or the trace was flagged divergent.
    """
    t, y = trace.t, trace.y
    final = y[-1]
    tail = y[int(math.floor(0.95 * len(y))):]
    ref = max(abs(final), 1e-300)
    if trace.diverged or (tail.max() - tail.min()) >= 0.01 * ref:
        raise NotSettledError("trace has not settled; metrics undefined")

    peak_idx = int(np.argmax(y)) if final >= 0 else int(np.argmin(y))
    peak = y[peak_idx]
    if abs(peak - final) <= 1e-12 * abs(final):
        # no overshoot: a peak this close to the final value is rounding
        # on the plateau of a monotone response
        peak_idx, peak = len(y) - 1, final
    overshoot = max(0.0, (peak - final) / final * 100.0) if final != 0 else 0.0

    if abs(final) == 0.0:
        return StepMetrics(0.0, 0.0, 0.0, peak, t[peak_idx], final)

    t10 = _cross_time(t, y, 0.1 * final, rising=final > 0)
    t90 = _cross_time(t, y, 0.9 * final, rising=final > 0)
    rise = (t90 - t10) if (t10 is not None and t90 is not None) else 0.0

    outside = np.abs(y - final) > 0.02 * abs(final)
    if outside.any():
        last = int(np.max(np.nonzero(outside)))
        if last + 1 < len(t):
            y0, y1 = abs(y[last] - final), abs(y[last + 1] - final)
            band = 0.02 * abs(final)
            frac = (y0 - band) / (y0 - y1) if y0 != y1 else 1.0
            settle = t[last] + frac * (t[last + 1] - t[last])
        else:
            settle = t[last]
    else:
        settle = 0.0
    return StepMetrics(rise, settle, overshoot, peak, t[peak_idx], final)


@dataclass(frozen=True)
class RouthResult:
    """Routh array, its first column, and the stability verdict."""

    table: tuple
    first_column: tuple
    sign_changes: int
    verdict: str  # "stable" | "unstable" | "marginal"


def routh_table(p):
    """
    Routh-Hurwitz array with epsilon substitution for zero pivots.

    A zero first-column entry in a nonzero row is replaced by
    ``1e-9 * max|coeff|``; a full row of zeros is replaced by the
    derivative of its auxiliary polynomial.  The verdict is ``stable``
    for zero sign changes without any zero events, ``unstable`` for one
    or more sign changes, and ``marginal`` otherwise.
    """
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    n = p.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    coeffs = np.asarray(p.coeffs)
    if coeffs[0] < 0:
        coeffs = -coeffs
    eps = 1e-9 * np.max(np.abs(coeffs))

    width = n // 2 + 1
    rows = [np.zeros(width), np.zeros(width)]
    rows[0][: len(coeffs[0::2])] = coeffs[0::2]
    rows[1][: len(coeffs[1::2])] = coeffs[1::2]
    zero_event = False

    table = [rows[0].copy(), rows[1].copy()]
    for i in range(2, n + 1):
        prev, prev2 = table[i - 1], table[i - 2]
        if np.all(prev == 0.0):
            # full zero row: differentiate the auxiliary polynomial of prev2
            zero_event = True
            order = n - (i - 2)
            aux_pows = np.arange(order, -1, -2, dtype=float)
            prev = prev2[: len(aux_pows)] * aux_pows
            padded = np.zeros(width)
            padded[: len(prev)] = prev
            prev = padded
            table[i - 1] = prev
        pivot = prev[0]
        if pivot == 0.0:
            zero_event = True
            pivot = eps
            prev = prev.copy()
            prev[0] = pivot
            table[i - 1] = prev
        row = np.zeros(width)
        for j in range(width - 1):
            row[j] = (pivot * prev2[j + 1] - prev2[0] * prev[j + 1]) / pivot
        # scale for numerical health; positive factor keeps signs intact
        m = np.max(np.abs(row))
        if m > 0:
            row = row / m
        table.append(row)

    first = [table[i][0] for i in range(n + 1)]
    signs = [math.copysign(1.0, v) for v in first if v != 0.0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if changes > 0:
        verdict = "unstable"
    elif zero_event:
        verdict = "marginal"
    else:
        verdict = "stable"
    return RouthResult(
        tuple(tuple(r) for r in table), tuple(first), changes, verdict)


def stability_verdict_from_roots(p, tol=1e-7):
    """Oracle verdict from the signs of the real parts of the roots."""
    roots = poly_roots(p)
    if np.any(roots.real > tol):
        return "unstable"
    if np.any(np.abs(roots.real) <= tol):
        return "marginal"
    return "stable"


@dataclass(frozen=True)
class FrequencyResponse:
    """Magnitude (dB) and unwrapped phase (deg) over an ascending grid."""

    omegas: np.ndarray
    magnitude_db: np.ndarray
    phase_deg: np.ndarray


# default frequency grid: log-spaced (lo, hi, points), rad/s
_OMEGA_GRID = (1e-2, 1e4, 400)


def frequency_response(tf, omegas=None):
    """
    Evaluate ``tf(j omega)`` on a positive ascending grid (by default
    400 log-spaced points over [1e-2, 1e4] rad/s).

    A grid point landing exactly on a pole is nudged by a factor
    ``1 + 1e-12`` before evaluation.
    """
    if omegas is None:
        omegas = np.geomspace(*_OMEGA_GRID)
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size == 0 or np.any(omegas <= 0) or np.any(np.diff(omegas) <= 0):
        raise ValueError("omega grid must be positive and strictly increasing")
    s = 1j * omegas
    den = tf.den(s)
    bad = den == 0
    if np.any(bad):
        den[bad] = tf.den(1j * omegas[bad] * (1 + 1e-12))
    h = tf.num(s) / den
    mag_db = 20.0 * np.log10(np.abs(h))
    phase = np.degrees(np.unwrap(np.angle(h)))
    return FrequencyResponse(omegas, mag_db, phase)


@dataclass(frozen=True)
class Margins:
    """Gain/phase margins; fields are None when the crossing is absent."""

    gain_margin_db: float = None
    gm_freq_rad_s: float = None
    phase_margin_deg: float = None
    pm_freq_rad_s: float = None


def _crossings(y, level):
    """Fractional sample positions where y meets or crosses `level`,
    linearly interpolated between samples."""
    out = []
    d = y - level
    for i in range(len(d) - 1):
        if d[i] == 0.0:
            out.append(i)
        if d[i] * d[i + 1] < 0:
            frac = d[i] / (d[i] - d[i + 1])
            out.append(i + frac)
    return out


def stability_margins(fr):
    """
    Margins read off an open-loop frequency response.

    Gain margin is taken at the phase = -180 deg crossing, phase margin
    at the 0 dB crossing; crossings are located by log-linear
    interpolation.  When several crossings exist the smallest margin is
    reported.  Absent crossings leave the corresponding fields None.
    """
    logw = np.log(fr.omegas)

    def interp(arr, pos):
        i = int(math.floor(pos))
        frac = pos - i
        if i + 1 >= len(arr):
            return arr[-1]
        return arr[i] * (1 - frac) + arr[i + 1] * frac

    gm = gmf = pm = pmf = None
    for pos in _crossings(fr.phase_deg, -180.0):
        cand = -interp(fr.magnitude_db, pos)
        if gm is None or cand < gm:
            gm = cand
            gmf = math.exp(interp(logw, pos))
    for pos in _crossings(fr.magnitude_db, 0.0):
        cand = 180.0 + interp(fr.phase_deg, pos)
        if pm is None or abs(cand) < abs(pm):
            pm = cand
            pmf = math.exp(interp(logw, pos))
    return Margins(gm, gmf, pm, pmf)


def root_locus(g, gains):
    """
    Closed-loop pole sets of unity feedback ``den(G) + K num(G)``.

    The polynomials of all gains are solved in one batch.  Pole sets of
    adjacent gains are continuity-matched by greedy nearest-neighbor
    pairing so each column of the result traces one locus branch.

    Returns
    -------
    ndarray, shape (len(gains), n_poles), complex

    Raises
    ------
    ValueError
        When the closed-loop degree is not the same at every gain (a
        biproper ``G`` whose leading coefficient cancels on the range).
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        raise ValueError("gain list must be nonempty")
    if np.any(gains <= 0) or np.any(np.diff(gains) <= 0):
        raise ValueError("gains must be positive ascending")
    num = np.asarray(g.num.coeffs)
    den = np.asarray(g.den.coeffs)
    width = max(len(num), len(den))
    # row i holds np.polyadd(den, gains[i] * num)
    stack = (np.pad(den, (width - len(den), 0))
             + gains[:, None] * np.pad(num, (width - len(num), 0)))
    first = _first_kept(stack)
    if np.any(first != first[0]):
        raise ValueError("closed-loop degree changes along the gain sweep")
    if first[0] == width - 1:
        raise ValueError("need degree >= 1 to extract roots")
    branches = []
    prev = None
    for r in _polished_roots(stack[:, first[0]:]):
        if prev is not None:
            used = np.zeros(len(r), dtype=bool)
            matched = np.empty_like(r)
            for i, p in enumerate(prev):
                dist = np.abs(r - p)
                dist[used] = np.inf
                j = int(np.argmin(dist))
                used[j] = True
                matched[i] = r[j]
            r = matched
        branches.append(r)
        prev = r
    return np.vstack(branches)


@dataclass(frozen=True)
class ErrorConstants:
    """Static error constants and steady-state tracking errors."""

    Kp_pos: float
    Kv_vel: float
    Ka_acc: float
    e_step: float
    e_ramp: float
    e_parabola: float
    system_type: int


def _lowest_terms(g_open):
    """(system type, lowest nonzero num and den coefficients) of ``g_open``."""
    num = np.asarray(g_open.num.coeffs)
    den = np.asarray(g_open.den.coeffs)
    zn, zd = int(_first_kept(num[::-1])), int(_first_kept(den[::-1]))
    return (max(0, zd - zn), num[len(num) - 1 - zn],
            den[len(den) - 1 - zd])


def error_constants(g_open):
    """
    Position/velocity/acceleration constants of a unity-feedback loop.

    ``Kp = lim G``, ``Kv = lim s G``, ``Ka = lim s^2 G`` as s -> 0; the
    system type is the multiplicity of the pole at the origin.
    """
    sys_type, num_low, den_low = _lowest_terms(g_open)
    base = num_low / den_low

    def const_at(order):
        if sys_type > order:
            return math.inf
        if sys_type < order:
            return 0.0
        return base

    kp, kv, ka = const_at(0), const_at(1), const_at(2)
    e_step = 0.0 if math.isinf(kp) else 1.0 / (1.0 + kp)
    e_ramp = math.inf if kv == 0.0 else (0.0 if math.isinf(kv) else 1.0 / kv)
    e_par = math.inf if ka == 0.0 else (0.0 if math.isinf(ka) else 1.0 / ka)
    return ErrorConstants(kp, kv, ka, e_step, e_ramp, e_par, sys_type)


def ss_error_vs_gain(g_template, gains, error_kind="step"):
    """
    Steady-state error against loop gain for ``K * G``.

    Parameters
    ----------
    g_template : TransferFunction
        Open-loop template; the swept system is ``K * G``.
    gains : ascending positive array
    error_kind : "step" | "ramp" | "parabola"

    Returns
    -------
    (gains, errors, targets) where targets maps 0.1 and 0.01 to the K
    achieving them, or None when unreachable on the range.  With ``base``
    the error constant of ``G`` of the error's order, the error is
    ``1/(1 + K base)`` (step) or ``1/(K base)`` (ramp, parabola), solved
    for K in closed form; a target met everywhere on the range maps to
    ``gains[0]``.  The error column is that closed form too, with the
    error constant of ``K G`` rounded as ``error_constants(K * G)``
    rounds it; it is 0 for a system type above the error's order and
    inf below it.
    """
    order = {"step": 0, "ramp": 1, "parabola": 2}[error_kind]
    gains = np.asarray(gains, dtype=float)
    sys_type, num_low, den_low = _lowest_terms(g_template)
    base = num_low / den_low
    if sys_type > order:
        errors = np.zeros(len(gains))
    elif sys_type < order:
        errors = np.full(len(gains), math.inf)
    else:
        const = num_low * gains / den_low
        with np.errstate(divide="raise"):
            errors = 1.0 / (1.0 + const) if order == 0 else 1.0 / const
    targets = {}
    for target in (0.1, 0.01):
        sol = None
        if sys_type == order:
            k = ((1.0 / target - 1.0) / base if order == 0
                 else 1.0 / (target * base))
            if gains[0] <= k <= gains[-1]:
                sol = k
        if sol is None and np.all(np.isfinite(errors)) and np.all(errors <= target):
            sol = gains[0]  # trivially met everywhere on the range
        targets[target] = sol
    return gains, errors, targets
