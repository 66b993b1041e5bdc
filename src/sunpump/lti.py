"""
Polynomial and rational transfer-function mathematics.

Everything here works on continuous-time LTI systems given as coefficient
lists (highest degree first).  A step response holds the unit step as one
more state of the controllable-canonical realization, so that
``z' = G z`` and every sample follows exactly from the one before by
``z <- e^{G dt} z``: exact zero-order-hold samples, bit-reproducible
across runs.  The samples are evaluated a block of ``_STEP_BLOCK`` at a
time from powers of ``e^{G dt}`` built by doubling: n samples lie
within n * 2**-52 * max|y| of the exact ones.

Roots come from one routine, ``_polished_roots``, which solves a stack of
equal-degree polynomials with one batched eigenvalue call; ``poly_roots``
hands it one polynomial, ``root_locus`` all the gains of a sweep and
``stability_margins`` its exact crossover polynomials in w**2.
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
    """Index, along the last axis, of the first nonzero coefficient; a
    coefficient is zero only when it is 0.0."""
    nonzero = c != 0.0
    if not np.all(np.any(nonzero, axis=-1)):
        raise ValueError("zero polynomial")
    return np.argmax(nonzero, axis=-1)


def _trim(coeffs):
    """Finite coefficients with the leading zeros dropped."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        raise ValueError("empty coefficient list")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"coefficients must be finite, got {c.tolist()}")
    return c[int(_first_kept(c)):]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, finite coefficients highest degree first; only
    leading coefficients that are exactly 0.0 are dropped, so that
    s**2 + 20 s + 1e14 keeps its poles -10 +- 1e7 j."""

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
        with np.errstate(over="ignore"):
            # an overflow leaves inf, which Polynomial rejects as not finite
            num = Polynomial(np.asarray(num.coeffs) / den.coeffs[0])
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        if self.den.degree < 1:
            return np.array([], dtype=complex)
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
    value = _horner(c, roots)
    for _ in range(2):
        deriv = _horner(dc, roots)
        ok = np.abs(deriv) > 0
        cand = roots - np.divide(value, deriv, out=np.zeros_like(value),
                                 where=ok)
        better = np.abs(cand_value := _horner(c, cand)) < np.abs(value)
        roots = np.where(better, cand, roots)
        value = np.where(better, cand_value, value)
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
        Feedback path; a plain number k is a constant gain, closing the
        loop as ``G / (1 + k G)`` over G's own numerator, and 0 leaves
        the loop open (returns ``g`` unchanged).

    Raises
    ------
    DegenerateSystemError
        If ``1 + G H`` has an identically zero numerator.
    """
    if isinstance(h, TransferFunction):
        num = g.num * h.den
        den_coeffs = np.polyadd(np.convolve(g.den.coeffs, h.den.coeffs),
                                np.convolve(g.num.coeffs, h.num.coeffs))
    else:
        k = float(h)
        if k == 0.0:
            return g
        num = g.num
        den_coeffs = np.polyadd(g.den.coeffs, k * np.asarray(g.num.coeffs))
    if not np.any(den_coeffs):
        raise DegenerateSystemError("1 + GH collapsed to zero")
    return TransferFunction(num, den_coeffs)


@dataclass(frozen=True)
class StepTrace:
    """Unit-step response trace with a divergence flag."""

    t: np.ndarray
    y: np.ndarray
    diverged: bool = False


def _hold_realization(tf):
    """
    ``(G, c)`` of a proper transfer function with the input held as the
    last state: ``z = (x, u)``, x in controllable-canonical form,
    ``z' = G z`` (``G = [[A, B], [0, 0]]``) and ``y = c z``
    (``c = [C, D]``).  A static gain is the 1 x 1 case ``G = [[0]]``.
    """
    den = np.asarray(tf.den.coeffs)            # monic, degree n
    num = np.pad(tf.num.coeffs, (len(den) - len(tf.num.coeffs), 0))
    n = len(den) - 1
    G = np.zeros((n + 1, n + 1))
    G[:n, 1:] = np.eye(n)                      # x_i' = x_{i+1}, x_{n-1}' = u
    G[n - 1, :n] -= den[:0:-1]                 # - a_0 x_0 - ...; none at n = 0
    d = num[0]
    # the remainder num - d den has lower degree; C holds its s^i at i
    return G, np.append((num - d * den)[:0:-1], d)


def _expm(X):
    """
    ``e^X``: the degree-18 Taylor polynomial of ``X / 2^s``, squared s
    times.  With the 1-norm of X below 2^e, s = max(0, e + 1) brings the
    1-norm of ``X / 2^s`` under 1/2; ``np.ldexp`` scales by 2^-s for any
    s a float norm can ask for.
    """
    _, e = np.frexp(np.abs(X).sum(axis=0).max())   # the norm is < 2^e
    s = max(0, int(e) + 1)
    Y = np.ldexp(X, -s)
    E = eye = np.eye(len(X))
    for k in range(18, 0, -1):
        E = eye + Y @ E / k
    for _ in range(s):
        E = E @ E
    return E


def default_step_dt(tf, t_end):
    """Sample spacing min(tau_min / 20, t_end / 2000), tau_min = 1 / max|pole|;
    the samples are exact at any spacing, so dt is no accuracy knob."""
    return _step_dt(tf.poles(), t_end)


def _step_dt(poles, t_end):
    mags = np.abs(poles)
    dt = t_end / 2000.0
    if mags.size and mags.max() > 0:
        with np.errstate(over="ignore"):    # dt 0 is refused by the caller
            dt = min(dt, 1.0 / (20.0 * mags.max()))
    return dt


# most samples a step response may ask for: checked before the trace is
# allocated (about 16 MB per million samples for t and y alone)
MAX_SAMPLES = 5_000_000

# most gains a root-locus or error sweep may take: checked when the sweep
# is parsed (root_locus holds about 580 B per gain of a third-order loop)
MAX_GAINS = 100_000


def step_response(tf, t_end, dt=None):
    """
    Unit-step response: exact zero-order-hold samples of the
    controllable-canonical realization with the step held as a state.

    Parameters
    ----------
    tf : TransferFunction
        Must be proper (num degree <= den degree).
    t_end : float
        Final time, finite and > 0, at least 10*dt, and at most
        ``MAX_SAMPLES - 1`` steps of dt.
    dt : float, optional
        Sample spacing, finite and > 0; defaults to
        ``min(tau_min/20, t_end/2000)`` with ``tau_min = 1/max|pole|``.
        The samples are exact at any dt, so it sets only how finely the
        trace resolves the response.  A dt at which ``e^{G dt}`` is not
        finite (G dt overflows, or its exponential does) is refused with
        ValueError, and so is a response that overflows before t_end.

    Returns
    -------
    StepTrace
        ``diverged`` is set when the system is not strictly stable.
        ``y`` is within ``n * 2**-52 * max|y|`` of the exact samples,
        n = len(y): the rounding of ``e^{G dt}``, carried n steps.
    """
    if not tf.proper:
        raise ImproperSystemError(
            f"num degree {tf.num.degree} > den degree {tf.den.degree}")
    for name, value in (("t_end", t_end), ("dt", dt)):
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    poles = tf.poles()
    if dt is None:
        dt = _step_dt(poles, t_end)
        if not dt > 0:
            raise ValueError(f"the default dt for t_end = {t_end} is 0")
    if t_end < 10 * dt:
        raise ValueError("t_end must cover at least 10 steps of dt")
    steps = t_end / dt
    if not steps <= MAX_SAMPLES - 1:
        raise ValueError(f"t_end / dt = {steps:.3g} asks for more than "
                         f"{MAX_SAMPLES} samples")
    diverged = bool(np.any(poles.real >= -1e-12))

    G, c = _hold_realization(tf)
    overflow = f"e^(G dt) overflows at dt = {dt:.6g}; take a smaller dt"
    with np.errstate(over="ignore", invalid="ignore"):
        Gdt = G * dt
        if not np.isfinite(Gdt).all():
            raise ValueError(overflow)
        F = _expm(Gdt)
    if not np.isfinite(F).all():
        raise ValueError(overflow)
    z = np.eye(len(c))[-1]                     # x(0) = 0, the unit step held
    n_steps = int(round(steps))
    with np.errstate(over="ignore", invalid="ignore"):
        y = _power_outputs(F, c, z, n_steps + 1)
    if not (np.isfinite(y.min()) and np.isfinite(y.max())):
        first = np.flatnonzero(~np.isfinite(y))[0]
        raise ValueError(f"step response overflows at t = {first * dt:.6g} "
                         f"s; take a smaller t_end")
    t = np.arange(n_steps + 1, dtype=float)
    t *= dt
    return StepTrace(t, y, diverged)


# samples per block of the blocked powers in step_response
_STEP_BLOCK = 256


def _power_outputs(F, c, z, n):
    """
    ``c F^i z`` for i = 0..n-1: the rows ``c F^j``, j < b, turn each
    block start ``F^{kb} z`` into the b outputs that follow it.  Both
    double: h known rows times ``H = F^h`` are the next h, and H squares.
    """
    P, H = c[None, :], F
    while len(P) < min(_STEP_BLOCK, n):
        P, H = np.vstack((P, P @ H)), H @ H
    starts, k = z[None, :], -(-n // len(P))     # k block starts are needed
    while len(starts) < k:
        starts = np.vstack((starts, starts[:k - len(starts)] @ H.T))
        H = H @ H if len(starts) < k else H
    return (starts @ P.T).ravel()[:n]


@dataclass(frozen=True)
class StepMetrics:
    """Classical step-response figures of merit (10-90% rise, 2% settling)."""

    rise_time_s: float
    settling_time_s: float
    overshoot_pct: float
    peak: float
    peak_time_s: float
    steady_state_value: float


def _meet_time(t, y, k, level):
    """Time between samples k and k+1 at which y meets `level`, linearly
    interpolated."""
    y0, y1 = y[k], y[k + 1]
    if y1 == y0:
        return t[k + 1]
    return t[k] + (level - y0) / (y1 - y0) * (t[k + 1] - t[k])


def _cross_time(t, y, level, rising=True):
    """First time y crosses `level`, linearly interpolated."""
    above = y >= level if rising else y <= level
    idx = np.argmax(above)
    if not above.any():
        return None
    if idx == 0:
        return t[0]
    return _meet_time(t, y, idx - 1, level)


def step_metrics(trace):
    """
    Rise, settling, overshoot, and steady-state of a unit-step trace.

    Rise time is the first 10% to first 90% crossing of the final value,
    settling time is the last exit from the +-2% band, overshoot is
    ``(peak - final) / final * 100``.  A peak within ``1e-12 * |final|``
    of the final value (rounding on a plateau) is no overshoot:
    the peak is the final value, at the last sample's time.

    Raises
    ------
    NotSettledError
        When the final 5% of samples do not stay within 1% of the final
        value (a NaN or inf among them included), or the trace was
        flagged divergent.
    """
    t, y = trace.t, trace.y
    final = y[-1]
    tail = y[int(math.floor(0.95 * len(y))):]
    ref = max(abs(final), 1e-300)
    if trace.diverged or not (tail.max() - tail.min()) < 0.01 * ref:
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

    band = 0.02 * abs(final)
    dev = y - final
    np.abs(dev, out=dev)
    outside = dev > band
    if outside.any():
        last = len(outside) - 1 - int(np.argmax(outside[::-1]))
        settle = (_meet_time(t, dev, last, band) if last + 1 < len(t)
                  else t[last])
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
    return verdict_of_roots(poly_roots(p), tol)


def verdict_of_roots(roots, tol=1e-7):
    """The same verdict from roots already solved."""
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

    A grid point landing exactly on a pole or a zero is nudged by a factor
    ``1 + 1e-12`` before evaluation.  A grid whose response overflows is
    refused with ``ValueError`` naming the first such omega.
    """
    if omegas is None:
        omegas = np.geomspace(*_OMEGA_GRID)
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size == 0 or np.any(omegas <= 0) or np.any(np.diff(omegas) <= 0):
        raise ValueError("omega grid must be positive and strictly increasing")
    s = 1j * omegas
    with np.errstate(all="ignore"):
        s[(tf.num(s) == 0) | (tf.den(s) == 0)] *= 1 + 1e-12
        h = tf.num(s) / tf.den(s)
        mag_db = 20.0 * np.log10(np.abs(h))
        angle = np.angle(h)
    bad = ~(np.isfinite(mag_db) & np.isfinite(angle))
    if bad.any():
        raise ValueError(f"frequency response is not finite at omega = "
                         f"{omegas[bad.argmax()]:g} rad/s")
    phase = np.degrees(np.unwrap(angle))
    return FrequencyResponse(omegas, mag_db, phase)


@dataclass(frozen=True)
class Margins:
    """Gain/phase margins; fields are None when the crossing is absent."""

    gain_margin_db: float = None
    gm_freq_rad_s: float = None
    phase_margin_deg: float = None
    pm_freq_rad_s: float = None


# j**k by k mod 4: p(jw) has the exact coefficient c_k j**k at w**k
_J_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _crossovers(tf):
    """
    ``(w, G(jw))``, ascending, at the w > 0 where ``|G| = 1`` (roots of
    the even ``|N|^2 - |D|^2``, ``N = N(jw)``, ``D = D(jw)``) and where
    ``G < 0`` (of the odd ``Im(N conj D)``), solved in w**2.  Coefficients
    under 2**-1000 of the largest count as 0; a pole on the axis (``|D|``
    within 1e-9 of its terms) or a G that is not finite is no crossing.
    """
    # a power of 2 scales every |c| below 1: G keeps its bits, |N|^2 is finite
    e = np.frexp(np.abs(tf.num.coeffs + tf.den.coeffs).max())[1]
    n, d = (np.ldexp(p.coeffs, -e) * _J_POWERS[np.arange(p.degree, -1, -1) % 4]
            for p in (tf.num, tf.den))
    gain = np.polysub(np.convolve(n, n.conj()), np.convolve(d, d.conj())).real
    odd = np.convolve(n, d.conj()).imag
    out = []
    with np.errstate(all="ignore"):
        # gain has odd length: its even powers and odd's odd ones, in w**2
        for x in (gain[::2], odd[len(odd) % 2::2]):
            x = np.trim_zeros(np.where(
                abs(x) < abs(x).max(initial=0.0) * 2.0 ** -1000, 0.0, x), "f")
            r = _polished_roots(x[None, :])[0] if len(x) > 1 else x[:0]
            w = np.sqrt(r.real[(r.real > 0) & (abs(r.imag) <= 1e-7 * abs(r))])
            dw = np.polyval(d, w)
            g = np.polyval(n, w) / dw
            keep = np.isfinite(g) & (abs(dw) > 1e-9 * np.polyval(abs(d), w))
            out.append((w[keep], g[keep]))
    (gain_w, gain_g), (phase_w, phase_g) = out
    return (gain_w, gain_g), (phase_w[phase_g.real < 0],
                              phase_g[phase_g.real < 0])


def stability_margins(tf):
    """
    Margins of the open loop ``tf`` at its exact crossings: the gain
    margin ``-20 log10 |G(jw)|`` where G(jw) < 0, the phase margin
    ``180 + arg G(jw)``, reduced into [-180, 180] deg, where
    ``|G(jw)| = 1``.  Of several crossings the smallest margin is
    reported; absent crossings leave the fields None.
    """
    (gain_w, gain_g), (phase_w, phase_g) = _crossovers(tf)
    gms = -20.0 * np.log10(np.abs(phase_g))
    gm, gmf = min(zip(gms.tolist(), phase_w.tolist()), default=(None, None))
    pms = [math.remainder(180.0 + a, 360.0)
           for a in np.degrees(np.angle(gain_g)).tolist()]
    pm, pmf = min(zip(pms, gain_w.tolist()), key=lambda c: abs(c[0]),
                  default=(None, None))
    return Margins(gm, gmf, pm, pmf)


def _gain_sweep(gains):
    """``gains`` as a float array, checked to be nonempty, positive and
    strictly ascending (``ValueError`` otherwise)."""
    gains = np.asarray(gains, dtype=float)
    if not (gains.size and np.all(gains > 0) and np.all(np.diff(gains) > 0)):
        raise ValueError("gains must be nonempty, positive and strictly "
                         "ascending")
    return gains


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
        When ``gains`` is empty, not positive or not strictly ascending,
        or the closed-loop degree is not the same at every gain (a
        biproper ``G`` whose leading coefficient cancels on the range).
    """
    gains = _gain_sweep(gains)
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
    roots = _polished_roots(stack[:, first[0]:])
    # branch i of gain k is roots[k, perms[k][i]], paired as np.argmin
    # pairs: the first NaN, else the first least distance not yet taken
    dist = np.abs(roots[1:, None, :] - roots[:-1, :, None])
    perms = [list(range(roots.shape[1]))]
    for rows in dist:
        rows, free, perm = rows.tolist(), set(perms[0]), []
        for a in perms[-1]:
            row = [x if j in free else math.inf for j, x in enumerate(rows[a])]
            nan = [j for j, x in enumerate(row) if x != x]
            perm.append(nan[0] if nan else row.index(min(row)))
            free.discard(perm[-1])
        perms.append(perm)
    return np.take_along_axis(roots, np.array(perms), axis=1)


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
    gains : nonempty, positive and strictly ascending array
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
    gains = _gain_sweep(gains)
    sys_type, num_low, den_low = _lowest_terms(g_template)
    base = num_low / den_low
    if sys_type > order:
        errors = np.zeros(len(gains))
    elif sys_type < order:
        errors = np.full(len(gains), math.inf)
    else:
        with np.errstate(over="ignore", divide="raise"):
            const = num_low * gains / den_low   # inf: an error of 0
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
