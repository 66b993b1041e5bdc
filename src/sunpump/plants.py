"""
Transfer-function constructors for the pumping-system components: the
tracking motor, PID controllers, pumps, tanks and the assembled
sensor-feedback cascade.

Every constructor is a pure function returning a canonicalized
:class:`~sunpump.lti.TransferFunction`; named presets for all systems
used in the analyses live in :data:`PRESETS`.
"""

from dataclasses import dataclass

from .lti import TransferFunction


@dataclass(frozen=True)
class MotorParams:
    """Armature-controlled DC motor plus drive-train gains."""

    J: float = 0.01          # rotor inertia, kg m^2
    b_friction: float = 1e-6  # viscous friction, N m s
    K_t: float = 0.0125      # torque constant, N m / A
    K_e: float = 0.0125      # back-emf constant, V s / rad
    R: float = 1.0           # armature resistance, ohm
    L: float = 0.5           # armature inductance, H
    K_a: float = 1.0         # amplifier gain
    K_s: float = 1.0         # servo amplifier gain
    K_d_discr: float = 1.0   # error discriminator gain
    N_gear: float = 1.0      # gear ratio

    def __post_init__(self):
        for name in ("J", "b_friction", "R", "L"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("K_a", "K_s", "K_d_discr", "N_gear"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be nonzero")


@dataclass(frozen=True)
class PidParams:
    """PID gains; N_filter = 0 selects the unfiltered ideal derivative."""

    K_p: float
    K_i: float = 0.0
    K_d: float = 0.0
    N_filter: float = 0.0

    def __post_init__(self):
        if self.N_filter < 0:
            raise ValueError("derivative filter coefficient must be >= 0")


@dataclass(frozen=True)
class TankParams:
    area_A: float
    outflow_R: float
    rho: float = 1.0

    def __post_init__(self):
        if self.area_A <= 0 or self.outflow_R <= 0 or self.rho <= 0:
            raise ValueError("tank parameters must be > 0")


def motor_tf(mp):
    """
    Open-loop position transfer function of the tracking motor:

        K_s K_a K_d K_t N / (L J s^3 + (b L + R J) s^2 + (R b + K_t K_e) s)
    """
    num = mp.K_s * mp.K_a * mp.K_d_discr * mp.K_t * mp.N_gear
    den = [mp.L * mp.J,
           mp.b_friction * mp.L + mp.R * mp.J,
           mp.R * mp.b_friction + mp.K_t * mp.K_e,
           0.0]
    if num == 0.0:
        raise ValueError("zero torque path: numerator vanished")
    return TransferFunction([num], den)


def pid_tf(pp):
    """
    PID controller transfer function.

    Unfiltered (N_filter = 0): ``(K_d s^2 + K_p s + K_i) / s``.
    Filtered: ``K_p + K_i/s + K_d N s/(s + N)`` over a common
    denominator ``s (s + N)``.
    """
    if pp.N_filter == 0.0:
        num, den = [pp.K_d, pp.K_p, pp.K_i], [1.0, 0.0]
    else:
        n = pp.N_filter
        num = [pp.K_p + pp.K_d * n,
               pp.K_p * n + pp.K_i,
               pp.K_i * n]
        den = [1.0, n, 0.0]
    while len(num) > 1 and num[-1] == 0.0 and den[-1] == 0.0:
        num, den = num[:-1], den[:-1]   # cancel the shared factor of s
    return TransferFunction(num, den)


def pump_tf(k, tau):
    """First-order pump ``K / (1 + tau s)``."""
    if tau <= 0:
        raise ValueError("time constant must be > 0")
    return TransferFunction([k], [tau, 1.0])


def tank_tf(tp):
    """Water-tank level response ``R / (1 + R A s)`` (density folded in)."""
    r = tp.outflow_R / tp.rho
    return TransferFunction([r], [r * tp.area_A, 1.0])


def tank_second_order(k=1.0):
    """Sensor-feedback tank response ``5K / (s^2 + 0.02241 s + 5)``."""
    return TransferFunction([5.0 * k], [1.0, 0.02241, 5.0])


def metering_pump_tf():
    """Metering pump flow response ``1.869 / (s^2 + 12.32 s + 0.4582)``."""
    return TransferFunction([1.869], [1.0, 12.32, 0.4582])


def cascade_plant():
    """Pump ``5/(0.1 s + 1)`` times tank ``0.01/(s + 1)``."""
    return pump_tf(5.0, 0.1) * tank_tf(TankParams(area_A=100.0, outflow_R=0.01))


def cascade_system(k_sensor, pid):
    """
    Open loop ``L = C G H`` of the soil-watering loop: PID controller,
    pump-tank plant and a pure-gain level sensor.  Its unity-feedback
    closure ``L/(1+L)`` is the normalized loop a loop-shaping tuner
    reports.
    """
    return pid_tf(pid) * cascade_plant() * k_sensor


# Numeric tracking-motor system exactly as used by the analyses; the
# bullet-list motor parameters do not reproduce it (see validation report).
MOTOR_PAPER = TransferFunction([0.0001563], [1.2e-8, 7.51e-6, 0.0001625, 0.0])

PRESETS = {
    "motor_paper": lambda: MOTOR_PAPER,
    "motor_symbolic": lambda: motor_tf(MotorParams()),
    "pump_storage": lambda: pump_tf(5.0, 475.0),
    "pump_loop": lambda: pump_tf(5.0, 0.1),
    "tank_001": lambda: tank_tf(TankParams(area_A=100.0, outflow_R=0.01)),
    "tank_2nd_order": lambda: tank_second_order(1.0),
    "cascade": cascade_plant,
    "metering_pump": metering_pump_tf,
}


def preset(name):
    """Named system by preset id; raises KeyError with the known ids."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
