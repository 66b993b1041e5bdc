"""
Line-oriented ``key = value`` configuration files with ``[section]``
headers.

The parser keeps line numbers so diagnostics can point at the offending
line; unknown keys and duplicate keys are hard errors, and the values
are checked as the :class:`ScenarioConfig` or :class:`AnalysisRequest`
is built.  Profiles are comma-separated breakpoint lists, e.g.::

    [environment]
    irradiance_profile = 0:100, 3600:950, 7200:60
    sun_path = 0:30:95, 3600:60:180, 7200:30:265
"""

from dataclasses import dataclass
import math

from .ranges import PROFILES


class ConfigError(ValueError):
    """A scenario or an ``[analysis]`` config violates an invariant."""


# section -> config field; scalar fields parse as float
_SCHEMA = {
    "scenario": ("duration_s", "dt_s"),
    "environment": ("irradiance_profile", "sun_path"),
    "battery": ("battery_capacity_Wh", "soc_init_pct",
                "battery_min_soc_pct"),
    "tanks": ("tank1_volume_L", "tank2_volume_L", "tank1_init_pct",
              "tank2_init_pct", "tank_low_pct", "tank_full_pct"),
    "pumps": ("pump_flow_Lpm", "pump_tau_s", "pump1_power_W",
              "pump2_power_W"),
    "soil": ("soil_init_pct", "soil_dry_pct", "soil_wet_pct",
             "soil_gain_pct_per_L", "soil_decay_pct_per_hr"),
    "tracking": ("motor_step_deg", "tracker_init_elev", "tracker_init_azi"),
    "mppt": ("mppt_algo", "mppt_dv_step"),
    "analysis": ("kind", "preset", "tf_text", "t_end", "dt", "gains"),
}
_STRING_KEYS = {"mppt_algo", "kind", "preset", "tf_text", "gains"}
ANALYSIS_KINDS = ("analyze", "step", "bode", "rlocus", "routh", "errors")


def parse_gains(spec):
    """The gain sweep ``'a:b:n'`` as ``(a, b, n)``: n gains spaced
    geometrically from a to b (``ValueError`` unless b > a > 0 are finite
    and 1 <= n <= ``lti.MAX_GAINS``; a fractional n is truncated)."""
    from .lti import MAX_GAINS          # only analyses need lti
    try:
        a, b, n = (float(bit) for bit in spec.split(":"))
    except ValueError:
        raise ValueError(f"gains must be 'a:b:n', got {spec!r}") from None
    if not (0.0 < a < b < math.inf and 1.0 <= n < math.inf):
        raise ValueError("gains must be 'a:b:n' with b > a > 0 and n >= 1")
    if int(n) > MAX_GAINS:
        raise ValueError(f"gains must be 'a:b:n' with n <= {MAX_GAINS}, "
                         f"got n = {n:.6g}")
    return a, b, int(n)


@dataclass(frozen=True)
class AnalysisRequest:
    """A transfer-function analysis described by a config file."""

    kind: str
    preset: str = None
    tf_text: str = None
    t_end: float = None
    dt: float = None
    gains: str = None

    def __post_init__(self):
        if self.kind not in ANALYSIS_KINDS:
            raise ConfigError(
                f"analysis kind must be one of {', '.join(ANALYSIS_KINDS)}")
        if self.preset is None and self.tf_text is None:
            raise ConfigError("analysis needs a preset or a tf_text system")
        for name in ("t_end", "dt"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"analysis {name} must be finite and > 0, "
                                  f"got {value}")
        from .lti import tf_from_text    # only analyses need lti
        for name, parse in (("tf_text", tf_from_text), ("gains", parse_gains)):
            value = getattr(self, name)
            try:
                if value is not None:
                    parse(value)
            except ValueError as exc:
                raise ConfigError(f"analysis {name}: {exc}") from None


def _parse_profile(key, raw, lineno, width):
    points = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != width:
            raise ConfigError(
                f"line {lineno}: {key} expects {width} colon-separated "
                f"numbers per breakpoint, got {chunk.strip()!r}")
        try:
            points.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: unparsable number in {chunk.strip()!r}")
    return tuple(points)


def parse_config_text(text):
    """
    Parse configuration text.

    Returns a validated :class:`ScenarioConfig`, or an
    :class:`AnalysisRequest` when an ``[analysis]`` section is present.
    """
    key_section = {}
    for section, keys in _SCHEMA.items():
        for key in keys:
            key_section[key] = section

    seen = {}       # key -> first line number
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(
                    f"line {lineno}: unknown section [{section}]; known: "
                    + ", ".join(sorted(_SCHEMA)))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{line!r}")
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        if key not in key_section:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if section is not None and key_section[key] != section:
            raise ConfigError(
                f"line {lineno}: key {key!r} belongs in "
                f"[{key_section[key]}], not [{section}]")
        if key in seen:
            raise ConfigError(
                f"duplicate key {key!r} on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        if key in PROFILES:
            values[key] = _parse_profile(key, raw_value, lineno,
                                         len(PROFILES[key]))
        elif key in _STRING_KEYS:
            values[key] = raw_value
        else:
            try:
                values[key] = float(raw_value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: unparsable number {raw_value!r} "
                    f"for key {key!r}")

    analysis_keys = set(_SCHEMA["analysis"])
    picked_analysis = {k: v for k, v in values.items() if k in analysis_keys}
    if picked_analysis:
        scenario_keys = set(values) - analysis_keys
        if scenario_keys:
            raise ConfigError(
                "config mixes [analysis] with scenario keys: "
                + ", ".join(sorted(scenario_keys)))
        if "kind" not in picked_analysis:
            raise ConfigError("[analysis] requires a 'kind' key")
        return AnalysisRequest(**picked_analysis)

    from .scenario import ScenarioConfig    # only scenarios need it
    return ScenarioConfig(**values)


def parse_config(path):
    """Parse a configuration file; diagnostics carry line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)
