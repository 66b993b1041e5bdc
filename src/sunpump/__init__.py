"""Solar-tracked PV water-pumping simulator and analysis toolkit.

Every name below is imported from its module on first access (PEP 562),
so a process loads only the modules it uses: a scenario run never
imports the transfer-function half (``lti``, ``plants``, ``validation``),
and ``tf`` and ``validate`` never import the simulator (``scenario`` and
what it runs).  Submodules are reachable as ``sunpump.<module>``.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "lti": ("Polynomial", "TransferFunction", "poly_roots", "tf_feedback",
            "step_response", "step_metrics", "routh_table",
            "frequency_response", "stability_margins", "root_locus",
            "error_constants", "ss_error_vs_gain"),
    "pv": ("PvCellParams", "PvArrayParams", "default_array",
           "array_current", "iv_curve", "find_mpp", "thermal_voltage"),
    "solar": ("SunPosition", "TrackerOrientation", "declination",
              "zenith_and_elevation", "angle_of_incidence",
              "incidence_direction", "optimal_orientation"),
    "mppt": ("MpptState", "po_step", "ic_step", "mppt_run"),
    "tracking": ("tracking_step", "tracking_sim"),
    "plants": ("MotorParams", "PidParams", "TankParams", "motor_tf",
               "pid_tf", "pump_tf", "tank_tf", "tank_second_order",
               "cascade_system", "metering_pump_tf", "preset", "PRESETS"),
    "scenario": ("ScenarioConfig", "control_logic_step", "run_scenario"),
    "config": ("parse_config",),
    "validation": ("build_report",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__),
                        name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            # importing a submodule binds it here as well
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
