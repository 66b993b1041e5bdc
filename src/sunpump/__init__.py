"""Solar-tracked PV water-pumping simulator and analysis toolkit."""

from .lti import (Polynomial, TransferFunction, poly_roots, tf_feedback,
                  step_response, step_metrics, routh_table,
                  frequency_response, stability_margins, root_locus,
                  error_constants, ss_error_vs_gain)
from .pv import (PvCellParams, PvArrayParams, default_array, array_current,
                 iv_curve, find_mpp, thermal_voltage)
from .solar import (SunPosition, TrackerOrientation, declination,
                    zenith_and_elevation, angle_of_incidence,
                    incidence_direction, quartic_even_roots,
                    optimal_orientation)
from .mppt import MpptState, po_step, ic_step, mppt_run
from .tracking import tracking_step, tracking_sim
from .plants import (MotorParams, PidParams, TankParams, ValveParams,
                     motor_tf, pid_tf, closed_loop_char_poly, pump_tf,
                     tank_tf, valve_linearize, tank_loop_tf,
                     tank_second_order, cascade_system, metering_pump_tf,
                     preset, PRESETS)
from .scenario import ScenarioConfig, control_logic_step, run_scenario
from .config import parse_config
from .validation import build_report

__version__ = "0.1.0"
