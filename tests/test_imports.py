"""
What a process loads.  The package resolves each export on first access,
and each CLI command imports only the modules it runs, in both
directions: the commands that simulate never import the analysis half of
the toolkit (``lti``, ``plants``, ``validation``), and ``tf`` and
``validate`` never import the simulator (``scenario``, ``tracking``,
``solar``, ``mppt``, ``blocks``).  The load checks run in fresh
interpreters, since this one has imported everything already.
"""

import ast
import importlib
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import sunpump

SRC = Path(__file__).resolve().parents[1] / "src"
ANALYSIS = ("sunpump.lti", "sunpump.plants", "sunpump.validation")
# what ``import sunpump.cli`` and ``build_parser()`` load: the parser and
# what every command needs
PARSER = ("cli", "config", "csvio", "ranges")

# every name the package exports, by the module that defines it
EXPORTS = {
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


def run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``sunpump``; its last stdout line is JSON, returned parsed."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestExports:
    def test_all_lists_every_export(self):
        assert sorted(sunpump.__all__) == sorted(
            name for names in EXPORTS.values() for name in names)
        assert len(sunpump.__all__) == 49

    @pytest.mark.parametrize("module, name", [
        (module, name) for module, names in EXPORTS.items()
        for name in names])
    def test_export_is_the_defining_modules_object(self, module, name):
        defining = importlib.import_module(f"sunpump.{module}")
        assert getattr(sunpump, name) is getattr(defining, name)
        assert name in dir(sunpump)

    def test_version(self):
        assert sunpump.__version__ == "0.1.0"
        assert "__version__" in dir(sunpump)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sunpump.no_such_name
        assert not hasattr(sunpump, "no_such_module")
        assert not hasattr(sunpump, "_private")


class TestLoadedModules:
    def test_scenario_run_loads_no_analysis_module(self, tmp_path):
        (tmp_path / "short.cfg").write_text(
            "[scenario]\nduration_s = 30\ndt_s = 0.1\n")
        seen = run_fresh(f"""
import json, sys
analysis = {ANALYSIS!r}
loaded = lambda: [m for m in analysis if m in sys.modules]
import sunpump
seen = {{"package": loaded(), "pv": sunpump.pv.__name__}}
import sunpump.cli
seen["cli"] = loaded()
seen["code"] = sunpump.cli.main(
    ["scenario", "run", "--config", "short.cfg", "--out", "out"])
seen["run"] = loaded()
print(json.dumps(seen))
""", tmp_path)
        assert seen == {"package": [], "pv": "sunpump.pv", "cli": [],
                        "code": 0, "run": []}
        assert len((tmp_path / "out" / "scenario_trace.csv")
                   .read_text().splitlines()) == 301

    def test_tf_and_validate_load_what_they_run(self, tmp_path):
        seen = run_fresh(f"""
import json, sys
import sunpump.cli
codes = [sunpump.cli.main(["tf", "step", "--preset", "motor_paper",
                           "--out", "out"]),
         sunpump.cli.main(["validate", "--out", "out"])]
print(json.dumps({{"codes": codes,
                  "loaded": [m for m in {ANALYSIS!r} if m in sys.modules]}}))
""", tmp_path)
        assert seen == {"codes": [0, 0], "loaded": list(ANALYSIS)}
        assert {p.name for p in (tmp_path / "out").iterdir()} == {
            "step.csv", "validation_report.csv"}

    @pytest.mark.parametrize("argv, adds", [
        ((), ()),
        (("tf", "step", "--preset", "motor_paper"), ("lti", "plants")),
        (("validate",), ("lti", "plants", "pv", "validation")),
        (("pv-curve",), ("pv",)),
        (("solar-angles",), ("solar",)),
        (("track-sim",), ("blocks", "solar", "tracking")),
        (("mppt-run",), ("blocks", "mppt", "pv")),
        (("scenario", "run", "--config", "short.cfg"),
         ("blocks", "mppt", "pv", "scenario", "solar", "tracking")),
    ], ids=["parser", "tf-step", "validate", "pv-curve", "solar-angles",
            "track-sim", "mppt-run", "scenario-run"])
    def test_a_command_loads_the_modules_it_runs(self, tmp_path, argv,
                                                  adds):
        (tmp_path / "short.cfg").write_text(
            "[scenario]\nduration_s = 30\ndt_s = 0.1\n")
        seen = run_fresh(f"""
import json, sys
loaded = lambda: sorted(m[len("sunpump."):] for m in sys.modules
                        if m.startswith("sunpump."))
import sunpump.cli
sunpump.cli.build_parser()
seen = {{"parser": loaded()}}
if {list(argv)!r}:
    seen["code"] = sunpump.cli.main({list(argv)!r} + ["--out", "out"])
seen["run"] = loaded()
print(json.dumps(seen))
""", tmp_path)
        assert seen.pop("code", 0) == 0
        assert seen == {"parser": list(PARSER),
                        "run": sorted(PARSER + adds)}


class TestPrivateNames:
    def test_no_module_imports_another_modules_private_names(self):
        # a private name is its module's own: a law another module needs
        # is public, or comes from the module both share (``blocks``)
        paths = sorted((SRC / "sunpump").glob("*.py"))
        assert len(paths) > 10
        found = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith(
                            "sunpump")):
                    found += [f"{path.name}: from {'.' * node.level}"
                              f"{node.module or ''} import {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
        assert found == []
