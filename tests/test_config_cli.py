import math
from pathlib import Path
import re
import shlex

import numpy as np
import pytest

from sunpump.cli import build_parser, main
from sunpump.config import parse_config, parse_config_text
from sunpump.csvio import emit_csv
from sunpump.scenario import ConfigError, SimTrace

# a stiff system, poles at -1e-3 and -1e6
STIFF = "num: 1 / den: 1 1000000.001 1000"

MINIMAL = """
# minimal scenario: defaults fill everything else
[scenario]
duration_s = 30
dt_s = 0.1
"""

FULL = """
[scenario]
duration_s = 60
dt_s = 0.5

[environment]
irradiance_profile = 0:100, 30:500, 60:200
sun_path = 0:30:90, 60:40:120

[battery]
battery_capacity_Wh = 24
soc_init_pct = 40

[tanks]
tank2_init_pct = 35
tank_low_pct = 25
tank_full_pct = 85

[soil]
soil_init_pct = 55
soil_decay_pct_per_hr = 10
"""


class TestConfigParsing:
    def test_minimal_fills_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.duration_s == 30.0
        assert cfg.tank_low_pct == 20.0   # default preserved

    def test_full_roundtrip(self):
        cfg = parse_config_text(FULL)
        assert cfg.dt_s == 0.5
        assert cfg.irradiance_profile == ((0.0, 100.0), (30.0, 500.0),
                                          (60.0, 200.0))
        assert cfg.sun_path == ((0.0, 30.0, 90.0), (60.0, 40.0, 120.0))
        assert cfg.tank_full_pct == 85.0

    def test_threshold_ordering_rejected(self):
        bad = "[tanks]\ntank_low_pct = 95\ntank_full_pct = 90\n"
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_duplicate_key_reports_both_lines(self):
        bad = "[scenario]\nduration_s = 10\nduration_s = 20\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert "lines 2 and 3" in str(err.value)

    def test_unknown_key_reports_line(self):
        bad = "[scenario]\nduration_s = 10\nwarp_factor = 9\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert "line 3" in str(err.value)
        assert "warp_factor" in str(err.value)

    def test_unparsable_number_reports_line(self):
        bad = "[scenario]\nduration_s = soon\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert "line 2" in str(err.value)

    def test_key_in_wrong_section(self):
        bad = "[battery]\nduration_s = 10\n"
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")


class TestCsv:
    def test_nine_significant_digits_round_trip(self, tmp_path):
        values = [1.0 / 3.0, 123456789.123, 5e-17, 475.0, -0.0112]
        path = tmp_path / "vals.csv"
        emit_csv(["x"], [values], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x"
        for line, v in zip(lines[1:], values):
            assert "%.9g" % float(line) == line

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(["t", "y"], [[], []], path)
        assert path.read_text() == "t,y\n"

    def test_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(["t", "y"], [[0.0], [1.5]], path)
        assert path.read_text() == "t,y\n0,1.5\n"

    def test_quoting(self, tmp_path):
        path = tmp_path / "q.csv"
        emit_csv(["name"], [["a,b", 'say "hi"']], path)
        assert path.read_text() == 'name\n"a,b"\n"say ""hi"""\n'

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(["a"], [[1.0]], path)
        raw = path.read_bytes()
        assert b"\r" not in raw


def _quote(s):
    if any(ch in s for ch in (",", '"', "\n", "\r")):
        return '"' + s.replace('"', '""') + '"'
    return s


def rowwise_csv(header, rows):
    """Reference: the CSV written row by row, each value formatted on its
    own by its Python type: bool and int as integers, float at 9
    significant digits, anything else as quoted text."""
    def fmt(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return "%.9g" % v
        return _quote(str(v))

    lines = [",".join(_quote(h) for h in header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestColumnCsv:
    def test_trace_matches_rowwise_writer(self, tmp_path):
        # more rows than one block, specials spread across every column
        rng = np.random.default_rng(9)
        n = 10000
        specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300,
                    -1e-300, 5e-324, 1.7976931348623157e308, 123456789.5]
        cols = {}
        for j, name in enumerate(SimTrace.COLUMNS):
            c = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
            picks = rng.integers(0, n, 200)
            c[picks] = [specials[(j + k) % len(specials)]
                        for k in range(200)]
            cols[name] = c
        trace = SimTrace(**cols)
        path = tmp_path / "trace.csv"
        cols = [getattr(trace, name) for name in trace.COLUMNS]
        emit_csv(trace.COLUMNS, cols, path)
        assert path.read_bytes() == rowwise_csv(
            trace.COLUMNS, zip(*(c.tolist() for c in cols)))

    def test_readme_commands_parse(self):
        # each example command in the README parses as written
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = [line for line in readme.splitlines()
                 if line.startswith("sunpump ")]
        assert len(lines) >= 12
        for line in lines:
            argv = shlex.split(line)[1:]
            args = build_parser().parse_args(argv)
            assert args.command == argv[0]

    def test_readme_lists_the_trace_columns(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"The trace CSV columns, in order: `([^`]*)`",
                           readme).group(1)
        assert tuple(re.split(r",\s+", listed)) == SimTrace.COLUMNS

    def test_empty_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(["t", "y"], [np.empty(0), np.empty(0)], path)
        assert path.read_text() == "t,y\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(["t", "y"], [np.zeros(3), np.zeros(2)],
                     tmp_path / "x.csv")

    def test_integer_columns_print_as_integers(self, tmp_path):
        # "%.9g" would print 1e+09 and lose the last digits of 2**53 + 1
        path = tmp_path / "n.csv"
        emit_csv(["n", "flag"], [np.array([10**9, 2**53 + 1, -3]),
                                 np.array([True, False, True])], path)
        assert path.read_text() == ("n,flag\n1000000000,1\n"
                                    "9007199254740993,0\n-3,1\n")

    def test_text_column_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(["name", "x"],
                 [["a,b", 'say "hi"', "two\nlines", "plain"],
                  np.array([1.0, 2.5, -0.0, math.nan])], path)
        assert path.read_bytes() == (b'name,x\n"a,b",1\n"say ""hi""",2.5\n'
                                     b'"two\nlines",-0\nplain,nan\n')


class TestCliExitCodes:
    def test_usage_error(self, capsys):
        assert main(["tf", "wrong-mode"]) == 1

    def test_negative_hour_angle_count(self, tmp_path, capsys):
        assert main(["solar-angles", "--hour-angles=0:10:-2",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv", [
        ["track-sim", "--steps", "0"], ["track-sim", "--steps", "-4"],
        ["mppt-run", "--steps", "0"], ["pv-curve", "--points", "-3"]],
        ids=["track-sim-0", "track-sim-negative", "mppt-run-0",
             "pv-curve-negative"])
    def test_bad_count_is_a_usage_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_zero_point_curve_is_header_only(self, tmp_path, capsys):
        assert main(["pv-curve", "--points", "0", "--out",
                     str(tmp_path)]) == 0
        assert (tmp_path / "pv_curve.csv").read_text() == "v,i,p\n"

    def test_unknown_preset(self, capsys):
        assert main(["tf", "analyze", "--preset", "nope"]) == 1

    def test_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nduration_s = -5\n")
        assert main(["scenario", "run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("section, line", [
        ("battery", "battery_capacity_Wh = nan"),
        ("pumps", "pump_flow_Lpm = inf"),
        ("soil", "soil_gain_pct_per_L = -5"),
        ("scenario", "dt_s = nan"),
    ])
    def test_bad_scalar_is_a_config_error(self, tmp_path, capsys, section,
                                          line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{line}\n")
        code = main(["scenario", "run", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[environment]\nirradiance_profile = 0:-100, 10:-50\n",
        "[environment]\nsun_path = 0:95:90, 10:95:100\n",
        "[environment]\nsun_path = 0:-91:90, 10:30:100\n",
        "[scenario]\nduration_s = 1\ndt_s = 0.3\n",
    ], ids=["negative-irradiance", "sun-above-zenith", "sun-below-nadir",
            "fractional-step-count"])
    def test_bad_profile_or_step_count_is_a_config_error(self, tmp_path,
                                                         capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nduration_s = 1\ndt_s = 0.1\n" + text
                       if text.startswith("[environment]") else text)
        code = main(["scenario", "run", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--dt", "0"], ["--dt", "nan"], ["--t-end", "1", "--dt", "0.3"],
    ], ids=["zero-dt", "nan-dt", "fractional-step-count"])
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, flags):
        code = main(["scenario", "run", *flags, "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_failure(self, capsys):
        # improper transfer function cannot produce a step response
        code = main(["tf", "step", "--tf-text", "num: 1 0 0 / den: 1 1"])
        assert code == 3

    @pytest.mark.parametrize("flags", [[], ["--t-end", "1e9", "--dt", "1e-6"]],
                             ids=["default-t-end-dt", "t-end-dt"])
    def test_oversized_step_response_is_a_numeric_failure(self, tmp_path,
                                                          capsys, flags):
        # poles at -1e-3 and -1e6: the defaults ask for 1.6e11 samples,
        # which used to end in a memory-error traceback with exit 1
        code = main(["tf", "step", "--tf-text", STIFF, *flags,
                     "--out", str(tmp_path)])
        assert code == 3
        assert "samples" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("timing", ["", "t_end = 1e9\ndt = 1e-6\n"],
                             ids=["default-t-end-dt", "t-end-dt"])
    def test_oversized_step_response_from_a_config(self, tmp_path, capsys,
                                                   timing):
        path = tmp_path / "a.cfg"
        path.write_text(f"[analysis]\nkind = step\ntf_text = {STIFF}\n"
                        + timing)
        out = tmp_path / "out"
        assert main(["tf", "--config", str(path), "--out", str(out)]) == 3
        assert "samples" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_a_numeric_failure(self, tmp_path, capsys):
        # 1e15 gains: the grid alone would take petabytes
        code = main(["tf", "rlocus", "--preset", "cascade", "--gains",
                     "0.1:10:1e15", "--out", str(tmp_path)])
        assert code == 3
        assert "out of memory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["track-sim", "--motor-step", "nan"],
        ["track-sim", "--start", "nan:0"],
        ["track-sim", "--azimuth", "nan:0"],
        ["solar-angles", "--lat", "nan"],
        ["mppt-run", "--dv-step", "inf"],
        ["mppt-run", "--start-v", "nan"],
        ["mppt-run", "--start-v", "inf"],
        ["mppt-run", "--start-v=-inf"],
        ["mppt-run", "--g-t", "nan"],
        ["pv-curve", "--g-t", "nan"],
        ["pv-curve", "--t-c", "nan"],
        ["solar-angles", "--azimuth", "nan:0"],
        ["solar-angles", "--alpha-target", "5", "--beta-target", "nan"]],
        ids=["track-sim-motor-step", "track-sim-start", "track-sim-azimuth",
             "solar-angles-lat", "mppt-run-dv-step", "mppt-run-start-v-nan",
             "mppt-run-start-v-inf", "mppt-run-start-v-minus-inf",
             "mppt-run-g-t", "pv-curve-g-t", "pv-curve-t-c",
             "solar-angles-azimuth", "solar-angles-beta-target"])
    def test_nonfinite_input_is_a_numeric_failure(self, tmp_path, capsys,
                                                  argv):
        # each used to exit 0 with NaN or infinite rows
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("t_c", ["5", "17.5", "18"])
    def test_cold_cell_names_its_range(self, tmp_path, capsys, t_c):
        # used to exit 3 with "float division by zero", "no finite
        # start" or "math range error", none naming the input
        assert main(["pv-curve", "--t-c", t_c, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"T_c = {t_c} K" in err and "T_c >= 50 K" in err
        assert not any(tmp_path.iterdir())


class TestCliCommands:
    def test_tf_analyze(self, capsys):
        assert main(["tf", "analyze", "--preset", "pump_storage"]) == 0
        out = capsys.readouterr().out
        assert "stable" in out
        assert "DC gain: 5" in out

    def test_tf_step_metrics(self, tmp_path, capsys):
        code = main(["tf", "step", "--preset", "pump_loop",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rise" in out
        assert (tmp_path / "step.csv").exists()

    def test_tf_bode_margins(self, tmp_path, capsys):
        code = main(["tf", "bode", "--preset", "motor_paper",
                     "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "bode.csv").read_text().splitlines()
        assert text[0] == "omega_rad_s,magnitude_db,phase_deg"
        assert len(text) == 401   # default 400-point grid

    def test_tf_routh(self, capsys):
        assert main(["tf", "routh", "--tf-text",
                     "num: 1 / den: 1 2 5"]) == 0
        assert "verdict: stable" in capsys.readouterr().out

    def test_tf_rlocus(self, tmp_path, capsys):
        code = main(["tf", "rlocus", "--preset", "pump_loop",
                     "--gains", "0.1:100:20", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "rlocus.csv").exists()

    def test_tf_errors(self, capsys):
        assert main(["tf", "errors", "--preset", "pump_storage"]) == 0
        out = capsys.readouterr().out
        assert "Kp = 5" in out

    def test_pv_curve(self, tmp_path, capsys):
        assert main(["pv-curve", "--points", "50",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "pv_curve.csv").read_text().splitlines()
        assert lines[0] == "v,i,p"
        assert len(lines) == 51

    def test_solar_angles(self, tmp_path, capsys):
        assert main(["solar-angles", "--day", "172", "--lat", "45",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "solar_angles.csv").read_text().splitlines()
        assert lines[0].startswith("n,ST,delta")

    def test_track_sim(self, tmp_path, capsys):
        assert main(["track-sim", "--steps", "40",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "track_sim.csv").exists()

    def test_mppt_run(self, tmp_path, capsys):
        assert main(["mppt-run", "--steps", "40", "--algo", "ic",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mppt_ic.csv").read_text().splitlines()
        assert lines[0] == "iter,v_ref,i,p"
        assert len(lines) == 41

    def test_scenario_run_short(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(MINIMAL)
        assert main(["scenario", "run", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "final SOC" in out
        lines = (tmp_path / "scenario_trace.csv").read_text().splitlines()
        assert len(lines) == 301

    def test_scenario_run_overrides(self, tmp_path, capsys):
        assert main(["scenario", "run", "--t-end", "60", "--dt", "0.5",
                     "--out", str(tmp_path)]) == 0
        assert "(120 steps)" in capsys.readouterr().out
        lines = (tmp_path / "scenario_trace.csv").read_text().splitlines()
        assert len(lines) == 121


class TestDeterminism:
    def test_scenario_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(MINIMAL)
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            assert main(["scenario", "run", "--config", str(cfg),
                         "--out", str(d)]) == 0
            outs.append((d / "scenario_trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_validate_byte_identical(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            assert main(["validate", "--out", str(d)]) == 0
            outs.append((d / "validation_report.csv").read_bytes())
        assert outs[0] == outs[1]


ANALYSIS = """
[analysis]
kind = step
preset = pump_loop
t_end = 2.0
"""


class TestAnalysisConfig:
    def test_parse_analysis_request(self, tmp_path):
        from sunpump.config import AnalysisRequest, parse_config
        path = tmp_path / "a.cfg"
        path.write_text(ANALYSIS)
        req = parse_config(path)
        assert isinstance(req, AnalysisRequest)
        assert req.kind == "step"
        assert req.preset == "pump_loop"
        assert req.t_end == 2.0

    def test_mixed_sections_rejected(self):
        from sunpump.config import parse_config_text
        bad = "[analysis]\nkind = step\npreset = pump_loop\n" \
              "[scenario]\nduration_s = 10\n"
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_missing_system_rejected(self):
        from sunpump.config import parse_config_text
        with pytest.raises(ConfigError):
            parse_config_text("[analysis]\nkind = step\n")

    def test_cli_runs_analysis_config(self, tmp_path, capsys):
        path = tmp_path / "a.cfg"
        path.write_text(ANALYSIS)
        assert main(["tf", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "step.csv").exists()

    def test_cli_tf_without_mode_or_config(self, capsys):
        assert main(["tf"]) == 1

    def test_scenario_config_into_tf_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(MINIMAL)
        assert main(["tf", "analyze", "--config", str(path)]) == 2

    def test_analysis_config_into_scenario_rejected(self, tmp_path, capsys):
        path = tmp_path / "a.cfg"
        path.write_text(ANALYSIS)
        assert main(["scenario", "run", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "scenario_trace.csv").exists()


class TestTfColumnCsv:
    """The tf CSVs, written column-wise, carry the row writer's bytes."""

    @pytest.mark.parametrize("preset_name", ["metering_pump", "pump_loop",
                                             "cascade", "tank_2nd_order"])
    def test_step_and_bode(self, tmp_path, capsys, preset_name):
        from sunpump.lti import (frequency_response, step_response,
                                 tf_feedback_gain)
        from sunpump.plants import preset
        out = tmp_path / "out"
        assert main(["tf", "step", "--closed", "--t-end", "30", "--preset",
                     preset_name, "--out", str(out)]) == 0
        assert main(["tf", "bode", "--preset", preset_name,
                     "--out", str(out)]) == 0
        tf = preset(preset_name)
        trace = step_response(tf_feedback_gain(tf, 1.0), 30.0)
        assert (out / "step.csv").read_bytes() == rowwise_csv(
            ["t", "y"], zip(trace.t.tolist(), trace.y.tolist()))
        fr = frequency_response(tf)
        assert (out / "bode.csv").read_bytes() == rowwise_csv(
            ["omega_rad_s", "magnitude_db", "phase_deg"],
            zip(fr.omegas.tolist(), fr.magnitude_db.tolist(),
                fr.phase_deg.tolist()))

    def test_rlocus_and_ss_error(self, tmp_path, capsys):
        from sunpump.lti import root_locus, ss_error_vs_gain
        from sunpump.plants import preset
        out = tmp_path / "out"
        assert main(["tf", "rlocus", "--preset", "cascade", "--gains",
                     "0.01:1000:60", "--out", str(out)]) == 0
        assert main(["tf", "errors", "--preset", "cascade", "--gains",
                     "0.1:1000:40", "--out", str(out)]) == 0
        tf = preset("cascade")
        gains = np.geomspace(0.01, 1000.0, 60)
        locus = root_locus(tf, gains)
        rows = [[k, p.real, p.imag] for k, ps in zip(gains, locus)
                for p in ps]
        assert (out / "rlocus.csv").read_bytes() == rowwise_csv(
            ["gain", "re", "im"], rows)
        ks, errs, _ = ss_error_vs_gain(tf, np.geomspace(0.1, 1000.0, 40))
        assert (out / "ss_error.csv").read_bytes() == rowwise_csv(
            ["gain", "e_step"], zip(ks.tolist(), errs.tolist()))


class TestCliCsvBytes:
    """The other CLI CSVs carry the row writer's bytes for the rows the
    commands used to build value by value."""

    def test_pv_curve(self, tmp_path, capsys):
        from sunpump import pv
        assert main(["pv-curve", "--points", "60", "--g-t", "700",
                     "--out", str(tmp_path)]) == 0
        ap = pv.default_array(700.0, t_c=298.0)
        curve = pv.iv_curve(ap, np.linspace(0.0, pv.open_circuit_voltage(ap),
                                             60))
        rows = zip(curve.voltages.tolist(), curve.currents.tolist(),
                   curve.powers.tolist())
        assert (tmp_path / "pv_curve.csv").read_bytes() == rowwise_csv(
            ["v", "i", "p"], rows)

    @pytest.mark.parametrize("hour_angles", ["-60:60:25", "-170:170:18"])
    def test_solar_angles(self, tmp_path, capsys, hour_angles):
        from sunpump.solar import (SunPosition, UndefinedDirectionError,
                                   angle_of_incidence, declination,
                                   incidence_direction, optimal_orientation,
                                   zenith_and_elevation)
        assert main(["solar-angles", "--day", "300", "--lat", "30",
                     f"--hour-angles={hour_angles}", "--azimuth", "100:260",
                     "--alpha-target", "5", "--out", str(tmp_path)]) == 0
        st0, st1, n = (float(x) for x in hour_angles.split(":"))
        n = int(n)
        delta = declination(300)
        rows = []
        for k in range(n):
            st = st0 + (st1 - st0) * k / max(n - 1, 1)
            theta_z, theta_e = zenith_and_elevation(30.0, delta, st)
            theta_sa = 100.0 + (260.0 - 100.0) * k / max(n - 1, 1)
            row = [300, st, delta, theta_e, theta_z, theta_sa]
            if theta_e > 0:
                sun = SunPosition(theta_e, theta_sa)
                to = optimal_orientation(sun, 5.0, 0.0).orientation
                try:
                    beta = incidence_direction(sun, to)
                except UndefinedDirectionError:
                    beta = 0.0
                row += [to.theta_TE, to.theta_TA,
                        angle_of_incidence(sun, to), beta]
            else:
                row += [0.0, theta_sa, 90.0, 0.0]
            rows.append(row)
        assert any(r[3] <= 0 for r in rows) == hour_angles.startswith("-170")
        assert (tmp_path / "solar_angles.csv").read_bytes() == rowwise_csv(
            ["n", "ST", "delta", "theta_e", "theta_z", "theta_SA",
             "theta_TE", "theta_TA", "alpha", "beta"], rows)

    def test_track_sim(self, tmp_path, capsys):
        from sunpump.solar import TrackerOrientation
        from sunpump.tracking import tracking_sim
        assert main(["track-sim", "--steps", "300", "--start", "45:160",
                     "--out", str(tmp_path)]) == 0
        k = np.arange(300)
        run = tracking_sim(30.0 + 30.0 * k / 299, 90.0 + 180.0 * k / 299,
                           start=TrackerOrientation(45.0, 160.0))
        azi_label = {1: "left", -1: "right", 0: "hold"}
        elev_label = {1: "up", -1: "down", 0: "hold"}
        rows = zip(range(300), run.theta_TE.tolist(), run.theta_TA.tolist(),
                   run.alpha.tolist(), *run.readings.T.tolist(),
                   map(azi_label.get, run.azimuth_step.tolist()),
                   map(elev_label.get, run.elevation_step.tolist()))
        assert (tmp_path / "track_sim.csv").read_bytes() == rowwise_csv(
            ["step", "theta_TE", "theta_TA", "alpha", "tl", "tr", "bl", "br",
             "az_cmd", "el_cmd"], rows)

    @pytest.mark.parametrize("algo, g_t", [("po", 1000.0), ("ic", 400.0)])
    def test_mppt_run(self, tmp_path, capsys, algo, g_t):
        from sunpump import mppt, pv
        assert main(["mppt-run", "--algo", algo, "--g-t", str(g_t),
                     "--out", str(tmp_path)]) == 0
        # reference: the step-by-step law on default_array(g_t)
        ap = pv.default_array(g_t)
        st = mppt.initial_state(0.5 * pv.open_circuit_voltage(ap), 0.5)
        step_fn = {"po": mppt.po_step, "ic": mppt.ic_step}[algo]
        rows = []
        for k in range(1, 121):
            v = st.V_ref
            i = pv.array_current(ap, v)
            st = step_fn(st, v, i)
            rows.append((k, v, i, v * i))
        assert (tmp_path / f"mppt_{algo}.csv").read_bytes() == rowwise_csv(
            ["iter", "v_ref", "i", "p"], rows)

    def test_validate(self, tmp_path, capsys):
        from sunpump.validation import build_report
        assert main(["validate", "--out", str(tmp_path)]) == 0
        rows = [[r.id, r.description,
                 math.nan if r.claimed_value is None else r.claimed_value,
                 r.unit, r.computed_value, r.abs_dev, r.rel_dev, r.status,
                 r.tolerance, r.tolerance_kind, r.note]
                for r in build_report()]
        assert any(r[2] != r[2] for r in rows)   # a missing claim: nan
        assert (tmp_path / "validation_report.csv").read_bytes() == (
            rowwise_csv(["id", "description", "claimed", "unit", "computed",
                         "abs_dev", "rel_dev", "status", "tolerance",
                         "tolerance_kind", "note"], rows))
