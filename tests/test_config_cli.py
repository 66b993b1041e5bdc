import math
import os
from pathlib import Path
import re
import shlex
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from sunpump.cli import build_parser, main
from sunpump.config import parse_config, parse_config_text, parse_gains
from sunpump import csvio, lti
from sunpump.csvio import emit_csv
from sunpump.plants import PRESETS
from sunpump.scenario import (ConfigError, ScenarioConfig, SimTrace,
                              run_scenario)
from test_scenario import cloudy_config

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


# the printf format per numpy dtype kind; every other kind is text
ROW_FORMATS = {"f": "%.9g", "i": "%d", "u": "%d", "b": "%d"}


def row_format_csv(header, columns):
    """Reference: every value of every row formatted on its own by its
    column's printf format (``emit_csv``'s dtype rule), text quoted."""
    cols = [np.asarray(c) for c in columns]
    formats = [ROW_FORMATS.get(c.dtype.kind, "%s") for c in cols]
    row_format = ",".join(formats) + "\n"
    values = [c.tolist() if f != "%s" else [_quote(str(v)) for v in c]
              for c, f in zip(cols, formats)]
    text = ",".join(_quote(h) for h in header) + "\n"
    text += "".join(row_format % row for row in zip(*values))
    return text.encode()


def _nan(payload, dtype):
    """A quiet NaN of ``dtype`` with the given payload bits."""
    bits = {np.float64: 0x7FF8000000000000, np.float32: 0x7FC00000}[dtype]
    width = {np.float64: np.int64, np.float32: np.int32}[dtype]
    return np.array(bits | payload, dtype=width).view(dtype).item()


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                  -2.2e-308, 1.7976931348623157e308, 1.0 / 3.0, 123456789.5]

# value strategies per column dtype; text columns hold object arrays of
# str, as the CLI's text columns do
COLUMN_VALUES = {
    np.float64: st.sampled_from(SPECIAL_FLOATS
                                + [_nan(p, np.float64) for p in (1, 7)])
    | st.floats(width=64),
    np.float32: st.sampled_from(SPECIAL_FLOATS[:5] + [1e-45, -1e-40]
                                + [_nan(p, np.float32) for p in (1, 7)])
    | st.floats(width=32),
    np.int64: st.integers(-2 ** 63, 2 ** 63 - 1),
    np.int16: st.integers(-2 ** 15, 2 ** 15 - 1),
    np.uint64: st.integers(0, 2 ** 64 - 1),
    np.uint8: st.integers(0, 255),
    np.bool_: st.booleans(),
    # NUL, U+00FF and multi-byte UTF-8: no text byte is the filler 0xFF
    object: st.text(alphabet='ab ,"\n\r\x00\xff\u20ac\U0001f600',
                    max_size=4),
}


@st.composite
def csv_columns(draw):
    """Equal-length columns of every dtype the writer meets: runs of a
    few values that change every row or hardly ever, and cross the
    block edges; lengths at and next to multiples of 512 rows, and to
    the 7 680-cell block of 1, 2 and 4 columns (7 680, 3 840 and 1 920
    rows)."""
    n = draw(st.sampled_from([0, 1, 511, 512, 513, 1023, 1024, 1025, 4097,
                              1919, 1920, 1921, 3839, 3840, 3841, 7679,
                              7680, 7681])
             | st.integers(0, 2100))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(sorted(COLUMN_VALUES, key=str)))
        pool = draw(st.lists(COLUMN_VALUES[dtype], min_size=1, max_size=5))
        if dtype in (np.float64, np.float32):
            pool += draw(st.sampled_from([[], [0.0, -0.0]]))
        # run lengths: 1 changes on every row, the others hardly ever
        mean_run = draw(st.sampled_from([1, 3, 4, 5, 200, 1024, 5000]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        runs = rng.geometric(1.0 / mean_run, n + 1).cumsum()
        run_of_row = np.searchsorted(runs, np.arange(n), "right")
        picks = rng.integers(0, len(pool), run_of_row.size + 1)
        values = np.empty(len(pool), dtype=dtype)
        values[:] = pool
        columns.append(values[picks[run_of_row]])
    return columns


class TestCsvMatchesRowFormat:
    """``emit_csv`` builds each block's bytes with numpy, a float by
    per-value ``%.9g`` only where its digits are not proven; its bytes
    must equal the row-format writer's."""

    @settings(max_examples=200)
    @given(columns=csv_columns())
    def test_generated_columns(self, columns, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        header = [f"c{j}" for j in range(len(columns))]
        emit_csv(header, columns, path)
        assert path.read_bytes() == row_format_csv(header, columns)

    def test_runs_across_block_edges(self, tmp_path):
        # signed zeros and NaN payloads in runs that start and end on and
        # next to the block edges, next to a column that never repeats
        edges = [0, 1, 1023, 1024, 1025, 2047, 2048, 3000, 4097]
        runs = [0.0, -0.0, _nan(1, np.float64), _nan(2, np.float64), -0.0,
                0.0, -0.0, 0.0]
        held = np.repeat(runs, np.diff(edges))
        columns = [held, held.astype(np.float32), np.arange(4097.0) / 7.0,
                   held == 0.0]
        path = tmp_path / "edges.csv"
        emit_csv(["a", "b", "c", "d"], columns, path)
        assert path.read_bytes() == row_format_csv(["a", "b", "c", "d"],
                                                   columns)

    @pytest.mark.parametrize("k", [1, 2, 4, 15])
    def test_runs_across_cell_block_edges(self, k, tmp_path):
        # a block holds 7 680 cells: 7 680, 3 840, 1 920 and 512 rows of
        # 1, 2, 4 and 15 columns; runs start and end at and next to two
        # block edges, next to columns that never repeat, one of them
        # with 3-digit exponents
        rows = 7680 // k
        edges = [0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows,
                 2 * rows + 1]
        runs = [0.0, -0.0, _nan(1, np.float64), 1e30, -0.0, 123456789.5,
                0.0]
        held = np.repeat(runs, np.diff(edges))
        ramp = np.arange(2 * rows + 1.0) / 7.0
        pool = [held, held.astype(np.float32), ramp, held == 0.0,
                -ramp * 1e-200]
        columns = [pool[j % len(pool)] for j in range(k)]
        header = [f"c{j}" for j in range(k)]
        path = tmp_path / "edges.csv"
        emit_csv(header, columns, path)
        assert path.read_bytes() == row_format_csv(header, columns)

    @pytest.mark.parametrize("cfg", [ScenarioConfig.default_daylight(),
                                     cloudy_config(1)],
                             ids=["default_daylight", "cloudy"])
    def test_scenario_trace(self, cfg, tmp_path):
        trace, _ = run_scenario(cfg)
        columns = [getattr(trace, name) for name in trace.COLUMNS]
        path = tmp_path / "trace.csv"
        emit_csv(trace.COLUMNS, columns, path)
        assert path.read_bytes() == row_format_csv(trace.COLUMNS, columns)

    @pytest.mark.parametrize("cfg", [ScenarioConfig.default_daylight(),
                                     cloudy_config(1)],
                             ids=["default_daylight", "cloudy"])
    def test_trace_floats_take_the_fast_path(self, cfg):
        # a trace float left to per-value '%.9g' costs a Python string:
        # at most 1 cell in 1000 may be (1 of 1 080 000 on daylight)
        trace, _ = run_scenario(cfg)
        cells = np.stack([getattr(trace, name) for name in trace.COLUMNS])
        _, slow = csvio._float_cells(cells.astype(float))
        assert np.count_nonzero(slow) <= cells.size // 1000

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_step_floats_take_the_fast_path(self, name, closed):
        # as above for the trace of `tf step`, at its default t_end:
        # motor_symbolic's closed loop diverges to 3e45, past 1e9
        from sunpump.lti import step_response, tf_feedback
        from sunpump.plants import preset
        tf = preset(name)
        poles = tf.poles()
        stable = poles[poles.real < -1e-12]
        t_end = 8.0 / abs(stable.real.max()) if stable.size else 10.0
        trace = step_response(tf_feedback(tf, 1.0) if closed else tf, t_end)
        cells = np.stack([trace.t, trace.y])
        _, slow = csvio._float_cells(cells)
        assert np.count_nonzero(slow) <= cells.size // 1000


def per_value_csv(values):
    """Reference: one column, each value printed by ``'%.9g' % v``."""
    return ("x\n" + "".join("%.9g\n" % v for v in values)).encode()


def _decimal_and_neighbours(texts):
    """The doubles nearest each decimal text and one ulp either side."""
    out = []
    for text in texts:
        v = float(text)
        out += [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]
    return out


# the float kernel's edges (csvio module docstring), each with one ulp
# either side: every power of ten; the 10th-digit ties 1.234567895 and
# the carries 9.999999995 at every decimal exponent of a double (one of
# them rounds to inf); the switches from fixed to exponent notation and
# from 2- to 3-digit exponents; and the fast path's lower end, 1e-300,
# and the subnormals below it
EDGE_FLOATS = (
    _decimal_and_neighbours(f"1e{k}" for k in range(-308, 309))
    + _decimal_and_neighbours(f"{d}e{k}" for d in ("1.234567895",
                                                  "9.999999995",
                                                  "1.000000005")
                              for k in range(-308, 309))
    + _decimal_and_neighbours(["9.99999999e-05", "9.999999995e-05",
                               "0.0001", "99999999.95", "999999999.4",
                               "999999999.5", "1e9", "9.99999999e99",
                               "9.999999995e99", "1e100", "1e-99",
                               "9.99999999e-100", "9.999999995e-100",
                               "1e-300", "9.99999999e-301",
                               "9.999999995e-301", "1.00000001e-300"])
    + [123456789.5, 5e-324, 1e-310, 2.2250738585072014e-308,
       np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308,
       0.0, math.inf, math.nan, _nan(1, np.float64), _nan(2 ** 51 - 1,
                                                          np.float64)])


class TestFloatKernel:
    """The float path of ``emit_csv`` against per-value ``'%.9g'``, byte
    for byte."""

    def test_edges(self, tmp_path):
        values = np.array(EDGE_FLOATS + [-v for v in EDGE_FLOATS])
        path = tmp_path / "edges.csv"
        emit_csv(["x"], [values], path)
        assert path.read_bytes() == per_value_csv(values.tolist())

    def test_every_keep_table_row(self, tmp_path):
        # every row of the keep table, (notation class, significant
        # digits, sign), with random digits: a row drops the same bytes
        # from every slot, and its add turns each of them into the
        # filler; the 2- and 3-digit exponent classes at several X
        rng = np.random.default_rng(35)
        values = [0.0, -0.0]
        for x in [*range(-4, 9), -99, -5, 9, 99, -300, -100, 100, 307]:
            for sig in range(1, 10):
                for _ in range(3):
                    digits = rng.integers(0, 10, sig)
                    digits[[0, -1]] = rng.integers(1, 10, 2)
                    v = float(f"{digits[0]}.{''.join(map(str, digits[1:]))}"
                              f"e{x}")
                    values += [v, -v]
        assert not csvio._float_cells(np.array(values))[1].any()
        path = tmp_path / "rows.csv"
        emit_csv(["x"], [np.array(values)], path)
        assert path.read_bytes() == per_value_csv(values)

    @settings(max_examples=200)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=600))
    def test_float64_bit_patterns(self, bits, tmp_path_factory):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        path = tmp_path_factory.getbasetemp() / "bits64.csv"
        emit_csv(["x"], [values], path)
        assert path.read_bytes() == per_value_csv(values.tolist())

    @settings(max_examples=100)
    @given(bits=st.lists(st.integers(0, 2 ** 32 - 1), max_size=600))
    def test_float32_bit_patterns(self, bits, tmp_path_factory):
        # signaling NaNs among them: widening one must not warn
        values = np.array(bits, dtype=np.uint32).view(np.float32)
        path = tmp_path_factory.getbasetemp() / "bits32.csv"
        emit_csv(["x"], [values], path)
        assert path.read_bytes() == per_value_csv(values.tolist())

    @settings(max_examples=100)
    @given(values=st.lists(st.floats(width=32), max_size=600))
    def test_float32_values(self, values, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "values32.csv"
        emit_csv(["x"], [np.array(values, dtype=np.float32)], path)
        assert path.read_bytes() == per_value_csv(values)

    @settings(max_examples=100)
    @given(digits=st.lists(st.integers(10 ** 8, 10 ** 9 - 1), min_size=1,
                           max_size=600),
           shift=st.integers(-16, 10), half=st.booleans())
    def test_nine_digit_values(self, digits, shift, half, tmp_path_factory):
        # every digit count at one exponent, or the nearest doubles to
        # the ties between them
        values = [float(f"{d}{'5' if half else ''}e{shift - half}")
                  for d in digits]
        path = tmp_path_factory.getbasetemp() / "nine.csv"
        emit_csv(["x"], [np.array(values)], path)
        assert path.read_bytes() == per_value_csv(values)


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


# the help texts at 80 columns; the preset names and registry ids in them
# are filled in only when help is printed
TF_HELP = """\
usage: sunpump tf [-h] [--config CONFIG] [--preset PRESET] [--tf-text TF_TEXT]
                  [--closed] [--dt DT] [--t-end T_END] [--gains GAINS]
                  [--out OUT]
                  [{analyze,step,bode,rlocus,routh,errors}]

positional arguments:
  {analyze,step,bode,rlocus,routh,errors}

options:
  -h, --help            show this help message and exit
  --config CONFIG       config file with an [analysis] section
  --preset PRESET       named system: cascade, metering_pump, motor_paper,
                        motor_symbolic, pump_loop, pump_storage, tank_001,
                        tank_2nd_order
  --tf-text TF_TEXT     'num: ... / den: ...' literal system
  --closed              close unity feedback before the step response
  --dt DT
  --t-end T_END
  --gains GAINS         a:b:n sweep of n log-spaced gains, b > a > 0
  --out OUT
"""

VALIDATE_HELP = """\
usage: sunpump validate [-h] [--out OUT]

options:
  -h, --help  show this help message and exit
  --out OUT

registry rows:
  tank2nd_pole_re
  tank2nd_pole_im
  motor_tf_den_s2
  motor_K1e5_rise
  motor_K1e5_overshoot
  motor_K1e5_peak_time
  motor_K1e6_rise
  motor_K1e6_overshoot
  motor_K1e6_peak
  motor_K1e6_peak_time
  motor_K1e6_settling
  motor_bode_mag_116
  motor_bode_phase_893
  motor_K1e6_gm
  motor_K1e6_gm_freq
  motor_K1e6_pm
  motor_K1e6_pm_freq
  motor_K_for_e01
  motor_K_for_e001
  motor_K_cl_e01
  motor_K_cl_e001
  charpoly_s3
  charpoly_s2
  charpoly_s1
  charpoly_s0
  tableII_verdict
  charpoly_actual_stability
  tuned_motor_rise
  tuned_motor_settling
  tuned_motor_overshoot
  tuned_motor_peak
  pump_rise
  pump_settling
  pump_time_constant
  pump_Kp
  pump_Kv
  pump_Ka
  pump_e_step
  cascade_num
  cascade_pole_fast
  cascade_pole_slow
  tableIII_all_K
  cascade_K_for_e01
  cascade_K_for_e001
  cascade_e_at_K1
  pid2_rise
  pid2_overshoot
  pid2_peak
  pid2_peak_time
  pid2_settling
  pid2_zero
  metering_dc_gain
  metering_pole_slow
  cascade_tuned1_rise
  cascade_tuned1_settling
  cascade_tuned1_overshoot
  cascade_tuned1_peak
  cascade_tuned2_rise
  cascade_tuned2_settling
  cascade_tuned2_overshoot
  cascade_tuned2_peak
  cascade_tuned2_gm
  cascade_tuned2_gm_freq
  cascade_tuned2_pm
  cascade_tuned2_pm_freq
  pv_power_vs_temp
  pv_mpp_vs_irradiance
"""


class TestHelpText:
    @pytest.mark.parametrize("command, text", [("tf", TF_HELP),
                                               ("validate", VALIDATE_HELP)])
    def test_help_is_pinned(self, command, text, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == text


def fresh_cli(*argv):
    """``sunpump argv`` in a fresh interpreter, which shows what a user
    sees: warnings printed, not raised."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "sunpump.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)


class TestCliExitCodes:
    def test_usage_error(self, capsys):
        assert main(["tf", "wrong-mode"]) == 1

    def test_negative_hour_angle_count(self, tmp_path, capsys):
        for count in ("-2", "nan", "inf", "2.5"):
            assert main(["solar-angles", f"--hour-angles=0:10:{count}",
                         "--out", str(tmp_path)]) == 1
            assert "hour-angle count" in capsys.readouterr().err

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

    @pytest.mark.parametrize("t_c", ["250", "298", "340"])
    @pytest.mark.parametrize("points, rows", [("200", "0,0,0\n"),
                                              ("1", "0,0,0\n"), ("0", "")])
    def test_dark_curve_is_the_origin(self, tmp_path, capsys, t_c, points,
                                      rows):
        # V_oc = 0 in the dark, so the grid used to be 200 zeros, which
        # iv_curve refuses (exit 3)
        assert main(["pv-curve", "--g-t", "0", "--t-c", t_c, "--points",
                     points, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "pv_curve.csv").read_text() == "v,i,p\n" + rows
        out = capsys.readouterr().out
        assert "Voc = 0.000 V" in out and "P = 0.00 W" in out

    def test_unknown_preset(self, capsys):
        assert main(["tf", "analyze", "--preset", "nope"]) == 1

    def test_scenario_action_is_checked_by_argparse(self, capsys):
        assert main(["scenario", "walk"]) == 1
        assert "invalid choice: 'walk'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,text", [
        ("routh", "num: 1 / den: 1 nan"), ("bode", "num: 1 / den: 1 nan"),
        ("step", "num: inf / den: 1 1"), ("analyze", "num: 1 / den: -inf 1"),
        ("errors", "num: 1 / den: 1 x"), ("routh", "den: 1 1 / num: 1")])
    def test_bad_tf_text_is_a_usage_error(self, tmp_path, capsys, mode,
                                           text):
        # a NaN denominator used to print "verdict: stable", and a NaN or
        # inf system wrote an all-NaN bode.csv or step.csv with exit 0
        assert main(["tf", mode, "--tf-text", text,
                     "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: tf-text: ")
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    def test_overflowing_tf_text_prints_only_the_usage_error(self,
                                                              tmp_path):
        # 1e308 / 1e-308 overflows as the system is made monic: numpy's
        # overflow warning printed ahead of the usage error
        proc = fresh_cli("tf", "analyze", "--tf-text",
                         "num: 1e308 / den: 1e-308 1",
                         "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == ("usage error: tf-text: coefficients must be "
                               "finite, got [inf]\n")
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code, err", [
        (["tf", "step", "--closed", "--tf-text",
          "num: 1e308 / den: 1 1e-300"], 3,
         "numeric failure: the default dt for t_end = 10.0 is 0\n"),
        (["tf", "errors", "--gains", "1e300:1e308:3", "--tf-text",
          "num: 1e10 / den: 1 1"], 0, "")], ids=["step", "errors"])
    def test_overflow_prints_no_numpy_warning(self, tmp_path, argv, code,
                                              err):
        # 20 |p| overflows for the default dt, and K 1e10 for the error;
        # numpy's overflow warning printed on stderr
        proc = fresh_cli(*argv, "--out", str(tmp_path))
        assert proc.returncode == code
        assert proc.stderr == err

    @pytest.mark.parametrize("argv", [["scenario", "run"], ["tf"]],
                             ids=["scenario-run", "tf"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path,
                                                       capsys, argv):
        # a Latin-1 comment: 0xe9 cannot start a UTF-8 sequence here
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\n[scenario]\nduration_s = 1\n")
        code = main([*argv, "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: cannot read config {cfg}: ")
        assert "'utf-8' codec can't decode" in err
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_is_an_output_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main(["pv-curve", "--points", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("output error: ") and str(out) in err
        assert err.count("\n") == 1
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("argv, name", [
        (["pv-curve", "--points", "5"], "pv_curve.csv"),
        (["scenario", "run", "--t-end", "1"], "scenario_trace.csv")],
        ids=["pv-curve", "scenario-run"])
    def test_csv_that_cannot_be_written_is_an_output_error(
            self, tmp_path, capsys, argv, name):
        # a directory where the CSV should go: opening it for writing
        # fails in emit_csv
        (tmp_path / name).mkdir()
        code = main([*argv, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("output error: ")
        assert str(tmp_path / name) in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("capacity", ["1e-310", "1e250"])
    def test_battery_capacity_outside_range_is_a_config_error(
            self, tmp_path, capsys, capacity):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nduration_s = 60\n[battery]\n"
                       f"battery_capacity_Wh = {capacity}\n")
        code = main(["scenario", "run", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: battery_capacity_Wh = ")
        assert "outside [0.001, 1e+06] Wh" in err

    @pytest.mark.parametrize("text, message", [
        ("[scenario]\nduration_s = 60\n[pumps]\npump1_power_W = 1e308\n",
         "pump1_power_W = 1e+308 outside [0, 10000] W"),
        ("[scenario]\nduration_s = 60\n[pumps]\npump_flow_Lpm = 1e308\n",
         "pump_flow_Lpm = 1e+308 outside [1e-09, 1000] L/min"),
        ("[scenario]\ndt_s = 1e307\nduration_s = 1e307\n",
         "dt_s = 1e+307 outside [0.001, 3600] s")])
    def test_ledger_overflow_is_a_config_error(self, tmp_path, capsys, text,
                                               message):
        # with pump1 on, each of these ran and reported energy_load_Wh = inf
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "[tanks]\ntank2_init_pct = 10\n"
                       "[battery]\nsoc_init_pct = 90\n")
        code = main(["scenario", "run", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "scenario_trace.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("[tanks]\ntank1_volume_L = 1e308\n",
         "tank1_volume_L = 1e+308 outside [1e-06, 1e+06] L"),
        ("[mppt]\nmppt_dv_step = 1e308\n",
         "mppt_dv_step = 1e+308 outside [0.001, 50] V"),
        ("[tracking]\ntracker_init_azi = 1e20\n",
         "tracker_init_azi = 1e+20 outside [-720, 720] deg"),
        ("[tracking]\ntracker_init_elev = 1e308\n",
         "tracker_init_elev = 1e+308 outside [-360, 360] deg"),
        *((f"[environment]\nirradiance_profile = 0:{g}, 60:{g}\n",
           f"irradiance_profile irradiance = {float(g)} outside [0, 2000] "
           "W/m2") for g in ("1e20", "1e300", "1e306")),
        ("[environment]\nsun_path = 0:30:95, 60:30:1e300\n",
         "sun_path azimuth = 1e+300 outside [-720, 720] deg")],
        ids=["tank-volume", "dv-step", "tracker-azimuth", "tracker-elevation",
             "irradiance-1e20", "irradiance-1e300", "irradiance-1e306",
             "sun-azimuth"])
    def test_unbounded_input_is_a_config_error(self, tmp_path, capsys, text,
                                               message):
        # each ran to a meaningless trace with exit 0 (an inf tank level,
        # V_ref at 1e308 V, a tracker that cannot move, 2.1 kW from the
        # array at 1e20 W/m2), or exited 3 naming no key
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nduration_s = 60\n" + text)
        code = main(["scenario", "run", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "scenario_trace.csv").exists()

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

    def test_overflowing_step_response_is_a_numeric_failure(self, tmp_path,
                                                            capsys):
        # G dt overflows: this used to write a trace of nan and exit 0
        code = main(["tf", "step", "--tf-text", "num: 1 / den: 1 1e300",
                     "--t-end", "1e11", "--dt", "1e10",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "dt = 1e+10" in err and len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_diverging_step_response_is_a_numeric_failure(self, tmp_path,
                                                          capsys):
        # 1/(s - 1) overflows at t = 710 s: this used to print numpy's
        # RuntimeWarnings, write inf from there on and exit 0
        out = tmp_path / "out"
        code = main(["tf", "step", "--tf-text", "num: 1 / den: 1 -1",
                     "--t-end", "1000", "--dt", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "step response overflows at t = 710 s" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", [
        "--t-end=-5", "--t-end=0", "--t-end=nan", "--t-end=inf", "--dt=nan",
        "--dt=-1"])
    def test_bad_step_time_is_named(self, tmp_path, capsys, flag):
        # refused before a default dt is derived from a bad t_end
        code = main(["tf", "step", "--preset", "pump_loop", flag,
                     "--out", str(tmp_path)])
        assert code == 3
        name = flag[2:].split("=")[0].replace("-", "_")
        assert f"{name} must be finite and > 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("line", [
        "t_end = -5", "t_end = 0", "t_end = nan", "t_end = inf", "dt = -1",
        "dt = nan", "gains = 0:10:5", "gains = 10:1:5", "gains = 1:10:0",
        "gains = 1:10", "gains = 1:x:5", "gains = 1:inf:5"])
    def test_bad_analysis_value_is_a_config_error(self, tmp_path, capsys,
                                                  line):
        path = tmp_path / "a.cfg"
        path.write_text(f"[analysis]\nkind = errors\npreset = cascade\n"
                        f"{line}\n")
        out = tmp_path / "out"
        assert main(["tf", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: analysis " + line.split()[0])
        assert not out.exists()

    def test_out_of_memory_is_a_numeric_failure(self, tmp_path, capsys,
                                                 monkeypatch):
        # a gain count past lti.MAX_GAINS is refused before anything is
        # allocated; an analysis that still runs out of memory is a
        # numeric failure
        def exhausted(tf, gains):
            raise MemoryError("root_locus")
        monkeypatch.setattr(lti, "root_locus", exhausted)
        code = main(["tf", "rlocus", "--preset", "cascade", "--gains",
                     "0.1:10:100", "--out", str(tmp_path)])
        assert code == 3
        assert "out of memory" in capsys.readouterr().err

    @pytest.mark.parametrize("gains", ["0.01:1000:1e8", "0.1:10:1e15"])
    @pytest.mark.parametrize("mode", ["rlocus", "errors"])
    def test_gain_count_past_the_ceiling_is_refused(self, mode, gains,
                                                    tmp_path, capsys):
        # 1e8 gains of root_locus would ask for about 58 GB: refused as
        # the sweep is parsed, a usage error on the command line and a
        # config error in a config file
        out = tmp_path / "out"
        code = main(["tf", mode, "--preset", "cascade", "--gains", gains,
                     "--out", str(out)])
        assert code == 1
        assert ("usage error: gains must be 'a:b:n' with n <= 100000"
                in capsys.readouterr().err)
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"[analysis]\nkind = {mode}\npreset = cascade\n"
                       f"gains = {gains}\n")
        assert main(["tf", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: analysis gains: gains must be 'a:b:n' with n <= "
            "100000")
        assert not out.exists()

    def test_gain_count_ceiling_parses(self):
        top = lti.MAX_GAINS
        assert parse_gains(f"0.01:1000:{top}") == (0.01, 1000.0, top)
        assert parse_gains(f"0.01:1000:{top}.5") == (0.01, 1000.0, top)
        with pytest.raises(ValueError, match=f"n <= {top}, got n = "):
            parse_gains(f"0.01:1000:{top + 1}")

    @pytest.mark.parametrize("via", ["cli", "config"])
    @pytest.mark.parametrize("mode", ["rlocus", "errors"])
    def test_gain_count_at_the_ceiling_runs(self, mode, via, tmp_path,
                                            capsys, monkeypatch):
        # the ceiling itself, lowered: exactly MAX_GAINS gains run, and
        # one more is refused on either path
        monkeypatch.setattr(lti, "MAX_GAINS", 50)
        rows = {"rlocus": 50 * 2, "errors": 50}[mode]
        name = {"rlocus": "rlocus.csv", "errors": "ss_error.csv"}[mode]
        for n, code in ((50, 0), (51, 1 if via == "cli" else 2)):
            out = tmp_path / str(n)
            argv = ["tf", mode, "--preset", "cascade", "--gains",
                    f"0.01:1000:{n}"]
            if via == "config":
                cfg = tmp_path / f"{n}.cfg"
                cfg.write_text(f"[analysis]\nkind = {mode}\n"
                               f"preset = cascade\ngains = 0.01:1000:{n}\n")
                argv = ["tf", "--config", str(cfg)]
            assert main(argv + ["--out", str(out)]) == code
            if code:
                assert "with n <= 50, got n = 51" in capsys.readouterr().err
                assert not out.exists()
            else:
                lines = (out / name).read_text().splitlines()
                assert len(lines) == 1 + rows

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

    def test_huge_irradiance_names_its_range(self, tmp_path, capsys):
        # exited 3 with "cannot convert float infinity to integer"
        assert main(["track-sim", "--irradiance", "1e306",
                     "--out", str(tmp_path)]) == 3
        assert "irradiance = 1e+306 outside [0, 2000] W/m2" \
            in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["mppt-run", "--dv-step", "1e308"],
         "mppt_dv_step = 1e+308 outside [0.001, 50] V"),
        (["track-sim", "--motor-step", "1e308"],
         "motor_step_deg = 1e+308 outside [0.001, 180] deg"),
        (["track-sim", "--azimuth=1e300:1e300"],
         "azimuth = 1e+300 outside [-720, 720] deg"),
        (["track-sim", "--start=1e300:0"],
         "tracker_init_elev = 1e+300 outside [-360, 360] deg"),
        (["solar-angles", "--azimuth=1e300:1e300"],
         "azimuth = 1e+300 outside [-720, 720] deg"),
        (["mppt-run", "--g-t", "5000"],
         "irradiance = 5000.0 outside [0, 2000] W/m2"),
        (["mppt-run", "--g-t", "1e300"],
         "irradiance = 1e+300 outside [0, 2000] W/m2"),
        (["pv-curve", "--g-t", "1e300"],
         "irradiance = 1e+300 outside [0, 2000] W/m2"),
        (["pv-curve", "--g-t", "nan"],
         "irradiance = nan outside [0, 2000] W/m2")])
    def test_huge_input_names_its_range(self, tmp_path, capsys, argv,
                                        message):
        # each used to exit 0 with rows that mean nothing (a 378 W
        # harvest at 5000 W/m2), or exit 3 naming no key
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("lat", ["95", "-90.5"])
    def test_latitude_out_of_range_is_a_numeric_failure(self, tmp_path,
                                                        capsys, lat):
        # --lat 95 used to write a table and exit 0
        assert main(["solar-angles", f"--lat={lat}",
                     "--out", str(tmp_path)]) == 3
        assert "latitude must lie in [-90, 90]" in capsys.readouterr().err
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

    def test_tf_bode_zero_on_the_grid(self, tmp_path, capsys):
        # the zeros +-j sit on the default grid's omega = 1: the row read
        # -inf dB with a numpy warning on stderr
        assert main(["tf", "bode", "--tf-text", "num: 10 0 10 / den: 1 2 1",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "bode.csv").read_text().splitlines()
        assert "1,-219.999228,90" in rows
        assert "inf" not in "".join(rows) and "nan" not in "".join(rows)
        assert capsys.readouterr().err == ""

    def test_tf_bode_overflow_is_a_numeric_failure(self, tmp_path, capsys):
        assert main(["tf", "bode", "--tf-text", "num: 1e305 0 0 / den: 1 1",
                     "--out", str(tmp_path)]) == 3
        assert "frequency response is not finite at omega = " in \
            capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_tf_bode_margin_below_the_grid(self, tmp_path, capsys):
        # the loop meets 0 dB at sqrt(24)/1000 rad/s, under the CSV
        # grid's first point: the margin read "absent"
        assert main(["tf", "bode", "--tf-text", "num: 5 / den: 1000 1",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "phase margin: 102 deg @ 0.004899 rad/s" in out
        assert "gain margin: absent" in out

    @pytest.mark.parametrize("text", [
        "num: 1 / den: 1 0 1",      # read its pole at +-j: -234 dB @ 1
        "num: 1 / den: 1",          # read 180 deg @ 0.01 rad/s
        "num: -1 / den: 1"])        # read -0 dB @ 0.01 rad/s
    def test_tf_bode_no_false_crossings(self, tmp_path, capsys, text):
        assert main(["tf", "bode", "--tf-text", text,
                     "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "gain margin: absent" in out
        if text != "num: 1 / den: 1 0 1":    # |G| = 1 at sqrt(2) rad/s
            assert "phase margin: absent" in out
        assert err == ""

    def test_tf_routh(self, capsys):
        assert main(["tf", "routh", "--tf-text",
                     "num: 1 / den: 1 2 5"]) == 0
        assert "verdict: stable" in capsys.readouterr().out

    def test_tf_analyze_keeps_small_leading_terms(self, capsys):
        # 1e-13 * max|c| used to count as zero: this read as first order
        # with one pole at -5e12, and den: 1 1e14 as degree 0 (exit 3)
        assert main(["tf", "analyze", "--tf-text",
                     "num: 1 / den: 1 20 1e14"]) == 0
        out = capsys.readouterr().out
        assert "den degree 2" in out
        assert "poles: -10-1e+07j, -10+1e+07j" in out
        assert main(["tf", "analyze", "--tf-text",
                     "num: 1 / den: 1 1e14"]) == 0
        assert "poles: -1e+14" in capsys.readouterr().out

    @pytest.mark.parametrize("closed, y", [([], "2"),
                                           (["--closed"], "0.666666667")])
    def test_tf_step_of_a_static_gain(self, tmp_path, capsys, closed, y):
        # poles() used to raise for den degree 0 (exit 3)
        assert main(["tf", "step", *closed, "--tf-text", "num: 2 / den: 1",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "step.csv").read_text().splitlines()
        assert len(lines) == 2002
        assert {row.split(",")[1] for row in lines[1:]} == {y}

    def test_tf_analyze_of_a_static_gain(self, capsys):
        assert main(["tf", "analyze", "--tf-text", "num: 2 / den: 1"]) == 0
        out = capsys.readouterr().out
        assert "DC gain: 2.0" in out
        assert "poles: \n" in out and "verdict: stable (no poles)" in out

    @pytest.mark.parametrize("mode", ["routh", "rlocus"])
    def test_tf_without_poles_names_the_static_gain(self, tmp_path, capsys,
                                                    mode):
        assert main(["tf", mode, "--tf-text", "num: 2 / den: 1",
                     "--out", str(tmp_path)]) == 3
        assert "a static gain (den degree 0) has none" in \
            capsys.readouterr().err

    def test_tf_errors_keeps_small_constant_term(self, capsys):
        assert main(["tf", "errors", "--tf-text",
                     "num: 1 / den: 1 1e14 1"]) == 0
        assert "system type 0: Kp = 1," in capsys.readouterr().out

    def test_tf_rlocus(self, tmp_path, capsys):
        code = main(["tf", "rlocus", "--preset", "pump_loop",
                     "--gains", "0.1:100:20", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "rlocus.csv").exists()

    def test_tf_errors(self, capsys):
        assert main(["tf", "errors", "--preset", "pump_storage"]) == 0
        out = capsys.readouterr().out
        assert "Kp = 5" in out

    @pytest.mark.parametrize("gains", ["1:10", "1:x:5", "1:10:nan",
                                       "1:inf:5"])
    def test_malformed_gain_sweep_is_a_usage_error(self, gains, tmp_path,
                                                   capsys):
        code = main(["tf", "errors", "--preset", "cascade",
                     f"--gains={gains}", "--out", str(tmp_path)])
        assert code == 1
        assert "usage error: gains must be 'a:b:n'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("mode", ["errors", "rlocus"])
    @pytest.mark.parametrize("preset", ["motor_paper", "cascade"])
    @pytest.mark.parametrize("gains", ["0:10:5", "-1:10:5", "10:1:5",
                                       "1:10:0"])
    def test_gain_sweep_from_zero_or_below_is_a_usage_error(
            self, mode, preset, gains, tmp_path, capsys):
        code = main(["tf", mode, "--preset", preset, f"--gains={gains}",
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "b > a > 0" in captured.err
        assert captured.out == ""        # nothing printed before the check
        assert not list(tmp_path.iterdir())

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
        assert "unreachable target on 0 of 25 lit rows" in \
            capsys.readouterr().out

    def test_solar_angles_counts_unreachable_rows(self, tmp_path, capsys):
        # at 10 degrees latitude the sun climbs high enough that
        # sin(40) sin(80) > cos(theta_e) on the 15 rows around noon
        assert main(["solar-angles", "--alpha-target", "40",
                     "--beta-target", "80", "--lat", "10",
                     "--out", str(tmp_path)]) == 0
        assert "unreachable target on 15 of 25 lit rows, answered with " \
            "the nearest reachable one" in capsys.readouterr().out
        # the reachable column flags those 15 rows and no other
        lines = (tmp_path / "solar_angles.csv").read_text().splitlines()
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"`solar_angles.csv` has the columns `([^`]*)`",
                           readme).group(1)
        assert re.split(r",\s+", listed) == lines[0].split(",")
        assert lines[0].endswith(",beta,reachable")
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert flags.count("0") == 15 and flags.count("1") == 10

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

    @pytest.mark.parametrize("overrides, checks", [
        ([], 1), (["--dt", "0.5"], 2), (["--t-end", "60"], 2)])
    def test_scenario_run_checks_its_config_once(self, tmp_path, capsys,
                                                 monkeypatch, overrides,
                                                 checks):
        # a run checked its config as parsed and again in run_scenario;
        # now it is checked when built, and again only by an override
        cfg = tmp_path / "s.cfg"
        cfg.write_text(MINIMAL)
        calls = []
        check = ScenarioConfig.validate
        monkeypatch.setattr(ScenarioConfig, "validate",
                            lambda self: calls.append(self) or check(self))
        assert main(["scenario", "run", "--config", str(cfg), *overrides,
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == checks


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

    @pytest.mark.parametrize("text", [
        "num: 1 / den: 1 nan", "num: inf / den: 1 1", "num: 1 / den: 0 0",
        "num: 1 / den: 1 x", "den: 1 / num: 1"])
    def test_bad_tf_text_is_a_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "a.cfg"
        path.write_text(f"[analysis]\nkind = bode\ntf_text = {text}\n")
        out = tmp_path / "out"
        assert main(["tf", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: analysis tf_text: ")
        assert not out.exists()

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
                                 tf_feedback)
        from sunpump.plants import preset
        out = tmp_path / "out"
        assert main(["tf", "step", "--closed", "--t-end", "30", "--preset",
                     preset_name, "--out", str(out)]) == 0
        assert main(["tf", "bode", "--preset", preset_name,
                     "--out", str(out)]) == 0
        tf = preset(preset_name)
        trace = step_response(tf_feedback(tf, 1.0), 30.0)
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
                sol = optimal_orientation(sun, 5.0, 0.0)
                to = sol.orientation
                try:
                    beta = incidence_direction(sun, to)
                except UndefinedDirectionError:
                    beta = 0.0
                row += [to.theta_TE, to.theta_TA,
                        angle_of_incidence(sun, to), beta, int(sol.reachable)]
            else:
                # an unlit row seeks no target: reachable reads 1
                row += [0.0, theta_sa, 90.0, 0.0, 1]
            rows.append(row)
        assert any(r[3] <= 0 for r in rows) == hour_angles.startswith("-170")
        assert (tmp_path / "solar_angles.csv").read_bytes() == rowwise_csv(
            ["n", "ST", "delta", "theta_e", "theta_z", "theta_SA",
             "theta_TE", "theta_TA", "alpha", "beta", "reachable"], rows)

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
