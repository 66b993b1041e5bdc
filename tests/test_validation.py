import math

import numpy as np
import pytest

from sunpump.lti import ss_error_vs_gain
from sunpump.plants import MOTOR_PAPER
from sunpump.validation import (_row, build_report, format_report,
                                report_columns)

DEVIATES = {
    "motor_tf_den_s2", "motor_K_cl_e01", "motor_K_cl_e001",
    "charpoly_s1", "charpoly_s0", "tableII_verdict",
    "tuned_motor_rise", "tuned_motor_settling", "tuned_motor_overshoot",
    "tuned_motor_peak", "pump_rise", "pump_settling", "pump_time_constant",
    "pump_e_step", "cascade_e_at_K1",
    "pid2_rise", "pid2_overshoot", "pid2_peak_time",
}
QUALITATIVE = {"metering_dc_gain", "metering_pole_slow"}


@pytest.fixture(scope="module")
def report():
    rows = build_report()
    return {r.id: r for r in rows}, rows


class TestRegistryStructure:
    def test_no_duplicate_ids(self, report):
        by_id, rows = report
        assert len(by_id) == len(rows)

    def test_statuses_legal(self, report):
        _, rows = report
        assert all(r.status in ("MATCH", "DEVIATES", "QUALITATIVE")
                   for r in rows)

    def test_qualitative_iff_kind_none(self, report):
        _, rows = report
        for r in rows:
            assert (r.status == "QUALITATIVE") == (r.tolerance_kind == "none")

    def test_match_iff_within_tolerance(self, report):
        _, rows = report
        for r in rows:
            if r.status == "QUALITATIVE" or r.claimed_value is None:
                continue
            if r.computed_value is None or math.isnan(r.computed_value):
                assert r.status == "DEVIATES"
                continue
            dev = r.abs_dev if (r.tolerance_kind == "abs"
                                or r.claimed_value == 0) else r.rel_dev
            assert (dev <= r.tolerance) == (r.status == "MATCH")

    def test_deviates_rows_carry_notes(self, report):
        _, rows = report
        for r in rows:
            if r.status == "DEVIATES":
                assert r.note or r.abs_dev >= 0   # numeric path recorded

    def test_required_row_ids_present(self, report):
        by_id, _ = report
        required = [
            "tank2nd_pole_re", "tank2nd_pole_im",
            "motor_K1e5_rise", "motor_K1e6_overshoot",
            "motor_bode_mag_116",
            "motor_K1e6_gm", "motor_K1e6_pm",
            "motor_K_for_e01", "motor_K_for_e001",
            "motor_K_cl_e01", "motor_K_cl_e001",
            "tableII_verdict", "tableIII_all_K",
            "pid2_rise", "pid2_overshoot", "pid2_peak", "pid2_settling",
            "cascade_tuned2_rise", "cascade_tuned2_settling",
            "cascade_tuned2_overshoot", "cascade_tuned2_peak",
            "cascade_tuned2_gm", "cascade_tuned2_pm",
            "pump_rise", "pump_settling", "pump_time_constant",
            "pump_Kp", "pump_Kv", "pump_Ka",
            "cascade_K_for_e01", "cascade_K_for_e001",
        ]
        for rid in required:
            assert rid in by_id, f"registry row {rid} missing"


class TestKnownOutcomes:
    def test_every_status_pinned(self, report):
        _, rows = report
        assert len(rows) == 67
        expected = {r.id: ("DEVIATES" if r.id in DEVIATES
                           else "QUALITATIVE" if r.id in QUALITATIVE
                           else "MATCH") for r in rows}
        assert {r.id: r.status for r in rows} == expected
        assert DEVIATES | QUALITATIVE <= expected.keys()
        assert [r.status for r in rows].count("MATCH") == 47
        assert format_report(rows).splitlines()[-1] == (
            "67 rows: 47 MATCH, 18 DEVIATES, 2 QUALITATIVE")

    def test_pole_rows_match(self, report):
        by_id, _ = report
        assert by_id["tank2nd_pole_re"].status == "MATCH"
        assert by_id["tank2nd_pole_im"].status == "MATCH"

    def test_cascade_identities_exact(self, report):
        by_id, _ = report
        assert by_id["cascade_num"].status == "MATCH"
        assert by_id["cascade_K_for_e01"].status == "MATCH"
        assert by_id["cascade_K_for_e001"].status == "MATCH"
        assert by_id["tableIII_all_K"].status == "MATCH"

    def test_pump_metrics_deviate_from_stated_time_constant(self, report):
        by_id, _ = report
        # rise/settling/time-constant claims are inconsistent with
        # tau = 475 s; the analytic values stand and the rows deviate
        assert by_id["pump_rise"].status == "DEVIATES"
        assert by_id["pump_rise"].computed_value == pytest.approx(
            475.0 * math.log(9.0))
        assert by_id["pump_settling"].status == "DEVIATES"
        assert by_id["pump_time_constant"].status == "DEVIATES"
        assert by_id["pump_Kp"].status == "MATCH"
        assert by_id["pump_e_step"].status == "DEVIATES"

    def test_printed_quartic_unstable(self, report):
        by_id, _ = report
        assert by_id["tableII_verdict"].status == "DEVIATES"
        assert by_id["charpoly_actual_stability"].status == "MATCH"
        assert by_id["charpoly_s1"].status == "DEVIATES"
        assert by_id["charpoly_s0"].status == "DEVIATES"

    def test_scaled_gain_rows_match(self, report):
        by_id, _ = report
        for rid in ("motor_K1e5_rise", "motor_K1e5_overshoot",
                    "motor_K1e6_rise", "motor_K1e6_settling",
                    "motor_bode_mag_116", "motor_K1e6_gm",
                    "motor_K1e6_pm"):
            assert by_id[rid].status == "MATCH", rid
            derivation = by_id[rid].note + by_id[rid].description
            assert "1e-4" in derivation or "effective" in derivation

    def test_tuned_cascade_rows_match(self, report):
        by_id, _ = report
        for rid in ("cascade_tuned2_rise", "cascade_tuned2_settling",
                    "cascade_tuned2_overshoot", "cascade_tuned2_peak",
                    "cascade_tuned2_gm", "cascade_tuned2_pm",
                    "cascade_tuned1_rise", "cascade_tuned1_settling"):
            assert by_id[rid].status == "MATCH", rid

    def test_pv_qualitative_claims_hold(self, report):
        by_id, _ = report
        assert by_id["pv_power_vs_temp"].status == "MATCH"
        assert by_id["pv_mpp_vs_irradiance"].status == "MATCH"

    def test_metering_rows_qualitative(self, report):
        by_id, _ = report
        assert by_id["metering_dc_gain"].status == "QUALITATIVE"
        assert by_id["metering_dc_gain"].computed_value == pytest.approx(
            1.869 / 0.4582)


class TestReportFormats:
    def test_text_table_complete(self, report):
        _, rows = report
        text = format_report(rows)
        for r in rows:
            assert r.id in text
        assert "MATCH" in text and "DEVIATES" in text

    def test_csv_rows_align(self, report):
        _, rows = report
        header, columns = report_columns(rows)
        assert len(columns) == len(header)
        assert all(len(c) == len(rows) for c in columns)
        claimed = columns[header.index("claimed")]
        assert claimed.dtype == float
        assert [r.claimed_value is None for r in rows] == (
            np.isnan(claimed).tolist())


class TestStatusRule:
    def test_missing_computed_value_deviates(self):
        # no gain up to 1 meets either ramp-error target, so both are None
        gains = np.geomspace(1e-2, 1.0, 50)
        _, _, targets = ss_error_vs_gain(MOTOR_PAPER, gains,
                                         error_kind="ramp")
        assert targets == {0.1: None, 0.01: None}
        row = _row("motor_K_for_e01", "gain for steady-state error 0.1",
                   9.36, "-", targets[0.1], 0.15, "rel")
        assert row.status == "DEVIATES"
        assert row.computed_value is None
        assert math.isnan(row.abs_dev) and math.isnan(row.rel_dev)
        assert _row("motor_K_for_e01", "", 9.36, "-", math.nan, 0.15,
                    "rel").status == "DEVIATES"
        assert format_report([row]).splitlines()[-1] == (
            "1 rows: 0 MATCH, 1 DEVIATES, 0 QUALITATIVE")
        header, columns = report_columns([row])
        assert np.isnan(columns[header.index("computed")][0])

    def test_only_kind_none_is_qualitative(self):
        for claimed, computed in ((None, 1.0), (1.0, None), (None, None),
                                  (1.0, 1.0)):
            for kind in ("abs", "rel"):
                row = _row("r", "", claimed, "-", computed, 0.1, kind)
                assert row.status == ("MATCH" if claimed == computed == 1.0
                                      else "DEVIATES"), (claimed, computed)
            assert _row("r", "", claimed, "-", computed, 0.0,
                        "none").status == "QUALITATIVE"
