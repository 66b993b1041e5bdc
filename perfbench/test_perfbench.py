"""
Tests of the benchmark itself: the seeded generator, the trace hooks,
the output checker and the host-speed canary.

    python3 -m pytest perfbench
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import checks
import clouds
import hostspeed
import run
import tracing
import workloads
from worker import import_cli

cli = import_cli()
from sunpump.config import parse_config          # noqa: E402
from sunpump.scenario import ScenarioConfig      # noqa: E402

# pump1 latched on from the first step, pump2 off throughout
SHORT = workloads.merged({"duration_s": 60.0, "tank2_init_pct": 19.0})
SHORT_STEPS = 600
SHORT_PUMPS = {"pump1_cycles": 0, "pump1_on_steps": 600,
               "pump2_cycles": 0, "pump2_on_steps": 0}
CLOUDS_SEED7_SHA256 = \
    "9939aa2974ca0ce74bb43e92f67fee5fc780f9824e8b3cc0049742e275ec68d5"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A short run of every layer with the hooks installed."""
    tmp = tmp_path_factory.mktemp("traced")
    tracer = tracing.Tracer()
    codes = []
    with tracer:
        for algo in ("po", "ic"):
            config = _write(tmp / f"{algo}.cfg", workloads.config_text(
                {**SHORT, "mppt_algo": algo}))
            codes.append(_cli("scenario", "run", "--config", str(config),
                              "--out", str(tmp / algo)))
        codes.append(_cli("validate", "--out", str(tmp / "validate")))
        for mode in workloads.TF_MODES:
            codes.append(_cli("tf", *mode, "--preset", "motor_paper",
                              "--out", str(tmp / "tf")))
    return tracer, codes, tmp


def test_daylight_inputs_are_default_daylight(tmp_path):
    path = _write(tmp_path / "d.cfg", workloads.config_text(
        workloads.DAYLIGHT))
    assert parse_config(str(path)) == ScenarioConfig.default_daylight()


def test_clouds_generator_is_pinned_and_seeded():
    def digest(seed):
        text = workloads.config_text(workloads.merged(clouds.generate(seed)))
        return hashlib.sha256(text.encode()).hexdigest()
    assert digest(7) == CLOUDS_SEED7_SHA256
    assert digest(8) != digest(7)


def test_clouds_inputs_are_valid_and_have_a_night(tmp_path):
    spec = workloads.prepare("clouds", 3, str(tmp_path))
    cfg = parse_config(spec["config"])
    assert spec["steps"] == 43200
    assert len(cfg.irradiance_profile) > 950
    assert min(p[1] for p in cfg.sun_path) < 0.0
    assert cfg.mppt_algo == "ic"


def test_every_hook_fires(traced):
    tracer, codes, _ = traced
    assert codes == [0] * len(codes)
    assert set(tracer.sites.values()) == {"ok"}
    idle = [site for site, span in tracer.spans.items() if span.calls == 0]
    assert idle == []


def test_hooks_are_removed_after_a_run():
    import sunpump.scenario
    original = sunpump.scenario.ldr_model
    with tracing.Tracer():
        assert sunpump.scenario.ldr_model is not original
    assert sunpump.scenario.ldr_model is original


def test_missing_hook_is_reported_not_fatal(tmp_path):
    tracer = tracing.Tracer(tracing.HOOKS + (
        ("tracking.ldr", "sunpump.scenario", "no_such_function"),
        ("lti.poly_roots", "sunpump.no_such_module", "poly_roots")))
    config = _write(tmp_path / "s.cfg", workloads.config_text(SHORT))
    with tracer:
        assert _cli("scenario", "run", "--config", str(config),
                    "--out", str(tmp_path)) == 0
    assert tracer.sites["sunpump.scenario:no_such_function"] == "missing"
    metrics = tracing.layer_metrics(tracer, 1, SHORT_STEPS, 1, 1.0, 1.0)
    assert metrics["trace.hooks_missing"] == (2, "count")
    assert metrics["scenario.steps"] == (SHORT_STEPS, "count")
    assert metrics["tracking.ldr_us"][0] > 0.0


def test_layer_metrics_cover_per_layer_names(traced):
    tracer, _, _ = traced
    metrics = tracing.layer_metrics(tracer, 1, SHORT_STEPS, 1, 1.0, 1.0)
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["pv.solver_evals_per_solve"][0] > 1.0
    assert metrics["lti.step_response_samples"][0] > 0


def _trace_lines(traced):
    _, _, tmp = traced
    with open(tmp / "po" / "scenario_trace.csv", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _check_lines(tmp_path, lines):
    path = _write(tmp_path / "trace.csv", "\n".join(lines) + "\n")
    return checks.check_scenario(str(path), SHORT, SHORT_STEPS, SHORT_PUMPS)


def test_checker_accepts_the_real_trace(traced, tmp_path):
    assert _check_lines(tmp_path, _trace_lines(traced)) == []


def test_checker_rejects_a_changed_pump_cycle_count(traced, tmp_path):
    lines = _trace_lines(traced)
    col = checks.TRACE_COLUMNS.index("pump1_on")
    row = lines[300].split(",")
    assert row[col] == "1"
    row[col] = "0"              # 1 -> 0 -> 1: one more cycle
    lines[300] = ",".join(row)
    problems = _check_lines(tmp_path, lines)
    assert any("pump1_cycles" in p for p in problems)


def test_checker_rejects_nan_in_a_trace_column(traced, tmp_path):
    lines = _trace_lines(traced)
    col = checks.TRACE_COLUMNS.index("theta_TE")
    row = lines[42].split(",")
    row[col] = "nan"
    lines[42] = ",".join(row)
    problems = _check_lines(tmp_path, lines)
    assert any("non-finite ['theta_TE']" in p for p in problems)


def test_checker_rejects_lost_water_and_short_traces(traced, tmp_path):
    lines = _trace_lines(traced)
    col = checks.TRACE_COLUMNS.index("delivered_soil_L")
    row = lines[-1].split(",")
    row[col] = repr(float(row[col]) + 1e-5)
    problems = _check_lines(tmp_path, lines[:-1] + [",".join(row)])
    assert any(p.startswith("water off") for p in problems)
    assert any("rows for" in p for p in _check_lines(tmp_path, lines[:-1]))


def test_checker_rejects_one_changed_registry_status(traced, tmp_path):
    _, _, tmp = traced
    report = tmp / "validate" / "validation_report.csv"
    with open(os.path.join(run.HERE, "expected.json"),
              encoding="utf-8") as fh:
        registry = json.load(fh)["registry"]
    assert checks.check_registry(str(report), registry) == []
    rid = sorted(registry)[0]
    flipped = dict(registry)
    flipped[rid] = "MATCH" if registry[rid] != "MATCH" else "DEVIATES"
    problems = checks.check_registry(str(report), flipped)
    assert len(problems) == 1 and rid in problems[0]


def test_scale_weights_canary_times_harmonically():
    ref = hostspeed.REF_S
    assert hostspeed.scale([ref] * 4) == pytest.approx(1.0)
    # half the interval at the reference speed, half at half of it: the
    # interval did 0.75 of the reference work
    assert hostspeed.scale([ref, 2 * ref]) == pytest.approx(0.75)


def test_canary_samples_while_the_program_runs():
    canary = hostspeed.Canary(interval_s=0.005).start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        samples = canary.take()
    finally:
        canary.stop()
    assert len(samples) >= 5 and min(samples) > 0
    assert canary.take() == []
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == workloads.WHY
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == tracing.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "daylight",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
