"""
The sunpump benchmark.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

runs ``daylight``, ``clouds`` (inputs drawn from ``--seed``) and
``analysis`` one after the other and prints, for each, every end-to-end
metric with its unit and sample count; ``--trace 1`` prints the
per-layer metrics instead.  ``--workload`` also takes one workload name.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in a fresh worker process (``worker.py``) that sets
the program up once and then repeats the workload's job for
``--seconds``.  ``setup_s`` is measured apart, in fresh processes that
only set up.  Both times are scaled to a reference host speed by an
in-process canary (``hostspeed.py``); the raw wall times are printed
beside them.  Every output is checked (``checks.py``) and hashed; the
run directory ``.perfbench/<workload>-seed<n>-trace<t>/`` keeps the
inputs, the outputs of the last job and ``result.json``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 5
# a run must end within 180 s: no job starts that would end later than
# this many seconds after the run began
DEADLINE_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def _env():
    env = dict(os.environ)
    # one process, one thread: keep numpy's BLAS from starting a pool
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def probe_setup(spec_path, deadline):
    """Seconds from spawning a fresh process to the program being set up:
    scaled to the reference host speed (``hostspeed.py``), and raw."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, WORKER, "probe", spec_path],
                          stdout=subprocess.PIPE, env=_env(), text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up failed with exit {proc.returncode}")
    ready, factor = (float(x) for x in proc.stdout.split()[-2:])
    return (ready - spawned) * factor, ready - spawned


def check_outputs(spec, result, expected):
    """Problems per job: the last job's outputs are checked, and a job
    whose outputs differ from them in any byte counts as failed."""
    jobs = result["jobs"]
    last = jobs[-1]
    if spec["workload"] == "analysis":
        problems = checks.check_analysis(spec["out_dir"], spec["jobs"],
                                         last["codes"], expected["registry"])
    else:
        pinned = (expected["daylight"] if spec["workload"] == "daylight"
                  else expected["clouds"].get(str(spec["seed"])))
        problems = [f"exit {code}" for code in last["codes"] if code != 0]
        problems += checks.check_scenario(
            os.path.join(spec["out_dir"], "scenario_trace.csv"),
            spec["inputs"], spec["steps"], pinned)
    per_job = []
    for i, job in enumerate(jobs):
        mine = []
        if job["error"]:
            mine.append(f"job {i} raised:\n{job['error']}")
        if job["outputs"] != last["outputs"]:
            mine.append(f"job {i} outputs differ from job {len(jobs) - 1}")
        per_job.append(mine + ([] if mine else problems))
    return per_job


def run_workload(name, args, expected):
    run_dir = os.path.join(ROOT, ".perfbench",
                           f"{name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    spec = workloads.prepare(name, args.seed, run_dir)
    spec.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                deadline=started + DEADLINE_S,
                result=os.path.join(run_dir, "worker.json"))
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)

    setup_samples, setup_wall = [], []
    if not args.trace:
        # one warm-up first: byte-compile, fill the file cache
        probes = [probe_setup(spec_path, spec["deadline"])
                  for _ in range(SETUP_PROBES + 1)][1:]
        setup_samples = [scaled for scaled, _ in probes]
        setup_wall = [wall for _, wall in probes]
    try:
        proc = subprocess.run([sys.executable, WORKER, "run", spec_path],
                              stdout=sys.stderr, env=_env(),
                              timeout=started + DEADLINE_S + 15.0
                              - time.clock_gettime(time.CLOCK_MONOTONIC))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name}: worker did not finish in time")
    if proc.returncode != 0:
        raise BenchmarkError(f"{name}: worker exited {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)

    per_job = check_outputs(spec, result, expected)
    jobs = result["jobs"]
    run_s = [j["run_s"] for j in jobs if not j["traced"]]
    report = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[name],
        "inputs_sha256": (_sha256_file(spec["config"]) if spec["config"]
                          else None),
        "attempted": len(jobs),
        "failed": sum(1 for p in per_job if p),
        "problems": sorted({p for job in per_job for p in job}),
        "outputs_sha256": jobs[-1]["outputs"],
        "steps": spec["steps"],
        "samples": {"setup_s": setup_samples, "run_s": run_s,
                    "peak_rss_mb": [result["peak_rss_mb"]],
                    "setup_wall_s": setup_wall,
                    "run_wall_s": [j["wall_s"] for j in jobs
                                   if not j["traced"]],
                    "canary_us": [j["canary_us"] for j in jobs
                                  if not j["traced"]]},
        "measured_s": result["measured_s"],
    }
    if args.trace:
        report["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in result["layers"].items()}
        report["sites"] = result["sites"]
        report["shares"] = result["shares"]
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "run_s": statistics.median(run_s),
                  "peak_rss_mb": result["peak_rss_mb"]}
        report["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in END_TO_END.items()}
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def _spread(samples):
    return (f"{len(samples):>3}  {min(samples):>10.4g} {max(samples):>10.4g}"
            if samples else "")


def print_report(r):
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}: "
          f"closed loop, 1 client, {r['attempted']} jobs in "
          f"{r['measured_s']:.1f} s")
    print(f"   why: {r['why']}")
    if r["trace"]:
        for name, m in r["metrics"].items():
            print(f"   {name:28} {m['value']:>14.6g} {m['unit']}")
        print("   layer shares of a traced job (spans nest; the scenario "
              "loop is self time):")
        for layer, seconds, share in r["shares"]:
            if seconds:
                print(f"     {layer:24} {seconds:>10.4f} s {share:>7.1%}")
        missing = [s for s, v in r["sites"].items() if v != "ok"]
        if missing:
            print("   hooks missing: " + ", ".join(missing))
    else:
        print(f"   {'metric':14} {'median':>12} {'unit':8} "
              f"{'n':>3}  {'min':>10} {'max':>10}")
        samples = r["samples"]
        for name, m in r["metrics"].items():
            print(f"   {name:14} {m['value']:>12.6g} {m['unit']:8} "
                  + _spread(samples.get(name, [])))
        if r["steps"]:
            rates = [r["steps"] / s for s in samples["run_s"]]
            print(f"   {'steps_per_s':14} {statistics.median(rates):>12.6g} "
                  f"{'steps/s':8} " + _spread(rates))
        print(f"   {'error_rate':14} {r['failed'] / r['attempted']:>12.6g} "
              f"{'ratio':8} {r['attempted']:>3}  attempted, "
              f"{r['failed']} failed")
        print("   raw wall times, before scaling to the reference host "
              f"(canary {hostspeed.REF_S * 1e6:g} us):")
        for name, unit in (("setup_wall_s", "s"), ("run_wall_s", "s"),
                           ("canary_us", "us")):
            values = samples[name]
            print(f"   {name:14} {statistics.median(values):>12.6g} "
                  f"{unit:8} " + _spread(values))
    if r["inputs_sha256"]:
        print(f"   input  {r['workload']}.cfg  sha256 {r['inputs_sha256']}")
    outputs = r["outputs_sha256"]
    shown = list(outputs.items())[:4]
    for path, digest in shown:
        print(f"   output {path}  sha256 {digest}")
    if len(outputs) > len(shown):
        print(f"   ... {len(outputs) - len(shown)} more outputs in "
              f"result.json")
    for p in r["problems"]:
        print(f"   FAILED: {p}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*workloads.WHY, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sunpump",
                                       "__init__.py")):
        print(f"no sunpump sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = list(workloads.WHY) if args.workload == "all" \
        else [args.workload]
    expected = _load_expected()
    try:
        reports = [run_workload(name, args, expected) for name in names]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        print_report(r)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
