"""
Child process of the benchmark: sets the program up and runs jobs.

    python3 perfbench/worker.py probe SPEC   # set up, print the ready time
    python3 perfbench/worker.py run SPEC     # set up, run jobs, write result

SPEC is the JSON file ``run.py`` writes (see ``workloads.prepare``, plus
``seconds``, ``deadline`` (a CLOCK_MONOTONIC time no job may end
after), ``trace`` and ``result``).  Set-up imports
``sunpump`` from the checkout's ``src`` and then, for a scenario
workload, parses and validates its config, or, for ``analysis``, builds
the CLI parser.

A job runs every CLI call of the workload once, in this process, one
after the other; the next job starts only after the previous one
returned (closed loop, one client).  The program's standard output goes
to an in-memory sink.  Jobs repeat for about ``seconds``, and at least
``MIN_JOBS`` run.  With ``trace`` set, untraced and traced
jobs alternate, so the tracing overhead is measured under the same host
load.

A host-speed canary (``hostspeed.py``) runs from the start of the process
to its end; every wall time measured here is also given scaled to the
reference host speed.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import hostspeed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_JOBS = 3


def import_cli():
    """Import ``sunpump.cli`` from the checkout, never from elsewhere."""
    sys.path.insert(0, SRC)
    import sunpump.cli
    if not os.path.abspath(sunpump.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sunpump imported from {sunpump.cli.__file__}, "
                          f"not from {SRC}")
    return sunpump.cli


def setup(spec):
    cli = import_cli()
    if spec["config"] is not None:
        from sunpump.config import parse_config
        parse_config(spec["config"]).validate()
    else:
        cli.build_parser()
    return cli


def _digest_outputs(out_dir):
    """relative path -> sha256 of every file under out_dir, and total bytes."""
    digests, size = {}, 0
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[os.path.relpath(path, out_dir)] = h.hexdigest()
            size += os.path.getsize(path)
    return dict(sorted(digests.items())), size


def run_job(cli, spec, canary):
    """One closed-loop job: every CLI call of the workload, timed."""
    shutil.rmtree(spec["out_dir"], ignore_errors=True)
    # start each job from a collected heap, as a fresh process would
    gc.collect()
    codes, error = [], None
    canary.take()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in spec["jobs"]:
                codes.append(cli.main(list(argv)))
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    factor = hostspeed.scale(canary.take())
    outputs, size = _digest_outputs(spec["out_dir"])
    return {"run_s": wall_s * factor, "wall_s": wall_s,
            "canary_us": hostspeed.REF_S / factor * 1e6,
            "codes": codes, "error": error, "outputs": outputs,
            "bytes": size}


def run(spec, canary):
    cli = setup(spec)
    tracer = tracing.Tracer() if spec["trace"] else None
    jobs = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            with tracer:
                job = run_job(cli, spec, canary)
        else:
            job = run_job(cli, spec, canary)
        job["traced"] = traced
        jobs.append(job)
        elapsed = time.perf_counter() - start
        next_s = statistics.median(j["wall_s"] for j in jobs)
        if time.clock_gettime(time.CLOCK_MONOTONIC) + next_s \
                > spec["deadline"]:
            break
        # the run ends within half a job of ``seconds``
        if len(jobs) >= MIN_JOBS and elapsed + next_s / 2 > spec["seconds"]:
            break
    result = {
        "jobs": jobs,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        untraced = [j for j in jobs if not j["traced"]]
        traced = [j for j in jobs if j["traced"]]
        untraced_s = statistics.median(j["run_s"] for j in untraced)
        traced_s = statistics.median(j["run_s"] for j in traced)
        result["sites"] = tracer.sites
        result["layers"] = tracing.layer_metrics(
            tracer, len(traced), spec["steps"],
            statistics.median(j["bytes"] for j in traced),
            untraced_s, traced_s)
        # spans are raw wall time, so their shares are of the raw job
        result["shares"] = tracing.layer_shares(
            tracer, len(traced),
            statistics.median(j["wall_s"] for j in traced))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    mode, spec_path = argv
    canary = hostspeed.Canary().start()
    try:
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        if mode == "probe":
            setup(spec)
            ready = time.clock_gettime(time.CLOCK_MONOTONIC)
            # the ready time, and the canary's scale over the set-up
            print(ready, hostspeed.scale(canary.take()), flush=True)
        elif mode == "run":
            run(spec, canary)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        canary.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
