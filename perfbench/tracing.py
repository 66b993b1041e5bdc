"""
Per-layer tracing for the benchmark's traced runs.

Timing wrappers are put around the public functions of each layer, at
the name the caller looks up: ``sunpump.scenario.ldr_model``, not
``sunpump.tracking.ldr_model``, because the scenario module imported the
name.  Each wrapper records a span (calls, inclusive time, self time,
exceptions raised) in memory; the worker turns the totals into the
per-layer metrics once the run ends.  A hook whose target has gone is
reported as ``missing`` and the run goes on without it.

Only the benchmark's own files change; the program is not edited.
"""

from collections import Counter
import functools
import importlib
import time

# (span key, module the caller looks the name up in, attribute path)
HOOKS = (
    ("pv.solve", "sunpump.pv", "array_current"),
    ("pv.at_irradiance", "sunpump.pv", "PvArrayParams.at_irradiance"),
    ("pv.brentq", "sunpump.pv", "brentq"),
    ("tracking.ldr", "sunpump.scenario", "ldr_model"),
    ("tracking.step", "sunpump.scenario", "tracking_step"),
    ("tracking.apply", "sunpump.scenario", "apply_command"),
    ("solar.aoi", "sunpump.scenario", "angle_of_incidence"),
    ("mppt.step", "sunpump.mppt", "po_step"),
    ("mppt.step", "sunpump.mppt", "ic_step"),
    ("mppt.duty", "sunpump.mppt", "duty_for_ratio"),
    ("scenario.run", "sunpump.cli", "run_scenario"),
    ("scenario.hydraulics", "sunpump.scenario", "control_logic_step"),
    ("scenario.hydraulics", "sunpump.scenario", "pump_dynamics_step"),
    ("csvio.emit", "sunpump.csvio", "emit_csv"),
    ("config.parse", "sunpump.cli", "parse_config"),
    ("lti.step_response", "sunpump.validation", "step_response"),
    ("lti.step_response", "sunpump.cli", "step_response"),
    ("lti.ss_error_vs_gain", "sunpump.validation", "ss_error_vs_gain"),
    ("lti.ss_error_vs_gain", "sunpump.cli", "ss_error_vs_gain"),
    ("lti.error_constants", "sunpump.lti", "error_constants"),
    ("lti.error_constants", "sunpump.validation", "error_constants"),
    ("lti.error_constants", "sunpump.cli", "error_constants"),
    ("lti.frequency_response", "sunpump.validation", "frequency_response"),
    ("lti.frequency_response", "sunpump.cli", "frequency_response"),
    ("lti.root_locus", "sunpump.cli", "root_locus"),
    ("lti.poly_roots", "sunpump.lti", "poly_roots"),
    ("lti.poly_roots", "sunpump.validation", "poly_roots"),
    ("lti.poly_roots", "sunpump.cli", "poly_roots"),
    ("validation.build_report", "sunpump.validation", "build_report"),
)

# per-layer metrics: name -> unit, in the order they are reported
PER_LAYER = {
    "pv.solve_calls": "count",
    "pv.solve_us": "us",
    "pv.solver_evals_per_solve": "count",
    "pv.solver_failures": "count",
    "pv.at_irradiance_us": "us",
    "tracking.ldr_us": "us",
    "tracking.step_us": "us",
    "tracking.park_ratio": "ratio",
    "solar.aoi_us": "us",
    "mppt.calls": "count",
    "mppt.step_us": "us",
    "mppt.duty_us": "us",
    "scenario.loop_self_s": "s",
    "scenario.hydraulics_us": "us",
    "scenario.steps": "count",
    "csvio.emit_s": "s",
    "csvio.bytes": "bytes",
    "csvio.mb_per_s": "MB/s",
    "config.parse_s": "s",
    "lti.step_response_s": "s",
    "lti.step_response_samples": "count",
    "lti.ss_error_vs_gain_s": "s",
    "lti.error_constants_calls": "count",
    "lti.frequency_response_s": "s",
    "lti.root_locus_s": "s",
    "lti.poly_roots_calls": "count",
    "validation.build_report_s": "s",
    "trace.overhead_s": "s",
    "trace.hooks_missing": "count",
}


class Span:
    """Totals of one span key over every call made while traced."""

    __slots__ = ("calls", "total_s", "self_s", "raised", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.counts = Counter()


def _count_parks(span, command):
    if getattr(command, "park", False):
        span.counts["parks"] += 1


def _count_samples(span, trace):
    span.counts["samples"] += len(trace.t)


_OBSERVERS = {"tracking.step": _count_parks,
              "lti.step_response": _count_samples}


def _resolve(module_name, path):
    """(owner, attribute name, current value) or None when gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs the hooks, keeps the span totals, and removes the hooks."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        # one Span per hook site ("module:path"); sites sharing a key are
        # summed by total()
        self.spans = {f"{m}:{p}": Span() for _, m, p in hooks}
        self.sites = {}          # site -> "ok" | "missing"
        self._stack = []         # open spans: [key, seconds in children]
        self._installed = []     # (owner, name, original)

    def install(self):
        for key, module_name, path in self.hooks:
            site = f"{module_name}:{path}"
            found = _resolve(module_name, path)
            if found is None:
                self.sites[site] = "missing"
                continue
            owner, name, original = found
            wrap = self._brentq if key == "pv.brentq" else self._span
            setattr(owner, name, wrap(key, self.spans[site], original))
            self._installed.append((owner, name, original))
            self.sites[site] = "ok"

    def uninstall(self):
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def total(self, key):
        """Sum of the spans of every site hooked under ``key``."""
        out = Span()
        for k, m, p in self.hooks:
            if k == key:
                span = self.spans[f"{m}:{p}"]
                out.calls += span.calls
                out.total_s += span.total_s
                out.self_s += span.self_s
                out.raised += span.raised
                out.counts.update(span.counts)
        return out

    def _span(self, key, span, fn):
        stack = self._stack
        observe = _OBSERVERS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]
            if observe is not None:
                observe(span, result)
            return result
        return wrapper

    def _brentq(self, key, span, fn):
        """Count the root finder's own function evaluations, read from its
        ``full_output``, for the solves the PV current layer makes."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs.get("full_output"):
                return fn(*args, **kwargs)
            root, info = fn(*args, full_output=True, **kwargs)
            span.calls += 1
            if stack and stack[-1][0] == "pv.solve":
                span.counts["solves"] += 1
                span.counts["evals"] += info.function_calls
            return root
        return wrapper


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, jobs, steps, csv_bytes, untraced_s, traced_s):
    """
    Per-layer metrics of a traced run, per job unless a unit says per
    call.

    Parameters
    ----------
    tracer : Tracer that was installed for ``jobs`` traced jobs
    steps : simulated scenario steps per job
    csv_bytes : bytes of CSV output per job
    untraced_s, traced_s : median job wall time without and with hooks
    """
    s = {key: tracer.total(key) for key in {k for k, _, _ in tracer.hooks}}

    def per_call_us(*keys):
        """Time of every key per call of the first."""
        total = sum(s[k].total_s for k in keys)
        return _ratio(total, s[keys[0]].calls) * 1e6

    def per_job(value):
        return _ratio(value, jobs)

    emit_s = per_job(s["csvio.emit"].total_s)
    metrics = {
        "pv.solve_calls": per_job(s["pv.solve"].calls),
        "pv.solve_us": per_call_us("pv.solve"),
        "pv.solver_evals_per_solve": _ratio(s["pv.brentq"].counts["evals"],
                                            s["pv.brentq"].counts["solves"]),
        "pv.solver_failures": per_job(s["pv.solve"].raised),
        "pv.at_irradiance_us": per_call_us("pv.at_irradiance"),
        "tracking.ldr_us": per_call_us("tracking.ldr"),
        "tracking.step_us": per_call_us("tracking.step", "tracking.apply"),
        "tracking.park_ratio": _ratio(s["tracking.step"].counts["parks"],
                                      s["tracking.step"].calls),
        "solar.aoi_us": per_call_us("solar.aoi"),
        "mppt.calls": per_job(s["mppt.step"].calls),
        "mppt.step_us": per_call_us("mppt.step"),
        "mppt.duty_us": per_call_us("mppt.duty"),
        "scenario.loop_self_s": per_job(s["scenario.run"].self_s),
        "scenario.hydraulics_us": _ratio(
            per_job(s["scenario.hydraulics"].total_s), steps) * 1e6,
        "scenario.steps": steps,
        "csvio.emit_s": emit_s,
        "csvio.bytes": csv_bytes,
        "csvio.mb_per_s": _ratio(csv_bytes, emit_s) / 1e6,
        "config.parse_s": per_job(s["config.parse"].total_s),
        "lti.step_response_s": per_job(s["lti.step_response"].total_s),
        "lti.step_response_samples": per_job(
            s["lti.step_response"].counts["samples"]),
        "lti.ss_error_vs_gain_s": per_job(s["lti.ss_error_vs_gain"].total_s),
        "lti.error_constants_calls": per_job(s["lti.error_constants"].calls),
        "lti.frequency_response_s": per_job(
            s["lti.frequency_response"].total_s),
        "lti.root_locus_s": per_job(s["lti.root_locus"].total_s),
        "lti.poly_roots_calls": per_job(s["lti.poly_roots"].calls),
        "validation.build_report_s": per_job(
            s["validation.build_report"].total_s),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.hooks_missing": sum(1 for v in tracer.sites.values()
                                   if v == "missing"),
    }
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


# layer -> span keys whose time (inclusive, or self for the scenario
# loop) is the layer's share of a traced job
LAYER_SHARES = (
    ("pv", ("pv.solve", "pv.at_irradiance")),
    ("tracking", ("tracking.ldr", "tracking.step", "tracking.apply")),
    ("solar", ("solar.aoi",)),
    ("mppt", ("mppt.step", "mppt.duty")),
    ("scenario.loop_self", ("scenario.run",)),
    ("scenario.hydraulics", ("scenario.hydraulics",)),
    ("csvio", ("csvio.emit",)),
    ("config", ("config.parse",)),
    ("lti.step_response", ("lti.step_response",)),
    ("lti.ss_error_vs_gain", ("lti.ss_error_vs_gain",)),
    ("lti.frequency_response", ("lti.frequency_response",)),
    ("lti.root_locus", ("lti.root_locus",)),
)


def layer_shares(tracer, jobs, traced_s):
    """Each layer's seconds per traced job as a share of the job's wall
    time, largest first.  Spans nest (the scenario loop holds the
    tracker, an lti step response holds root finds), so shares of
    different layers can overlap; the scenario loop counts self time."""
    shares = []
    for layer, keys in LAYER_SHARES:
        spans = {k: tracer.total(k) for k in keys}
        seconds = sum(span.self_s if k == "scenario.run" else span.total_s
                      for k, span in spans.items())
        shares.append((layer, _ratio(seconds, jobs),
                       _ratio(_ratio(seconds, jobs), traced_s)))
    return sorted(shares, key=lambda row: -row[1])
