"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of the thcbridge modules from the
outside: it replaces every module attribute that refers to a traced
function, so the bindings other modules import (``bridge.solve_forward``,
``cli.solve_bridge``, ``validate.solve_forward``, ...) are traced as well.
Drift models are traced through a proxy that the configuration and the
validation checks hand to the solvers.  Nothing inside the package is
edited.  Spans are kept in memory and turned into per-layer metrics after
the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("model", "fpe", "bridge", "montecarlo", "output", "cli", "config",
          "validate")

# Public functions traced per module.  ``output.format_value`` (called once
# per written value) and the ``output.surface_rows`` generator are left out:
# a span per value would multiply the cost of the CSV dump.
TRACED = {
    "model": ("find_equilibria",),
    "fpe": ("solve_forward", "solve_backward", "solve_endpoint_conditioned",
            "hitting_probability", "stationary_density"),
    "bridge": ("sweep_noise", "solve_bridge", "ml_path", "detect_jump",
               "bridge_density"),
    "montecarlo": ("euler_maruyama_ensemble", "estimate_hitting_probability",
                   "terminal_samples", "l1_distance"),
    "output": ("write_csv", "write_json", "write_surface_csv",
               "write_surface_binary"),
    "cli": ("main",),
    "config": ("load_config",),
    "validate": ("run_checks",),
}

# Drift classes that the validation checks build directly; the tracer
# replaces their names inside ``validate`` with factories returning proxies.
_DRIFT_CLASSES = ("CessiReduced", "DoubleWell", "LinearOU", "ZeroDrift")

NINE_CHECKS = ("mass", "chapman-kolmogorov", "heat-kernel", "ou-mean",
               "stationary", "brownian-bridge", "double-well-antisymmetry",
               "grid-convergence", "resolution-stability")
DUMP_COMMANDS = ("bridge-path", "forward", "backward")


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    A span is ``[name, start, end, parent index, run id]``; the run id is
    the repetition the span belongs to.  Use as a context manager: entering
    installs the wrappers, leaving restores every original binding.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        """Start a span under the innermost open span."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def close(self, record: list) -> float:
        """End a span; returns its duration."""
        record[2] = time.perf_counter()
        self._stack.pop()
        return record[2] - record[1]

    def traced(self, name: str, fn, after=None, before=None):
        """Wrap ``fn`` in a span called ``name``.

        ``before(args)`` may rewrite the bound arguments; ``after(args,
        result, seconds)`` updates counters.  Both see the arguments with
        defaults applied.
        """
        tracer = self
        signature = inspect.signature(fn) if (after or before) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(record)
            if after is not None:
                after(bound.arguments, result, seconds)
            return result

        return wrapper

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        pkg = self.package
        modules = [getattr(pkg, layer) for layer in LAYERS] + [pkg]
        replacements = {}
        for layer, names in TRACED.items():
            module = getattr(pkg, layer)
            for fn_name in names:
                original = getattr(module, fn_name)
                hooks = _HOOKS.get(f"{layer}.{fn_name}", {})
                replacements[id(original)] = self.traced(
                    f"{layer}.{fn_name}", original,
                    **{k: functools.partial(v, self.counters)
                       for k, v in hooks.items()})
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])

        # The validation checks are dispatched through a dict.
        checks = pkg.validate.CHECKS
        for check, fn in list(checks.items()):
            self._patches.append((checks, check, fn))
            checks[check] = self.traced(f"validate.{check}", fn)

        tracer = self
        drift_model = pkg.config.RunConfig.drift_model

        def traced_drift_model(config):
            return TracedDrift(drift_model(config), tracer)

        self._patch(pkg.config.RunConfig, "drift_model", traced_drift_model)
        for cls_name in _DRIFT_CLASSES:
            cls = getattr(pkg.validate, cls_name)
            self._patch(pkg.validate, cls_name,
                        functools.partial(_proxy_factory, cls, tracer))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }) + "\n")


class TracedDrift:
    """Drift model proxy that records a span and a point count per call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def drift(self, y):
        record = self._tracer.open("model.drift")
        try:
            return self._inner.drift(y)
        finally:
            self._tracer.close(record)
            self._tracer.counters["model.drift.points"] += np.size(y)

    def potential(self, y):
        record = self._tracer.open("model.potential")
        try:
            return self._inner.potential(y)
        finally:
            self._tracer.close(record)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _proxy_factory(cls, tracer, *args, **kwargs):
    return TracedDrift(cls(*args, **kwargs), tracer)


# --- counter hooks -----------------------------------------------------------

def _count_solve(counters, args, _result, _seconds):
    cells = args["grid"].n_cells
    steps = args["times"].n_steps
    counters["fpe.cell_steps"] += cells * steps
    counters["fpe.surface_bytes_computed"] += (steps + 1) * cells * 8


def _count_slices(counters, args, _result, _seconds):
    counters["bridge.slices"] += args["forward"].times.n_steps + 1


def _count_rows_failed(counters, _args, records, _seconds):
    counters["bridge.rows_failed"] += sum(not r.converged for r in records)


def _sde_steps(duration: float, dt: float) -> int:
    return int(round(duration / dt))


def _count_ensemble(counters, args, hist, _seconds):
    cfg = args["cfg"]
    times = args["times"]
    steps = _sde_steps(times.t_end - times.t_start, cfg.dt_sde)
    counters["montecarlo.path_steps"] += cfg.n_paths * steps
    counters["montecarlo.paths_launched"] += cfg.n_paths
    counters["montecarlo.paths_surviving"] += cfg.n_paths * (1.0 - hist.dropped_fraction)


def _count_terminal(counters, args, final, _seconds):
    cfg = args["cfg"]
    counters["montecarlo.path_steps"] += cfg.n_paths * _sde_steps(args["duration"], cfg.dt_sde)
    counters["montecarlo.paths_launched"] += cfg.n_paths
    counters["montecarlo.paths_surviving"] += int(np.isfinite(final).sum())


def _count_csv_rows(counters, args):
    def counted(rows):
        for row in rows:
            counters["output.rows_written"] += 1
            yield row
    args["rows"] = counted(args["rows"])


def _count_file(key):
    def count(counters, args, _result, _seconds):
        counters["output.bytes_written"] += Path(args[key]).stat().st_size
    return count


def _count_cli(counters, args, code, seconds):
    argv = args["argv"] or []
    command = next((a for a in argv if not a.startswith("-")), "?")
    counters[f"cli.main.{command}.busy_s"] += seconds
    counters["cli.exit_nonzero"] += int(code != 0)


def _count_checks(counters, _args, results, _seconds):
    counters["validate.checks_failed"] += sum(not r.passed for r in results)


_HOOKS = {
    "fpe.solve_forward": {"after": _count_solve},
    "fpe.solve_backward": {"after": _count_solve},
    "bridge.ml_path": {"after": _count_slices},
    "bridge.sweep_noise": {"after": _count_rows_failed},
    "montecarlo.euler_maruyama_ensemble": {"after": _count_ensemble},
    "montecarlo.terminal_samples": {"after": _count_terminal},
    "output.write_csv": {"before": _count_csv_rows, "after": _count_file("path")},
    "output.write_json": {"after": _count_file("path")},
    "output.write_surface_binary": {"after": _count_file("path")},
    "cli.main": {"after": _count_cli},
    "validate.run_checks": {"after": _count_checks},
}


# --- per-layer metrics ---------------------------------------------------------

class SpanStats:
    """Calls, busy time and self time per span name and per layer.

    Busy time sums the spans not nested inside another span of the same
    name (or layer); self time subtracts each span's direct children.
    """

    def __init__(self, spans: list[list]):
        n = len(spans)
        child = [0.0] * n
        for name, start, end, parent, _run in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _run) in enumerate(spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - child[i]
            self.layer_self[layer] += duration - child[i]
            same_name = same_layer = False
            p = parent
            while p >= 0 and not same_name:
                ancestor = spans[p][0]
                same_name = ancestor == name
                same_layer = same_layer or ancestor.split(".", 1)[0] == layer
                p = spans[p][3]
            if not same_name:
                self.busy[name] += duration
            if not same_layer:
                self.layer_busy[layer] += duration

    def fired(self, source: str) -> bool:
        """True when a span named ``source``, or of layer ``source``, ran."""
        return self.calls.get(source, 0) > 0 or self.layer_busy.get(source, 0.0) > 0.0


def _ratio(num: float, den: float):
    return num / den if den > 0 else None


def _fn_metrics(layer: str, fn: str, kinds: tuple[str, ...]):
    name = f"{layer}.{fn}"
    out = []
    for kind in kinds:
        if kind == "calls":
            out.append((f"{name}.calls", "count", name,
                        lambda s, c, n=name: s.calls[n]))
        elif kind == "busy_s":
            out.append((f"{name}.busy_s", "s", name,
                        lambda s, c, n=name: s.busy[n]))
        else:
            out.append((f"{name}.self_s", "s", name,
                        lambda s, c, n=name: s.self_s[n]))
    return out


def _counter(key: str, unit: str, source: str):
    return (key, unit, source, lambda s, c: c.get(key, 0.0))


def _leaf_solve_busy(s: SpanStats) -> float:
    return s.busy["fpe.solve_forward"] + s.busy["fpe.solve_backward"]


# (metric name, unit, span or layer that must have fired, value function).
LAYER_METRICS = [
    *_fn_metrics("fpe", "solve_forward", ("calls", "busy_s")),
    *_fn_metrics("fpe", "solve_backward", ("calls", "busy_s")),
    *_fn_metrics("fpe", "solve_endpoint_conditioned", ("self_s",)),
    *_fn_metrics("fpe", "hitting_probability", ("busy_s",)),
    _counter("fpe.cell_steps", "count", "fpe"),
    ("fpe.cell_steps_per_s", "1/s", "fpe",
     lambda s, c: _ratio(c.get("fpe.cell_steps", 0.0), _leaf_solve_busy(s))),
    _counter("fpe.surface_bytes_computed", "B", "fpe"),
    *_fn_metrics("bridge", "sweep_noise", ("self_s",)),
    *_fn_metrics("bridge", "solve_bridge", ("self_s",)),
    *_fn_metrics("bridge", "ml_path", ("busy_s",)),
    *_fn_metrics("bridge", "detect_jump", ("busy_s",)),
    _counter("bridge.slices", "count", "bridge.ml_path"),
    _counter("bridge.rows_failed", "count", "bridge.sweep_noise"),
    *_fn_metrics("montecarlo", "euler_maruyama_ensemble", ("calls", "busy_s")),
    *_fn_metrics("montecarlo", "estimate_hitting_probability", ("busy_s",)),
    _counter("montecarlo.path_steps", "count", "montecarlo"),
    ("montecarlo.path_steps_per_s", "1/s", "montecarlo",
     lambda s, c: _ratio(c.get("montecarlo.path_steps", 0.0),
                         s.layer_busy["montecarlo"])),
    ("montecarlo.surviving_frac", "ratio", "montecarlo",
     lambda s, c: _ratio(c.get("montecarlo.paths_surviving", 0.0),
                         c.get("montecarlo.paths_launched", 0.0))),
    *_fn_metrics("model", "drift", ("calls",)),
    _counter("model.drift.points", "count", "model.drift"),
    *_fn_metrics("model", "drift", ("busy_s",)),
    *_fn_metrics("model", "find_equilibria", ("busy_s",)),
    *_fn_metrics("output", "write_csv", ("busy_s",)),
    *_fn_metrics("output", "write_surface_csv", ("busy_s",)),
    *_fn_metrics("output", "write_surface_binary", ("busy_s",)),
    *_fn_metrics("output", "write_json", ("busy_s",)),
    _counter("output.bytes_written", "B", "output"),
    _counter("output.rows_written", "count", "output.write_csv"),
    ("output.mb_per_s", "MB/s", "output",
     lambda s, c: _ratio(c.get("output.bytes_written", 0.0) / 1e6,
                         s.layer_busy["output"])),
    *[_counter(f"cli.main.{cmd}.busy_s", "s", "cli.main") for cmd in DUMP_COMMANDS],
    ("cli.self_s", "s", "cli", lambda s, c: s.layer_self["cli"]),
    _counter("cli.exit_nonzero", "count", "cli.main"),
    *_fn_metrics("config", "load_config", ("busy_s",)),
    *[(f"validate.{check}.busy_s", "s", f"validate.{check}",
       lambda s, c, n=f"validate.{check}": s.busy[n]) for check in NINE_CHECKS],
    ("validate.self_s", "s", "validate", lambda s, c: s.layer_self["validate"]),
    _counter("validate.checks_failed", "count", "validate.run_checks"),
]


# Units of totals; a metric in any other unit is a ratio of totals.
_PER_REP_UNITS = ("s", "count", "B")


def layer_metrics(spans: list[list], counters: dict, reps: int,
                  traced_wall_s: float) -> dict:
    """Every per-layer metric as ``{"value", "unit"}``, or ``unmeasured``.

    Times, counts and bytes are means per traced repetition, so they do not
    grow when faster code fits more repetitions into the run; rates and
    fractions are ratios of the totals.  ``<layer>.self_frac`` is the
    layer's self time over ``traced_wall_s``, the summed wall time of the
    traced repetitions.  A metric whose span or layer never fired is
    reported with value None and ``"status": "unmeasured"``, never as 0.
    """
    stats = SpanStats(spans)
    self_fracs = [(f"{layer}.self_frac", "ratio", layer,
                   lambda s, c, layer=layer: _ratio(s.layer_self[layer], traced_wall_s))
                  for layer in LAYERS]
    out = {}
    for name, unit, source, value_fn in LAYER_METRICS + self_fracs:
        value = value_fn(stats, counters)
        if not stats.fired(source) or value is None:
            out[name] = {"value": None, "unit": unit, "status": "unmeasured"}
            continue
        if unit in _PER_REP_UNITS:
            value /= reps
        out[name] = {"value": float(value), "unit": unit}
    return out


def top_layer(spans: list[list]) -> tuple[str, float]:
    """The layer with the largest self time, and that self time."""
    stats = SpanStats(spans)
    if not stats.layer_self:
        return "none", 0.0
    return max(stats.layer_self.items(), key=lambda kv: kv[1])
