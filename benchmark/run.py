"""thcbridge benchmark: one workload per invocation, one JSON line at the end.

Run from the repository root:

    python3 benchmark/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Workloads: sweep, ensemble, dump, validate (see ``workloads.py``).  The
program is imported from ``src/`` of the checkout this file lives in.

With ``--trace 0`` the run measures, with tracing off:

- ``setup_s``: fresh interpreter -> ``import thcbridge`` -> config and
  grids built; the median of several fresh processes.
- ``wall_s``: the median timed section of one repetition.
- ``peak_rss_mb``: this process's peak resident set after the timed loop
  (checks run afterwards and do not count).

It also prints ``failed_ops_frac`` and the workload's own throughput
(``pathways_per_s``, ``path_steps_per_s`` or ``dump_mb_per_s``).  With
``--trace 1`` one untraced repetition is followed by traced ones; the run
prints the per-layer metrics and the tracing overhead and writes the spans
to ``benchmark/out/``.

Repetitions form a closed loop with one caller: another one starts while
the time used so far plus the mean repetition still fits in ``--seconds``,
and at least one always runs.  Every operation of every repetition is
checked against its oracle afterwards; a failed check counts in ``failed``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run that every workload measures; the
# full per-layer table, with ``unmeasured`` entries, is printed above them.
PER_LAYER_UNITS = {
    "model.drift.calls": "count",
    "model.drift.points": "count",
    "model.drift.busy_s": "s",
    "top_layer.self_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

_PROBE = """\
import sys
import thcbridge.cli, thcbridge.config, thcbridge.output, thcbridge.validate
config = thcbridge.config.load_config(None, sys.argv[1:])
grid = config.spatial_grid()
grid.nodes, grid.faces
config.time_grid().nodes
config.drift_model()
"""

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Rep:
    wall_s: float
    output: object = None
    work: dict = field(default_factory=dict)
    error: str | None = None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "ensemble", "dump", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the smoke test")
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe_setup(params) -> float:
    """Seconds from spawning a fresh interpreter to config and grids built."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROBE, *params], env=_child_env(),
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    """Hardware, versions and thread settings recorded with every result."""
    import numpy
    import scipy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind:
            caches[f"L{level}-{kind}"] = _read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = None
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith("Threads:"):
            threads = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "process_threads": threads,
    }


def run_reps(workload, seconds: float, drift, tracer=None) -> list[Rep]:
    """Closed loop of timed repetitions within ``seconds`` (at least one)."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(reps)
        t0 = time.perf_counter()
        try:
            output, work = workload.rep(drift)
            rep = Rep(time.perf_counter() - t0, output, work)
        except Exception:  # a failed repetition is counted, not fatal
            rep = Rep(time.perf_counter() - t0, error=traceback.format_exc())
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def check_reps(workload, reps: list[Rep]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, with a line per failure."""
    attempted = failed = 0
    failures = []
    for k, rep in enumerate(reps):
        attempted += workload.ops_per_rep
        if rep.error is not None:
            failed += workload.ops_per_rep
            failures.append(f"rep {k}: raised\n{rep.error}")
            continue
        try:
            verdicts = workload.check(rep.output)
        except Exception:  # a crashing oracle fails the repetition
            verdicts = []
            failures.append(f"rep {k}: check raised\n{traceback.format_exc()}")
        finally:
            workload.discard(rep.output)
        passed = sum(v.ok for v in verdicts[:workload.ops_per_rep])
        failed += workload.ops_per_rep - passed
        failures.extend(f"rep {k}: {v.op}: {v.detail}" for v in verdicts if not v.ok)
    return attempted, failed, failures


def summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest of p99/p95/p90/p75 (nearest
    rank) that has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values)}
    ordered = sorted(values)
    for q in (99, 95, 90, 75):
        index = math.ceil(q * len(values) / 100) - 1
        if len(values) - index - 1 >= 10:
            out[f"p{q}"] = ordered[index]
            break
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(tracing, tracer, baseline: Rep, traced: list[Rep]) -> dict:
    """Per-layer metrics plus the tracing overhead and the top layer."""
    traced_wall = statistics.median(r.wall_s for r in traced)
    traced_total = sum(r.wall_s for r in traced)
    overhead = traced_wall - baseline.wall_s
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, len(traced),
                                    traced_total)
    _, top_self = tracing.top_layer(tracer.spans)
    metrics.update({
        "trace.wall_s": _metric(traced_wall, "s"),
        "trace.untraced_wall_s": _metric(baseline.wall_s, "s"),
        "trace.overhead_s": _metric(overhead, "s"),
        "trace.overhead_frac": _metric(overhead / baseline.wall_s, "ratio"),
        "trace.spans": _metric(len(tracer.spans) / len(traced), "count"),
        "top_layer.self_frac": _metric(top_self / traced_total, "ratio"),
    })
    return metrics


def end_to_end(workload, setup: list[float], reps: list[Rep], peak_rss_mb: float,
               attempted: int, failed: int) -> dict:
    """End-to-end summaries, including the workload's own throughput."""
    e2e = {"setup_s": summary(setup),
           "wall_s": summary([r.wall_s for r in reps]),
           "peak_rss_mb": {"median": peak_rss_mb, "samples": 1}}
    named = [workload.throughput(r.work, r.wall_s) for r in reps if r.error is None]
    if named and named[0] is not None:
        e2e[named[0][0]] = {**summary([v for _, _, v in named]), "unit": named[0][1]}
    e2e["failed_ops_frac"] = {"median": failed / attempted, "samples": attempted,
                              "unit": "ratio"}
    for name, unit in END_TO_END_UNITS.items():
        e2e[name]["unit"] = unit
    return e2e


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "thcbridge" / "__init__.py").is_file():
        print(f"benchmark: no thcbridge package under {SRC}", file=sys.stderr)
        return 2
    # numpy and scipy each load their own OpenBLAS, whose default pool adds
    # a worker thread per library.  The workloads call no threaded BLAS
    # routine, so one thread per pool keeps the process within nproc
    # threads; the setup probes inherit the same settings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import thcbridge.cli
    import thcbridge.config
    import thcbridge.output
    import thcbridge.validate
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](thcbridge, args.seed, args.tiny, OUT_DIR)
    setup = [probe_setup(workload.setup_params) for _ in range(SETUP_PROBES)]
    workload.prepare()

    if args.trace:
        baseline = run_reps(workload, 0.0, workload.drift)
        with tracing.Tracer(thcbridge) as tracer:
            traced = run_reps(workload, args.seconds - baseline[0].wall_s,
                              tracing.TracedDrift(workload.drift, tracer), tracer)
        reps = baseline + traced
    else:
        reps = run_reps(workload, args.seconds, workload.drift)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()
    attempted, failed, failures = check_reps(workload, reps)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "environment": env, "failures": failures,
              "repetitions": [{"wall_s": r.wall_s, **r.work} for r in reps]}
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"repetitions={len(reps)} operations={attempted} failed={failed}"]
    if args.trace:
        per_layer = traced_metrics(tracing, tracer, baseline[0], traced)
        top, _ = tracing.top_layer(tracer.spans)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        report.update(per_layer=per_layer, top_layer=top,
                      stressed_layer=workload.stressed_layer)
        for name, m in per_layer.items():
            shown = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
            lines.append(f"  {name:<46} {shown:>14} {m['unit']}")
        lines.append(f"  top layer by self time: {top} "
                     f"(expected {workload.stressed_layer}); spans in {trace_path}")
        metrics = {k: per_layer[k] for k in PER_LAYER_UNITS}
    else:
        e2e = end_to_end(workload, setup, reps, peak_rss_mb, attempted, failed)
        report["end_to_end"] = e2e
        for name, m in e2e.items():
            tail = "".join(f" {k}={v:.6g}" for k, v in m.items() if k[0] == "p")
            lines.append(f"  {name:<18} {m['median']:>14.6g} {m['unit']:<6} "
                         f"(samples={m['samples']}{tail})")
        metrics = {k: _metric(e2e[k]["median"], u) for k, u in END_TO_END_UNITS.items()}
    lines.append("  environment: " + json.dumps(env, sort_keys=True))
    lines.extend(f"  FAILED {f}" for f in failures)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
