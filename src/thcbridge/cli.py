"""Batch command-line front end.

Subcommands cover each pipeline stage; every run writes its artifacts plus
a manifest.json (resolved config, scheme identifiers, wall-clock per stage,
diagnostic counters, and an error field on failure) under the output
directory.  Exit codes: 0 success, 2 configuration error, 3 no jump or no
converged sweep row, 4 solver failure, 5 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .bridge import BridgeError, detect_jump, solve_path, sweep_noise
from .config import ConfigError, RunConfig, load_config
from .fpe import PDE_SCHEME, GridError, SolverError, solve_backward, solve_forward
from .model import DRIFTS, ModelError, find_equilibria
from .montecarlo import RNG_ALGORITHM, MonteCarloError, euler_maruyama_ensemble
from .output import (stored_steps, write_csv, write_json, write_long_csv,
                     write_surface_binary, write_surface_csv)
from .validate import run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_JUMP = 3
EXIT_SOLVER = 4
EXIT_VALIDATION = 5


class _Manifest:
    """Collects run metadata and always lands on disk, even for failures."""

    def __init__(self, command: str, out_dir: Path):
        self.out_dir = out_dir
        self.data = {
            "tool": "thcbridge",
            "version": __version__,
            "command": command,
            "schemes": {"pde": PDE_SCHEME, "rng": RNG_ALGORITHM},
            "timings_seconds": {},
            "diagnostics": {},
            "error": None,
        }

    def set_config(self, config: RunConfig) -> None:
        self.data["config"] = config.as_dict()
        if config.drift == "cessi":
            nd = config.nondimensional()
            self.data["resolved_model"] = {"f_bar": nd.f_bar, "mu2": nd.mu2}

    @contextlib.contextmanager
    def time_stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.data["timings_seconds"][name] = time.perf_counter() - start

    def diagnose(self, key: str, value) -> None:
        self.data["diagnostics"][key] = value

    def fail(self, stage: str, message: str) -> None:
        self.data["error"] = {"stage": stage, "message": message}

    def write(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_json(self.out_dir / "manifest.json", self.data)


def _load(args) -> RunConfig:
    """Config file, then --param, then the flags that were set; each flag's
    dest is the config key it sets."""
    direct = {f_.name: getattr(args, f_.name) for f_ in fields(RunConfig)
              if getattr(args, f_.name, None) is not None}
    return load_config(args.config, args.param, **direct)


def cmd_equilibria(config: RunConfig, manifest: _Manifest, args) -> int:
    if config.drift != "cessi":
        raise ConfigError("drift", "equilibria needs the cessi drift, "
                          f"not {config.drift!r}")
    nd = config.nondimensional()
    with manifest.time_stage("equilibria"):
        equilibria = find_equilibria(nd)
    rows = [(e.y, e.derivative, e.stability) for e in equilibria]
    write_csv(manifest.out_dir / "equilibria.csv",
              ["y", "f_prime", "stability"], rows)
    print(f"{'y':>12} {'f_prime':>12} {'stability':>10}")
    for e in equilibria:
        print(f"{e.y:12.6f} {e.derivative:12.6f} {e.stability:>10}")
    manifest.diagnose("n_equilibria", len(equilibria))
    return EXIT_OK


def _dump_surface(config: RunConfig, manifest: _Manifest, args, kind: str) -> int:
    drift = config.drift_model()
    grid = config.spatial_grid()
    times = config.time_grid()
    solver = solve_forward if kind == "forward" else solve_backward
    source = config.y_start if kind == "forward" else config.y_end
    with manifest.time_stage(kind):
        surface = solver(drift, config.epsilon, grid, times, source)
    if surface.max_mass_drift is not None:
        manifest.diagnose(f"{kind}_max_mass_drift", surface.max_mass_drift)
    value_name = "p" if kind == "forward" else "g"
    if args.format == "binary":
        write_surface_binary(manifest.out_dir / f"{kind}.bin",
                             manifest.out_dir / f"{kind}.meta.json",
                             surface, config.dump_every)
    else:
        write_surface_csv(manifest.out_dir / f"{kind}.csv", surface,
                          config.dump_every, value_name)
    n_stored = len(stored_steps(times.n_steps, config.dump_every))
    print(f"{kind} surface written ({n_stored} steps stored, "
          f"dump_every={config.dump_every})")
    return EXIT_OK


def cmd_forward(config: RunConfig, manifest: _Manifest, args) -> int:
    return _dump_surface(config, manifest, args, "forward")


def cmd_backward(config: RunConfig, manifest: _Manifest, args) -> int:
    return _dump_surface(config, manifest, args, "backward")


def cmd_bridge_path(config: RunConfig, manifest: _Manifest, args) -> int:
    drift = config.drift_model()
    with manifest.time_stage("bridge"):
        path = solve_path(drift, config.epsilon, config.bridge_spec(),
                          config.spatial_grid(), config.time_grid())
        event = detect_jump(path, config.jump_threshold)
    manifest.diagnose("path_max_mass_drift", path.max_mass_drift)
    write_csv(manifest.out_dir / "ml_path.csv", ["t", "psi"],
              zip(path.times, path.psi))
    jump_payload = {"epsilon": config.epsilon, "threshold": config.jump_threshold,
                    "t_jump": None, "gap": None, "y_before": None,
                    "y_after": None}
    if event is not None:
        jump_payload.update(t_jump=event.t_jump, gap=event.gap,
                            y_before=event.y_before, y_after=event.y_after)
    write_json(manifest.out_dir / "jump.json", jump_payload)
    if event is None:
        print("no jump above threshold")
        if args.require_jump:
            return EXIT_NO_JUMP
    else:
        print(f"jump at t={event.t_jump:.4f} (gap {event.gap:.4f})")
    return EXIT_OK


def cmd_sweep(config: RunConfig, manifest: _Manifest, args) -> int:
    drift = config.drift_model()
    with manifest.time_stage("sweep"):
        records = sweep_noise(drift, config.bridge_spec(), config.eps_list,
                              config.spatial_grid(), config.time_grid(),
                              config.jump_threshold)
    write_csv(manifest.out_dir / "sweep.csv",
              ["epsilon", "t_jump", "gap", "converged"],
              [(r.epsilon, r.t_jump, r.gap, r.converged) for r in records])
    failures = [r for r in records if r.error]
    manifest.diagnose("converged_rows", sum(r.converged for r in records))
    if failures:
        manifest.diagnose("sweep_errors", [r.error for r in failures])
    for r in records:
        status = f"t_jump={r.t_jump:.4f}" if r.converged else "no jump"
        print(f"eps={r.epsilon:.4g}: {status}")
    if not any(r.converged for r in records):
        return EXIT_NO_JUMP
    return EXIT_OK


def cmd_mc(config: RunConfig, manifest: _Manifest, args) -> int:
    drift = config.drift_model()
    grid = config.spatial_grid()
    times = config.time_grid()
    cfg = config.ensemble_config()
    with manifest.time_stage("mc"):
        hist = euler_maruyama_ensemble(drift, config.epsilon, config.y_start,
                                       grid, times, cfg)
    write_long_csv(manifest.out_dir / "hist.csv", ["t", "y", "density"],
                   hist.times, grid.nodes, hist.densities)
    write_json(manifest.out_dir / "mc_summary.json",
               {"n_paths": cfg.n_paths, "dt_sde": cfg.dt_sde, "seed": cfg.seed,
                "dropped_fraction": hist.dropped_fraction,
                "rng": RNG_ALGORITHM})
    manifest.diagnose("dropped_fraction", hist.dropped_fraction)
    print(f"histogram written ({cfg.n_paths} paths, "
          f"dropped {hist.dropped_fraction:.4%})")
    return EXIT_OK


def cmd_validate(config: RunConfig, manifest: _Manifest, args) -> int:
    names = None
    if args.checks:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
    with manifest.time_stage("validate"):
        results = run_checks(config, names)
    payload = {"checks": [r.as_dict() for r in results],
               "all_passed": all(r.passed for r in results)}
    write_json(manifest.out_dir / "validation.json", payload)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name}: measured={r.measured:.6g} "
              f"tolerance={r.tolerance:.6g}" + (f" ({r.detail})" if r.detail else ""))
    if not payload["all_passed"]:
        return EXIT_VALIDATION
    return EXIT_OK


_COMMANDS = {
    "equilibria": cmd_equilibria,
    "forward": cmd_forward,
    "backward": cmd_backward,
    "bridge-path": cmd_bridge_path,
    "sweep": cmd_sweep,
    "mc": cmd_mc,
    "validate": cmd_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key "
                        "(repeatable; wins over the config file)")
    common.add_argument("--out", dest="out_dir",
                        help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="RNG seed override")
    common.add_argument("--dump-every", type=int, dest="dump_every",
                        help="store every N-th time step (and the last) in dumps")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--eps", type=float, dest="epsilon",
                       help="noise intensity override")
    model.add_argument("--start", type=float, dest="y_start",
                       help="start state override")
    model.add_argument("--end", type=float, dest="y_end",
                       help="end state override")
    model.add_argument("--drift", choices=tuple(DRIFTS),
                       help="drift model override")

    parser = argparse.ArgumentParser(
        prog="thcbridge",
        description="Most-likely transition pathways of a bistable diffusion "
                    "via density-surface products.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("equilibria", parents=[common],
                   help="roots and stability of the reduced drift")

    for kind in ("forward", "backward"):
        p = sub.add_parser(kind, parents=[common, model],
                           help=f"solve and dump the {kind} density surface")
        p.add_argument("--format", choices=("csv", "binary"), default="csv")

    p = sub.add_parser("bridge-path", parents=[common, model],
                       help="maximum-likelihood pathway between the endpoints")
    p.add_argument("--require-jump", action="store_true",
                   help="exit 3 when no jump exceeds the threshold")

    p = sub.add_parser("sweep", parents=[common, model],
                       help="jump time as a function of noise intensity")
    p.add_argument("--eps-list", dest="eps_list",
                   help="comma-separated noise intensities")

    p = sub.add_parser("mc", parents=[common, model],
                       help="Euler-Maruyama ensemble histogram")

    p = sub.add_parser("validate", parents=[common],
                       help="run the oracle and cross-validation checks")
    p.add_argument("--checks", help="comma-separated subset of checks to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out_dir) if args.out_dir is not None else None
    manifest = _Manifest(args.command, out_dir or Path("out"))
    try:
        config = _load(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        manifest.fail("config", str(exc))
        manifest.write()
        return EXIT_CONFIG
    if out_dir is None:
        manifest.out_dir = Path(config.out_dir)
    try:
        manifest.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: out_dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest.set_config(config)
        code = _COMMANDS[args.command](config, manifest, args)
    except (ConfigError, GridError, ModelError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        manifest.fail(args.command, str(exc))
        manifest.write()
        return EXIT_CONFIG
    except (SolverError, BridgeError, MonteCarloError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        manifest.fail(args.command, str(exc))
        manifest.write()
        return EXIT_SOLVER
    manifest.write()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
