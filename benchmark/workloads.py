"""The four benchmark workloads and their correctness oracles.

Each workload is a closed loop with one caller in one process: a repetition
starts only after the previous one has returned.  ``rep`` is the timed
section; ``check`` runs after the timed loop and turns each repetition's
outputs into one verdict per operation, so no output goes unchecked.

Why these four:

- ``sweep`` is the paper's headline computation (jump time across the noise
  sweep); the density solver does most of its work.
- ``ensemble`` is the Monte Carlo cross-check; it runs no density solve.
- ``dump`` is the only workload that writes artifacts (CLI plus writers).
- ``validate`` is the gate users run before trusting a result; it is the
  only one on other drifts, ``solve_backward`` and grids up to 3200 cells.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import NINE_CHECKS

# Jump times of the default Cessi bridge (paper values), per noise level.
JUMP_ANCHORS = {0.20: 6.59, 0.25: 6.45}
# Oracle widths in standard errors of the Monte Carlo estimate.
HIST_SIDE_SE = 4.0
HITTING_SE = 3.0


@dataclass
class Verdict:
    """Oracle outcome for one operation."""

    op: str
    ok: bool
    detail: str = ""


class Workload:
    """One benchmark workload; subclasses fill in the three phases.

    ``prepare`` builds the configuration and grids (untimed), ``rep`` runs
    one timed repetition and returns ``(output, work)``, and ``check``
    returns exactly ``ops_per_rep`` verdicts for one repetition's output,
    in repetition order, so it can compare later outputs with the first.
    """

    name = ""
    stressed_layer = ""   # layer the traced split is expected to show on top
    setup_params: tuple[str, ...] = ()

    def __init__(self, pkg, seed: int, tiny: bool, out_dir: Path):
        self.pkg = pkg
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        self.ops_per_rep = 0
        self.drift = None

    def prepare(self) -> None:
        self.config = self.pkg.config.load_config(None, list(self.setup_params))
        self.grid = self.config.spatial_grid()
        self.times = self.config.time_grid()
        self.drift = self.config.drift_model()

    def rep(self, drift):
        raise NotImplementedError

    def check(self, output) -> list[Verdict]:
        raise NotImplementedError

    def throughput(self, work: dict, wall_s: float):
        """Workload-specific throughput ``(name, unit, value)``, or None."""
        return None

    def discard(self, output) -> None:
        """Release what a checked repetition left behind."""


class Sweep(Workload):
    """``bridge.sweep_noise`` over the 13 default noise levels 0.18..0.30."""

    name = "sweep"
    stressed_layer = "fpe"

    def __init__(self, *args):
        super().__init__(*args)
        if self.tiny:
            self.setup_params = ("eps_list=0.2,0.25",)

    def prepare(self) -> None:
        super().prepare()
        c = self.config
        self.spec = self.pkg.bridge.BridgeSpec(c.y_start, c.y_end, c.t_end)
        self.ops_per_rep = len(c.eps_list)

    def rep(self, drift):
        c = self.config
        records = self.pkg.bridge.sweep_noise(drift, self.spec, c.eps_list,
                                              self.grid, self.times,
                                              c.jump_threshold)
        return records, {"pathways": sum(r.converged for r in records)}

    def check(self, records) -> list[Verdict]:
        tol = 2.0 * self.times.dt
        verdicts = []
        previous = None
        for r in records:
            problems = []
            if not r.converged:
                problems.append(f"not converged ({r.error})")
            else:
                for eps, t_anchor in JUMP_ANCHORS.items():
                    if math.isclose(r.epsilon, eps) and abs(r.t_jump - t_anchor) > tol:
                        problems.append(f"t_jump {r.t_jump:.5f} not within "
                                        f"{tol:g} of {t_anchor}")
                if previous is not None and r.t_jump > previous:
                    problems.append(f"t_jump {r.t_jump:.5f} rose above "
                                    f"{previous:.5f} as eps grew")
                previous = r.t_jump
            verdicts.append(Verdict(f"row eps={r.epsilon:g}", not problems,
                                    "; ".join(problems)))
        return verdicts

    def throughput(self, work, wall_s):
        return "pathways_per_s", "1/s", work["pathways"] / wall_s


class Ensemble(Workload):
    """Euler-Maruyama histogram plus the ``mc-hitting`` estimate."""

    name = "ensemble"
    stressed_layer = "montecarlo"
    hist_eps = 0.20
    hit_eps = 0.25
    hit_t = 5.0
    hit_window = 0.1

    def prepare(self) -> None:
        super().prepare()
        c = self.config
        mc = self.pkg.montecarlo
        n_hist, n_hit = (2_000, 1_000) if self.tiny else (40_000, 20_000)
        hist_seed, hit_seed = (int(s) for s in
                               np.random.SeedSequence(self.seed).generate_state(2))
        self.hist_cfg = mc.EnsembleConfig(n_paths=n_hist, dt_sde=c.dt_sde,
                                          seed=hist_seed)
        self.hit_cfg = mc.EnsembleConfig(n_paths=n_hit, dt_sde=c.dt_sde,
                                         seed=hit_seed)
        self.path_steps = (
            n_hist * round(c.t_end / c.dt_sde)
            + n_hit * round((c.t_end - self.hit_t) / c.dt_sde))
        self.ops_per_rep = 2
        self._reference = None
        self._first_hist = None

    def rep(self, drift):
        c = self.config
        mc = self.pkg.montecarlo
        t0 = time.perf_counter()
        hist = mc.euler_maruyama_ensemble(drift, self.hist_eps, c.y_start,
                                          self.grid, self.times, self.hist_cfg)
        t1 = time.perf_counter()
        equilibria = self.pkg.model.find_equilibria(c.nondimensional())
        if len(equilibria) != 3:
            raise RuntimeError(f"expected three equilibria, got {equilibria}")
        saddle = equilibria[1].y
        t2 = time.perf_counter()
        estimate = mc.estimate_hitting_probability(
            drift, self.hit_eps, saddle, self.hit_t, c.y_end, c.t_end,
            self.hit_window, self.hit_cfg, grid=self.grid)
        t3 = time.perf_counter()
        return ((hist, saddle, estimate),
                {"path_steps": self.path_steps, "mc_s": (t1 - t0) + (t3 - t2)})

    def _references(self, saddle: float):
        """Forward-solve terminal slice and PDE window-hitting probability."""
        if self._reference is None:
            c = self.config
            fpe = self.pkg.fpe
            final = fpe.solve_forward(self.drift, self.hist_eps, self.grid,
                                      self.times, c.y_start).values[-1]
            p_hit = fpe.hitting_probability(
                self.drift, self.hit_eps, self.grid, saddle, self.hit_t,
                c.t_end, max(1, c.n_steps // 2), c.y_end, self.hit_window)
            self._reference = (final, p_hit)
        return self._reference

    def check(self, output) -> list[Verdict]:
        hist, saddle, estimate = output
        final, p_hit = self._references(saddle)
        h = self.grid.spacing
        n = self.hist_cfg.n_paths
        problems = []
        left = self.grid.nodes < saddle
        for side, mask in (("left", left), ("right", ~left)):
            mass_mc = h * hist.densities[-1][mask].sum()
            mass_pde = h * final[mask].sum()
            se = math.sqrt(max(mass_pde * (1.0 - mass_pde), 0.0) / n)
            if abs(mass_mc - mass_pde) > HIST_SIDE_SE * se:
                problems.append(f"{side} mass {mass_mc:.5f} vs PDE "
                                f"{mass_pde:.5f} (> {HIST_SIDE_SE:g} SE = "
                                f"{HIST_SIDE_SE * se:.5f})")
        fingerprint = hist.densities.tobytes()
        if self._first_hist is None:
            self._first_hist = fingerprint
        elif fingerprint != self._first_hist:
            problems.append("histogram differs from the first repetition "
                            "with the same seed")
        hist_verdict = Verdict("euler_maruyama_ensemble", not problems,
                               "; ".join(problems))

        sigma = max(estimate.standard_error, 1e-12)
        z = abs(estimate.probability - p_hit) / sigma
        hit_verdict = Verdict(
            "estimate_hitting_probability", z <= HITTING_SE,
            f"mc={estimate.probability:.5f} pde={p_hit:.5f} "
            f"se={estimate.standard_error:.5f} ({z:.2f} SE)")
        return [hist_verdict, hit_verdict]

    def throughput(self, work, wall_s):
        return "path_steps_per_s", "1/s", work["path_steps"] / work["mc_s"]


# Artifact file -> index of the CLI command that writes it.
_ARTIFACT_OWNER = {"ml_path.csv": 0, "jump.json": 0, "forward.csv": 1,
                   "backward.bin": 2, "backward.meta.json": 2}
_CSV_SAMPLES = 200


class Dump(Workload):
    """Three in-process CLI commands writing into a fresh directory."""

    name = "dump"
    stressed_layer = "output"

    def __init__(self, *args):
        super().__init__(*args)
        if self.tiny:
            self.setup_params = ("n_cells=100", "n_steps=200")

    def prepare(self) -> None:
        super().prepare()
        params = [a for p in self.setup_params for a in ("--param", p)]
        self.commands = [
            ["bridge-path", "--eps", "0.20", *params],
            ["forward", "--eps", "0.25", *params],
            ["backward", "--eps", "0.25", "--format", "binary", *params],
        ]
        self.ops_per_rep = len(self.commands)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reference = None
        self._first_hashes = None

    def rep(self, drift):
        out = Path(tempfile.mkdtemp(prefix="dump-", dir=self.out_dir))
        codes = []
        stderr = io.StringIO()
        with open(os.devnull, "w") as devnull, \
                contextlib.redirect_stdout(devnull), \
                contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            for argv in self.commands:
                codes.append(self.pkg.cli.main([*argv, "--out", str(out)]))
            cli_s = time.perf_counter() - t0
        written = sum(f.stat().st_size for f in out.iterdir())
        return (out, codes, stderr.getvalue()), {"bytes": written, "cli_s": cli_s}

    def _references(self):
        if self._reference is None:
            c = self.config
            pkg = self.pkg
            spec = pkg.bridge.BridgeSpec(c.y_start, c.y_end, c.t_end)
            _, _, path = pkg.bridge.solve_bridge(self.drift, 0.20, spec,
                                                 self.grid, self.times)
            event = pkg.bridge.detect_jump(path, c.jump_threshold)
            forward = pkg.fpe.solve_forward(self.drift, 0.25, self.grid,
                                            self.times, c.y_start)
            backward = pkg.fpe.solve_backward(self.drift, 0.25, self.grid,
                                              self.times, c.y_end)
            self._reference = (path, event, forward, backward)
        return self._reference

    def _check_bridge_path(self, out: Path, path, event) -> list[str]:
        problems = []
        lines = (out / "ml_path.csv").read_text().splitlines()
        if lines[0] != "t,psi" or len(lines) - 1 != path.psi.size:
            return [f"ml_path.csv has {len(lines) - 1} rows, "
                    f"expected {path.psi.size}"]
        for k, line in enumerate(lines[1:]):
            t, psi = (float(v) for v in line.split(","))
            if t != path.times[k] or psi != path.psi[k]:
                problems.append(f"ml_path.csv row {k} does not round-trip")
                break
        jump = json.loads((out / "jump.json").read_text())
        if event is None or jump["t_jump"] != event.t_jump:
            problems.append(f"jump.json t_jump {jump['t_jump']} != solver "
                            f"{None if event is None else event.t_jump}")
        return problems

    def _check_forward_csv(self, out: Path, forward) -> list[str]:
        n_cells = self.grid.n_cells
        expected_rows = (self.times.n_steps + 1) * n_cells
        rng = np.random.default_rng(self.seed)
        wanted = {0, expected_rows - 1,
                  *(int(k) for k in rng.integers(0, expected_rows, _CSV_SAMPLES))}
        t_nodes = self.times.nodes
        y_nodes = self.grid.nodes
        problems = []
        rows = -1
        with open(out / "forward.csv", "rb") as fh:
            header = fh.readline()
            if header != b"t,y,p\n":
                problems.append(f"forward.csv header {header!r}")
            for rows, line in enumerate(fh):
                if rows in wanted:
                    n, i = divmod(rows, n_cells)
                    t, y, p = (float(v) for v in line.split(b","))
                    if (t, y, p) != (t_nodes[n], y_nodes[i], forward.values[n, i]):
                        problems.append(f"forward.csv row {rows} does not round-trip")
                        wanted.clear()
        if rows + 1 != expected_rows:
            problems.append(f"forward.csv has {rows + 1} rows, "
                            f"expected {expected_rows}")
        return problems

    def _check_backward_bin(self, out: Path, backward) -> list[str]:
        problems = []
        expected = backward.values.astype("<f8").tobytes(order="C")
        if (out / "backward.bin").read_bytes() != expected:
            problems.append("backward.bin differs from the solver output")
        meta = json.loads((out / "backward.meta.json").read_text())
        if meta["shape"] != list(backward.values.shape):
            problems.append(f"backward.meta.json shape {meta['shape']}")
        return problems

    def check(self, output) -> list[Verdict]:
        out, codes, stderr = output
        path, event, forward, backward = self._references()
        problems: list[list[str]] = [[] for _ in self.commands]
        for k, code in enumerate(codes):
            if code != 0:
                problems[k].append(f"exit code {code}: {stderr.strip()[-300:]}")
        checkers = (lambda: self._check_bridge_path(out, path, event),
                    lambda: self._check_forward_csv(out, forward),
                    lambda: self._check_backward_bin(out, backward))
        for k, checker in enumerate(checkers):
            if not problems[k]:
                try:
                    problems[k].extend(checker())
                except (OSError, ValueError, KeyError) as exc:
                    problems[k].append(f"unreadable artifact: {exc!r}")
        hashes = _artifact_hashes(out)
        if self._first_hashes is None:
            self._first_hashes = hashes
        for name in sorted(set(hashes) | set(self._first_hashes)):
            if hashes.get(name) != self._first_hashes.get(name):
                owner = _ARTIFACT_OWNER.get(name, 0)
                problems[owner].append(f"{name} hash differs from the first "
                                       "repetition")
        return [Verdict(f"cli {argv[0]}", not p, "; ".join(p))
                for argv, p in zip(self.commands, problems)]

    def throughput(self, work, wall_s):
        return "dump_mb_per_s", "MB/s", work["bytes"] / 1e6 / work["cli_s"]

    def discard(self, output) -> None:
        shutil.rmtree(output[0], ignore_errors=True)


def _artifact_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact except the manifest (it holds timings)."""
    hashes = {}
    for f in sorted(out.iterdir()):
        if f.name == "manifest.json":
            continue
        digest = hashlib.sha256()
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        hashes[f.name] = digest.hexdigest()
    return hashes


class Validate(Workload):
    """``validate.run_checks`` with the nine deterministic checks."""

    name = "validate"
    stressed_layer = "fpe"

    def prepare(self) -> None:
        super().prepare()
        self.names = ["mass", "heat-kernel", "ou-mean"] if self.tiny \
            else list(NINE_CHECKS)
        self.ops_per_rep = len(self.names)

    def rep(self, drift):
        return self.pkg.validate.run_checks(self.config, self.names), {}

    def check(self, results) -> list[Verdict]:
        return [Verdict(f"check {name}", r.name == name and r.passed,
                        f"measured={r.measured:.6g} tolerance={r.tolerance:.6g}"
                        + (f" ({r.detail})" if r.detail else ""))
                for name, r in zip(self.names, results)]


WORKLOADS = {w.name: w for w in (Sweep, Ensemble, Dump, Validate)}
