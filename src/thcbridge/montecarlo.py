"""Euler-Maruyama ensembles used to cross-validate the density solvers.

Paths are advanced in fixed-size batches, each drawing from an independent
substream spawned from (seed, batch index).  The batches of one ensemble run
on a thread pool of min(batches, usable CPUs) workers and are combined in
batch order, so results are bitwise reproducible and do not depend on the
worker count.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .fpe import GridError, SpatialGrid, TimeGrid, _as_noise, _usable_cpus

RNG_ALGORITHM = "numpy-pcg64/seedsequence-spawn"

_BATCH_SIZE = 20_000


class MonteCarloError(RuntimeError):
    """Ensemble simulation produced non-finite values."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble size, SDE step, seed and boundary policy."""

    n_paths: int = 100_000
    dt_sde: float = 1e-3
    seed: int = 0
    reflect_at_bounds: bool = True

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise GridError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (self.dt_sde > 0.0 and math.isfinite(self.dt_sde)):
            raise GridError(f"dt_sde must be positive, got {self.dt_sde!r}")


@dataclass(frozen=True)
class HistogramSurface:
    """Per-cell densities of the surviving ensemble at selected times.

    Each slice integrates to the surviving path fraction: exactly 1 with
    reflection, less when escaped paths were dropped.
    """

    grid: SpatialGrid
    times: np.ndarray
    densities: np.ndarray          # shape (len(times), n_cells)
    dropped_fraction: float


class HittingEstimate(NamedTuple):
    probability: float
    standard_error: float
    n_paths: int


def _snap_steps(duration: float, dt: float) -> int:
    steps = duration / dt
    if not math.isfinite(steps):
        raise GridError(f"duration {duration} is not a finite number of "
                        f"dt_sde {dt} steps")
    n = int(round(steps))
    if n < 1 or abs(n * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise GridError(f"duration {duration} is not a multiple of dt_sde {dt}")
    return n


def _reflect(y: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo
    z = y - lo
    if z.min() >= 0.0 and z.max() <= span:
        # Every path is inside: the fold below is the identity on z, so
        # only the (y - lo) + lo rounding is kept.  NaN takes the full fold.
        return np.add(z, lo, out=z)
    z = np.mod(z, 2.0 * span)
    return lo + np.where(z <= span, z, 2.0 * span - z)


def _batch_sizes(n_paths: int) -> list[int]:
    full, rem = divmod(n_paths, _BATCH_SIZE)
    return [_BATCH_SIZE] * full + ([rem] if rem else [])


def _evolve_batch(batch_index: int, batch_n: int, drift, y0: float,
                  n_steps: int, noise_scale: float, cfg: EnsembleConfig,
                  bounds: tuple[float, float] | None, wanted: set[int]):
    """Advance one batch on its own substream; returns (snapshots, alive)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,)))
    y = np.full(batch_n, float(y0))
    alive = np.ones(batch_n, dtype=bool)
    step_drift = np.empty(batch_n)
    noise = np.empty(batch_n)
    snaps: dict[int, np.ndarray] = {}
    if 0 in wanted:
        snaps[0] = y.copy()
    for step in range(1, n_steps + 1):
        # y + f(y) dt + eps sqrt(dt) N, in place and in that order.
        np.multiply(drift.drift(y), cfg.dt_sde, out=step_drift)
        rng.standard_normal(out=noise)
        noise *= noise_scale
        y += step_drift
        y += noise
        if bounds is not None:
            if cfg.reflect_at_bounds:
                y = _reflect(y, bounds[0], bounds[1])
            else:
                # Dropped paths are NaN already, and NaN never escapes.
                escaped = (y < bounds[0]) | (y > bounds[1])
                if escaped.any():
                    y[escaped] = np.nan
                    alive &= ~escaped
        if step in wanted:
            snaps[step] = y.copy()
    if not np.all(np.isfinite(y[alive])):
        raise MonteCarloError(f"non-finite path values in batch {batch_index}")
    return snaps, alive


def _evolve_batches(drift, eps, y0: float, duration: float, cfg: EnsembleConfig,
                    bounds: tuple[float, float] | None,
                    snapshot_steps: Sequence[int]):
    """Yield (batch states at each snapshot step, alive mask) per batch.

    ``snapshot_steps`` are step indices into the Euler-Maruyama ladder; the
    final step must be included by the caller if wanted.  With reflection
    disabled and bounds given, escaped paths turn NaN and stay dropped.

    Batches run on min(batches, usable CPUs) threads (numpy's draws and
    ufuncs release the GIL) and are yielded in batch order, with at most one
    batch per worker in flight; a failing batch raises when its turn comes.
    """
    eps = _as_noise(eps)
    n_steps = _snap_steps(duration, cfg.dt_sde)
    if any(s < 0 or s > n_steps for s in snapshot_steps):
        raise GridError("snapshot step outside the simulated range")
    noise_scale = eps.epsilon * math.sqrt(cfg.dt_sde)
    wanted = set(snapshot_steps)

    sizes = _batch_sizes(cfg.n_paths)
    workers = min(len(sizes), _usable_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = (pool.submit(_evolve_batch, batch_index, batch_n, drift, y0,
                               n_steps, noise_scale, cfg, bounds, wanted)
                   for batch_index, batch_n in enumerate(sizes))
        in_flight = deque(islice(futures, workers))
        while in_flight:
            result = in_flight.popleft().result()
            in_flight.extend(islice(futures, 1))
            yield result


def euler_maruyama_ensemble(drift, eps, y0: float, grid: SpatialGrid,
                            times: TimeGrid, cfg: EnsembleConfig,
                            output_times: Sequence[float] | None = None,
                            ) -> HistogramSurface:
    """Ensemble of Euler-Maruyama paths histogrammed on the grid cells.

    ``output_times`` must be nodes of ``times`` inside [t_start, t_end]
    (default: the final time only).  Paths start at ``y0`` at
    ``times.t_start`` and are reflected at the grid bounds, or dropped on
    escape when reflection is off.
    """
    if not grid.contains(y0):
        raise GridError(f"y0={y0} outside the grid")
    if output_times is None:
        output_times = [times.t_end]
    output_times = sorted(float(t) for t in output_times)
    for t in output_times:
        k = round((t - times.t_start) / times.dt)
        if abs(times.t_start + k * times.dt - t) > 1e-9:
            raise GridError(f"output time {t} is not a node of the time grid")
        if not 0 <= k <= times.n_steps:
            raise GridError(f"output time {t} outside "
                            f"[{times.t_start}, {times.t_end}]")

    duration = times.t_end - times.t_start
    steps_of = {t: _snap_steps(t - times.t_start, cfg.dt_sde) if t > times.t_start
                else 0 for t in output_times}
    snapshot_steps = sorted(set(steps_of.values()))

    edges = grid.faces
    counts = np.zeros((len(output_times), grid.n_cells))
    dropped = 0
    for snaps, alive in _evolve_batches(drift, eps, y0, duration, cfg,
                                        (grid.y_min, grid.y_max),
                                        snapshot_steps):
        dropped += int((~alive).sum())
        for row, t in enumerate(output_times):
            samples = snaps[steps_of[t]]
            samples = samples[np.isfinite(samples)]
            counts[row] += np.histogram(samples, bins=edges)[0]

    densities = counts / (cfg.n_paths * grid.spacing)
    densities.setflags(write=False)
    return HistogramSurface(grid=grid, times=np.asarray(output_times),
                            densities=densities,
                            dropped_fraction=dropped / cfg.n_paths)


def terminal_samples(drift, eps, y0: float, duration: float,
                     cfg: EnsembleConfig,
                     bounds: tuple[float, float] | None = None) -> np.ndarray:
    """Final states of the ensemble after ``duration`` (NaN for dropped paths)."""
    n_steps = _snap_steps(duration, cfg.dt_sde)
    out = np.empty(cfg.n_paths)
    at = 0
    for snaps, _alive in _evolve_batches(drift, eps, y0, duration, cfg,
                                         bounds, [n_steps]):
        batch = snaps[n_steps]
        out[at:at + batch.size] = batch
        at += batch.size
    return out


def estimate_hitting_probability(drift, eps, y: float, t: float, y3: float,
                                 horizon: float, window: float,
                                 cfg: EnsembleConfig,
                                 grid: SpatialGrid | None = None,
                                 ) -> HittingEstimate:
    """Fraction of paths from (y, t) ending inside [y3 - window, y3 + window].

    The attached standard error is the binomial sqrt(p(1-p)/n).  When a grid
    is given, paths respect its boundary policy (reflect or drop); dropped
    paths count as misses.
    """
    if not window > 0.0:
        raise GridError(f"window must be positive, got {window}")
    if not t < horizon:
        raise GridError(f"start time {t} must precede horizon {horizon}")
    bounds = (grid.y_min, grid.y_max) if grid is not None else None
    final = terminal_samples(drift, eps, y, horizon - t, cfg, bounds)
    with np.errstate(invalid="ignore"):
        hits = int(((final >= y3 - window) & (final <= y3 + window)).sum())
    p_hat = hits / cfg.n_paths
    se = math.sqrt(p_hat * (1.0 - p_hat) / cfg.n_paths)
    return HittingEstimate(probability=p_hat, standard_error=se,
                           n_paths=cfg.n_paths)


def l1_distance(a: np.ndarray, b: np.ndarray, grid: SpatialGrid) -> float:
    """Integral of |a - b| over the grid."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (grid.n_cells,) or b.shape != (grid.n_cells,):
        raise GridError(f"slice shapes {a.shape}/{b.shape} do not match "
                        f"n_cells={grid.n_cells}")
    return float(grid.spacing * np.abs(a - b).sum())
