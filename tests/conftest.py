"""Shared fixtures: the heavy default-resolution pipelines are solved once
per session and reused by the unit and acceptance tests."""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from thcbridge import (
    BridgeSpec,
    CessiReduced,
    DensitySurface,
    EnsembleConfig,
    JumpEvent,
    MLPath,
    SpatialGrid,
    TimeGrid,
    detect_jump,
    euler_maruyama_ensemble,
    solve_backward,
    solve_bridge,
)

DEFAULT_GRID = SpatialGrid(-1.0, 2.5, 800)
DEFAULT_TIMES = TimeGrid(0.0, 10.0, 4000)
DEFAULT_SPEC = BridgeSpec(0.2402, 1.0687, 10.0)
CESSI = CessiReduced(1.1, 6.2)

Y1, Y2, Y3 = 0.2402, 0.6911, 1.0687


def traced_peak(fn):
    """(fn(), peak bytes traced by tracemalloc while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@dataclass(frozen=True)
class PipelineRun:
    epsilon: float
    forward: DensitySurface
    conditioned: DensitySurface
    path: MLPath
    event: JumpEvent | None
    elapsed: float


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    t_jump: float | None
    gap: float | None
    max_mass_error: float


def _run_pipeline(epsilon: float) -> PipelineRun:
    start = time.perf_counter()
    forward, conditioned, path = solve_bridge(CESSI, epsilon, DEFAULT_SPEC,
                                              DEFAULT_GRID, DEFAULT_TIMES)
    event = detect_jump(path, 0.3)
    return PipelineRun(epsilon, forward, conditioned, path, event,
                       time.perf_counter() - start)


@pytest.fixture(scope="session")
def pipeline_eps20() -> PipelineRun:
    return _run_pipeline(0.20)


@pytest.fixture(scope="session")
def pipeline_eps25() -> PipelineRun:
    return _run_pipeline(0.25)


@pytest.fixture(scope="session")
def backward_eps20() -> DensitySurface:
    return solve_backward(CESSI, 0.20, DEFAULT_GRID, DEFAULT_TIMES, Y3)


@pytest.fixture(scope="session")
def backward_eps25() -> DensitySurface:
    return solve_backward(CESSI, 0.25, DEFAULT_GRID, DEFAULT_TIMES, Y3)


@pytest.fixture(scope="session")
def sweep_points() -> tuple[list[SweepPoint], float]:
    """Per-epsilon jump summaries over 0.18..0.30, surfaces discarded."""
    eps_values = [round(0.18 + 0.01 * i, 2) for i in range(13)]
    points = []
    start = time.perf_counter()
    for eps in eps_values:
        forward, conditioned, path = solve_bridge(CESSI, eps, DEFAULT_SPEC,
                                                  DEFAULT_GRID, DEFAULT_TIMES)
        event = detect_jump(path, 0.3)
        mass_err = 0.0
        for surface in (forward, conditioned):
            masses = surface.values.sum(axis=1) * DEFAULT_GRID.spacing
            mass_err = max(mass_err, float(np.abs(masses - 1.0).max()))
        points.append(SweepPoint(
            epsilon=eps,
            t_jump=event.t_jump if event else None,
            gap=event.gap if event else None,
            max_mass_error=mass_err,
        ))
    return points, time.perf_counter() - start


@pytest.fixture(scope="session")
def mc_histogram_eps20() -> tuple[np.ndarray, float]:
    """1e5-path Euler-Maruyama density at t=10 for the default problem."""
    cfg = EnsembleConfig(n_paths=100_000, dt_sde=1e-3, seed=0)
    start = time.perf_counter()
    hist = euler_maruyama_ensemble(CESSI, 0.20, Y1, DEFAULT_GRID,
                                   DEFAULT_TIMES, cfg)
    return hist.densities[-1], time.perf_counter() - start
