"""Bridge density and maximum-likelihood path extraction.

The pathway pipeline multiplies the forward density p from the start state
with q, the forward solve from the end state read backward in time (see
:func:`thcbridge.fpe.solve_endpoint_conditioned`), and tracks the per-slice
argmax.  Per slice q is proportional to g * pi, the hitting density g of the
end state times the stationary density pi, so the product is p * g * pi:
the two-endpoint conditional density p * g tilted by pi (ROADMAP item 1).
The abrupt transition shows up as a single step where that argmax flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fpe import (
    DensitySurface,
    GridError,
    SolverError,
    SpatialGrid,
    TimeGrid,
    solve_endpoint_conditioned,
    solve_forward,
)

DEFAULT_JUMP_THRESHOLD = 0.3

# Below this slice maximum the product of the two surfaces is formed in log
# space to dodge underflow at small noise levels.
_LINEAR_FLOOR = 1e-280


class BridgeError(RuntimeError):
    """Bridge construction failed (grid mismatch or underflowed slices)."""


@dataclass(frozen=True)
class BridgeSpec:
    """Endpoint conditioning: Y(0) = y_start, Y(horizon) = y_end."""

    y_start: float = 0.2402
    y_end: float = 1.0687
    horizon: float = 10.0

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise GridError(f"horizon must be positive, got {self.horizon!r}")


@dataclass(frozen=True)
class MLPath:
    """Most likely state per stored time slice."""

    times: np.ndarray
    psi: np.ndarray
    refinement: str     # "grid-argmax" or "quadratic-subgrid"


@dataclass(frozen=True)
class JumpEvent:
    """Largest single-step displacement of the path, if above threshold."""

    t_jump: float
    y_before: float
    y_after: float
    gap: float


@dataclass(frozen=True)
class SweepRecord:
    """Jump summary for one noise intensity."""

    epsilon: float
    t_jump: float | None
    gap: float | None
    converged: bool
    error: str | None = None


def _check_compatible(forward: DensitySurface, backward: DensitySurface) -> None:
    if forward.grid != backward.grid:
        raise BridgeError(f"grid mismatch: {forward.grid} vs {backward.grid}")
    if forward.times != backward.times:
        raise BridgeError(f"time grid mismatch: {forward.times} vs {backward.times}")


def _product(forward: DensitySurface, backward: DensitySurface) -> np.ndarray:
    """Underflow-guarded product of the two surfaces, one row per slice.

    Rows whose factors are too small for linear arithmetic are rebuilt
    from log values up to a positive per-row scale, which leaves the
    argmax (and any normalized use) unchanged.  The earliest failing slice
    is the one reported.
    """
    _check_compatible(forward, backward)
    p, g = forward.values, backward.values
    p_max, g_max = p.max(axis=1), g.max(axis=1)
    empty = (p_max <= 0.0) | (g_max <= 0.0)
    log_rows = np.flatnonzero(~empty & ((p_max < _LINEAR_FLOOR)
                                        | (g_max < _LINEAR_FLOOR)))
    prod = p * g
    with np.errstate(divide="ignore", invalid="ignore"):
        log_prod = np.log(p[log_rows]) + np.log(g[log_rows])
        peak = log_prod.max(axis=1)
        prod[log_rows] = np.exp(log_prod - peak[:, None])
    disjoint = prod.max(axis=1) <= 0.0
    disjoint[log_rows] = ~np.isfinite(peak)
    failed = np.flatnonzero(empty | disjoint)
    if failed.size:
        n = int(failed[0])
        if empty[n]:
            raise BridgeError(
                f"all-zero density slice at step {n}: the grid or noise level "
                "is too small for this horizon")
        raise BridgeError(
            f"density supports do not overlap at step {n}: the noise "
            "level is too small for this horizon")
    return prod


def bridge_density(forward: DensitySurface, backward: DensitySurface,
                   normalize: bool = True) -> DensitySurface:
    """Pointwise product of the two endpoint surfaces, per slice.

    ``backward`` is the endpoint factor: for pathways the conditioned
    surface q, per slice proportional to g * pi, so the product is p * g * pi
    (see the module docstring); for diagnostics the raw hitting density g.
    Normalizing divides each slice by a constant and moves no argmax.
    """
    values = _product(forward, backward)
    if normalize:
        m = forward.grid.spacing * values.sum(axis=1)
        zero = np.flatnonzero(m <= 0.0)
        if zero.size:
            raise BridgeError(f"zero-mass bridge slice at step {zero[0]}")
        values /= m[:, None]
    values.setflags(write=False)
    return DensitySurface(grid=forward.grid, times=forward.times,
                          values=values, kind="bridge", source=None)


def _subgrid_peaks(values: np.ndarray, j: np.ndarray,
                   grid: SpatialGrid) -> np.ndarray:
    """Quadratic vertex through each row's node j and its neighbors, in log
    space when the three values are positive (exact for a locally Gaussian
    slice).

    Each triple is normalized by its peak value first, so per-slice
    rescalings of the surface leave the vertex essentially untouched.
    With j the first maximum, v[j-1] < v[j] >= v[j+1], so a finite vertex
    lies within half a cell.  A row keeps its node location at the grid
    edge, or when the vertex is not finite (a neighbor ratio that
    underflows to zero, or a triple that rounds flat).
    """
    h = grid.spacing
    psi = grid.nodes[j]
    rows = np.flatnonzero((j > 0) & (j < grid.n_cells - 1))
    v = values[rows[:, None], j[rows, None] + np.arange(-1, 2)]
    positive = np.all(v > 0.0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        v[positive] = np.log(v[positive] / v[positive, 1:2])
        denom = v[:, 0] - 2.0 * v[:, 1] + v[:, 2]
        offset = 0.5 * h * (v[:, 0] - v[:, 2]) / denom
    psi[rows] = np.where(np.isfinite(offset), psi[rows] + offset, psi[rows])
    return psi


def ml_path(forward: DensitySurface, backward: DensitySurface,
            refine: bool = True) -> MLPath:
    """Per-slice argmax of the bridge product, with subgrid refinement.

    Ties take the smaller state.  The first and last entries are pinned to
    the surfaces' point-source locations, which the delta slices only
    resolve to one cell.
    """
    values = _product(forward, backward)
    j = np.argmax(values, axis=1)   # argmax returns the first (smallest-y) tie
    grid = forward.grid
    psi = _subgrid_peaks(values, j, grid) if refine else grid.nodes[j]
    if forward.source is not None:
        psi[0] = forward.source
    if backward.source is not None:
        psi[-1] = backward.source
    psi.setflags(write=False)
    return MLPath(times=forward.times.nodes, psi=psi,
                  refinement="quadratic-subgrid" if refine else "grid-argmax")


def detect_jump(path: MLPath,
                threshold: float = DEFAULT_JUMP_THRESHOLD) -> JumpEvent | None:
    """Largest single-step displacement, reported if it exceeds ``threshold``.

    The jump time is the midpoint of the offending step.  Returns None for
    paths that never move more than the threshold in one step; that is a
    valid outcome, not an error.
    """
    if path.psi.size < 2:
        raise BridgeError("path has fewer than two samples")
    if threshold <= 0.0:
        raise BridgeError(f"threshold must be positive, got {threshold}")
    steps = np.abs(np.diff(path.psi))
    k = int(np.argmax(steps))
    if steps[k] <= threshold:
        return None
    return JumpEvent(
        t_jump=float(0.5 * (path.times[k] + path.times[k + 1])),
        y_before=float(path.psi[k]),
        y_after=float(path.psi[k + 1]),
        gap=float(steps[k]),
    )


def solve_bridge(drift, eps, spec: BridgeSpec, grid: SpatialGrid,
                 times: TimeGrid) -> tuple[DensitySurface, DensitySurface, MLPath]:
    """Forward surface, endpoint-conditioned surface and ML path.

    Returns the two density factors together with the extracted path so
    callers can dump or inspect them.
    """
    if not math.isclose(times.t_end - times.t_start, spec.horizon,
                        rel_tol=1e-12):
        raise GridError(f"time grid span {times.t_end - times.t_start} != "
                        f"bridge horizon {spec.horizon}")
    if not (grid.contains(spec.y_start) and grid.contains(spec.y_end)):
        raise GridError("bridge endpoints must lie inside the spatial grid")
    forward = solve_forward(drift, eps, grid, times, spec.y_start)
    conditioned = solve_endpoint_conditioned(drift, eps, grid, times, spec.y_end)
    return forward, conditioned, ml_path(forward, conditioned)


def sweep_noise(drift, spec: BridgeSpec, eps_list, grid: SpatialGrid,
                times: TimeGrid,
                threshold: float = DEFAULT_JUMP_THRESHOLD) -> list[SweepRecord]:
    """Jump time for each noise intensity, one full bridge solve per entry.

    Solver failures are recorded on the affected entry and do not stop the
    remaining intensities.  Records follow the input order.
    """
    eps_values = [e.epsilon if hasattr(e, "epsilon") else float(e)
                  for e in eps_list]
    if not eps_values:
        raise GridError("eps_list must not be empty")
    records: list[SweepRecord] = []
    for eps in eps_values:
        try:
            _, _, path = solve_bridge(drift, eps, spec, grid, times)
            event = detect_jump(path, threshold)
        except (SolverError, BridgeError) as exc:
            records.append(SweepRecord(epsilon=eps, t_jump=None, gap=None,
                                       converged=False,
                                       error=f"eps={eps:g}: {exc}"))
            continue
        if event is None:
            records.append(SweepRecord(epsilon=eps, t_jump=None, gap=None,
                                       converged=False))
        else:
            records.append(SweepRecord(epsilon=eps, t_jump=event.t_jump,
                                       gap=event.gap, converged=True))
    return records
