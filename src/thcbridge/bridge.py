"""Bridge density and maximum-likelihood path extraction.

The pathway pipeline multiplies the forward density p from the start state
with q, the forward solve from the end state read backward in time (see
:func:`thcbridge.fpe.solve_endpoint_conditioned`), and tracks the per-slice
argmax.  Per slice q is proportional to g * pi, the hitting density g of the
end state times the stationary density pi, so the product is p * g * pi:
the two-endpoint conditional density p * g tilted by pi (ROADMAP item 1).
The abrupt transition shows up as a single step where that argmax flips.

:func:`solve_bridge` returns both surfaces with the path.
:func:`solve_path` gives the same path, bit for bit, from one fused march
of both factors that stores half of their slices; the noise sweep runs its
rows through it on a thread pool.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fpe import (
    DensitySurface,
    GridError,
    SolverError,
    SpatialGrid,
    TimeGrid,
    _forward_operator,
    _march_sources,
    _usable_cpus,
    delta_init,
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


def _guarded_product(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """Underflow-guarded row products a * b into ``out`` (which may be
    ``a``); returns the (empty, disjoint) flags of the rows.

    Rows whose factors are too small for linear arithmetic are rebuilt
    from log values up to a positive per-row scale, which leaves the
    argmax (and any normalized use) unchanged.  A row is empty when a
    factor is all zero and disjoint when only the product is.
    """
    a_max, b_max = a.max(axis=1), b.max(axis=1)
    empty = (a_max <= 0.0) | (b_max <= 0.0)
    log_rows = np.flatnonzero(~empty & ((a_max < _LINEAR_FLOOR)
                                        | (b_max < _LINEAR_FLOOR)))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_prod = np.log(a[log_rows]) + np.log(b[log_rows])
        peak = log_prod.max(axis=1)
        scaled = np.exp(log_prod - peak[:, None])
    np.multiply(a, b, out=out)
    out[log_rows] = scaled
    disjoint = out.max(axis=1) <= 0.0
    disjoint[log_rows] = ~np.isfinite(peak)
    return empty, disjoint


def _raise_failed_slice(empty: np.ndarray, disjoint: np.ndarray) -> None:
    """BridgeError for the earliest failing slice, an empty one before a
    disjoint one."""
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


def _product(forward: DensitySurface, backward: DensitySurface) -> np.ndarray:
    """Underflow-guarded product of the two surfaces, one row per slice
    (see :func:`_guarded_product`); the earliest failing slice is the one
    reported."""
    _check_compatible(forward, backward)
    prod = np.empty_like(forward.values)
    _raise_failed_slice(*_guarded_product(forward.values, backward.values,
                                           prod))
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


def _row_peaks(values: np.ndarray, grid: SpatialGrid,
               refine: bool = True) -> np.ndarray:
    """Per-row argmax location, with subgrid refinement; ties take the
    smaller state."""
    j = np.argmax(values, axis=1)   # argmax returns the first (smallest-y) tie
    return _subgrid_peaks(values, j, grid) if refine else grid.nodes[j]


def ml_path(forward: DensitySurface, backward: DensitySurface,
            refine: bool = True) -> MLPath:
    """Per-slice argmax of the bridge product, with subgrid refinement.

    Ties take the smaller state.  The first and last entries are pinned to
    the surfaces' point-source locations, which the delta slices only
    resolve to one cell.
    """
    psi = _row_peaks(_product(forward, backward), forward.grid, refine)
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
    if not threshold > 0.0:
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


def _check_spec(spec: BridgeSpec, grid: SpatialGrid, times: TimeGrid) -> None:
    if not math.isclose(times.t_end - times.t_start, spec.horizon,
                        rel_tol=1e-12):
        raise GridError(f"time grid span {times.t_end - times.t_start} != "
                        f"bridge horizon {spec.horizon}")
    if not (grid.contains(spec.y_start) and grid.contains(spec.y_end)):
        raise GridError("bridge endpoints must lie inside the spatial grid")


def solve_bridge(drift, eps, spec: BridgeSpec, grid: SpatialGrid,
                 times: TimeGrid) -> tuple[DensitySurface, DensitySurface, MLPath]:
    """Forward surface, endpoint-conditioned surface and ML path.

    Returns the two density factors together with the extracted path so
    callers can dump or inspect them; :func:`solve_path` gives the same
    path without keeping the surfaces.
    """
    _check_spec(spec, grid, times)
    forward = solve_forward(drift, eps, grid, times, spec.y_start)
    conditioned = solve_endpoint_conditioned(drift, eps, grid, times, spec.y_end)
    return forward, conditioned, ml_path(forward, conditioned)


def solve_path(drift, eps, spec: BridgeSpec, grid: SpatialGrid,
               times: TimeGrid) -> MLPath:
    """The ML path of :func:`solve_bridge`, bit for bit, without its surfaces.

    The two factors are marched together: p from ``y_start`` and r, the
    forward march from ``y_end`` whose reversal is the conditioned surface,
    are the two columns of one fused march under one operator
    (``fpe._march_sources``).  Product row k is p_k * r_{n-k}, so only
    slices 0..n//2 of both are stored, about one surface of memory.  Each
    later step m folds into slot s = n - m: column 0 becomes row s
    (p_s * r_m) and column 1 row m (r_s * p_m); for even n the middle slot
    pairs with itself.  Each slice is clamped in place just before its
    product, as ``solve_forward`` clamps its slices; the underflow guard and
    the refined argmax are those of :func:`ml_path`, and failures raise the exception and message
    :func:`solve_bridge` gives: the march from ``y_start`` before the one
    from ``y_end``, the earliest slice first.
    """
    _check_spec(spec, grid, times)
    n = times.n_steps
    half = n // 2
    slots = np.empty((half + 1, 2, grid.n_cells))
    empty = np.zeros(n + 1, dtype=bool)
    disjoint = np.zeros(n + 1, dtype=bool)

    def fold(first, rows):
        m = np.arange(first, first + len(rows))
        paired = slots[n - m[-1]:n - first + 1][::-1]    # slot n - m per row
        np.maximum(paired, 0.0, out=paired)
        np.maximum(rows, 0.0, out=rows)
        empty[n - m], disjoint[n - m] = _guarded_product(
            paired[:, 0], rows[:, 1], out=paired[:, 0])
        empty[m], disjoint[m] = _guarded_product(
            paired[:, 1], rows[:, 0], out=paired[:, 1])

    _march_sources(*_forward_operator(drift, eps, grid), grid, times,
                   [delta_init(grid, spec.y_start), delta_init(grid, spec.y_end)],
                   slots, check_mass=True, fold=fold)
    if n % 2 == 0:
        middle = slots[half:]
        np.maximum(middle, 0.0, out=middle)
        empty[half:half + 1], disjoint[half:half + 1] = _guarded_product(
            middle[:, 0], middle[:, 1], out=middle[:, 0])
    _raise_failed_slice(empty, disjoint)
    psi = np.empty(n + 1)
    psi[:half + 1] = _row_peaks(slots[:, 0], grid)
    psi[half + 1:] = _row_peaks(slots[:n - half, 1], grid)[::-1]
    psi[0], psi[-1] = spec.y_start, spec.y_end
    psi.setflags(write=False)
    return MLPath(times=times.nodes, psi=psi, refinement="quadratic-subgrid")


def _sweep_row(drift, spec: BridgeSpec, grid: SpatialGrid, times: TimeGrid,
               threshold: float, eps: float) -> SweepRecord:
    try:
        event = detect_jump(solve_path(drift, eps, spec, grid, times),
                            threshold)
    except (SolverError, BridgeError) as exc:
        return SweepRecord(epsilon=eps, t_jump=None, gap=None,
                           converged=False, error=f"eps={eps:g}: {exc}")
    if event is None:
        return SweepRecord(epsilon=eps, t_jump=None, gap=None, converged=False)
    return SweepRecord(epsilon=eps, t_jump=event.t_jump, gap=event.gap,
                       converged=True)


def sweep_noise(drift, spec: BridgeSpec, eps_list, grid: SpatialGrid,
                times: TimeGrid,
                threshold: float = DEFAULT_JUMP_THRESHOLD) -> list[SweepRecord]:
    """Jump time for each noise intensity, one :func:`solve_path` per entry.

    The rows run on a thread pool of min(rows, usable CPUs) workers; the
    solves spend most of their time in LAPACK, which releases the GIL, and
    each worker holds about one surface.  Solver failures are recorded on
    the affected entry and do not stop the remaining intensities.  Records
    follow the input order.
    """
    eps_values = [e.epsilon if hasattr(e, "epsilon") else float(e)
                  for e in eps_list]
    if not eps_values:
        raise GridError("eps_list must not be empty")
    row = partial(_sweep_row, drift, spec, grid, times, threshold)
    with ThreadPoolExecutor(max_workers=min(len(eps_values),
                                            _usable_cpus())) as pool:
        return list(pool.map(row, eps_values))
