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
of both factors that stores half of their slices; the ``bridge-path``
command runs it, and :func:`detect_jump` reports the midpoint of the step
where the path moves most.

The noise sweep needs only the jump time, so its rows march nothing where
they can avoid it: :func:`_spectral_jump` takes the time at which the two
well modes of the product cross from the top eigenpairs of the
symmetrized generator (:func:`thcbridge.fpe._spectrum`).  That crossing
lies inside the step whose midpoint :func:`detect_jump` reports; a row the
spectrum cannot certify runs :func:`solve_path` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fpe import (
    _CHUNK_STEPS,
    DensitySurface,
    GridError,
    SolverError,
    SpatialGrid,
    TimeGrid,
    _forward_operator,
    _march_sources,
    _point_modes,
    _spectrum,
    delta_init,
    solve_endpoint_conditioned,
    solve_forward,
)

DEFAULT_JUMP_THRESHOLD = 0.3

# Below this slice maximum the product of the two surfaces is formed in log
# space to dodge underflow at small noise levels.
_LINEAR_FLOOR = 1e-280

# Spectral sweep rows look for the crossing on [_SCAN_EDGE, T - _SCAN_EDGE]
# at _SCAN_TIMES times before refining it.  There both factors have run for
# at least _SCAN_EDGE, so a mode below _SPECTRAL_CUT keeps less than e^-100
# of its weight and is not computed.
_SCAN_EDGE = 0.5
_SCAN_TIMES = 37
_SPECTRAL_CUT = -100.0 / _SCAN_EDGE
# The mode sums carry the eigenvectors' roundoff, about 1e-12 of a sum's
# largest term on the default grid.  A factor whose value at a side peak is
# below this fraction of that term is then off by more than 1e-4 relative,
# which can move the crossing by more than a march step; the row goes to the
# march.
_ROUNDOFF_FLOOR = 1e-8
# Width of the bracket at which the crossing's refinement stops.
_CROSSING_TOL = 1e-10


class BridgeError(RuntimeError):
    """Bridge construction failed (grid mismatch or underflowed slices)."""


@dataclass(frozen=True)
class BridgeSpec:
    """Endpoint conditioning: Y(0) = y_start, Y(horizon) = y_end."""

    y_start: float = 0.2402
    y_end: float = 1.0687
    horizon: float = TimeGrid.t_end - TimeGrid.t_start

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise GridError(f"horizon must be positive, got {self.horizon!r}")


@dataclass(frozen=True)
class MLPath:
    """Most likely state per stored time slice."""

    times: np.ndarray
    psi: np.ndarray
    refinement: str     # "grid-argmax" or "quadratic-subgrid"
    max_mass_drift: float | None = None  # solve_path: worst |spacing*sum - 1|


@dataclass(frozen=True)
class JumpEvent:
    """Largest single-step displacement of the path, if above threshold."""

    t_jump: float
    y_before: float
    y_after: float
    gap: float


@dataclass(frozen=True)
class SweepRecord:
    """Jump summary for one noise intensity; ``method`` is the route that
    produced it, ``"spectral"`` or ``"march"``."""

    epsilon: float
    t_jump: float | None
    gap: float | None
    converged: bool
    method: str
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
    smaller state.

    The argmax runs over blocks of ``_CHUNK_STEPS`` rows: ``np.argmax``
    copies a non-contiguous input (a slot column of :func:`solve_path`)
    first, and a block bounds that copy; on a contiguous input the blocks
    are views.
    """
    # argmax returns the first (smallest-y) tie
    j = np.concatenate([np.argmax(values[k:k + _CHUNK_STEPS], axis=1)
                        for k in range(0, len(values), _CHUNK_STEPS)])
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
    slices 0..n//2 of both are stored, one surface of memory.  The peak is
    that stored half plus the march's 257-step buffer (``_CHUNK_STEPS + 1``
    steps of both factors); the argmax, which runs after the march, copies
    at most ``_CHUNK_STEPS`` rows at a time.  Each
    later step m folds into slot s = n - m: column 0 becomes row s
    (p_s * r_m) and column 1 row m (r_s * p_m); for even n the middle slot
    pairs with itself.  The underflow guard and the refined argmax are
    those of :func:`ml_path`, and failures raise the exception and message
    :func:`solve_bridge` gives: the march from ``y_start`` before the one
    from ``y_end``, the earliest slice first.  The path carries the fused
    march's worst mass drift over both factors.
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
        empty[n - m], disjoint[n - m] = _guarded_product(
            paired[:, 0], rows[:, 1], out=paired[:, 0])
        empty[m], disjoint[m] = _guarded_product(
            paired[:, 1], rows[:, 0], out=paired[:, 1])

    max_mass_drift = _march_sources(
        *_forward_operator(drift, eps, grid), grid, times,
        [delta_init(grid, spec.y_start), delta_init(grid, spec.y_end)],
        slots, check_mass=True, fold=fold)
    if n % 2 == 0:
        middle = slots[half:]
        empty[half:half + 1], disjoint[half:half + 1] = _guarded_product(
            middle[:, 0], middle[:, 1], out=middle[:, 0])
    _raise_failed_slice(empty, disjoint)
    psi = np.empty(n + 1)
    psi[:half + 1] = _row_peaks(slots[:, 0], grid)
    psi[half + 1:] = _row_peaks(slots[:n - half, 1], grid)[::-1]
    psi[0], psi[-1] = spec.y_start, spec.y_end
    psi.setflags(write=False)
    return MLPath(times=times.nodes, psi=psi, refinement="quadratic-subgrid",
                  max_mass_drift=max_mass_drift)


def _saddle(log_pi: np.ndarray, grid: SpatialGrid,
            spec: BridgeSpec) -> float | None:
    """The drift's unstable root between the endpoints, or None unless
    there is exactly one.

    The face exponents a = diff(log pi_d) have the sign of the drift, so an
    unstable root is where a turns from negative to positive, skipping the
    faces where it is zero; the root is interpolated linearly between the
    two faces.
    """
    a = np.diff(log_pi)                     # a[k] sits on face k + 1
    nonzero = np.flatnonzero(a)
    rise = np.flatnonzero((a[nonzero[:-1]] < 0.0) & (a[nonzero[1:]] > 0.0))
    left, right = nonzero[rise], nonzero[rise + 1]
    roots = grid.faces[left + 1] + ((right - left) * grid.spacing
                                    * a[left] / (a[left] - a[right]))
    lo, hi = sorted((spec.y_start, spec.y_end))
    roots = roots[(roots > lo) & (roots < hi)]
    return float(roots[0]) if roots.size == 1 else None


def _spectral_jump(drift, eps, spec: BridgeSpec,
                   grid: SpatialGrid) -> JumpEvent | None:
    """The jump of the ML path from the spectrum of the generator, without
    a march; None where the spectrum cannot certify it.

    With the eigenpairs of :func:`thcbridge.fpe._spectrum`, the product
    that :func:`solve_path` maximises is p(t) r(T - t) = pi_d u w, with
    u = V e^(lam t) c_s, w = V e^(lam (T - t)) c_e and c = V^T Pi_d^-1/2
    delta for each endpoint (:func:`thcbridge.fpe._point_modes`; each
    factor is known up to a constant, which moves no argmax).  Split
    at the drift's unstable root y2, h(t) = log max(pi_d u w) on the start
    side minus the same on the end side.  h is scanned on
    [_SCAN_EDGE, T - _SCAN_EDGE] and its first + to - sign change refined by
    regula falsi (Illinois): the ML path flips sides exactly there.  The
    event's y_before and y_after are the two side peaks at the crossing,
    refined as in :func:`_subgrid_peaks`, and the gap is their distance.

    None (the caller marches instead) when there is no single unstable
    root between the endpoints, the window is empty, h does not start
    positive or change sign in the window, or a factor at a side peak lies
    within _ROUNDOFF_FLOOR of its mode sum's largest term.
    """
    horizon = spec.horizon
    if horizon <= 2.0 * _SCAN_EDGE:
        return None
    lam, vecs, log_pi = _spectrum(drift, eps, grid, _SPECTRAL_CUT)
    y2 = _saddle(log_pi, grid, spec)
    if y2 is None:
        return None
    split = int(np.searchsorted(grid.nodes, y2))
    sides = (slice(0, split), slice(split, None))
    if spec.y_start > spec.y_end:
        sides = sides[::-1]

    c_s = _point_modes(vecs, log_pi, grid, spec.y_start)[0]
    c_e = _point_modes(vecs, log_pi, grid, spec.y_end)[0]

    def log_product(t):
        """log(pi_d u w) at the times t (one column each), up to a constant,
        with the mode terms of u and w."""
        t = np.atleast_1d(t)
        terms_u = np.exp(np.outer(lam, t)) * c_s[:, None]
        terms_w = np.exp(np.outer(lam, horizon - t)) * c_e[:, None]
        u, w = vecs @ terms_u, vecs @ terms_w
        uw = u * w
        log_uw = np.log(uw, out=np.full(uw.shape, -np.inf), where=uw > 0.0)
        return log_pi[:, None] + log_uw, (u, terms_u), (w, terms_w)

    def h(t):
        log_prod = log_product(t)[0]
        with np.errstate(invalid="ignore"):   # -inf - -inf: no certificate
            return log_prod[sides[0]].max(axis=0) - log_prod[sides[1]].max(axis=0)

    times = np.linspace(_SCAN_EDGE, horizon - _SCAN_EDGE, _SCAN_TIMES)
    scan = h(times)
    if not scan[0] > 0.0:
        return None
    k = int(np.argmax(~(scan > 0.0)))       # first scan time not above zero
    if k == 0 or not scan[k] <= 0.0:        # no sign change, or a NaN
        return None
    t0, t1 = float(times[k - 1]), float(times[k])
    h0, h1 = float(scan[k - 1]), float(scan[k])
    moved = None                            # the end the last step moved
    while t1 - t0 > _CROSSING_TOL:
        t = (t0 * h1 - t1 * h0) / (h1 - h0)     # NaN if an end is infinite
        if not t0 < t < t1:
            t = 0.5 * (t0 + t1)
        ht = float(h(t)[0])
        if math.isnan(ht):
            return None
        # Illinois: an end kept twice in a row has its h halved
        if ht > 0.0:
            t0, h0 = t, ht
            h1 *= 0.5 if moved == 0 else 1.0
            moved = 0
        else:
            t1, h1 = t, ht
            h0 *= 0.5 if moved == 1 else 1.0
            moved = 1
    t_jump = 0.5 * (t0 + t1)

    log_prod, *factors = log_product(t_jump)
    log_prod = log_prod[:, 0]
    peaks = np.array([int(np.argmax(log_prod[side])) + side.start
                      for side in sides])
    for value, terms in factors:
        largest = np.abs(vecs[peaks] * terms[:, 0]).max(axis=1)
        if not (np.abs(value[peaks, 0]) > _ROUNDOFF_FLOOR * largest).all():
            return None
    rows = np.exp(log_prod - log_prod[peaks].max())
    y_before, y_after = _subgrid_peaks(np.stack([rows, rows]), peaks, grid)
    return JumpEvent(t_jump=float(t_jump), y_before=float(y_before),
                     y_after=float(y_after), gap=float(abs(y_after - y_before)))


def _sweep_row(drift, spec: BridgeSpec, grid: SpatialGrid, times: TimeGrid,
               threshold: float, eps: float) -> SweepRecord:
    """One sweep record: the spectral jump, or the march's where the
    spectrum cannot certify one."""
    method = "spectral"
    try:
        event = _spectral_jump(drift, eps, spec, grid)
        if event is None:
            method = "march"
            event = detect_jump(solve_path(drift, eps, spec, grid, times),
                                threshold)
        elif event.gap <= threshold:
            event = None
    except (SolverError, BridgeError) as exc:
        return SweepRecord(epsilon=eps, t_jump=None, gap=None, converged=False,
                           method=method, error=f"eps={eps:g}: {exc}")
    if event is None:
        return SweepRecord(epsilon=eps, t_jump=None, gap=None, converged=False,
                           method=method)
    return SweepRecord(epsilon=eps, t_jump=event.t_jump, gap=event.gap,
                       converged=True, method=method)


def sweep_noise(drift, spec: BridgeSpec, eps_list, grid: SpatialGrid,
                times: TimeGrid,
                threshold: float = DEFAULT_JUMP_THRESHOLD) -> list[SweepRecord]:
    """Jump time for each noise intensity, in input order.

    Each row takes the crossing of the two well modes from the spectrum of
    the generator (:func:`_spectral_jump`); a row the spectrum cannot
    certify runs :func:`solve_path` and :func:`detect_jump` on ``times``,
    and its record says so.  The rows run one after another: the partial
    eigensolve holds the GIL, so threads would not overlap them.  Solver
    failures are recorded on the affected entry and do not stop the
    remaining intensities.
    """
    eps_values = [e.epsilon if hasattr(e, "epsilon") else float(e)
                  for e in eps_list]
    if not eps_values:
        raise GridError("eps_list must not be empty")
    _check_spec(spec, grid, times)
    return [_sweep_row(drift, spec, grid, times, threshold, eps)
            for eps in eps_values]
