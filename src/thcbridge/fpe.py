"""Finite-difference solvers for the forward and backward density equations.

The forward equation evolves the transition density p(y, t | y1, 0) of the
SDE dY = f(Y) dt + eps dB from a point source; the backward equation evolves
g(y, t) = p(y3, T | y, t) from a terminal point target.  Both are solved on
a fixed cell-centered grid with a conservative flux-form discretization
(the exponentially fitted Scharfetter-Gummel flux), reflecting (zero-flux)
boundaries and Crank-Nicolson time stepping.  The
step matrices never change during a solve, so each scheme's tridiagonal
matrix is LU-factored once (LAPACK ``dgttrf``) and every step is one
in-place triangular solve against those factors (``dgttrs``).  Every solve
runs through one march driver, :func:`_march_sources`: several point
sources under one generator march as the columns of one right-hand side,
one ``dgttrs`` call per step, with each column's bits unchanged; the
caller's buffer holds the slices it stores.  The generator is an M-matrix,
so a negative slice is a solver failure, not roundoff to clean up.

The backward operator is the exact transpose of the forward one, which makes
the discrete pairing integral(g * p) dy constant in time (the discrete
Chapman-Kolmogorov identity) up to roundoff wherever the two sweeps use the
same scheme.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

# Startup steps run backward Euler instead of Crank-Nicolson: CN is only
# neutrally damping for stiff modes and would ring against the point-source
# initial data; a few strongly damped steps remove that transient.
RANNACHER_STEPS = 24

PDE_SCHEME = ("flux-form-scharfetter-gummel/crank-nicolson/"
              f"rannacher-{RANNACHER_STEPS}")

MASS_ABORT_TOLERANCE = 1e-4


class SolverError(RuntimeError):
    """Scheme divergence: non-finite or negative values, or unacceptable
    mass drift."""


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-centered grid on [y_min, y_max]."""

    y_min: float = -1.0
    y_max: float = 2.5
    n_cells: int = 800

    def __post_init__(self) -> None:
        if not self.y_max > self.y_min:
            raise GridError(f"need y_min < y_max, got [{self.y_min}, {self.y_max}]")
        if self.n_cells < 64:
            raise GridError(f"n_cells must be >= 64, got {self.n_cells}")

    @property
    def spacing(self) -> float:
        return (self.y_max - self.y_min) / self.n_cells

    @cached_property
    def nodes(self) -> np.ndarray:
        """Cell centers, length n_cells."""
        h = self.spacing
        nodes = self.y_min + h * (np.arange(self.n_cells) + 0.5)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def faces(self) -> np.ndarray:
        """Cell interfaces, length n_cells + 1."""
        faces = np.linspace(self.y_min, self.y_max, self.n_cells + 1)
        faces.setflags(write=False)
        return faces

    def contains(self, y: float) -> bool:
        return self.y_min < y < self.y_max

    def refined(self, factor: int = 2) -> "SpatialGrid":
        return SpatialGrid(self.y_min, self.y_max, self.n_cells * factor)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_steps intervals on [t_start, t_end]."""

    t_start: float = 0.0
    t_end: float = 10.0
    n_steps: int = 4000

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise GridError(f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if self.n_steps < 1:
            raise GridError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.t_start, self.t_end, self.n_steps + 1)
        nodes.setflags(write=False)
        return nodes

    def refined(self, factor: int = 2) -> "TimeGrid":
        return TimeGrid(self.t_start, self.t_end, self.n_steps * factor)


@dataclass(frozen=True)
class NoiseIntensity:
    """Additive noise amplitude of the SDE; diffusion coefficient is eps^2/2."""

    epsilon: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise GridError(f"epsilon must be positive, got {self.epsilon!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _as_noise(eps) -> NoiseIntensity:
    return eps if isinstance(eps, NoiseIntensity) else NoiseIntensity(float(eps))


@dataclass(frozen=True)
class DensitySurface:
    """Density values on the full space x time grid.

    ``values[n, i]`` is the density at time node n and cell i.  Forward
    surfaces hold p(y, t | source, t_start); backward surfaces hold
    g(y, t) = p(source, t_end | y, t).  Arrays are read-only so surfaces can
    be shared freely between threads.
    """

    grid: SpatialGrid
    times: TimeGrid
    values: np.ndarray
    kind: str                       # "forward", "backward", "conditioned", ...
    source: float | None = None     # delta location (start or target state)
    max_mass_drift: float | None = None  # forward solves: max |spacing*sum - 1|

    def slice_at(self, t: float) -> np.ndarray:
        """Stored slice closest to time t."""
        n = int(round((t - self.times.t_start) / self.times.dt))
        n = min(max(n, 0), self.times.n_steps)
        return self.values[n]


def mass(values: np.ndarray, grid: SpatialGrid) -> float:
    """Integral of a density vector over [y_min, y_max].

    On the cell-centered grid this is the trapezoid rule with the boundary
    half-cells closed by the reflecting (zero-gradient) extension, which
    reduces to spacing * sum(values) and is exact for uniform densities.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.n_cells:
        raise GridError(f"density length {values.shape[-1]} != n_cells {grid.n_cells}")
    return float(grid.spacing * values.sum(axis=-1))


def delta_init(grid: SpatialGrid, y0: float) -> np.ndarray:
    """Grid projection of a unit point mass at y0.

    The mass is split linearly between the two cells bracketing y0, which
    preserves both the total mass and the first moment exactly.  Inside the
    outer half-cells (no bracketing pair) the nearest cell takes everything.
    """
    if not grid.contains(y0):
        raise GridError(f"y0={y0} outside the open interval "
                        f"({grid.y_min}, {grid.y_max})")
    h = grid.spacing
    nodes = grid.nodes
    v = np.zeros(grid.n_cells)
    pos = (y0 - nodes[0]) / h
    i = int(math.floor(pos))
    if i < 0:
        v[0] = 1.0 / h
    elif i >= grid.n_cells - 1:
        v[-1] = 1.0 / h
    else:
        w_right = pos - i
        v[i] = (1.0 - w_right) / h
        v[i + 1] = w_right / h
    return v


# --- operator construction ---------------------------------------------------

def _bernoulli(x: np.ndarray) -> np.ndarray:
    """B(x) = x / (e^x - 1), with B(0) = 1; B(x) underflows to 0 once e^x
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = x / np.expm1(x)
    b[x == 0.0] = 1.0
    return b


def _forward_operator(drift, eps, grid: SpatialGrid):
    """Tridiagonal generator L of the flux-form forward equation.

    dp_i/dt = (F_i - F_{i+1}) / h with the Scharfetter-Gummel face fluxes
    F = (D/h) (B(-a) p_left - B(a) p_right), a = f_face h / D, D = eps^2/2,
    and zero flux through the domain boundaries.  Both off-diagonals
    (D/h^2) B(-+a) are positive for every drift, so L is an M-matrix, and
    L[i+1, i] / L[i, i+1] = e^a: exact discrete detailed balance with
    respect to pi_d, log pi_d = cumsum(a).  Without drift it is the central
    diffusion flux.  Columns of L sum to zero, so both Euler and
    Crank-Nicolson updates conserve spacing*sum(p).

    Returns (lower, diag, upper) with lower[i] = L[i+1, i], upper[i] = L[i, i+1].
    """
    h = grid.spacing
    d_coef = 0.5 * _as_noise(eps).epsilon**2
    f_face = np.asarray(drift.drift(grid.faces[1:-1]), dtype=float)  # interior faces

    a = f_face * h / d_coef
    dif = d_coef / h**2
    # each from its own expm1: B(-a) = B(a) + a cancels for large |a|
    lower = dif * _bernoulli(-a)   # L[i+1, i]
    upper = dif * _bernoulli(a)    # L[i, i+1]
    diag = np.zeros(grid.n_cells)
    diag[:-1] -= lower             # outflow through the right face
    diag[1:] -= upper              # outflow through the left face
    return lower, diag, upper


def _factor(lower, diag, upper, shift: float, weight: float, scheme: str):
    """LU factors of the step matrix shift*I - weight*L, in the argument
    order of dgttrs.

    dgttrf reports an exactly zero pivot through ``info`` instead of
    raising, so a singular step matrix is turned into a SolverError here.
    """
    *factors, info = dgttrf(-weight * lower, shift - weight * diag,
                            -weight * upper)
    if info != 0:
        raise SolverError(f"singular {scheme} step matrix "
                          f"(zero pivot in row {info})")
    return factors


def _step_factors(lower, diag, upper, times: TimeGrid):
    """(n_start, be, cn): the number of backward-Euler startup steps and
    the LU factors of both step matrices, None for a scheme that takes no
    step."""
    n_steps = times.n_steps
    n_start = min(RANNACHER_STEPS, n_steps)
    be = (_factor(lower, diag, upper, 1.0, times.dt, "backward-Euler")
          if n_start > 0 else None)
    cn = (_factor(lower, diag, upper, 0.5, 0.25 * times.dt, "Crank-Nicolson")
          if n_steps > n_start else None)
    return n_start, be, cn


def _march(buf: np.ndarray, step0: int, n_start: int, be, cn) -> None:
    """March buf[0], the slices at step ``step0``, through buf[1:] in place.

    ``buf`` has shape (steps, sources, n_cells), so buf[k].T is the
    F-contiguous (n_cells, sources) right-hand side of one ``dgttrs`` call;
    LAPACK solves its columns one after another with the same arithmetic,
    so each column gets the bits of a march of its own.  Each step copies
    the previous slices into the next row and solves there in place.  With
    A = I - w dt L, a backward-Euler step (w = 1, steps before ``n_start``)
    is v <- A^-1 v; a Crank-Nicolson step (w = 1/2) has the explicit matrix
    2I - A, so it is v <- (A/2)^-1 v - v = 2 A^-1 v - v.  A diverging march
    runs on through inf and NaN without warnings.
    """
    n_be = min(max(n_start - step0, 0), len(buf) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_be):
            buf[k + 1] = buf[k]
            dgttrs(*be, buf[k + 1].T, overwrite_b=True)
        for k in range(n_be, len(buf) - 1):
            buf[k + 1] = buf[k]
            dgttrs(*cn, buf[k + 1].T, overwrite_b=True)
            buf[k + 1] -= buf[k]


def _step_checks(rows: np.ndarray, grid: SpatialGrid, check_mass: bool):
    """(masses, failing, finite, negative) per marched slice of ``rows``
    (steps, sources, n_cells).

    A slice fails when it is not finite or, with ``check_mass``, when its
    mass drifts from one by more than MASS_ABORT_TOLERANCE; it is negative
    when it holds a value below zero.  A finite row sum means a finite
    slice, so only slices with a non-finite sum are read again.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        masses = grid.spacing * rows.sum(axis=-1)
        finite = np.isfinite(masses)
        finite[~finite] = np.isfinite(rows[~finite]).all(axis=-1)
        failing = ~finite
        if check_mass:
            failing |= np.abs(masses - 1.0) > MASS_ABORT_TOLERANCE
        negative = rows.min(axis=-1) < 0.0
    return masses, failing, finite, negative


def _raise_first_failure(masses, failing, finite, negative,
                         times: TimeGrid) -> None:
    """SolverError for one source's march (arrays over steps 1..n_steps):
    its first failing step, a non-finite slice winning over mass drift,
    else its first negative step."""
    failed = np.flatnonzero(failing)
    if failed.size:
        n = int(failed[0]) + 1
        if not finite[n - 1]:
            raise SolverError(f"non-finite density at step {n} "
                              f"(t={times.t_start + n * times.dt:g})")
        raise SolverError(f"mass drifted to {masses[n - 1]:.6g} at step {n}")
    failed = np.flatnonzero(negative)
    if failed.size:
        n = int(failed[0]) + 1
        raise SolverError(f"negative density at step {n} "
                          f"(t={times.t_start + n * times.dt:g})")


# Steps per pass of the unstored part of a march: big enough that the
# per-pass numpy calls cost little against the solves, small enough that
# the buffer is a few MB on the default grid.
_CHUNK_STEPS = 256


def _march_sources(lower, diag, upper, grid: SpatialGrid, times: TimeGrid,
                   inits, stored: np.ndarray, check_mass: bool,
                   fold=None) -> float:
    """March the slices ``inits`` under the generator (lower, diag, upper)
    over every step of ``times``; the one march driver of every solve.

    The generator is factored once; each source c is column c of one
    right-hand side per step, with the bits of a march of its own (see
    :func:`_march`).  Slices 0 .. len(stored) - 1 are written raw into
    ``stored``, of shape (k, sources, n_cells).  The later ones pass raw
    through a buffer of ``_CHUNK_STEPS`` steps and are handed to
    ``fold(first_step, rows)``, which may overwrite them; the march goes on
    from its own copy of the last slice.

    Every step gets the finite and sign checks and, with ``check_mass``,
    the mass check.  Once a step has failed no further rows are folded;
    after the march the first failing source raises the SolverError of
    :func:`_raise_first_failure`.  Returns the worst mass drift
    max |spacing * sum - 1|.
    """
    n_start, be, cn = _step_factors(lower, diag, upper, times)
    stored[0] = inits
    _march(stored, 0, n_start, be, cn)
    checks = [_step_checks(stored[1:], grid, check_mass)]
    failed = checks[0][1].any() or checks[0][3].any()
    first = len(stored) - 1                 # the step held in buf[0]
    buf = np.empty((min(_CHUNK_STEPS, times.n_steps - first) + 1,
                    *stored.shape[1:]))
    buf[0] = stored[-1]
    while first < times.n_steps:
        rows = buf[:min(_CHUNK_STEPS, times.n_steps - first) + 1]
        _march(rows, first, n_start, be, cn)
        checks.append(_step_checks(rows[1:], grid, check_mass))
        failed = failed or checks[-1][1].any() or checks[-1][3].any()
        buf[0] = rows[-1]
        if not failed:
            fold(first + 1, rows[1:])
        first += len(rows) - 1
    masses, *flags = (np.concatenate(a) for a in zip(*checks))
    for c in range(masses.shape[1]):
        _raise_first_failure(masses[:, c], *(f[:, c] for f in flags), times)
    return float(np.abs(masses - 1.0).max())


def _surface(lower, diag, upper, grid: SpatialGrid, times: TimeGrid,
             source: float, kind: str) -> DensitySurface:
    """The read-only surface of one march from a point source at
    ``source``.  Backward and conditioned surfaces read the march backward
    in time; only the probability densities (not ``"backward"``) get the
    mass check and a mass drift."""
    raw = np.empty((times.n_steps + 1, 1, grid.n_cells))
    check_mass = kind != "backward"
    max_mass_drift = _march_sources(lower, diag, upper, grid, times,
                                    delta_init(grid, source), raw, check_mass)
    values = raw[:, 0] if kind == "forward" else raw[::-1, 0]
    values.setflags(write=False)
    return DensitySurface(grid=grid, times=times, values=values, kind=kind,
                          source=source,
                          max_mass_drift=max_mass_drift if check_mass else None)


def solve_forward(drift, eps, grid: SpatialGrid, times: TimeGrid,
                  y1: float) -> DensitySurface:
    """Density p(y, t | y1, t_start) for all stored time nodes.

    Conservative flux form, reflecting boundaries, Crank-Nicolson stepping
    with RANNACHER_STEPS backward-Euler startup steps to damp the
    point-source transient.
    """
    return _surface(*_forward_operator(drift, eps, grid), grid, times, y1,
                    "forward")


def solve_backward(drift, eps, grid: SpatialGrid, times: TimeGrid,
                   y3: float) -> DensitySurface:
    """Hitting density g(y, t) = p(y3, t_end | y, t) for all stored time nodes.

    Integrates the backward equation dg/dt = -f dg/dy - (eps^2/2) d2g/dy2
    from the terminal point target at t_end down to t_start.  The spatial
    operator is the transpose of the forward generator, whose row sums
    vanish: constants are invariant (the discrete Neumann closure) and the
    pairing integral(g*p) is conserved against any forward solve that uses
    the same stepping schedule.
    """
    lower, diag, upper = _forward_operator(drift, eps, grid)
    # Transpose swaps the off-diagonals; marching "forward" from the terminal
    # condition and reading the slices in reverse realizes the backward sweep.
    return _surface(upper, diag, lower, grid, times, y3, "backward")


def solve_endpoint_conditioned(drift, eps, grid: SpatialGrid, times: TimeGrid,
                               y_end: float) -> DensitySurface:
    """Density of the state at time t conditioned on ending at ``y_end``.

    For a path drawn from the stationary ensemble and pinned to ``y_end`` at
    t_end, the state density at earlier times is, by detailed balance of
    these gradient drifts, the forward density started from ``y_end`` and
    read backward in time: q(y, t) = p(y, t_end - t | y_end).  Equivalently
    q is the hitting density of :func:`solve_backward` reweighted by the
    stationary density and renormalized; on the grid the weight is the
    generator's detailed-balance weight pi_d, and the identity holds to
    roundoff.  Each slice integrates to one.

    This is the endpoint factor the pathway extraction multiplies against
    the forward surface from the start state.
    """
    return _surface(*_forward_operator(drift, eps, grid), grid, times, y_end,
                    "conditioned")


def stationary_density(drift, eps, grid: SpatialGrid) -> np.ndarray:
    """Normalized Boltzmann density exp(-2 V(y) / eps^2) on the grid.

    Closed-form invariant density of the gradient SDE; the exponent is
    shifted by its maximum before exponentiation so wide grids cannot
    overflow.
    """
    eps = _as_noise(eps)
    exponent = -2.0 * np.asarray(drift.potential(grid.nodes), dtype=float) / eps.epsilon**2
    exponent -= exponent.max()
    w = np.exp(exponent)
    total = mass(w, grid)
    if not (total > 0.0 and math.isfinite(total)):
        raise SolverError("stationary density normalization failed "
                          "(grid too wide for this noise level)")
    return w / total


def hitting_probability(drift, eps, grid: SpatialGrid, y_start: float,
                        t_start: float, t_end: float, n_steps: int,
                        target_center: float, window: float) -> float:
    """P(Y(t_end) in [target_center +- window] | Y(t_start) = y_start).

    This is the backward-equation solution with a window indicator as
    terminal condition, evaluated at (y_start, t_start).  Because the
    discrete backward propagator is the exact transpose of the forward one,
    it equals a single forward solve from y_start integrated over the window,
    which is how it is computed; edge cells enter with their covered
    fraction.
    """
    if not window > 0.0:
        raise GridError(f"window must be positive, got {window}")
    times = TimeGrid(t_start, t_end, n_steps)
    surface = solve_forward(drift, eps, grid, times, y_start)
    final = surface.values[-1]

    lo = target_center - window
    hi = target_center + window
    left = np.clip(grid.faces[:-1], lo, hi)
    right = np.clip(grid.faces[1:], lo, hi)
    coverage = (right - left) / grid.spacing
    return float(grid.spacing * (coverage * final).sum())
