"""Named validation checks behind the `validate` subcommand.

Analytic-oracle checks (heat kernel, OU mean, Brownian bridge, double-well
symmetry) run on fixed setups chosen for the oracle, independent of the
working resolution.  Conservation, convergence and Monte Carlo checks run
on the configured grid so a deliberately degraded configuration fails them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import BridgeSpec, detect_jump, solve_path
from .config import ConfigError, RunConfig
from .fpe import (
    SpatialGrid,
    TimeGrid,
    hitting_probability,
    solve_backward,
    solve_forward,
    stationary_density,
)
from .model import CessiReduced, DoubleWell, LinearOU, ZeroDrift, find_equilibria
from .montecarlo import (estimate_hitting_probability, euler_maruyama_ensemble,
                         l1_distance)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "tolerance": self.tolerance, "passed": self.passed,
                "detail": self.detail}


def check_mass(config: RunConfig) -> CheckResult:
    """Forward-solve mass stays within 1e-6 of one at every stored step."""
    grid = config.spatial_grid()
    surface = solve_forward(config.drift_model(), config.epsilon, grid,
                            config.time_grid(), config.y_start)
    masses = surface.values.sum(axis=1) * grid.spacing
    measured = float(np.abs(masses - 1.0).max())
    return CheckResult("mass", measured, 1e-6, measured <= 1e-6,
                       detail=f"epsilon={config.epsilon:g}")


def check_chapman_kolmogorov(config: RunConfig) -> CheckResult:
    """Pairing of hitting density and forward density is constant in time."""
    grid = config.spatial_grid()
    times = config.time_grid()
    drift = config.drift_model()
    worst = 0.0
    for eps in (0.20, 0.25):
        fwd = solve_forward(drift, eps, grid, times, config.y_start)
        bwd = solve_backward(drift, eps, grid, times, config.y_end)
        pairing = np.einsum("ij,ij->i", fwd.values, bwd.values) * grid.spacing
        del fwd, bwd    # free this pair before the next one is solved
        lo = int(round(0.1 * times.n_steps))
        hi = int(round(0.9 * times.n_steps))
        window = pairing[lo:hi + 1]
        rel = float((window.max() - window.min()) / window.mean())
        worst = max(worst, rel)
    return CheckResult("chapman-kolmogorov", worst, 0.01, worst <= 0.01,
                       detail="eps in {0.20, 0.25}, t in [0.1T, 0.9T]")


def check_heat_kernel(_config: RunConfig) -> CheckResult:
    """ZeroDrift solve matches the Gaussian kernel away from boundaries."""
    grid = SpatialGrid(-1.0, 1.0, 800)
    times = TimeGrid(0.0, 0.5, 2000)
    eps = 0.2
    surface = solve_forward(ZeroDrift(), eps, grid, times, 0.0)
    var = eps**2 * times.t_end
    exact = np.exp(-grid.nodes**2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    measured = l1_distance(surface.values[-1], exact, grid)
    return CheckResult("heat-kernel", measured, 1e-3, measured <= 1e-3)


def check_ou_mean(_config: RunConfig) -> CheckResult:
    """OU mean decays like exp(-rate * t)."""
    grid = SpatialGrid(-3.0, 3.0, 600)
    times = TimeGrid(0.0, 2.0, 800)
    rate = 1.0
    surface = solve_forward(LinearOU(rate), 0.3, grid, times, 1.0)
    means = surface.values @ grid.nodes * grid.spacing
    exact = np.exp(-rate * times.nodes)
    measured = float(np.abs(means - exact).max())
    return CheckResult("ou-mean", measured, 1e-3, measured <= 1e-3)


def check_stationary(_config: RunConfig) -> CheckResult:
    """Long-horizon forward solve relaxes to the Boltzmann density.

    Fixed oracle setup: the relaxation end state is independent of where
    the solve starts, so the configured endpoints play no role here.
    """
    drift = CessiReduced()
    grid = SpatialGrid(-1.0, 2.5, 800)
    times = TimeGrid(0.0, 400.0, 4000)
    eps = 0.2
    surface = solve_forward(drift, eps, grid, times, 0.2402)
    target = stationary_density(drift, eps, grid)
    measured = l1_distance(surface.values[-1], target, grid)
    return CheckResult("stationary", measured, 1e-2, measured <= 1e-2,
                       detail="T=400, eps=0.2")


def check_brownian_bridge(_config: RunConfig) -> CheckResult:
    """ZeroDrift bridge mode is the linear interpolant of its endpoints."""
    grid = SpatialGrid(-1.0, 2.0, 600)
    times = TimeGrid(0.0, 1.0, 1000)
    path = solve_path(ZeroDrift(), 0.5, BridgeSpec(0.0, 1.0, 1.0), grid, times)
    measured = float(np.abs(path.psi - path.times).max())
    tol = 2.0 * grid.spacing
    return CheckResult("brownian-bridge", measured, tol, measured <= tol)


def check_double_well_antisymmetry(_config: RunConfig) -> CheckResult:
    """Symmetric double-well bridge path is odd under t -> T-t, y -> -y."""
    grid = SpatialGrid(-2.5, 2.5, 800)
    times = TimeGrid(0.0, 10.0, 3999)   # odd: no self-paired node at T/2
    path = solve_path(DoubleWell(), 0.35, BridgeSpec(-1.0, 1.0, 10.0),
                      grid, times)
    measured = float(np.abs(path.psi[::-1] + path.psi).max())
    tol = 2.0 * grid.spacing
    return CheckResult("double-well-antisymmetry", measured, tol, measured <= tol)


def _restrict(values: np.ndarray, factor: int) -> np.ndarray:
    """Conservative restriction: average groups of ``factor`` fine cells."""
    return values.reshape(-1, factor).mean(axis=1)


def check_grid_convergence(config: RunConfig) -> CheckResult:
    """Refinement shrinks the solution change at a second-order rate.

    Solves a short smooth problem at (n, 2n, 4n) cells and proportional
    steps; requires the coarse-vs-mid L1 below 0.01 and the ratio of
    successive L1 differences at least 3.
    """
    drift = config.drift_model()
    eps = 0.25
    horizon = 1.0
    base_cells = config.n_cells
    base_steps = max(100, config.n_steps // 10)
    finals = []
    for level in range(3):
        factor = 2**level
        grid = SpatialGrid(config.y_min, config.y_max, base_cells * factor)
        times = TimeGrid(0.0, horizon, base_steps * factor)
        # keep a copy of the final slice only: the surface is freed before
        # the next, larger solve
        finals.append((grid, solve_forward(drift, eps, grid, times,
                                           config.y_start).values[-1].copy()))
    grid0, coarse = finals[0]
    grid1, mid = finals[1]
    _, fine = finals[2]
    err01 = l1_distance(coarse, _restrict(mid, 2), grid0)
    err12 = l1_distance(mid, _restrict(fine, 2), grid1)
    ratio = err01 / err12 if err12 > 0 else math.inf
    passed = (ratio >= 3.0) and (err01 <= 0.01)
    return CheckResult("grid-convergence", float(err01), 0.01, passed,
                       detail=f"refinement ratio {ratio:.2f} (need >= 3)")


def check_resolution_stability(config: RunConfig) -> CheckResult:
    """Doubling both resolutions moves the jump time by at most 2 dt."""
    drift = config.drift_model()
    spec = config.bridge_spec()
    grid = config.spatial_grid()
    times = config.time_grid()
    coarse_path = solve_path(drift, config.epsilon, spec, grid, times)
    fine_path = solve_path(drift, config.epsilon, spec, grid.refined(),
                           times.refined())
    coarse = detect_jump(coarse_path, config.jump_threshold)
    fine = detect_jump(fine_path, config.jump_threshold)
    if coarse is None or fine is None:
        return CheckResult("resolution-stability", math.inf, 2.0 * times.dt,
                           False, detail="no jump detected")
    measured = abs(coarse.t_jump - fine.t_jump)
    tol = 2.0 * times.dt
    return CheckResult("resolution-stability", float(measured), tol,
                       measured <= tol,
                       detail=f"t_jump {coarse.t_jump:.4f} -> {fine.t_jump:.4f}")


def check_mc_forward(config: RunConfig) -> CheckResult:
    """Euler-Maruyama histogram agrees with the forward solve at t_end."""
    grid = config.spatial_grid()
    times = config.time_grid()
    drift = config.drift_model()
    eps = 0.2
    surface = solve_forward(drift, eps, grid, times, config.y_start)
    cfg = config.ensemble_config()
    hist = euler_maruyama_ensemble(drift, eps, config.y_start, grid, times, cfg)
    measured = l1_distance(hist.densities[-1], surface.values[-1], grid)
    return CheckResult("mc-forward", measured, 0.05, measured <= 0.05,
                       detail=f"n_paths={cfg.n_paths}, eps=0.2")


def check_mc_hitting(config: RunConfig) -> CheckResult:
    """MC window-hitting fraction matches the integrated backward solution."""
    grid = config.spatial_grid()
    drift = config.drift_model()
    eps = 0.25
    start = config.y_start
    if config.drift == "cessi":
        equilibria = find_equilibria(config.nondimensional())
        if len(equilibria) == 3:
            start = equilibria[1].y
    t_mid = 0.5 * config.t_end
    window = 0.1
    cfg = config.ensemble_config()
    estimate = estimate_hitting_probability(drift, eps, start, t_mid,
                                            config.y_end, config.t_end,
                                            window, cfg, grid=grid)
    pde = hitting_probability(drift, eps, grid, start, t_mid, config.t_end,
                              max(1, config.n_steps // 2), config.y_end, window)
    sigma = max(estimate.standard_error, 1e-12)
    measured = abs(estimate.probability - pde) / sigma
    return CheckResult("mc-hitting", float(measured), 3.0, measured <= 3.0,
                       detail=f"mc={estimate.probability:.5f} pde={pde:.5f} "
                              f"se={estimate.standard_error:.5f}")


CHECKS = {
    "mass": check_mass,
    "chapman-kolmogorov": check_chapman_kolmogorov,
    "heat-kernel": check_heat_kernel,
    "ou-mean": check_ou_mean,
    "stationary": check_stationary,
    "brownian-bridge": check_brownian_bridge,
    "double-well-antisymmetry": check_double_well_antisymmetry,
    "grid-convergence": check_grid_convergence,
    "resolution-stability": check_resolution_stability,
    "mc-forward": check_mc_forward,
    "mc-hitting": check_mc_hitting,
}


def run_checks(config: RunConfig,
               names: list[str] | None = None) -> list[CheckResult]:
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError("checks", f"unknown check(s) {unknown}; "
                          f"available: {sorted(CHECKS)}")
    return [CHECKS[name](config) for name in names]
