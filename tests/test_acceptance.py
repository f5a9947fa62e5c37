"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy default-resolution solves are shared
through the session fixtures in conftest.py.
"""

import time

import numpy as np
import pytest

from thcbridge import (
    BridgeSpec,
    EnsembleConfig,
    NondimensionalParams,
    SpatialGrid,
    TimeGrid,
    detect_jump,
    estimate_hitting_probability,
    find_equilibria,
    hitting_probability,
    solve_bridge,
)
from thcbridge.model import DoubleWell, ZeroDrift
from thcbridge.montecarlo import l1_distance

from conftest import CESSI, DEFAULT_GRID, DEFAULT_SPEC, DEFAULT_TIMES, Y2, Y3


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


class TestAcceptance:
    def test_criterion_1_equilibria(self):
        nd = NondimensionalParams(f_bar=1.1, alpha=3199.59, mu2=6.2)
        find_equilibria(nd)                        # warm caches before timing
        start = time.perf_counter()
        equilibria = find_equilibria(nd)
        elapsed = time.perf_counter() - start
        values_ok = (
            len(equilibria) == 3
            and abs(equilibria[0].y - 0.2402) <= 1e-4
            and abs(equilibria[1].y - 0.6911) <= 1e-4
            and abs(equilibria[2].y - 1.0687) <= 1e-4
            and [e.stability for e in equilibria] == ["stable", "unstable",
                                                      "stable"])
        passed = values_ok and elapsed < 0.010
        report(1, passed,
               f"roots {[round(e.y, 5) for e in equilibria]} "
               f"in {elapsed * 1e3:.2f} ms")

    def test_criterion_2_jump_time_eps20(self, pipeline_eps20):
        run = pipeline_eps20
        passed = (run.event is not None
                  and abs(run.event.t_jump - 6.86) <= 0.3
                  and run.event.gap >= 0.5
                  and run.elapsed < 30.0)
        detail = (f"t_jump={run.event.t_jump:.4f} (target 6.86 +- 0.3), "
                  f"gap={run.event.gap:.3f}, {run.elapsed:.1f}s"
                  if run.event else "no jump detected")
        report(2, passed, detail)

    def test_criterion_3_jump_time_eps25(self, pipeline_eps25):
        run = pipeline_eps25
        passed = (run.event is not None
                  and abs(run.event.t_jump - 6.32) <= 0.3
                  and run.elapsed < 30.0)
        detail = (f"t_jump={run.event.t_jump:.4f} (target 6.32 +- 0.3), "
                  f"{run.elapsed:.1f}s" if run.event else "no jump detected")
        report(3, passed, detail)

    def test_criterion_4_monotone_trend(self, sweep_points):
        points, elapsed = sweep_points
        jumps = [(p.epsilon, p.t_jump) for p in points if p.t_jump is not None]
        slack = DEFAULT_TIMES.dt
        monotone = all(b[1] <= a[1] + slack for a, b in zip(jumps, jumps[1:]))
        passed = len(jumps) == 13 and monotone and elapsed < 600.0
        report(4, passed,
               f"{len(jumps)} jumps, t range "
               f"[{jumps[-1][1]:.3f}, {jumps[0][1]:.3f}], "
               f"non-increasing={monotone}, {elapsed:.0f}s")

    def test_criterion_5_brownian_bridge(self):
        grid = SpatialGrid(-1.0, 2.0, 600)
        times = TimeGrid(0.0, 1.0, 1000)
        _, _, path = solve_bridge(ZeroDrift(), 0.5, BridgeSpec(0.0, 1.0, 1.0),
                                  grid, times)
        worst = float(np.abs(path.psi - path.times).max())
        passed = worst <= 2.0 * grid.spacing
        report(5, passed,
               f"max |psi - t| = {worst:.5f} vs 2h = {2 * grid.spacing:.5f}")

    def test_criterion_6_mass_conservation(self, pipeline_eps20, pipeline_eps25,
                                           sweep_points):
        worst = 0.0
        for run in (pipeline_eps20, pipeline_eps25):
            for surface in (run.forward, run.conditioned):
                masses = surface.values.sum(axis=1) * DEFAULT_GRID.spacing
                worst = max(worst, float(np.abs(masses - 1.0).max()))
        points, _ = sweep_points
        worst = max(worst, max(p.max_mass_error for p in points))
        passed = worst <= 1e-6
        report(6, passed, f"max |mass - 1| = {worst:.2e} over all solves")

    def test_criterion_7_chapman_kolmogorov(self, pipeline_eps20, pipeline_eps25,
                                            backward_eps20, backward_eps25):
        worst = 0.0
        for run, backward in ((pipeline_eps20, backward_eps20),
                              (pipeline_eps25, backward_eps25)):
            pairing = ((run.forward.values * backward.values).sum(axis=1)
                       * DEFAULT_GRID.spacing)
            lo = int(round(0.1 * DEFAULT_TIMES.n_steps))
            hi = int(round(0.9 * DEFAULT_TIMES.n_steps))
            window = pairing[lo:hi + 1]
            worst = max(worst, float((window.max() - window.min()) / window.mean()))
        passed = worst < 0.01
        report(7, passed, f"max relative variation = {worst:.2e} (< 1%)")

    @pytest.mark.slow
    def test_criterion_8_monte_carlo(self, pipeline_eps20, mc_histogram_eps20):
        histogram, mc_elapsed = mc_histogram_eps20
        l1 = l1_distance(histogram, pipeline_eps20.forward.values[-1],
                         DEFAULT_GRID)
        start = time.perf_counter()
        cfg = EnsembleConfig(n_paths=100_000, dt_sde=1e-3, seed=3)
        estimate = estimate_hitting_probability(
            CESSI, 0.25, Y2, 5.0, Y3, 10.0, 0.1, cfg, grid=DEFAULT_GRID)
        pde = hitting_probability(CESSI, 0.25, DEFAULT_GRID, Y2, 5.0, 10.0,
                                  2000, Y3, 0.1)
        hit_elapsed = time.perf_counter() - start
        z = abs(estimate.probability - pde) / estimate.standard_error
        elapsed = mc_elapsed + hit_elapsed
        passed = l1 < 0.05 and z <= 3.0 and elapsed < 60.0
        report(8, passed,
               f"L1={l1:.4f} (< 0.05), hitting |z|={z:.2f} (<= 3), "
               f"{elapsed:.0f}s")

    def test_criterion_9_double_well_antisymmetry(self):
        grid = SpatialGrid(-2.5, 2.5, 800)
        times = TimeGrid(0.0, 10.0, 3999)
        _, _, path = solve_bridge(DoubleWell(), 0.35,
                                  BridgeSpec(-1.0, 1.0, 10.0), grid, times)
        worst = float(np.abs(path.psi[::-1] + path.psi).max())
        passed = worst <= 2.0 * grid.spacing
        report(9, passed,
               f"max |psi(T-t) + psi(t)| = {worst:.2e} vs 2h = "
               f"{2 * grid.spacing:.5f}")

    def test_criterion_10_resolution_stability(self, pipeline_eps20):
        _, _, fine_path = solve_bridge(CESSI, 0.20, DEFAULT_SPEC,
                                       DEFAULT_GRID.refined(),
                                       DEFAULT_TIMES.refined())
        fine = detect_jump(fine_path, 0.3)
        coarse = pipeline_eps20.event
        shift = abs(coarse.t_jump - fine.t_jump)
        passed = shift <= 2.0 * DEFAULT_TIMES.dt
        report(10, passed,
               f"t_jump shift {shift:.4f} (<= {2 * DEFAULT_TIMES.dt:.4f}) "
               f"[{coarse.t_jump:.4f} -> {fine.t_jump:.4f}]")
