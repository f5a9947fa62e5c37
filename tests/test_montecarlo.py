"""Euler-Maruyama oracle: reproducibility, moments, reflection, and the
slow cross-validation statistics against the density solver."""

import math
import sys
import threading

import numpy as np
import pytest

from thcbridge import montecarlo
from thcbridge.fpe import GridError, SpatialGrid, TimeGrid, solve_forward
from thcbridge.model import CessiReduced, ZeroDrift
from thcbridge.montecarlo import (
    EnsembleConfig,
    MonteCarloError,
    _reflect,
    estimate_hitting_probability,
    euler_maruyama_ensemble,
    l1_distance,
    terminal_samples,
)

CESSI = CessiReduced(1.1, 6.2)
GRID = SpatialGrid(-1.0, 2.5, 800)


class TestConfig:
    def test_validation(self):
        with pytest.raises(GridError):
            EnsembleConfig(n_paths=0)
        with pytest.raises(GridError):
            EnsembleConfig(dt_sde=0.0)


class TestL1Distance:
    def test_identity(self):
        v = np.random.default_rng(0).random(GRID.n_cells)
        assert l1_distance(v, v, GRID) == 0.0

    def test_disjoint_unit_masses(self):
        a = np.zeros(GRID.n_cells)
        b = np.zeros(GRID.n_cells)
        a[100] = 1.0 / GRID.spacing
        b[600] = 1.0 / GRID.spacing
        assert l1_distance(a, b, GRID) == pytest.approx(2.0)

    def test_shifted_gaussian_overlap(self):
        # closed form: L1 of two unit Gaussians shifted by d is 2 erf(d/(2 s sqrt 2))
        sigma = 0.2
        shift = GRID.spacing
        a = np.exp(-(GRID.nodes - 0.5)**2 / (2 * sigma**2))
        a /= math.sqrt(2 * math.pi) * sigma
        b = np.exp(-(GRID.nodes - 0.5 - shift)**2 / (2 * sigma**2))
        b /= math.sqrt(2 * math.pi) * sigma
        exact = 2 * math.erf(shift / (2 * sigma * math.sqrt(2)))
        assert l1_distance(a, b, GRID) == pytest.approx(exact, abs=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(GridError):
            l1_distance(np.ones(10), np.ones(10), GRID)


class TestEnsemble:
    def test_bitwise_reproducible(self):
        times = TimeGrid(0.0, 0.5, 100)
        cfg = EnsembleConfig(n_paths=30_000, dt_sde=1e-3, seed=42)
        h1 = euler_maruyama_ensemble(ZeroDrift(), 0.3, 0.5, GRID, times, cfg)
        h2 = euler_maruyama_ensemble(ZeroDrift(), 0.3, 0.5, GRID, times, cfg)
        assert np.array_equal(h1.densities, h2.densities)

    def test_seed_changes_histogram(self):
        times = TimeGrid(0.0, 0.5, 100)
        h1 = euler_maruyama_ensemble(ZeroDrift(), 0.3, 0.5, GRID, times,
                                     EnsembleConfig(30_000, 1e-3, seed=1))
        h2 = euler_maruyama_ensemble(ZeroDrift(), 0.3, 0.5, GRID, times,
                                     EnsembleConfig(30_000, 1e-3, seed=2))
        assert not np.array_equal(h1.densities, h2.densities)

    def test_zero_drift_variance(self):
        cfg = EnsembleConfig(n_paths=100_000, dt_sde=1e-3, seed=5)
        final = terminal_samples(ZeroDrift(), 0.2, 0.0, 1.0, cfg)
        var = final.var()
        three_se = 3 * 0.04 * math.sqrt(2 / (cfg.n_paths - 1))
        assert abs(var - 0.04) < three_se

    def test_noiseless_limit_tracks_ode(self):
        cfg = EnsembleConfig(n_paths=200, dt_sde=1e-3, seed=6)
        final = terminal_samples(CESSI, 1e-8, 0.5, 2.0, cfg)
        reference = 0.5
        for _ in range(2000):           # the scheme's own deterministic limit
            reference = reference + CESSI.drift(reference) * 1e-3
        assert np.abs(final - reference).max() < 1e-4

    def test_reflection_keeps_all_mass(self):
        narrow = SpatialGrid(-0.2, 0.2, 64)
        times = TimeGrid(0.0, 1.0, 100)
        cfg = EnsembleConfig(n_paths=50_000, dt_sde=1e-3, seed=7,
                             reflect_at_bounds=True)
        hist = euler_maruyama_ensemble(ZeroDrift(), 0.5, 0.0, narrow, times, cfg,
                                       output_times=[0.5, 1.0])
        masses = hist.densities.sum(axis=1) * narrow.spacing
        assert np.abs(masses - 1.0).max() < 1e-12
        assert hist.dropped_fraction == 0.0

    def test_reflect_matches_full_fold_bitwise(self):
        lo, hi = -1.0, 2.5
        span = hi - lo

        def fold(y):
            z = np.mod(y - lo, 2.0 * span)
            return lo + np.where(z <= span, z, 2.0 * span - z)

        rng = np.random.default_rng(11)
        # Full-precision values, so (y - lo) + lo rounds away from y.
        inside = np.clip(0.7 + 0.6 * rng.standard_normal(1000), lo, hi)
        inside[:2] = lo, hi                           # both edges included
        assert np.any((inside - lo) + lo != inside)
        mixed = np.concatenate([inside, [lo - 0.3, hi + 0.7, hi + 9.1]])
        for y in (inside, mixed):
            assert np.array_equal(_reflect(y, lo, hi), fold(y))
        assert np.isnan(_reflect(np.array([0.0, np.nan]), lo, hi)[1])

    def test_dropping_counts_escapes(self):
        narrow = SpatialGrid(-0.2, 0.2, 64)
        times = TimeGrid(0.0, 1.0, 100)
        cfg = EnsembleConfig(n_paths=20_000, dt_sde=1e-3, seed=8,
                             reflect_at_bounds=False)
        hist = euler_maruyama_ensemble(ZeroDrift(), 0.5, 0.0, narrow, times, cfg)
        assert hist.dropped_fraction > 0.5            # sigma ~ 0.5 vs half-width 0.2
        final_mass = hist.densities[-1].sum() * narrow.spacing
        assert final_mass == pytest.approx(1.0 - hist.dropped_fraction, abs=1e-12)

    def test_dropping_matches_per_step_mask(self):
        # Reference: the mask-every-step stepper, batch b on substream b.
        cfg = EnsembleConfig(n_paths=montecarlo._BATCH_SIZE + 500,
                             dt_sde=1e-3, seed=12, reflect_at_bounds=False)
        lo, hi = 0.3, 0.7
        scale = 0.5 * math.sqrt(cfg.dt_sde)
        ref = []
        for b, n in enumerate((montecarlo._BATCH_SIZE, 500)):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b,)))
            y = np.full(n, 0.5)
            alive = np.ones(n, dtype=bool)
            for _ in range(500):
                y = (y + CESSI.drift(y) * cfg.dt_sde
                     + rng.standard_normal(n) * scale)
                alive &= ~((y < lo) | (y > hi))
                y = np.where(alive, y, np.nan)
            ref.append(y)
        ref = np.concatenate(ref)
        final = terminal_samples(CESSI, 0.5, 0.5, 0.5, cfg, bounds=(lo, hi))
        assert 0 < np.isnan(ref).sum() < cfg.n_paths
        assert np.array_equal(final, ref, equal_nan=True)

    def test_output_times_must_be_nodes(self):
        times = TimeGrid(0.0, 1.0, 100)
        cfg = EnsembleConfig(n_paths=100, dt_sde=1e-3, seed=0)
        with pytest.raises(GridError):
            euler_maruyama_ensemble(ZeroDrift(), 0.3, 0.0, GRID, times, cfg,
                                    output_times=[0.1234567])
        coarse = TimeGrid(0.0, 1.0, 4)
        for outside in ([-0.25, 1.0], [0.5, 1.25]):
            with pytest.raises(GridError, match="outside"):
                euler_maruyama_ensemble(ZeroDrift(), 0.3, 0.0, GRID, coarse,
                                        cfg, output_times=outside)

    def test_start_outside_grid(self):
        times = TimeGrid(0.0, 1.0, 100)
        cfg = EnsembleConfig(n_paths=100, dt_sde=1e-3, seed=0)
        with pytest.raises(GridError):
            euler_maruyama_ensemble(ZeroDrift(), 0.3, 5.0, GRID, times, cfg)


def _batch_results(bounds_grid):
    """Every ensemble product over 45 001 paths: two full batches and a part."""
    times = TimeGrid(0.0, 0.2, 4)
    out = []
    for reflect in (True, False):
        cfg = EnsembleConfig(n_paths=45_001, dt_sde=1e-3, seed=13,
                             reflect_at_bounds=reflect)
        hist = euler_maruyama_ensemble(ZeroDrift(), 0.5, 0.0, bounds_grid,
                                       times, cfg, output_times=[0.1, 0.2])
        out += [hist.densities, hist.dropped_fraction,
                terminal_samples(CESSI, 0.3, 0.0, 0.2, cfg,
                                 bounds=(bounds_grid.y_min, bounds_grid.y_max)),
                estimate_hitting_probability(CESSI, 0.3, 0.0, 0.0, 0.1, 0.2,
                                             0.05, cfg, grid=bounds_grid)]
    out.append(terminal_samples(CESSI, 0.3, 0.0, 0.2, cfg, bounds=None))
    return out


class TestBatchPool:
    def test_results_do_not_depend_on_worker_count(self, monkeypatch):
        narrow = SpatialGrid(-0.2, 0.2, 64)
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                runs.append(_batch_results(narrow))
            finally:
                sys.setswitchinterval(interval)
        serial, pooled = runs
        assert serial[1] == 0.0 and 0.0 < serial[5] < 1.0    # reflect, drop
        for a, b in zip(serial, pooled):
            assert np.array_equal(a, b, equal_nan=True)

    def test_failure_names_first_batch_and_joins_workers(self, monkeypatch):
        class Blowup:
            def drift(self, y):
                return np.full_like(y, np.inf)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        cfg = EnsembleConfig(n_paths=45_001, dt_sde=1e-3, seed=14)
        before = threading.active_count()
        with pytest.raises(MonteCarloError, match="batch 0$"):
            terminal_samples(Blowup(), 0.3, 0.0, 0.01, cfg)
        assert threading.active_count() == before


class TestHitting:
    def test_degenerate_horizon_at_target(self):
        cfg = EnsembleConfig(n_paths=5_000, dt_sde=1e-3, seed=9)
        est = estimate_hitting_probability(CESSI, 0.2, 1.0687, 9.999, 1.0687,
                                           10.0, 0.05, cfg, grid=GRID)
        assert est.probability > 0.99

    def test_degenerate_horizon_far_from_target(self):
        cfg = EnsembleConfig(n_paths=5_000, dt_sde=1e-3, seed=10)
        est = estimate_hitting_probability(CESSI, 0.2, 0.2402, 9.999, 1.0687,
                                           10.0, 0.05, cfg, grid=GRID)
        assert est.probability < 0.01

    def test_standard_error_formula(self):
        cfg = EnsembleConfig(n_paths=10_000, dt_sde=1e-3, seed=11)
        est = estimate_hitting_probability(CESSI, 0.25, 0.6911, 5.0, 1.0687,
                                           10.0, 0.1, cfg, grid=GRID)
        expected = math.sqrt(est.probability * (1 - est.probability) / cfg.n_paths)
        assert est.standard_error == pytest.approx(expected)

    def test_start_after_horizon_rejected(self):
        cfg = EnsembleConfig(n_paths=100, dt_sde=1e-3, seed=0)
        # -inf leaves an infinite duration, which no step count snaps to
        for t in (10.0, float("nan"), -float("inf")):
            with pytest.raises(GridError):
                estimate_hitting_probability(CESSI, 0.2, 0.5, t, 1.0687, 10.0,
                                             0.1, cfg)

    def test_window_validation(self):
        cfg = EnsembleConfig(n_paths=100, dt_sde=1e-3, seed=0)
        for window in (0.0, float("nan")):
            with pytest.raises(GridError, match="window"):
                estimate_hitting_probability(CESSI, 0.2, 0.5, 5.0, 1.0687,
                                             10.0, window, cfg)


@pytest.mark.slow
class TestSlowCrossValidation:
    """Statistical agreement between the ensemble and the density solver."""

    def test_paths_convergence_ratio(self, mc_histogram_eps20):
        histogram, _ = mc_histogram_eps20
        times = TimeGrid(0.0, 10.0, 4000)
        pde = solve_forward(CESSI, 0.2, GRID, times, 0.2402).values[-1]
        l1_full = l1_distance(histogram, pde, GRID)
        quarter = euler_maruyama_ensemble(
            CESSI, 0.2, 0.2402, GRID, times,
            EnsembleConfig(n_paths=25_000, dt_sde=1e-3, seed=1))
        l1_quarter = l1_distance(quarter.densities[-1], pde, GRID)
        assert 1.6 <= l1_quarter / l1_full <= 2.6

    def test_step_size_bias_below_noise_floor(self, mc_histogram_eps20):
        histogram, _ = mc_histogram_eps20
        times = TimeGrid(0.0, 10.0, 4000)
        halved = euler_maruyama_ensemble(
            CESSI, 0.2, 0.2402, GRID, times,
            EnsembleConfig(n_paths=100_000, dt_sde=5e-4, seed=2))
        pde = solve_forward(CESSI, 0.2, GRID, times, 0.2402).values[-1]
        # expected L1 between two independent 1e5 histograms of the same law
        floor = math.sqrt(2.0) * math.sqrt(2 / (math.pi * 1e5 * GRID.spacing)) \
            * GRID.spacing * np.sqrt(pde).sum()
        assert l1_distance(histogram, halved.densities[-1], GRID) < 1.3 * floor
