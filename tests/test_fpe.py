"""Forward/backward solver oracles: heat kernel, OU moments, Boltzmann
relaxation, time reversal, conservation and positivity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from thcbridge.fpe import (
    RANNACHER_STEPS,
    GridError,
    NoiseIntensity,
    SolverError,
    SpatialGrid,
    TimeGrid,
    delta_init,
    hitting_probability,
    mass,
    solve_backward,
    solve_endpoint_conditioned,
    solve_forward,
    stationary_density,
)
import thcbridge.fpe as fpe_mod
from thcbridge.fpe import _forward_operator, _march_sources
from thcbridge.model import CessiReduced, LinearOU, ZeroDrift
from thcbridge.montecarlo import l1_distance

CESSI = CessiReduced(1.1, 6.2)


class TestGrids:
    def test_spacing_and_nodes(self):
        grid = SpatialGrid(-1.0, 1.0, 100)
        assert grid.spacing == pytest.approx(0.02)
        assert grid.nodes[0] == pytest.approx(-0.99)
        assert grid.nodes[-1] == pytest.approx(0.99)
        assert grid.faces[0] == -1.0 and grid.faces[-1] == 1.0

    def test_grid_validation(self):
        with pytest.raises(GridError):
            SpatialGrid(1.0, -1.0, 100)
        with pytest.raises(GridError):
            SpatialGrid(-1.0, 1.0, 32)

    def test_time_grid(self):
        times = TimeGrid(0.0, 2.0, 400)
        assert times.dt == pytest.approx(0.005)
        assert times.nodes.size == 401
        with pytest.raises(GridError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(GridError):
            TimeGrid(0.0, 1.0, 0)

    def test_noise_validation(self):
        with pytest.raises(GridError):
            NoiseIntensity(0.0)
        with pytest.raises(GridError):
            NoiseIntensity(-0.1)


class TestDeltaInit:
    def test_on_node(self):
        grid = SpatialGrid(0.0, 1.0, 100)
        v = delta_init(grid, grid.nodes[40])
        assert v[40] == pytest.approx(1.0 / grid.spacing)
        assert np.count_nonzero(v) == 1

    def test_midway_split(self):
        grid = SpatialGrid(0.0, 1.0, 100)
        y0 = 0.5 * (grid.nodes[40] + grid.nodes[41])
        v = delta_init(grid, y0)
        assert v[40] == pytest.approx(0.5 / grid.spacing)
        assert v[41] == pytest.approx(0.5 / grid.spacing)

    def test_first_moment_exact(self):
        grid = SpatialGrid(-1.0, 2.5, 800)
        y0 = 0.2402
        v = delta_init(grid, y0)
        assert (v * grid.nodes).sum() * grid.spacing == pytest.approx(y0)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=-0.999, max_value=2.499))
    def test_unit_mass_everywhere(self, y0):
        grid = SpatialGrid(-1.0, 2.5, 320)
        assert mass(delta_init(grid, y0), grid) == pytest.approx(1.0, abs=1e-12)

    def test_outside_grid_rejected(self):
        grid = SpatialGrid(0.0, 1.0, 100)
        for y0 in (-0.1, 0.0, 1.0, 1.1):
            with pytest.raises(GridError):
                delta_init(grid, y0)


class TestMass:
    def test_uniform_density(self):
        grid = SpatialGrid(-1.0, 2.5, 256)
        v = np.full(grid.n_cells, 1.0 / (grid.y_max - grid.y_min))
        assert mass(v, grid) == pytest.approx(1.0, abs=1e-14)

    def test_length_mismatch(self):
        grid = SpatialGrid(-1.0, 2.5, 256)
        with pytest.raises(GridError):
            mass(np.ones(100), grid)


class TestStationaryDensity:
    def test_ou_gaussian(self):
        grid = SpatialGrid(-1.5, 1.5, 1024)
        rate, eps = 1.0, 0.3
        w = stationary_density(LinearOU(rate), eps, grid)
        var = eps**2 / (2 * rate)
        exact = np.exp(-grid.nodes**2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert l1_distance(w, exact, grid) < 1e-6

    def test_unit_mass(self):
        grid = SpatialGrid(-1.0, 2.5, 800)
        w = stationary_density(CESSI, 0.2, grid)
        assert mass(w, grid) == pytest.approx(1.0, abs=1e-10)

    def test_bimodal_modes_at_stable_equilibria(self):
        grid = SpatialGrid(-1.0, 2.5, 800)
        w = stationary_density(CESSI, 0.2, grid)
        mid = np.searchsorted(grid.nodes, 0.6911)
        left_mode = grid.nodes[np.argmax(w[:mid])]
        right_mode = grid.nodes[mid + np.argmax(w[mid:])]
        assert abs(left_mode - 0.240229) <= grid.spacing
        assert abs(right_mode - 1.068714) <= grid.spacing

    def test_zero_drift_uniform(self):
        grid = SpatialGrid(-1.0, 1.0, 128)
        w = stationary_density(ZeroDrift(), 0.5, grid)
        assert np.allclose(w, 0.5, atol=1e-14)


class TestForwardSolver:
    def test_heat_kernel(self):
        grid = SpatialGrid(-1.0, 1.0, 800)
        times = TimeGrid(0.0, 0.5, 2000)
        eps = 0.2
        surface = solve_forward(ZeroDrift(), eps, grid, times, 0.0)
        var = eps**2 * times.t_end
        exact = np.exp(-grid.nodes**2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert l1_distance(surface.values[-1], exact, grid) < 1e-3

    def test_ou_mean_decay(self):
        grid = SpatialGrid(-3.0, 3.0, 600)
        times = TimeGrid(0.0, 2.0, 800)
        surface = solve_forward(LinearOU(1.0), 0.3, grid, times, 1.0)
        means = (surface.values * grid.nodes).sum(axis=1) * grid.spacing
        assert np.abs(means - np.exp(-times.nodes)).max() < 1e-3

    def test_long_horizon_reaches_boltzmann(self):
        grid = SpatialGrid(-1.0, 2.5, 800)
        times = TimeGrid(0.0, 400.0, 4000)
        surface = solve_forward(CESSI, 0.2, grid, times, 0.2402)
        target = stationary_density(CESSI, 0.2, grid)
        assert l1_distance(surface.values[-1], target, grid) < 1e-2

    def test_mass_conserved_every_step(self):
        grid = SpatialGrid(-1.0, 2.5, 400)
        times = TimeGrid(0.0, 5.0, 1000)
        surface = solve_forward(CESSI, 0.25, grid, times, 0.2402)
        masses = surface.values.sum(axis=1) * grid.spacing
        assert np.abs(masses - 1.0).max() <= 1e-6
        assert 0.0 <= surface.max_mass_drift <= 1e-6

    def test_positivity_within_tolerance(self):
        grid = SpatialGrid(-1.0, 2.5, 800)
        times = TimeGrid(0.0, 10.0, 4000)
        surface = solve_forward(CESSI, 0.2, grid, times, 0.2402)
        assert surface.min_pre_clamp >= -1e-12
        assert surface.clamp_violations == 0
        assert surface.values.min() >= 0.0
        # monitored clamp events stay rare (well below 0.1% of nodes)
        assert surface.clamp_violations <= 0.001 * surface.values.size

    def test_values_read_only(self):
        grid = SpatialGrid(-1.0, 1.0, 128)
        surface = solve_forward(ZeroDrift(), 0.3, grid, TimeGrid(0.0, 0.1, 20), 0.0)
        with pytest.raises(ValueError):
            surface.values[0, 0] = 1.0

    def test_slice_lookup_by_time(self):
        grid = SpatialGrid(-1.0, 1.0, 128)
        times = TimeGrid(0.0, 1.0, 100)
        surface = solve_forward(ZeroDrift(), 0.3, grid, times, 0.0)
        assert np.array_equal(surface.slice_at(0.5), surface.values[50])
        assert np.array_equal(surface.slice_at(-99.0), surface.values[0])
        assert np.array_equal(surface.slice_at(99.0), surface.values[-1])

    def test_grid_convergence_second_order(self):
        # successive refinements must shrink the change by ~4x (>= 3 required)
        finals = []
        for level in range(3):
            factor = 2**level
            grid = SpatialGrid(-1.0, 2.5, 200 * factor)
            times = TimeGrid(0.0, 1.0, 200 * factor)
            surface = solve_forward(CESSI, 0.25, grid, times, 0.2402)
            finals.append((grid, surface.values[-1]))
        err01 = l1_distance(finals[0][1],
                            finals[1][1].reshape(-1, 2).mean(axis=1), finals[0][0])
        err12 = l1_distance(finals[1][1],
                            finals[2][1].reshape(-1, 2).mean(axis=1), finals[1][0])
        assert err01 / err12 >= 3.0

    def test_source_outside_grid(self):
        grid = SpatialGrid(0.0, 1.0, 100)
        with pytest.raises(GridError):
            solve_forward(ZeroDrift(), 0.2, grid, TimeGrid(0.0, 1.0, 10), 2.0)


class TestBackwardSolver:
    def test_zero_drift_time_reversal_exact(self):
        # symmetric grid about the target: the heat semigroup is self-adjoint,
        # so the backward sweep reproduces the forward one exactly
        y3 = 0.3
        grid = SpatialGrid(y3 - 1.0, y3 + 1.0, 800)
        times = TimeGrid(0.0, 0.5, 500)
        backward = solve_backward(ZeroDrift(), 0.25, grid, times, y3)
        forward = solve_forward(ZeroDrift(), 0.25, grid, times, y3)
        worst = max(
            l1_distance(backward.values[n], forward.values[times.n_steps - n], grid)
            for n in range(times.n_steps + 1))
        assert worst <= 1e-6

    def test_terminal_concentration(self):
        grid = SpatialGrid(-1.0, 2.5, 800)
        times = TimeGrid(0.0, 10.0, 2000)
        backward = solve_backward(CESSI, 0.25, grid, times, 1.0687)
        for n in (times.n_steps, times.n_steps - 1, times.n_steps - 5):
            peak = grid.nodes[np.argmax(backward.values[n])]
            assert abs(peak - 1.0687) <= grid.spacing

    def test_chapman_kolmogorov_pairing_constant(self):
        grid = SpatialGrid(-1.0, 2.5, 400)
        times = TimeGrid(0.0, 5.0, 1000)
        for eps in (0.2, 0.25):
            fwd = solve_forward(CESSI, eps, grid, times, 0.2402)
            bwd = solve_backward(CESSI, eps, grid, times, 1.0687)
            pairing = (fwd.values * bwd.values).sum(axis=1) * grid.spacing
            rel = (pairing.max() - pairing.min()) / pairing.mean()
            assert rel < 0.01

    def test_backward_nonnegative(self):
        grid = SpatialGrid(-1.0, 2.5, 400)
        times = TimeGrid(0.0, 5.0, 1000)
        backward = solve_backward(CESSI, 0.2, grid, times, 1.0687)
        assert backward.min_pre_clamp >= -1e-12
        assert backward.values.min() >= 0.0
        assert backward.max_mass_drift is None

    def test_constants_invariant_under_backward_operator(self):
        # homogeneous Neumann closure: a constant terminal profile would stay
        # constant; probe via a flat region far from the source
        grid = SpatialGrid(-1.0, 2.5, 400)
        times = TimeGrid(0.0, 1.0, 200)
        backward = solve_backward(ZeroDrift(), 0.1, grid, times, 0.75)
        slice0 = backward.values[0]
        assert slice0.max() > 0


class TestEndpointConditioned:
    def test_matches_reversed_forward(self):
        grid = SpatialGrid(-1.0, 2.5, 400)
        times = TimeGrid(0.0, 5.0, 500)
        conditioned = solve_endpoint_conditioned(CESSI, 0.25, grid, times, 1.0687)
        forward = solve_forward(CESSI, 0.25, grid, times, 1.0687)
        assert np.array_equal(conditioned.values, forward.values[::-1])
        assert conditioned.max_mass_drift == forward.max_mass_drift
        assert conditioned.kind == "conditioned"
        assert conditioned.source == 1.0687

    def test_equals_tilted_hitting_density(self):
        # detailed balance: q(y,t) = g(y,t) * rho(y), up to per-slice scale
        grid = SpatialGrid(-1.0, 2.5, 400)
        times = TimeGrid(0.0, 5.0, 500)
        eps = 0.25
        conditioned = solve_endpoint_conditioned(CESSI, eps, grid, times, 1.0687)
        backward = solve_backward(CESSI, eps, grid, times, 1.0687)
        rho = stationary_density(CESSI, eps, grid)
        n = times.n_steps // 2
        tilted = backward.values[n] * rho
        tilted /= mass(tilted, grid)
        assert l1_distance(conditioned.values[n], tilted, grid) < 1e-3


class TestSurfaceMemory:
    """A solve holds one surface: the march fills the caller's buffer and
    the clamp runs in place, so the peak stays well below two surfaces."""

    GRID = SpatialGrid(-1.0, 2.5, 400)
    TIMES = TimeGrid(0.0, 10.0, 1000)

    @pytest.mark.parametrize("solver, source", [
        (solve_forward, 0.2402),
        (solve_backward, 1.0687),
        (solve_endpoint_conditioned, 1.0687),
    ], ids=["forward", "backward", "conditioned"])
    def test_peak_below_one_and_a_half_surfaces(self, solver, source):
        tracemalloc.start()
        try:
            surface = solver(CESSI, 0.2, self.GRID, self.TIMES, source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * surface.values.nbytes


def banded_reference(lower, diag, upper, init, times):
    """Theta-scheme sweep that re-factors its matrix with solve_banded at
    every step and forms the right-hand side with the explicit matrix:
    the stepper the factor-once solver must reproduce."""
    raw = [init]
    v = init.copy()
    for k in range(times.n_steps):
        weight = 1.0 if k < RANNACHER_STEPS else 0.5
        wi = weight * times.dt
        we = (1.0 - weight) * times.dt
        ab = np.zeros((3, diag.size))
        ab[0, 1:] = -wi * upper
        ab[1, :] = 1.0 - wi * diag
        ab[2, :-1] = -wi * lower
        rhs = (1.0 + we * diag) * v
        rhs[:-1] += (we * upper) * v[1:]
        rhs[1:] += (we * lower) * v[:-1]
        v = solve_banded((1, 1), ab, rhs, overwrite_b=True, check_finite=False)
        raw.append(v)
    return np.array(raw)


class TestSolverBits:
    # 24 backward-Euler startup steps followed by 56 Crank-Nicolson steps
    GRID = SpatialGrid(-1.0, 2.5, 96)
    TIMES = TimeGrid(0.0, 2.0, 80)

    @staticmethod
    def assert_matches(marched, ref):
        """Slices in marching order against the unclamped reference.

        A backward-Euler step solves against v itself, so the startup
        slices are bit-identical.  A Crank-Nicolson step is 2 A^-1 v - v
        instead of A^-1 (2I - A) v, which rounds differently: those slices
        must agree to 1e-13 of their maximum (the largest seen is 3.7e-15).
        """
        ref = np.maximum(ref, 0.0)
        n_be = RANNACHER_STEPS + 1
        assert np.array_equal(marched[:n_be], ref[:n_be])
        error = np.abs(marched[n_be:] - ref[n_be:]).max(axis=1)
        assert np.all(error <= 1e-13 * ref[n_be:].max(axis=1))

    def test_forward_matches_banded_reference(self):
        lower, diag, upper = _forward_operator(CESSI, NoiseIntensity(0.25),
                                               self.GRID)
        ref = banded_reference(lower, diag, upper,
                               delta_init(self.GRID, 0.2402), self.TIMES)
        surface = solve_forward(CESSI, 0.25, self.GRID, self.TIMES, 0.2402)
        self.assert_matches(surface.values, ref)

    def test_backward_matches_banded_reference(self):
        lower, diag, upper = _forward_operator(CESSI, NoiseIntensity(0.25),
                                               self.GRID)
        ref = banded_reference(upper, diag, lower,
                               delta_init(self.GRID, 1.0687), self.TIMES)
        surface = solve_backward(CESSI, 0.25, self.GRID, self.TIMES, 1.0687)
        self.assert_matches(surface.values[::-1], ref)


class TestSolverGuards:
    def test_mass_drift_aborts(self):
        # a drift with huge outflow against reflecting walls stays conservative,
        # so force failure instead with a nonsense NaN drift

        class BadDrift:
            def drift(self, y):
                return np.full_like(np.asarray(y, dtype=float), np.nan)

        grid = SpatialGrid(-1.0, 1.0, 100)
        with pytest.raises(SolverError):
            solve_forward(BadDrift(), 0.2, grid, TimeGrid(0.0, 1.0, 100), 0.0)

    @pytest.mark.parametrize("rannacher_steps, weight, scheme", [
        (RANNACHER_STEPS, 1.0, "backward-Euler"),
        (0, 0.5, "Crank-Nicolson"),
    ])
    def test_singular_step_matrix_raises_solver_error(self, monkeypatch,
                                                      rannacher_steps,
                                                      weight, scheme):
        # a zero second pivot: the LHS diagonal 1 - weight*dt*diag reads
        # [1, 0, 1, 1, ...]; LAPACK reports it through info, not an exception
        monkeypatch.setattr(fpe_mod, "RANNACHER_STEPS", rannacher_steps)
        grid = SpatialGrid(-1.0, 1.0, 64)
        times = TimeGrid(0.0, 1.0, 2)
        diag = np.zeros(grid.n_cells)
        diag[1] = 1.0 / (weight * times.dt)
        off = np.zeros(grid.n_cells - 1)
        stored = np.empty((times.n_steps + 1, 1, grid.n_cells))
        with pytest.raises(SolverError, match=f"singular {scheme}"):
            _march_sources(off, diag, off, grid, times, delta_init(grid, 0.0),
                           stored, check_mass=False)


class TestSolverDivergence:
    """Hand-made operators that fail at a known step.  Each march runs
    under warnings-as-errors: a diverging solve raises SolverError and no
    floating-point warning."""

    # dt = 1: all backward-Euler steps, or all Crank-Nicolson steps
    TIMES = TimeGrid(0.0, 32.0, 32)
    SCHEMES = pytest.mark.parametrize("rannacher_steps", [RANNACHER_STEPS, 0],
                                      ids=["backward-Euler", "Crank-Nicolson"])

    @pytest.fixture(autouse=True)
    def startup_steps(self, monkeypatch, rannacher_steps):
        monkeypatch.setattr(fpe_mod, "RANNACHER_STEPS", rannacher_steps)

    @classmethod
    def march(cls, lower, diag, upper, init, grid, rannacher_steps,
              check_mass):
        """Operator given by the step matrix's diagonals: with implicit
        weight w and dt = 1, A = I - w L, so L = (I - A) / w."""
        w = 1.0 if rannacher_steps else 0.5
        stored = np.empty((cls.TIMES.n_steps + 1, 1, grid.n_cells))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _march_sources(-lower / w, (1.0 - diag) / w, -upper / w, grid,
                           cls.TIMES, init, stored, check_mass=check_mass)

    @SCHEMES
    @pytest.mark.parametrize("check_mass", [True, False])
    def test_overflow_reported_at_its_step(self, rannacher_steps, check_mass):
        # A = diag(2^-52, 1, ..., 1): cell 0 grows by 2^52 (backward Euler)
        # or 2^53 - 1 (CN) per step from 1e200, 8e293 / 5e295 at step 6,
        # and overflows at step 7.  On a grid of spacing 1e-300 its share
        # of the mass stays below 1e-4 up to step 6, so with check_mass
        # step 7 fails both checks and the non-finite one is reported
        grid = SpatialGrid(0.0, 64e-300, 64)
        init = np.zeros(grid.n_cells)
        init[0] = 1e200
        init[40] = 1.0 / grid.spacing
        diag = np.ones(grid.n_cells)
        diag[0] = 2.0**-52
        off = np.zeros(grid.n_cells - 1)
        with pytest.raises(SolverError) as info:
            self.march(off, diag, off, init, grid, rannacher_steps, check_mass)
        assert str(info.value) == "non-finite density at step 7 (t=7)"

    @SCHEMES
    def test_opposite_overflows_raise_no_warning(self, rannacher_steps):
        # A[1, 1] = -2^-52 and A[0, 1] = 1: cells 1 and 0 grow with
        # opposite signs by about 2^52 or 2^53 per step from 1 and overflow
        # to -inf and +inf together at step 20; the march runs on past it,
        # so the row sums meet inf - inf
        grid = SpatialGrid(-1.0, 1.0, 64)
        init = delta_init(grid, 0.0)
        init[1] = 1.0
        diag = np.ones(grid.n_cells)
        diag[1] = -(2.0**-52)
        upper = np.zeros(grid.n_cells - 1)
        upper[0] = 1.0
        lower = np.zeros(grid.n_cells - 1)
        with pytest.raises(SolverError) as info:
            self.march(lower, diag, upper, init, grid, rannacher_steps, False)
        assert str(info.value) == "non-finite density at step 20 (t=20)"

    @SCHEMES
    def test_mass_drift_reported_at_its_step(self, rannacher_steps):
        # A = (1 - 2^-15) I: backward Euler scales the mass by about
        # 1 + 2^-15 per step, Crank-Nicolson (explicit part (1 + 2^-15) I)
        # by about 1 + 2^-14: the mass first reads 1.00012 at step 4 or 2
        grid = SpatialGrid(-1.0, 1.0, 64)
        diag = np.full(grid.n_cells, 1.0 - 2.0**-15)
        off = np.zeros(grid.n_cells - 1)
        init = delta_init(grid, 0.0)
        step = 4 if rannacher_steps else 2
        with pytest.raises(SolverError) as info:
            self.march(off, diag, off, init, grid, rannacher_steps, True)
        assert str(info.value) == f"mass drifted to 1.00012 at step {step}"
        # without the mass check (backward solves) the march completes
        self.march(off, diag, off, init, grid, rannacher_steps, False)


class TestHittingProbability:
    def test_sums_to_one_over_full_domain(self):
        grid = SpatialGrid(-1.0, 2.5, 400)
        p = hitting_probability(CESSI, 0.25, grid, 0.6911, 0.0, 2.0, 400,
                                0.75, 1.75)
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_short_horizon_near_start(self):
        # degenerate horizon: spread 0.2*sqrt(0.005) ~ window/3.5
        grid = SpatialGrid(-1.0, 2.5, 400)
        p = hitting_probability(CESSI, 0.2, grid, 0.2402, 0.0, 0.005, 20,
                                0.2402, 0.05)
        assert p > 0.99

    def test_short_horizon_far_target(self):
        grid = SpatialGrid(-1.0, 2.5, 400)
        p = hitting_probability(CESSI, 0.2, grid, 0.2402, 0.0, 0.05, 50,
                                1.0687, 0.05)
        assert p < 1e-6

    def test_window_validation(self):
        grid = SpatialGrid(-1.0, 2.5, 400)
        with pytest.raises(GridError):
            hitting_probability(CESSI, 0.2, grid, 0.2402, 0.0, 1.0, 100,
                                1.0687, 0.0)
