"""Forward/backward solver oracles: heat kernel, OU moments, Boltzmann
relaxation, time reversal, conservation and positivity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from thcbridge.bridge import BridgeSpec, solve_path
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
from thcbridge.fpe import _forward_operator, _march_sources, _spectrum
from thcbridge.model import CessiReduced, LinearOU, ZeroDrift
from thcbridge.montecarlo import l1_distance

from conftest import traced_peak

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

    @pytest.mark.parametrize("args, name", [
        ((-1.0, math.inf, 800), "y_max"),
        ((math.nan, 2.5, 800), "y_min"),
        ((-1.0, 2.5, 800.5), "n_cells"),
        ((-1.0, 2.5, 800.0), "n_cells"),
        ((-1.0, 2.5, True), "n_cells"),
        ((False, 2.5, 800), "y_min"),
    ])
    def test_spatial_grid_rejects_bad_values(self, args, name):
        with pytest.raises(GridError, match=name):
            SpatialGrid(*args)
        assert SpatialGrid(-1.0, 2.5, np.int64(800)).nodes.size == 800

    @pytest.mark.parametrize("args, name", [
        ((0.0, math.inf, 10), "t_end"),
        ((-math.inf, 1.0, 10), "t_start"),
        ((0.0, 1.0, 10.5), "n_steps"),
        ((0.0, 1.0, True), "n_steps"),
    ])
    def test_time_grid_rejects_bad_values(self, args, name):
        with pytest.raises(GridError, match=name):
            TimeGrid(*args)
        assert TimeGrid(0.0, 1.0, np.int32(10)).nodes.size == 11

    @pytest.mark.parametrize("eps", [True, math.inf, math.nan, "0.2"])
    def test_noise_rejects_bad_values(self, eps):
        with pytest.raises(GridError, match="epsilon"):
            NoiseIntensity(eps)
        with pytest.raises(GridError, match="epsilon"):
            solve_forward(ZeroDrift(), eps, SpatialGrid(-1.0, 1.0, 64),
                          TimeGrid(0.0, 0.1, 4), 0.0)


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


class TestForwardOperator:
    """The Scharfetter-Gummel generator: an M-matrix with exact discrete
    detailed balance, the central diffusion operator without drift."""

    GRID = SpatialGrid(-1.0, 2.5, 800)

    @pytest.mark.parametrize("eps", [0.01, 0.10, 0.20])
    def test_nonnegative_off_diagonals_and_zero_column_sums(self, eps):
        # at eps = 0.01 the face Peclet argument |a| reaches about 3200, so
        # e^a overflows: that must raise no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, diag, upper = _forward_operator(CESSI, eps, self.GRID)
        assert lower.min() >= 0.0 and upper.min() >= 0.0
        columns = diag.copy()
        columns[:-1] += lower
        columns[1:] += upper
        assert np.abs(columns).max() <= 1e-12 * np.abs(diag).max()

    def test_off_diagonal_ratio_is_exp_a(self):
        eps = 0.20
        lower, _, upper = _forward_operator(CESSI, eps, self.GRID)
        a = CESSI.drift(self.GRID.faces[1:-1]) * self.GRID.spacing / (0.5 * eps**2)
        np.testing.assert_allclose(lower / upper, np.exp(a), rtol=1e-13)

    def test_zero_drift_is_central_diffusion(self):
        eps = 0.3
        lower, diag, upper = _forward_operator(ZeroDrift(), eps, self.GRID)
        dif = 0.5 * eps**2 / self.GRID.spacing**2
        assert np.all(lower == dif) and np.all(upper == dif)
        assert np.all(diag[1:-1] == -2.0 * dif)


class TestSpectrum:
    """Eigenpairs of the symmetrized generator S = Pi_d^-1/2 L Pi_d^1/2."""

    GRID = SpatialGrid(-1.0, 2.5, 64)

    def test_full_spectrum_is_the_symmetrized_generator(self):
        lam, vecs, log_pi = _spectrum(CESSI, 0.25, self.GRID)
        lower, diag, upper = _forward_operator(CESSI, 0.25, self.GRID)
        # S[i+1, i] = lower e^(-a/2) and S[i, i+1] = upper e^(a/2) agree
        a = np.diff(log_pi)
        off = lower * np.exp(-0.5 * a)
        np.testing.assert_allclose(upper * np.exp(0.5 * a), off, rtol=1e-12)
        symmetric = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        rebuilt = (vecs * lam) @ vecs.T
        assert np.abs(rebuilt - symmetric).max() <= 1e-12 * np.abs(diag).max()
        # the stationary mode: lam = 0 with V ~ pi_d^1/2
        assert abs(lam[-1]) <= 1e-12 * np.abs(diag).max()
        half = np.exp(0.5 * (log_pi - log_pi.max()))
        np.testing.assert_allclose(np.abs(vecs[:, -1]),
                                   half / np.linalg.norm(half), atol=1e-12)

    def test_cut_keeps_the_top_of_the_spectrum(self):
        lam, vecs, _ = _spectrum(CESSI, 0.25, self.GRID)
        top, top_vecs, _ = _spectrum(CESSI, 0.25, self.GRID, cut=-200.0)
        assert len(top) == np.count_nonzero(lam > -200.0) < len(lam)
        np.testing.assert_allclose(top, lam[lam > -200.0], rtol=1e-10,
                                   atol=1e-10)
        assert top_vecs.shape == (self.GRID.n_cells, len(top))

    def test_small_noise_raises_no_warning(self):
        # at eps = 0.01 log(lower / upper) would underflow; a comes from
        # the drift instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, log_pi = _spectrum(CESSI, 0.01, SpatialGrid(), cut=-200.0)
        assert np.isfinite(log_pi).all()

    def test_non_finite_generator_raises(self):
        class NanDrift:
            def drift(self, y):
                return np.full_like(np.asarray(y, dtype=float), np.nan)

        with pytest.raises(SolverError, match="non-finite generator"):
            _spectrum(NanDrift(), 0.2, self.GRID)


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

    def test_forward_nonnegative(self):
        # a negative slice would raise; none appears on the default grid,
        # where the central flux went negative at every one of these levels
        grid = SpatialGrid(-1.0, 2.5, 800)
        times = TimeGrid(0.0, 10.0, 4000)
        for eps in (0.10, 0.15, 0.20, 0.25, 0.30):
            surface = solve_forward(CESSI, eps, grid, times, 0.2402)
            assert surface.values.min() >= 0.0

    def test_values_read_only(self):
        grid = SpatialGrid(-1.0, 1.0, 128)
        surface = solve_forward(ZeroDrift(), 0.3, grid, TimeGrid(0.0, 0.1, 20), 0.0)
        with pytest.raises(ValueError):
            surface.values[0, 0] = 1.0

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
        grid = SpatialGrid(-1.0, 2.5, 800)
        times = TimeGrid(0.0, 10.0, 4000)
        for eps in (0.10, 0.15, 0.20, 0.25, 0.30):
            backward = solve_backward(CESSI, eps, grid, times, 1.0687)
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

    def test_equals_hitting_density_times_discrete_weight(self):
        # exact discrete detailed balance: q = g * pi_d per slice, with
        # log pi_d the cumulative sum of log(L[i+1, i] / L[i, i+1])
        grid = SpatialGrid(-1.0, 2.5, 400)
        times = TimeGrid(0.0, 5.0, 500)
        eps = 0.25
        conditioned = solve_endpoint_conditioned(CESSI, eps, grid, times, 1.0687)
        backward = solve_backward(CESSI, eps, grid, times, 1.0687)
        lower, _, upper = _forward_operator(CESSI, eps, grid)
        log_pi = np.concatenate([[0.0], np.cumsum(np.log(lower / upper))])
        pi_d = np.exp(log_pi - log_pi.max())
        n = times.n_steps // 2
        tilted = backward.values[n] * pi_d
        tilted /= mass(tilted, grid)
        assert l1_distance(conditioned.values[n], tilted, grid) < 1e-5


class TestSurfaceMemory:
    """A solve holds one surface: the march fills the caller's buffer and
    the backward and conditioned surfaces are reversed views of it, so
    the peak stays well below two surfaces."""

    GRID = SpatialGrid(-1.0, 2.5, 400)
    TIMES = TimeGrid(0.0, 10.0, 1000)

    @pytest.mark.parametrize("solver, source", [
        (solve_forward, 0.2402),
        (solve_backward, 1.0687),
        (solve_endpoint_conditioned, 1.0687),
    ], ids=["forward", "backward", "conditioned"])
    def test_peak_below_one_and_a_half_surfaces(self, solver, source):
        surface, peak = traced_peak(
            lambda: solver(CESSI, 0.2, self.GRID, self.TIMES, source))
        assert peak < 1.5 * surface.values.nbytes

    def test_solve_path_peak_near_its_stored_half(self):
        # solve_path stores slices 0..n//2 of both factors; the rest of its
        # peak is the 257-step march buffer (an eighth of the half at 4000
        # steps) and the argmax's block copies.  An argmax over the whole
        # strided half would copy half of it again.
        times = TimeGrid(0.0, 10.0, 4000)
        path, peak = traced_peak(lambda: solve_path(
            CESSI, 0.2, BridgeSpec(0.2402, 1.0687, 10.0), self.GRID, times))
        stored_half = (times.n_steps // 2 + 1) * 2 * self.GRID.n_cells * 8
        assert path.psi.size == times.n_steps + 1
        assert peak < 1.2 * stored_half


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
        """Slices in marching order against the reference.

        A backward-Euler step solves against v itself, so the startup
        slices are bit-identical.  A Crank-Nicolson step is 2 A^-1 v - v
        instead of A^-1 (2I - A) v, which rounds differently: those slices
        must agree to 1e-13 of their maximum (the largest seen is 3.7e-15).
        """
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


def central_flux_operator(drift, eps, grid: SpatialGrid):
    """Generator of the central flux f (p_L + p_R)/2 - D (p_R - p_L)/h:
    conservative, but an off-diagonal turns negative wherever the cell
    Peclet number |f| h / (2D) exceeds one."""
    h = grid.spacing
    adv = drift.drift(grid.faces[1:-1]) / (2.0 * h)
    dif = 0.5 * eps**2 / h**2
    diag = np.zeros(grid.n_cells)
    diag[:-1] -= adv + dif
    diag[1:] += adv - dif
    return adv + dif, diag, dif - adv


class TestSignCheck:
    """A march that goes negative while it stays finite and conserves mass
    raises at its first negative step, whether that slice is stored or
    passes through the fold buffer; a failed chunk is not folded."""

    GRID = SpatialGrid(-1.0, 2.5, 200)
    TIMES = TimeGrid(0.0, 2.0, 400)

    @pytest.mark.parametrize("n_stored", [TIMES.n_steps + 1, 1],
                             ids=["stored", "folded"])
    def test_negative_density_raises_at_its_step(self, n_stored):
        operator = central_flux_operator(CESSI, 0.2, self.GRID)
        assert operator[2].min() < 0.0
        init = delta_init(self.GRID, 0.2402)
        raw = np.empty((self.TIMES.n_steps + 1, 1, self.GRID.n_cells))
        with pytest.raises(SolverError):
            _march_sources(*operator, self.GRID, self.TIMES, init, raw,
                           check_mass=True)
        masses = self.GRID.spacing * raw[:, 0].sum(axis=1)
        assert np.isfinite(raw).all()
        assert np.abs(masses - 1.0).max() <= 1e-12
        k = int(np.flatnonzero(raw[:, 0].min(axis=1) < 0.0)[0])
        folded = []
        stored = np.empty((n_stored, 1, self.GRID.n_cells))
        with pytest.raises(SolverError) as info:
            _march_sources(*operator, self.GRID, self.TIMES, init, stored,
                           check_mass=True,
                           fold=lambda first, rows: folded.append(first))
        assert str(info.value) == (f"negative density at step {k} "
                                   f"(t={self.TIMES.nodes[k]:g})")
        # step k lies in the first chunk, so no row reaches the fold
        assert k <= 256 and folded == []


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
        for window in (0.0, float("nan")):
            with pytest.raises(GridError, match="window"):
                hitting_probability(CESSI, 0.2, grid, 0.2402, 0.0, 1.0, 100,
                                    1.0687, window)
