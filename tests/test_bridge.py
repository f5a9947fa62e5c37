"""Bridge products, path extraction, jump detection and the noise sweep."""

import numpy as np
import pytest

import thcbridge.bridge as bridge_mod
from thcbridge.bridge import (
    BridgeError,
    BridgeSpec,
    MLPath,
    bridge_density,
    detect_jump,
    ml_path,
    solve_bridge,
    solve_path,
    sweep_noise,
)
from thcbridge.fpe import (
    RANNACHER_STEPS,
    DensitySurface,
    GridError,
    SolverError,
    SpatialGrid,
    TimeGrid,
    solve_endpoint_conditioned,
    solve_forward,
)
from thcbridge.model import CessiReduced, DoubleWell, ZeroDrift

from conftest import traced_peak

CESSI = CessiReduced(1.1, 6.2)

# coarse working setup for unit-level checks (acceptance uses the defaults)
GRID = SpatialGrid(-1.0, 2.5, 400)
TIMES = TimeGrid(0.0, 10.0, 1600)


@pytest.fixture(scope="module")
def cessi_surfaces():
    forward = solve_forward(CESSI, 0.2, GRID, TIMES, 0.2402)
    conditioned = solve_endpoint_conditioned(CESSI, 0.2, GRID, TIMES, 1.0687)
    return forward, conditioned


class TestBridgeDensity:
    def test_normalization_preserves_argmax(self, cessi_surfaces):
        forward, conditioned = cessi_surfaces
        raw = bridge_density(forward, conditioned, normalize=False)
        unit = bridge_density(forward, conditioned, normalize=True)
        raw_arg = np.argmax(raw.values, axis=1)
        unit_arg = np.argmax(unit.values, axis=1)
        assert np.array_equal(raw_arg, unit_arg)

    def test_normalized_slices_have_unit_mass(self, cessi_surfaces):
        forward, conditioned = cessi_surfaces
        unit = bridge_density(forward, conditioned, normalize=True)
        masses = unit.values.sum(axis=1) * GRID.spacing
        assert np.abs(masses - 1.0).max() < 1e-9

    def test_zero_drift_midpoint_symmetry(self):
        # bridge from 0 to 0: the product slice at T/2 is even in y
        grid = SpatialGrid(-1.0, 1.0, 400)
        times = TimeGrid(0.0, 1.0, 200)
        forward = solve_forward(ZeroDrift(), 0.4, grid, times, 0.0)
        conditioned = solve_endpoint_conditioned(ZeroDrift(), 0.4, grid, times, 0.0)
        product = bridge_density(forward, conditioned, normalize=True)
        mid = product.values[times.n_steps // 2]
        assert np.abs(mid - mid[::-1]).max() < 1e-8

    def test_edges_concentrate_at_endpoints(self, cessi_surfaces):
        forward, conditioned = cessi_surfaces
        product = bridge_density(forward, conditioned)
        early = GRID.nodes[np.argmax(product.values[1])]
        late = GRID.nodes[np.argmax(product.values[-2])]
        assert abs(early - 0.2402) <= 2 * GRID.spacing
        assert abs(late - 1.0687) <= 2 * GRID.spacing

    def test_grid_mismatch_rejected(self, cessi_surfaces):
        forward, _ = cessi_surfaces
        other = solve_forward(CESSI, 0.2, SpatialGrid(-1.0, 2.5, 320),
                              TIMES, 1.0687)
        with pytest.raises(BridgeError, match="grid"):
            bridge_density(forward, other)


class TestMLPath:
    def test_brownian_bridge_is_linear(self):
        grid = SpatialGrid(-1.0, 2.0, 600)
        times = TimeGrid(0.0, 1.0, 1000)
        _, _, path = solve_bridge(ZeroDrift(), 0.5, BridgeSpec(0.0, 1.0, 1.0),
                                  grid, times)
        assert np.abs(path.psi - path.times).max() <= 2 * grid.spacing

    def test_endpoints_pinned(self, cessi_surfaces):
        path = ml_path(*cessi_surfaces)
        assert path.psi[0] == 0.2402
        assert path.psi[-1] == 1.0687

    def test_path_inside_grid(self, cessi_surfaces):
        path = ml_path(*cessi_surfaces)
        assert path.psi.min() >= GRID.y_min
        assert path.psi.max() <= GRID.y_max

    def test_metastable_plateaus(self, cessi_surfaces):
        # near-constant at the cold state before the switch, warm after
        path = ml_path(*cessi_surfaces)
        event = detect_jump(path, 0.3)
        before = path.psi[(path.times > 1.0) & (path.times < event.t_jump - 0.5)]
        after = path.psi[(path.times > event.t_jump + 0.5) & (path.times < 9.5)]
        assert np.abs(before - 0.2402).max() < 0.1
        assert np.abs(after - 1.0687).max() < 0.1

    def test_refinement_modes(self, cessi_surfaces):
        refined = ml_path(*cessi_surfaces, refine=True)
        coarse = ml_path(*cessi_surfaces, refine=False)
        assert refined.refinement == "quadratic-subgrid"
        assert coarse.refinement == "grid-argmax"
        assert np.abs(refined.psi - coarse.psi).max() <= GRID.spacing

    def test_normalize_toggle_leaves_grid_argmax_bitwise(self, cessi_surfaces):
        forward, conditioned = cessi_surfaces
        raw = bridge_density(forward, conditioned, normalize=False)
        unit = bridge_density(forward, conditioned, normalize=True)
        assert np.array_equal(np.argmax(raw.values, axis=1),
                              np.argmax(unit.values, axis=1))

    def test_argmax_scale_invariance(self, cessi_surfaces):
        # per-slice positive rescaling: identical node choices, vertex moves
        # only at rounding level
        from thcbridge.fpe import DensitySurface
        forward, conditioned = cessi_surfaces
        scales = 1.0 + 0.5 * np.sin(np.arange(TIMES.n_steps + 1))[:, None]
        scaled = DensitySurface(grid=conditioned.grid, times=conditioned.times,
                                values=conditioned.values * scales,
                                kind=conditioned.kind, source=conditioned.source)
        base_nodes = ml_path(forward, conditioned, refine=False)
        rescaled_nodes = ml_path(forward, scaled, refine=False)
        assert np.array_equal(base_nodes.psi, rescaled_nodes.psi)
        base = ml_path(forward, conditioned)
        rescaled = ml_path(forward, scaled)
        assert np.abs(base.psi - rescaled.psi).max() < 1e-9 * GRID.spacing


def reference_path(forward, backward, refine):
    """Per-slice argmax in the slice-by-slice form: each product slice built
    on its own (in log space below 1e-280), its first maximum refined
    through a quadratic on the node triple."""
    nodes, h = forward.grid.nodes, forward.grid.spacing
    psi = np.empty(forward.times.n_steps + 1)
    for n, (p, g) in enumerate(zip(forward.values, backward.values)):
        if p.max() < 1e-280 or g.max() < 1e-280:
            with np.errstate(divide="ignore"):
                log_prod = np.log(p) + np.log(g)
            slice_ = np.exp(log_prod - log_prod.max())
        else:
            slice_ = p * g
        j = int(np.argmax(slice_))
        psi[n] = nodes[j]
        if not refine or j == 0 or j == nodes.size - 1:
            continue
        v = slice_[j - 1:j + 2]
        if np.all(v > 0.0):
            v = np.log(v / v[1])
        denom = v[0] - 2.0 * v[1] + v[2]
        if denom >= 0.0:
            continue
        offset = 0.5 * h * (v[0] - v[2]) / denom
        if abs(offset) <= h:
            psi[n] = nodes[j] + offset
    return psi


def hand_surfaces(p_rows, g_rows):
    grid = SpatialGrid(0.0, 1.0, 64)
    times = TimeGrid(0.0, 1.0, len(p_rows) - 1)
    return tuple(DensitySurface(grid=grid, times=times, values=np.array(rows),
                                kind=kind)
                 for rows, kind in ((p_rows, "forward"), (g_rows, "backward")))


class TestHandMadeSlices:
    """Argmax edge cases on small hand-built surfaces (no source pinning).

    With j the first maximum, v[j-1] < v[j] >= v[j+1], so the quadratic
    through the triple is never flat and its vertex stays within half a
    cell: only a non-finite vertex falls back to the node, and the plateau
    slice is the closest finite case.
    """

    @staticmethod
    def slices():
        y = SpatialGrid(0.0, 1.0, 64).nodes
        bump = np.exp(-((y - 0.55) / 0.2) ** 2)
        tie = np.ones(64)
        tie[[10, 30]] = 2.0
        tie[[11, 29]] = 1.5, 1.2
        plateau = bump.copy()
        plateau[20:23] = 3.0
        zero_neighbor = np.zeros(64)
        zero_neighbor[40:42] = 1.0, 0.5
        sparse_tiny = np.zeros(64)
        sparse_tiny[50:52] = 1e-300, 3e-301
        p_rows = [
            np.exp(-5.0 * y),               # maximum at the first node
            np.exp(5.0 * y),                # maximum at the last node
            tie,                            # exact two-way tie: first wins
            plateau,                        # three equal values on top
            zero_neighbor,                  # refines in linear space
            1e-300 * np.exp(-((y - 0.37) / 0.1) ** 2),   # log-space slice
            sparse_tiny,                    # log space with zero neighbors
            bump,
        ]
        g_rows = [np.ones(64), np.ones(64), np.ones(64), np.ones(64),
                  bump, bump, 1e-10 * bump, 1e-290 * (1.0 + y)]
        return p_rows, g_rows

    @pytest.mark.parametrize("refine", [True, False])
    def test_matches_per_slice_reference(self, refine):
        forward, backward = hand_surfaces(*self.slices())
        path = ml_path(forward, backward, refine=refine)
        assert np.array_equal(path.psi, reference_path(forward, backward, refine))

    def test_edge_and_tie_nodes(self):
        forward, backward = hand_surfaces(*self.slices())
        nodes = forward.grid.nodes
        psi = ml_path(forward, backward).psi
        assert psi[0] == nodes[0] and psi[1] == nodes[-1]
        assert abs(psi[2] - nodes[10]) < forward.grid.spacing

    def test_bridge_density_matches_per_slice_product(self):
        forward, backward = hand_surfaces(*self.slices())
        raw = bridge_density(forward, backward, normalize=False).values
        unit = bridge_density(forward, backward).values
        for n, (p, g) in enumerate(zip(forward.values, backward.values)):
            if min(p.max(), g.max()) < 1e-280:    # log-space rebuild
                with np.errstate(divide="ignore"):
                    log_prod = np.log(p) + np.log(g)
                expected = np.exp(log_prod - log_prod.max())
            else:
                expected = p * g
            assert np.array_equal(raw[n], expected)
            assert np.array_equal(unit[n],
                                  expected / (forward.grid.spacing * expected.sum()))

    def test_underflowing_neighbor_keeps_the_node(self):
        # 1e-30 / 1e300 underflows to 0, so the log-space vertex is NaN.
        row = np.zeros(64)
        row[30:33] = 1e-30, 1e300, 1e299
        forward, backward = hand_surfaces([row, row], [np.ones(64)] * 2)
        node = forward.grid.nodes[31]
        for refine in (True, False):
            assert np.array_equal(ml_path(forward, backward, refine).psi,
                                  [node, node])

    def test_all_zero_slice_reports_its_step(self):
        p_rows, g_rows = self.slices()
        p_rows[3] = np.zeros(64)
        g_rows[5] = np.zeros(64)
        with pytest.raises(BridgeError, match="all-zero density slice at step 3"):
            ml_path(*hand_surfaces(p_rows, g_rows))

    @pytest.mark.parametrize("scale", [1.0, 1e-300])
    def test_disjoint_supports_report_the_earliest_step(self, scale):
        p_rows, g_rows = self.slices()
        left, right = np.zeros(64), np.zeros(64)
        left[:10] = scale
        right[40:] = 1.0
        p_rows[2], g_rows[2] = left, right
        p_rows[4] = np.zeros(64)
        with pytest.raises(BridgeError, match="do not overlap at step 2"):
            bridge_density(*hand_surfaces(p_rows, g_rows))


class TestDetectJump:
    def test_slowly_varying_path_has_no_jump(self):
        times = np.linspace(0.0, 1.0, 101)
        path = MLPath(times=times, psi=times.copy(), refinement="grid-argmax")
        assert detect_jump(path, 0.3) is None

    def test_synthetic_step(self):
        times = np.linspace(0.0, 10.0, 4001)
        psi = np.where(times < 5.0, 0.2402, 1.0687)
        path = MLPath(times=times, psi=psi, refinement="grid-argmax")
        event = detect_jump(path, 0.3)
        dt = times[1] - times[0]
        assert event is not None
        assert abs(event.t_jump - 5.0) <= dt
        assert event.gap == pytest.approx(1.0687 - 0.2402)
        assert event.y_before == pytest.approx(0.2402)
        assert event.y_after == pytest.approx(1.0687)

    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -0.3])
    def test_threshold_must_be_positive(self, threshold):
        times = np.linspace(0.0, 1.0, 3)
        path = MLPath(times=times, psi=np.zeros(3), refinement="grid-argmax")
        with pytest.raises(BridgeError, match="threshold"):
            detect_jump(path, threshold)

    def test_threshold_is_strict(self):
        times = np.linspace(0.0, 1.0, 3)
        psi = np.array([0.0, 0.3, 0.3])
        path = MLPath(times=times, psi=psi, refinement="grid-argmax")
        assert detect_jump(path, 0.3) is None
        assert detect_jump(path, 0.29) is not None

    def test_bad_inputs(self):
        path = MLPath(times=np.array([0.0]), psi=np.array([1.0]),
                      refinement="grid-argmax")
        with pytest.raises(BridgeError):
            detect_jump(path, 0.3)
        good = MLPath(times=np.array([0.0, 1.0]), psi=np.array([0.0, 1.0]),
                      refinement="grid-argmax")
        with pytest.raises(BridgeError):
            detect_jump(good, 0.0)


class TestSolveBridge:
    def test_horizon_mismatch_rejected(self):
        with pytest.raises(GridError, match="horizon"):
            solve_bridge(CESSI, 0.2, BridgeSpec(0.24, 1.07, 5.0), GRID, TIMES)

    def test_endpoints_must_be_inside(self):
        with pytest.raises(GridError, match="endpoints"):
            solve_bridge(CESSI, 0.2, BridgeSpec(-2.0, 1.07, 10.0), GRID, TIMES)

    def test_spec_validation(self):
        with pytest.raises(GridError):
            BridgeSpec(0.0, 1.0, -1.0)


class TestDoubleWellSymmetry:
    def test_antisymmetric_path(self):
        grid = SpatialGrid(-2.5, 2.5, 400)
        times = TimeGrid(0.0, 10.0, 1999)   # odd step count: no node at T/2
        _, _, path = solve_bridge(DoubleWell(), 0.35, BridgeSpec(-1.0, 1.0, 10.0),
                                  grid, times)
        assert np.abs(path.psi[::-1] + path.psi).max() <= 2 * grid.spacing


class TestSweep:
    def test_two_point_sweep(self):
        records = sweep_noise(CESSI, BridgeSpec(0.2402, 1.0687, 10.0),
                              [0.20, 0.25], GRID, TIMES, 0.3)
        assert [r.epsilon for r in records] == [0.20, 0.25]
        assert all(r.converged for r in records)
        assert records[0].t_jump > records[1].t_jump
        assert all(r.gap > 0.5 for r in records)

    def test_singleton(self):
        records = sweep_noise(CESSI, BridgeSpec(0.2402, 1.0687, 10.0),
                              [0.25], GRID, TIMES, 0.3)
        assert len(records) == 1
        assert records[0].converged

    def test_no_jump_marked_unconverged(self):
        # without an unstable root the spectrum certifies nothing, and the
        # march finds no jump
        records = sweep_noise(ZeroDrift(), BridgeSpec(0.0, 0.5, 10.0),
                              [0.3], GRID, TIMES, 0.3)
        assert records == [type(records[0])(epsilon=0.3, t_jump=None, gap=None,
                                            converged=False, method="march")]

    def test_empty_list_rejected(self):
        with pytest.raises(GridError):
            sweep_noise(CESSI, BridgeSpec(0.2402, 1.0687, 10.0), [],
                        GRID, TIMES, 0.3)

    def test_failure_annotated_with_epsilon(self, monkeypatch):
        # per-epsilon solver failures are recorded and do not stop the sweep
        real = bridge_mod._spectrum

        def flaky(drift, eps, *args):
            if eps == 0.22:
                raise SolverError("forced failure")
            return real(drift, eps, *args)

        monkeypatch.setattr(bridge_mod, "_spectrum", flaky)
        records = sweep_noise(CESSI, BridgeSpec(0.2402, 1.0687, 10.0),
                              [0.22, 0.25], GRID, TIMES, 0.3)
        assert len(records) == 2
        assert not records[0].converged
        assert records[0].error == "eps=0.22: forced failure"
        assert records[0].method == "spectral"
        assert records[1].converged and records[1].error is None

    def test_records_follow_input_order(self):
        # a march row that fails, a march row and spectral rows, in both
        # orders: each record stays with its epsilon
        eps_list = [0.01, 0.05, 0.2, 0.25, 0.3]
        spec = BridgeSpec(0.2402, 1.0687, 10.0)
        records = sweep_noise(CESSI, spec, eps_list, GRID, TIMES, 0.3)
        assert [r.epsilon for r in records] == eps_list
        assert [r.method for r in records] == ["march", "march", "spectral",
                                               "spectral", "spectral"]
        assert records[0].error is not None and records[1].converged
        assert sweep_noise(CESSI, spec, eps_list[::-1], GRID, TIMES,
                           0.3) == records[::-1]

    def test_spectral_row_is_the_threshold_free_crossing(self):
        # the threshold only decides whether the crossing counts as a jump
        spec = BridgeSpec(0.2402, 1.0687, 10.0)
        [kept] = sweep_noise(CESSI, spec, [0.2], GRID, TIMES, 0.3)
        [dropped] = sweep_noise(CESSI, spec, [0.2], GRID, TIMES, kept.gap)
        assert kept.converged and kept.method == "spectral"
        assert dropped == type(kept)(epsilon=0.2, t_jump=None, gap=None,
                                     converged=False, method="spectral")


class TestRowPeaks:
    def test_block_argmax_equals_unblocked(self):
        # a strided slot column, as solve_path passes it, over two full
        # blocks and a partial one
        grid = SpatialGrid(-1.0, 2.5, 64)
        k = 2 * bridge_mod._CHUNK_STEPS + 37
        slots = np.random.default_rng(5).random((k, 2, grid.n_cells))
        slots[0::3, 0, [5, 17]] = 2.0    # an interior tie
        slots[1::3, 0, 0] = 2.0          # a peak on the low edge
        slots[2::3, 0, -1] = 2.0         # a peak on the high edge ...
        slots[2::6, 0, 0] = 2.0          # ... tied with the low edge
        values = slots[:, 0]
        assert not values.flags.c_contiguous
        j = np.argmax(np.ascontiguousarray(values), axis=1)
        assert (j[0::3] == 5).all() and (j[1::3] == 0).all()
        assert (j[2::6] == 0).all() and (j[5::6] == grid.n_cells - 1).all()
        assert np.array_equal(bridge_mod._row_peaks(values, grid),
                              bridge_mod._subgrid_peaks(values, j, grid))
        assert np.array_equal(bridge_mod._row_peaks(values, grid, refine=False),
                              grid.nodes[j])


DEFAULT_GRID = SpatialGrid(-1.0, 2.5, 800)
DEFAULT_TIMES = TimeGrid(0.0, 10.0, 4000)
DEFAULT_SPEC = BridgeSpec(0.2402, 1.0687, 10.0)


class TestSolvePath:
    """solve_path is solve_bridge's path without the surfaces, bit for bit."""

    @pytest.mark.parametrize("eps", [0.18, 0.2, 0.25, 0.3])
    def test_default_grid_matches_solve_bridge(self, eps):
        expected = solve_bridge(CESSI, eps, DEFAULT_SPEC, DEFAULT_GRID,
                                DEFAULT_TIMES)[2]
        path = solve_path(CESSI, eps, DEFAULT_SPEC, DEFAULT_GRID, DEFAULT_TIMES)
        assert np.array_equal(path.psi, expected.psi)
        assert np.array_equal(path.times, expected.times)
        assert path.refinement == expected.refinement

    def test_fold_forms_every_row_from_nonnegative_factors(self, monkeypatch):
        # a negative value would raise in the march before it reached a
        # product (np.log in the underflow guard); every row is formed
        real = bridge_mod._guarded_product
        rows = []

        def nonnegative(a, b, out):
            assert a.min() >= 0.0 and b.min() >= 0.0
            rows.append(len(a))
            return real(a, b, out)

        monkeypatch.setattr(bridge_mod, "_guarded_product", nonnegative)
        solve_path(CESSI, 0.20, DEFAULT_SPEC, DEFAULT_GRID, DEFAULT_TIMES)
        assert sum(rows) == DEFAULT_TIMES.n_steps + 1

    def test_default_sweep_crossings_lie_in_the_march_jump_step(
            self, sweep_points):
        # sweep_points: solve_bridge + detect_jump over the 13 default
        # levels.  The march's path flips sides where h changes sign, so
        # each spectral crossing lies inside the step whose midpoint the
        # march reports.
        points, _ = sweep_points
        records = sweep_noise(CESSI, DEFAULT_SPEC, [p.epsilon for p in points],
                              DEFAULT_GRID, DEFAULT_TIMES, 0.3)
        assert len(records) == 13
        assert all(r.converged and r.method == "spectral" for r in records)
        half_step = 0.5 * DEFAULT_TIMES.dt
        for r, p in zip(records, points):
            assert p.t_jump - half_step <= r.t_jump <= p.t_jump + half_step
            assert r.gap == pytest.approx(p.gap, abs=DEFAULT_GRID.spacing)
        t_jumps = [r.t_jump for r in records]
        assert t_jumps == sorted(t_jumps, reverse=True)

    # odd and even step counts, step counts at and below the startup steps,
    # and a partial last chunk of the unstored half
    @pytest.mark.parametrize("n_steps", [1, 2, 3, RANNACHER_STEPS,
                                         RANNACHER_STEPS + 1, 49, 50, 251, 777])
    def test_step_counts_match_solve_bridge(self, n_steps):
        grid = SpatialGrid(-1.0, 2.5, 200)
        times = TimeGrid(0.0, 10.0, n_steps)
        spec = BridgeSpec(0.2402, 1.0687, 10.0)
        expected = solve_bridge(CESSI, 0.25, spec, grid, times)[2].psi
        assert np.array_equal(solve_path(CESSI, 0.25, spec, grid, times).psi,
                              expected)

    @pytest.mark.parametrize("drift, eps, spec, grid, times", [
        (DoubleWell(), 0.35, BridgeSpec(-1.0, 1.0, 10.0),
         SpatialGrid(-2.5, 2.5, 800), TimeGrid(0.0, 10.0, 3999)),
        (ZeroDrift(), 0.5, BridgeSpec(0.0, 1.0, 1.0),
         SpatialGrid(-1.0, 2.0, 600), TimeGrid(0.0, 1.0, 1000)),
    ], ids=["double-well", "zero-drift"])
    def test_oracle_drifts_match_solve_bridge(self, drift, eps, spec, grid,
                                              times):
        expected = solve_bridge(drift, eps, spec, grid, times)[2].psi
        assert np.array_equal(solve_path(drift, eps, spec, grid, times).psi,
                              expected)

    def test_disjoint_supports_raise_as_solve_bridge(self):
        # at eps = 0.01 the earliest slice whose two factors share no
        # support is step 2047
        message = "density supports do not overlap at step 2047"
        with pytest.raises(BridgeError, match=message):
            solve_bridge(CESSI, 0.01, DEFAULT_SPEC, DEFAULT_GRID, DEFAULT_TIMES)
        with pytest.raises(BridgeError, match=message):
            solve_path(CESSI, 0.01, DEFAULT_SPEC, DEFAULT_GRID, DEFAULT_TIMES)
        records = sweep_noise(CESSI, DEFAULT_SPEC, [0.01, 0.25], DEFAULT_GRID,
                              DEFAULT_TIMES, 0.3)
        assert records[0].error == (
            "eps=0.01: density supports do not overlap at step 2047: the noise "
            "level is too small for this horizon")
        assert not records[0].converged and records[0].method == "march"
        assert records[1].converged and records[1].error is None
        assert records[1].method == "spectral"

    def test_roundoff_floor_row_takes_the_march(self):
        # at eps = 0.05 the warm-side mode sums sit at their roundoff floor
        [record] = sweep_noise(CESSI, DEFAULT_SPEC, [0.05], DEFAULT_GRID,
                               DEFAULT_TIMES, 0.3)
        assert bridge_mod._spectral_jump(CESSI, 0.05, DEFAULT_SPEC,
                                         DEFAULT_GRID) is None
        event = detect_jump(solve_path(CESSI, 0.05, DEFAULT_SPEC, DEFAULT_GRID,
                                       DEFAULT_TIMES), 0.3)
        assert record == type(record)(epsilon=0.05, t_jump=event.t_jump,
                                      gap=event.gap, converged=True,
                                      method="march")

    def test_spectral_row_traced_peak(self):
        # no surface is stored: a default row traces under 2 MB, against
        # about 29 MB for solve_path
        records, peak = traced_peak(lambda: sweep_noise(
            CESSI, DEFAULT_SPEC, [0.2], DEFAULT_GRID, DEFAULT_TIMES, 0.3))
        assert records[0].method == "spectral"
        assert peak < 2e6

    def test_solver_failure_raises_as_solve_bridge(self):
        class NanDrift:
            def drift(self, y):
                return np.full_like(np.asarray(y, dtype=float), np.nan)

        spec = BridgeSpec(0.0, 0.5, 1.0)
        times = TimeGrid(0.0, 1.0, 100)
        with pytest.raises(SolverError) as expected:
            solve_bridge(NanDrift(), 0.2, spec, GRID, times)
        with pytest.raises(SolverError) as got:
            solve_path(NanDrift(), 0.2, spec, GRID, times)
        assert str(got.value) == str(expected.value)

    def test_grid_checks_as_solve_bridge(self):
        with pytest.raises(GridError, match="horizon"):
            solve_path(CESSI, 0.2, BridgeSpec(0.24, 1.07, 5.0), GRID, TIMES)
        with pytest.raises(GridError, match="endpoints"):
            solve_path(CESSI, 0.2, BridgeSpec(-2.0, 1.07, 10.0), GRID, TIMES)
