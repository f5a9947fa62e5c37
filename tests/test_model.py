"""Box-model physics, nondimensionalization and equilibrium analysis."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thcbridge
from thcbridge.model import (
    DAY_SECONDS,
    YEAR_SECONDS,
    BoxState2D,
    CessiReduced,
    DimensionalParams,
    DoubleWell,
    LinearOU,
    ModelError,
    NondimensionalParams,
    ZeroDrift,
    density_difference,
    drift_2d,
    drift_dimensional,
    exchange_function,
    find_equilibria,
    integrate_deterministic_2d,
    nondimensionalize,
)

ND = NondimensionalParams(f_bar=1.1, alpha=3199.59, mu2=6.2)
CESSI = CessiReduced(ND.f_bar, ND.mu2)

# frozen oracle: numpy.roots on mu2*y^3 - 2*mu2*y^2 + (1+mu2)*y - f_bar
ROOTS = (0.240229208426, 0.691056554214, 1.068714237360)
DERIVS = (-2.315722981041, 1.055602147635, -1.939879166594)


@pytest.fixture
def table_params():
    return DimensionalParams()


class TestDimensionalParams:
    def test_defaults_match_table(self, table_params):
        assert table_params.reference_temperature == 5.0
        assert table_params.reference_salinity == 35.0
        assert table_params.reference_density == 1029.0
        assert table_params.transport_coefficient == 8.84e11
        assert table_params.salinity_coefficient == 7.5e-4
        assert table_params.thermal_expansion == 1.7e-4
        assert table_params.temperature_difference == 20.0
        assert table_params.ocean_depth == 4500.0
        assert table_params.control_volume == pytest.approx(1.11375e16)
        assert table_params.diffusion_time == pytest.approx(219 * 365.25 * 86400)
        assert table_params.relaxation_time == pytest.approx(25 * 86400)
        assert table_params.advection_time == pytest.approx(35 * 365.25 * 86400)

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError, match="ocean_depth") as info:
            DimensionalParams(ocean_depth=0.0)
        assert info.value.name == "ocean_depth"
        with pytest.raises(ModelError, match="salinity_coefficient") as info:
            DimensionalParams(salinity_coefficient=-1e-4)
        assert info.value.name == "salinity_coefficient"

    def test_geometry_advection_time_near_table_value(self, table_params):
        # V/(q (alpha_T theta)^2) ~ 34.5 yr vs the tabulated 35 yr
        years = table_params.advection_time_from_geometry() / (365.25 * 86400)
        assert years == pytest.approx(34.536128445, rel=1e-9)


class TestDimensionalDynamics:
    def test_density_difference_symmetric_inputs(self, table_params):
        assert density_difference(35.0, 35.0, 10.0, 10.0, table_params) == 0.0

    def test_density_difference_salinity_only(self, table_params):
        assert density_difference(36.0, 35.0, 10.0, 10.0, table_params) == \
            pytest.approx(7.5e-4)

    def test_density_difference_temperature_only(self, table_params):
        # direct evaluation with table coefficients
        assert density_difference(35.0, 35.0, 30.0, 10.0, table_params) == \
            pytest.approx(-3.4e-3)

    def test_exchange_function_zero_difference(self, table_params):
        assert exchange_function(0.0, table_params) == \
            pytest.approx(1.0 / table_params.diffusion_time)

    def test_exchange_function_quadratic_term(self, table_params):
        base = 1.0 / table_params.diffusion_time
        # direct evaluation: q/V * (3.4e-3)^2
        assert exchange_function(3.4e-3, table_params) - base == \
            pytest.approx(9.17534455667789e-10, rel=1e-12)

    def test_exchange_function_quadratic_scaling(self, table_params):
        base = 1.0 / table_params.diffusion_time
        one = exchange_function(1e-3, table_params) - base
        two = exchange_function(2e-3, table_params) - base
        assert two == pytest.approx(4.0 * one)

    def test_drift_requires_freshwater_flux(self, table_params):
        with pytest.raises(ModelError, match="freshwater_flux"):
            drift_dimensional(1.0, 1.0, table_params)

    def test_drift_restoring_vanishes_at_theta(self):
        params = DimensionalParams(freshwater_flux=0.0)
        d_t, d_s = drift_dimensional(params.temperature_difference, 0.0, params)
        q = exchange_function(
            params.thermal_expansion * params.temperature_difference, params)
        assert d_t == pytest.approx(-q * params.temperature_difference)
        assert d_s == 0.0

    def test_drift_at_zero_differences(self):
        params = DimensionalParams(freshwater_flux=9.276982264146245e-08)
        d_t, d_s = drift_dimensional(0.0, 0.0, params)
        assert d_t == pytest.approx(params.temperature_difference
                                    / params.relaxation_time)
        assert d_s == pytest.approx(params.freshwater_flux * 35.0 / 4500.0)

    def test_drift_regression_at_table_values(self):
        # frozen regression: direct formula evaluation with table numbers
        params = DimensionalParams(freshwater_flux=9.276982264146245e-08)
        d_t, d_s = drift_dimensional(20.0, 2.0, params)
        assert math.isfinite(d_t) and math.isfinite(d_s)
        assert d_t == pytest.approx(-8.624511071373278e-09, rel=1e-12)
        assert d_s == pytest.approx(-1.4090804214817548e-10, rel=1e-12)


class TestNondimensionalize:
    def test_alpha_ratio(self):
        nd = nondimensionalize(DimensionalParams(), f_bar=1.1)
        assert nd.alpha == pytest.approx(219 * 365.25 / 25)  # ~3199.59

    def test_mu2_ratio(self):
        nd = nondimensionalize(DimensionalParams(), f_bar=1.1)
        assert nd.mu2 == pytest.approx(219 / 35, rel=1e-12)  # ~6.257

    def test_identity_ratio(self):
        params = DimensionalParams(diffusion_time=YEAR_SECONDS,
                                   relaxation_time=365.25 * DAY_SECONDS)
        assert nondimensionalize(params, f_bar=0.5).alpha == pytest.approx(1.0)

    def test_f_bar_derived_from_flux(self):
        params = DimensionalParams(freshwater_flux=9.276982264146245e-08)
        assert nondimensionalize(params).f_bar == pytest.approx(1.1, rel=1e-10)

    def test_override_wins_with_warning(self):
        params = DimensionalParams(freshwater_flux=1e-7)
        with pytest.warns(UserWarning, match="f_bar"):
            nd = nondimensionalize(params, f_bar=2.0)
        assert nd.f_bar == 2.0

    @pytest.mark.parametrize("name, value", [
        ("f_bar", float("nan")), ("f_bar", float("inf")),
        ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", -1.0),
        ("mu2", float("nan")), ("mu2", 0.0),
    ])
    def test_nondimensional_params_finite(self, name, value):
        with pytest.raises(ModelError, match=name) as info:
            NondimensionalParams(**{name: value})
        assert info.value.name == name

    def test_error_when_flux_and_override_absent(self):
        with pytest.raises(ModelError, match="f_bar"):
            nondimensionalize(DimensionalParams())

    @settings(deadline=None, max_examples=50)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scale_consistency(self, factor):
        base = DimensionalParams()
        scaled = DimensionalParams(
            diffusion_time=base.diffusion_time * factor,
            relaxation_time=base.relaxation_time * factor,
            advection_time=base.advection_time * factor)
        nd0 = nondimensionalize(base, f_bar=1.1)
        nd1 = nondimensionalize(scaled, f_bar=1.1)
        assert nd1.alpha == pytest.approx(nd0.alpha, rel=1e-12)
        assert nd1.mu2 == pytest.approx(nd0.mu2, rel=1e-12)


class TestReducedDynamics:
    def test_drift_2d_equal_state(self):
        dx, dy = drift_2d(BoxState2D(1.0, 1.0), ND)
        assert dx == pytest.approx(-1.0)
        assert dy == pytest.approx(0.1)

    def test_drift_2d_origin(self):
        dx, dy = drift_2d(BoxState2D(0.0, 0.0), NondimensionalParams(0.0, 50.0, 6.2))
        assert dx == pytest.approx(50.0)
        assert dy == 0.0

    def test_drift_2d_vanishes_at_equilibrium(self):
        _, dy = drift_2d(BoxState2D(1.0, 0.2402), ND)
        assert abs(dy) < 5e-4

    def test_drift_reduced_values(self):
        assert abs(CESSI.drift(0.2402)) < 5e-4
        assert CESSI.drift(0.0) == ND.f_bar
        assert CESSI.drift(1.0) == pytest.approx(ND.f_bar - 1.0)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=-1.0, max_value=2.5))
    def test_reduced_equals_2d_y_component_at_x1(self, y):
        _, dy = drift_2d(BoxState2D(1.0, y), ND)
        assert CESSI.drift(y) == dy

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_derivative_matches_finite_difference(self, f_bar):
        drift = CessiReduced(f_bar, ND.mu2)
        h = 1e-6
        for eq in find_equilibria(NondimensionalParams(f_bar=f_bar, mu2=ND.mu2)):
            fd = (drift.drift(eq.y + h) - drift.drift(eq.y - h)) / (2 * h)
            assert eq.derivative == pytest.approx(fd, abs=1e-5)


class TestPotential:
    def test_zero_at_origin(self):
        assert CESSI.potential(0.0) == 0.0

    def test_gradient_vanishes_at_equilibria(self):
        for root in ROOTS:
            h = 1e-6
            grad = (CESSI.potential(root + h) - CESSI.potential(root - h)) / (2 * h)
            assert abs(grad) < 1e-8

    def test_derivative_is_minus_drift(self):
        ys = np.linspace(-1.0, 2.5, 1000)
        h = 1e-7
        grad = (CESSI.potential(ys + h) - CESSI.potential(ys - h)) / (2 * h)
        assert np.allclose(grad, -CESSI.drift(ys), atol=1e-6)
        # closed-form check at machine precision: quartic coefficients
        analytic = (-ND.f_bar + (1 + ND.mu2) * ys - 2 * ND.mu2 * ys**2
                    + ND.mu2 * ys**3)
        assert np.max(np.abs(analytic + CESSI.drift(ys))) < 1e-12

    def test_barrier_tops_both_wells(self):
        v1, v2, v3 = (CESSI.potential(r) for r in ROOTS)
        assert v2 > v1
        assert v2 > v3


class TestFindEquilibria:
    def test_three_states_default_parameters(self):
        eqs = find_equilibria(ND)
        assert [e.stability for e in eqs] == ["stable", "unstable", "stable"]
        for eq, root, deriv in zip(eqs, ROOTS, DERIVS):
            assert eq.y == pytest.approx(root, abs=1e-9)
            assert eq.derivative == pytest.approx(deriv, rel=1e-9)
            assert abs(CESSI.drift(eq.y)) <= 1e-10

    def test_reference_values_to_four_decimals(self):
        eqs = find_equilibria(ND)
        assert [round(e.y, 4) for e in eqs] == [0.2402, 0.6911, 1.0687]

    def test_zero_forcing_single_root_at_origin(self):
        eqs = find_equilibria(NondimensionalParams(0.0, 3199.59, 6.2))
        assert len(eqs) == 1
        assert eqs[0].y == pytest.approx(0.0, abs=1e-10)
        assert eqs[0].stability == "stable"
        assert eqs[0].derivative == pytest.approx(-7.2)

    def test_monostable_regime(self):
        # frozen oracle: numpy.roots finds one real root at 1.095053052505278
        eqs = find_equilibria(NondimensionalParams(1.1, 3199.59, 0.5))
        assert len(eqs) == 1
        assert eqs[0].y == pytest.approx(1.095053052505278, abs=1e-9)
        assert eqs[0].stability == "stable"

    def test_sorted_and_separated(self):
        eqs = find_equilibria(ND)
        ys = [e.y for e in eqs]
        assert ys == sorted(ys)
        assert min(b - a for a, b in zip(ys, ys[1:])) > 1e-8

    def test_derivative_sign_matches_finite_difference(self):
        for eq in find_equilibria(ND):
            h = 1e-6
            fd = (CESSI.drift(eq.y + h) - CESSI.drift(eq.y - h)) / (2 * h)
            assert math.copysign(1, fd) == math.copysign(1, eq.derivative)

    def test_no_sign_change_returns_empty(self):
        eqs = find_equilibria(ND, bracket=(2.0, 2.5))
        assert eqs == []

    def test_invalid_bracket(self):
        with pytest.raises(ModelError, match="bracket"):
            find_equilibria(ND, bracket=(1.0, 1.0))

    def test_close_root_pair_below_lower_fold(self):
        # The two lower roots are 9.5e-4 apart, inside one cell of a
        # 2001-point sign-change scan of the bracket.
        f_bar = 1.2962183604402013 - 1e-6
        eqs = find_equilibria(NondimensionalParams(f_bar=f_bar, mu2=6.2))
        assert [e.y for e in eqs] == pytest.approx(
            [0.426719, 0.427667, 1.145614], abs=1e-6)
        assert [e.stability for e in eqs] == ["stable", "unstable", "stable"]

    @settings(deadline=None, max_examples=200)
    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.5, max_value=10.0))
    def test_roots_cover_every_sign_change(self, f_bar, mu2):
        drift = CessiReduced(f_bar, mu2)
        eqs = find_equilibria(NondimensionalParams(f_bar=f_bar, mu2=mu2))
        for eq in eqs:
            assert abs(drift.drift(eq.y)) <= 1e-10
        stabilities = [e.stability for e in eqs]
        assert all(a != b for a, b in zip(stabilities, stabilities[1:]))
        values = drift.drift(np.linspace(-1.0, 2.5, 20_001))
        assert len(eqs) >= np.count_nonzero(values[:-1] * values[1:] < 0.0)


class TestIntegrate2D:
    # The quasi-steady temperature sits at 1 - coupling/alpha with
    # coupling = 1 + mu2 (1-y)^2 ~ 4.6 near the cold branch, so the honest
    # O(1/alpha) bounds carry that factor.

    def test_fast_variable_relaxes(self):
        traj = integrate_deterministic_2d(ND, BoxState2D(0.0, 0.2402),
                                          horizon=10.0 / ND.alpha,
                                          step=1.0 / ND.alpha)
        assert traj.x[3] > 0.9                      # relaxation rate ~ alpha
        assert abs(traj.x[-1] - 1.0) < 6.0 / ND.alpha

    def test_fixed_point_residual(self):
        from scipy.optimize import root

        def rhs(v):
            return drift_2d(BoxState2D(v[0], v[1]), ND)

        fp = root(rhs, [1.0, ROOTS[0]], tol=1e-13).x
        assert abs(fp[0] - 1.0) < 6.0 / ND.alpha
        assert abs(fp[1] - ROOTS[0]) < 6.0 / ND.alpha
        traj = integrate_deterministic_2d(ND, BoxState2D(1.0, ROOTS[0]),
                                          horizon=1.0, step=0.01)
        assert np.all(np.abs(traj.x - fp[0]) < 2e-3)
        assert np.all(np.abs(traj.y - fp[1]) < 2e-3)

    def test_slow_dynamics_matches_reduced_equation(self):
        from scipy.integrate import solve_ivp
        y0 = 0.5
        horizon = 2.0
        traj = integrate_deterministic_2d(ND, BoxState2D(1.0, y0), horizon, 0.01)
        ref = solve_ivp(lambda _t, y: CESSI.drift(y), (0, horizon), [y0],
                        t_eval=traj.times, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(traj.y - ref.y[0])) < 15.0 / ND.alpha

    def test_rejects_bad_steps(self):
        with pytest.raises(ModelError):
            integrate_deterministic_2d(ND, BoxState2D(1.0, 0.5), -1.0, 0.1)

    def test_package_import_leaves_scipy_integrate_unloaded(self):
        # only this integrator needs scipy.integrate, so it imports it lazily
        src = str(Path(thcbridge.__file__).resolve().parents[1])
        probe = ("import sys, thcbridge, thcbridge.cli, thcbridge.validate; "
                 "print('scipy.integrate' in sys.modules)")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "False"


class TestDriftModels:
    def test_cessi_cubic_coefficients_match_drift(self):
        ys = np.linspace(-1, 2.5, 50)
        for drift in (CESSI, CessiReduced(0.0, 0.5), CessiReduced(2.0, 10.0)):
            assert np.max(np.abs(np.polyval(drift.coefficients(), ys)
                                 - drift.drift(ys))) <= 1e-12

    def test_double_well_roots_and_potential(self):
        dw = DoubleWell(1.0, 1.0)
        assert dw.drift(1.0) == 0.0
        assert dw.drift(-1.0) == 0.0
        assert dw.potential(0.0) == 0.0
        assert dw.potential(1.0) == pytest.approx(-0.25)

    def test_linear_ou(self):
        ou = LinearOU(2.5)
        assert ou.drift(2.0) == -5.0
        assert ou.potential(2.0) == pytest.approx(5.0)

    def test_zero_drift(self):
        z = ZeroDrift()
        assert np.all(z.drift(np.array([1.0, -3.0])) == 0.0)
        assert np.all(z.potential(np.array([1.0, -3.0])) == 0.0)

    def test_state_must_be_finite(self):
        with pytest.raises(ModelError):
            BoxState2D(float("nan"), 0.0)
