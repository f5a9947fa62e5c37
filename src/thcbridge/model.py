"""Two-box ocean circulation model and 1D drift abstractions.

The dimensional model tracks the temperature and salinity differences
between a polar and an equatorial box coupled by density-driven exchange.
After nondimensionalization the temperature relaxes fast and the salinity
difference obeys a 1D bistable drift, which is what the solvers in
:mod:`thcbridge.fpe` and :mod:`thcbridge.bridge` consume.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

YEAR_SECONDS = 365.25 * 86400.0
DAY_SECONDS = 86400.0

DEFAULT_EQUILIBRIUM_BRACKET = (-1.0, 2.5)


class ModelError(ValueError):
    """Invalid model parameters or inputs; ``name`` is the offending
    parameter, when there is one."""

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        self.name = name


@dataclass(frozen=True)
class DimensionalParams:
    """Physical constants of the two-box circulation model, SI units.

    Times are stored in seconds; use :meth:`from_units` to build from the
    customary year/day inputs.  ``reference_temperature`` and
    ``reference_density`` are carried for completeness but feed no dynamics.
    """

    reference_temperature: float = 5.0           # degC
    reference_salinity: float = 35.0             # psu
    reference_density: float = 1029.0            # kg m^-3
    diffusion_time: float = 219.0 * YEAR_SECONDS  # s
    relaxation_time: float = 25.0 * DAY_SECONDS   # s
    advection_time: float = 35.0 * YEAR_SECONDS   # s
    transport_coefficient: float = 8.84e11        # m^3 s^-1
    salinity_coefficient: float = 7.5e-4          # psu^-1
    thermal_expansion: float = 1.7e-4             # degC^-1
    temperature_difference: float = 20.0          # degC, meridional
    ocean_depth: float = 4500.0                   # m
    control_volume: float = 8250e3 * 4.5e3 * 300e3  # m^3
    freshwater_flux: float | None = None          # m s^-1, optional

    def __post_init__(self) -> None:
        positive = {
            "diffusion_time": self.diffusion_time,
            "relaxation_time": self.relaxation_time,
            "advection_time": self.advection_time,
            "transport_coefficient": self.transport_coefficient,
            "salinity_coefficient": self.salinity_coefficient,
            "thermal_expansion": self.thermal_expansion,
            "temperature_difference": self.temperature_difference,
            "ocean_depth": self.ocean_depth,
            "control_volume": self.control_volume,
        }
        for name, value in positive.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise ModelError(f"{name} must be strictly positive, got {value!r}")

    @classmethod
    def from_units(cls, *, t_d_years: float | None = None,
                   t_r_days: float | None = None,
                   t_a_years: float | None = None,
                   **kwargs) -> "DimensionalParams":
        """Build params with the time scales given in years/days; an
        unset time scale keeps its field default."""
        scaled = {"diffusion_time": (t_d_years, YEAR_SECONDS),
                  "relaxation_time": (t_r_days, DAY_SECONDS),
                  "advection_time": (t_a_years, YEAR_SECONDS)}
        return cls(**{name: value * unit
                      for name, (value, unit) in scaled.items()
                      if value is not None}, **kwargs)

    def advection_time_from_geometry(self) -> float:
        """Advection time V / (q (alpha_T theta)^2) implied by the transport geometry.

        Diagnostic only: the stored ``advection_time`` is what enters the
        nondimensionalization.
        """
        scale = self.thermal_expansion * self.temperature_difference
        return self.control_volume / (self.transport_coefficient * scale**2)


@dataclass(frozen=True)
class NondimensionalParams:
    """Dimensionless forcing, restoring strength and time-scale ratio."""

    f_bar: float = 1.1
    alpha: float = 3199.59
    mu2: float = 6.2

    def __post_init__(self) -> None:
        if not math.isfinite(self.f_bar):
            raise ModelError(f"f_bar must be finite, got {self.f_bar!r}",
                             "f_bar")
        for name in ("alpha", "mu2"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ModelError(f"{name} must be positive and finite, "
                                 f"got {value!r}", name)


@dataclass(frozen=True)
class BoxState2D:
    """Dimensionless (temperature difference, salinity difference) state."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ModelError(f"state must be finite, got ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class Trajectory2D:
    """Sampled solution of the 2D deterministic system."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray


Stability = Literal["stable", "unstable"]


@dataclass(frozen=True)
class Equilibrium:
    """Root of the reduced drift with its local stability."""

    y: float
    derivative: float
    stability: Stability


# --- dimensional dynamics -------------------------------------------------

def density_difference(s_p: float, s_e: float, t_p: float, t_e: float,
                       params: DimensionalParams) -> float:
    """Scaled pole-equator density difference alpha_S(S_p-S_e) - alpha_T(T_p-T_e)."""
    return (params.salinity_coefficient * (s_p - s_e)
            - params.thermal_expansion * (t_p - t_e))


def exchange_function(delta_rho: float, params: DimensionalParams) -> float:
    """Exchange rate 1/t_d + (q/V) * delta_rho^2 in s^-1."""
    return (1.0 / params.diffusion_time
            + params.transport_coefficient / params.control_volume * delta_rho**2)


def drift_dimensional(delta_t: float, delta_s: float,
                      params: DimensionalParams) -> tuple[float, float]:
    """Time derivatives (d(DeltaT)/dt, d(DeltaS)/dt) of the dimensional model.

    ``delta_t`` and ``delta_s`` are the equator-minus-pole differences, so the
    density difference reduces to alpha_T*DeltaT - alpha_S*DeltaS.
    """
    if params.freshwater_flux is None:
        raise ModelError("freshwater_flux is required for the dimensional drift")
    delta_rho = (params.thermal_expansion * delta_t
                 - params.salinity_coefficient * delta_s)
    q_rate = exchange_function(delta_rho, params)
    d_delta_t = (-(delta_t - params.temperature_difference) / params.relaxation_time
                 - q_rate * delta_t)
    d_delta_s = (params.freshwater_flux / params.ocean_depth * params.reference_salinity
                 - q_rate * delta_s)
    return d_delta_t, d_delta_s


def nondimensionalize(params: DimensionalParams,
                      f_bar: float | None = None) -> NondimensionalParams:
    """Reduce dimensional parameters to (f_bar, alpha, mu2).

    alpha = t_d/t_r and mu2 = t_d/t_a.  The dimensionless freshwater flux is
    derived from ``params.freshwater_flux`` unless ``f_bar`` is given
    directly, in which case the override wins (with a warning if both are
    present).
    """
    alpha = params.diffusion_time / params.relaxation_time
    mu2 = params.diffusion_time / params.advection_time
    if f_bar is not None:
        if params.freshwater_flux is not None:
            warnings.warn("both freshwater_flux and f_bar given; using f_bar",
                          stacklevel=2)
        return NondimensionalParams(f_bar=f_bar, alpha=alpha, mu2=mu2)
    if params.freshwater_flux is None:
        raise ModelError("freshwater_flux absent and no f_bar override given")
    f_bar_derived = (params.salinity_coefficient * params.reference_salinity
                     * params.diffusion_time * params.freshwater_flux
                     / (params.thermal_expansion * params.temperature_difference
                        * params.ocean_depth))
    return NondimensionalParams(f_bar=f_bar_derived, alpha=alpha, mu2=mu2)


# --- nondimensional dynamics ----------------------------------------------

def drift_2d(state: BoxState2D, nd: NondimensionalParams) -> tuple[float, float]:
    """Right-hand side of the nondimensional fast-slow system."""
    coupling = 1.0 + nd.mu2 * (state.x - state.y) ** 2
    dx = -nd.alpha * (state.x - 1.0) - state.x * coupling
    dy = nd.f_bar - state.y * coupling
    return dx, dy


def find_equilibria(nd: NondimensionalParams,
                    bracket: tuple[float, float] = DEFAULT_EQUILIBRIUM_BRACKET
                    ) -> list[Equilibrium]:
    """All roots of the reduced drift inside ``bracket``, sorted ascending.

    The reduced drift is the cubic -mu2 y^3 + 2 mu2 y^2 - (1 + mu2) y + f_bar
    (:meth:`CessiReduced.coefficients`), so its roots are the real roots of
    that polynomial, in closed form from :func:`numpy.roots`.  Roots closer
    than 1e-8 are merged.  Stability follows the sign of the cubic's
    derivative f'(y); a vanishing derivative is classified unstable with a
    warning.  An empty list (no root inside the bracket) is a valid result.
    """
    lo, hi = bracket
    if not hi > lo:
        raise ModelError(f"bracket must have positive width, got {bracket!r}")
    cubic = CessiReduced(nd.f_bar, nd.mu2).coefficients()
    roots = [float(r.real) for r in np.roots(cubic)
             if r.imag == 0.0 and lo <= r.real <= hi]

    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-8:
            deduped.append(r)

    out: list[Equilibrium] = []
    for r in deduped:
        d = float(np.polyval(np.polyder(cubic), r))
        if d == 0.0:
            warnings.warn(f"degenerate equilibrium at y={r}: f'(y)=0, classifying "
                          "as unstable", stacklevel=2)
        out.append(Equilibrium(y=r, derivative=d,
                               stability="stable" if d < 0.0 else "unstable"))
    return out


def integrate_deterministic_2d(nd: NondimensionalParams, initial: BoxState2D,
                               horizon: float, step: float) -> Trajectory2D:
    """Integrate the 2D deterministic system and sample every ``step``.

    The temperature equation is stiff for large alpha, so an implicit
    (Radau) integrator is used; ``step`` only controls the output sampling.
    """
    # lazy: scipy.integrate adds ~0.25 s and 23 MB to `import thcbridge`
    from scipy.integrate import solve_ivp

    if step <= 0.0 or horizon <= 0.0:
        raise ModelError("step and horizon must be positive")

    def rhs(_t, state):
        return drift_2d(BoxState2D(state[0], state[1]), nd)

    n_out = max(2, int(round(horizon / step)) + 1)
    times = np.linspace(0.0, horizon, n_out)
    sol = solve_ivp(rhs, (0.0, horizon), (initial.x, initial.y), method="Radau",
                    t_eval=times, rtol=1e-8, atol=1e-10)
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise ModelError(f"2D integration failed: {sol.message}")
    return Trajectory2D(times=times, x=sol.y[0], y=sol.y[1])


# --- drift abstraction for the solvers --------------------------------------

@dataclass(frozen=True)
class CessiReduced:
    """Reduced bistable salinity drift with its quartic potential."""

    f_bar: float = NondimensionalParams.f_bar
    mu2: float = NondimensionalParams.mu2

    def drift(self, y):
        return self.f_bar - y * (1.0 + self.mu2 * (1.0 - y) ** 2)

    def potential(self, y):
        return (-self.f_bar * y + 0.5 * (1.0 + self.mu2) * y**2
                - (2.0 * self.mu2 / 3.0) * y**3 + 0.25 * self.mu2 * y**4)

    def coefficients(self) -> np.ndarray:
        """The drift as a cubic in y, highest power first (numpy.roots order)."""
        return np.array([-self.mu2, 2.0 * self.mu2, -(1.0 + self.mu2), self.f_bar])


@dataclass(frozen=True)
class DoubleWell:
    """Symmetric double well f(y) = a*y - b*y^3 with minima at +-sqrt(a/b)."""

    a: float = 1.0
    b: float = 1.0

    def drift(self, y):
        return self.a * y - self.b * y**3

    def potential(self, y):
        return -0.5 * self.a * y**2 + 0.25 * self.b * y**4


@dataclass(frozen=True)
class LinearOU:
    """Linear restoring drift f(y) = -rate*y."""

    rate: float = 1.0

    def drift(self, y):
        return -self.rate * y

    def potential(self, y):
        return 0.5 * self.rate * y**2


@dataclass(frozen=True)
class ZeroDrift:
    """Pure diffusion, f(y) = 0."""

    def drift(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def potential(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))


DriftModel = Union[CessiReduced, DoubleWell, LinearOU, ZeroDrift]

# The one table of drift names: the CLI's --drift choices and the config's
# ``drift`` key both read it.
DRIFTS = {
    "cessi": CessiReduced,
    "double-well": DoubleWell,
    "ou": LinearOU,
    "zero": ZeroDrift,
}

