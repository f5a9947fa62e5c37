"""Reduced salinity equation of the two-box model, and 1D drift abstractions.

In the two-box (Cessi 1994) circulation model the temperature difference
relaxes fast; on that slow manifold the salinity difference obeys the 1D
bistable drift :class:`CessiReduced`, the simplified system the solvers in
:mod:`thcbridge.fpe` and :mod:`thcbridge.bridge` consume.  Only the
dimensional constants that :func:`nondimensionalize` reads are kept.
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

    Times are stored in seconds.  Every field but ``relaxation_time``,
    which sets only alpha, has a dimensional config key.
    """

    reference_salinity: float = 35.0             # psu
    diffusion_time: float = 219.0 * YEAR_SECONDS  # s
    relaxation_time: float = 25.0 * DAY_SECONDS   # s
    advection_time: float = 35.0 * YEAR_SECONDS   # s
    salinity_coefficient: float = 7.5e-4          # psu^-1
    thermal_expansion: float = 1.7e-4             # degC^-1
    temperature_difference: float = 20.0          # degC, meridional
    ocean_depth: float = 4500.0                   # m
    freshwater_flux: float | None = None          # m s^-1, optional

    def __post_init__(self) -> None:
        positive = {
            "reference_salinity": self.reference_salinity,
            "diffusion_time": self.diffusion_time,
            "relaxation_time": self.relaxation_time,
            "advection_time": self.advection_time,
            "salinity_coefficient": self.salinity_coefficient,
            "thermal_expansion": self.thermal_expansion,
            "temperature_difference": self.temperature_difference,
            "ocean_depth": self.ocean_depth,
        }
        for name, value in positive.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise ModelError(f"{name} must be strictly positive, got {value!r}",
                                 name)


@dataclass(frozen=True)
class NondimensionalParams:
    """Dimensionless forcing f_bar and coupling mu2 = t_d/t_a of the reduced
    drift; alpha = t_d/t_r is derived and kept, but no dynamics read it."""

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


Stability = Literal["stable", "unstable"]


@dataclass(frozen=True)
class Equilibrium:
    """Root of the reduced drift with its local stability."""

    y: float
    derivative: float
    stability: Stability


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

