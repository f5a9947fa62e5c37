"""Run configuration: defaults, JSON files and --param overrides.

The configuration is a flat key set: one :class:`RunConfig` field per key,
each raw value coerced to its field's annotated type (``None`` only where
the field is ``| None``).  Nondimensional parameters (f_bar, mu2) are the
default route; supplying dimensional keys plus a freshwater flux derives
them instead, and mixing both makes f_bar win with a warning.  Unset model
keys take the defaults of :mod:`thcbridge.model`.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .fpe import SpatialGrid, TimeGrid
from .model import (
    DRIFTS,
    CessiReduced,
    DimensionalParams,
    DriftModel,
    NondimensionalParams,
    nondimensionalize,
)

DEFAULT_EPS_LIST = tuple(round(0.18 + 0.01 * i, 2) for i in range(13))

# Dimensional keys: config name -> DimensionalParams.from_units argument.
_DIMENSIONAL_KEYS = {
    "t_d_years": "t_d_years",
    "t_r_days": "t_r_days",
    "t_a_years": "t_a_years",
    "t0": "reference_temperature",
    "s0": "reference_salinity",
    "rho0": "reference_density",
    "q": "transport_coefficient",
    "alpha_s": "salinity_coefficient",
    "alpha_t": "thermal_expansion",
    "theta": "temperature_difference",
    "h": "ocean_depth",
    "v": "control_volume",
    "f": "freshwater_flux",
}

# Constructor argument of the non-Cessi drifts -> the config key that sets it.
_DRIFT_KEYS = {"a": "drift_a", "b": "drift_b", "rate": "drift_rate"}


class ConfigError(ValueError):
    """Bad configuration; carries the offending key for CLI messages."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration, one flat key set for all commands."""

    # model (nondimensional route; None means "not specified").  With no
    # dimensional keys, unset f_bar/mu2 take NondimensionalParams' defaults.
    f_bar: float | None = None
    mu2: float | None = None
    alpha: float = 3199.59
    # model (dimensional route)
    t_d_years: float | None = None
    t_r_days: float | None = None
    t_a_years: float | None = None
    t0: float | None = None
    s0: float | None = None
    rho0: float | None = None
    q: float | None = None
    alpha_s: float | None = None
    alpha_t: float | None = None
    theta: float | None = None
    h: float | None = None
    v: float | None = None
    f: float | None = None
    # drift selection (cessi uses f_bar/mu2; others for oracles)
    drift: str = "cessi"
    drift_a: float = 1.0
    drift_b: float = 1.0
    drift_rate: float = 1.0
    # grids
    y_min: float = -1.0
    y_max: float = 2.5
    n_cells: int = 800
    t_end: float = 10.0
    n_steps: int = 4000
    # noise
    epsilon: float = 0.20
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST
    # bridge
    y_start: float = 0.2402
    y_end: float = 1.0687
    jump_threshold: float = 0.3
    # monte carlo
    n_paths: int = 100_000
    dt_sde: float = 1e-3
    reflect_at_bounds: bool = True
    # run control
    seed: int = 0
    out_dir: str = "out"
    dump_every: int = 1

    def spatial_grid(self) -> SpatialGrid:
        try:
            return SpatialGrid(self.y_min, self.y_max, self.n_cells)
        except ValueError as exc:
            raise ConfigError("n_cells", str(exc)) from exc

    def time_grid(self) -> TimeGrid:
        try:
            return TimeGrid(0.0, self.t_end, self.n_steps)
        except ValueError as exc:
            raise ConfigError("n_steps", str(exc)) from exc

    def nondimensional(self) -> NondimensionalParams:
        """Resolve (f_bar, alpha, mu2), deriving from dimensional keys if given."""
        dimensional = {arg: getattr(self, key)
                       for key, arg in _DIMENSIONAL_KEYS.items()
                       if getattr(self, key) is not None}
        if dimensional:
            try:
                params = DimensionalParams.from_units(**dimensional)
                nd = nondimensionalize(params, f_bar=self.f_bar)
            except ValueError as exc:
                raise ConfigError("f", str(exc)) from exc
            return nd if self.mu2 is None else replace(nd, mu2=self.mu2)
        given = {key: getattr(self, key) for key in ("f_bar", "mu2")
                 if getattr(self, key) is not None}
        try:
            return NondimensionalParams(alpha=self.alpha, **given)
        except ValueError as exc:
            raise ConfigError("mu2", str(exc)) from exc

    def drift_model(self) -> DriftModel:
        """The selected drift; Cessi takes the resolved (f_bar, mu2)."""
        cls = DRIFTS.get(self.drift)
        if cls is None:
            raise ConfigError("drift", f"unknown drift {self.drift!r}; "
                              f"expected one of {sorted(DRIFTS)}")
        if cls is CessiReduced:
            nd = self.nondimensional()
            return CessiReduced(nd.f_bar, nd.mu2)
        return cls(**{f_.name: getattr(self, _DRIFT_KEYS[f_.name])
                      for f_ in fields(cls)})

    def validated(self) -> "RunConfig":
        """Cross-field checks shared by every command."""
        if not self.eps_list:
            raise ConfigError("eps_list", "must not be empty")
        if any(e <= 0 for e in self.eps_list):
            raise ConfigError("eps_list", "entries must be positive")
        if list(self.eps_list) != sorted(self.eps_list):
            raise ConfigError("eps_list", "must be sorted ascending")
        if self.epsilon <= 0:
            raise ConfigError("epsilon", "must be positive")
        if self.jump_threshold <= 0:
            raise ConfigError("jump_threshold", "must be positive")
        if self.dump_every < 1:
            raise ConfigError("dump_every", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
        if self.n_paths < 1:
            raise ConfigError("n_paths", "must be >= 1")
        if self.dt_sde <= 0:
            raise ConfigError("dt_sde", "must be positive")
        grid = self.spatial_grid()
        self.time_grid()
        self.drift_model()
        for key, y in (("y_start", self.y_start), ("y_end", self.y_end)):
            if not grid.contains(y):
                raise ConfigError(key, f"{y} outside the grid "
                                  f"({grid.y_min}, {grid.y_max})")
        return self

    def as_dict(self) -> dict:
        out = {}
        for f_ in fields(self):
            value = getattr(self, f_.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f_.name] = value
        return out


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _coerce(key: str, value) -> object:
    """Coerce a raw JSON/CLI value to the type its RunConfig field is annotated with."""
    if key not in _FIELD_TYPES:
        raise ConfigError(key, "unknown configuration key")
    kind = _FIELD_TYPES[key]
    if value is None:
        if type(None) in typing.get_args(kind):    # the `float | None` fields
            return None
        raise ConfigError(key, "must not be null")
    if typing.get_origin(kind) is tuple:
        if isinstance(value, str):
            parts = [p for p in value.split(",") if p.strip()]
        elif isinstance(value, (list, tuple)):
            parts = value
        else:
            raise ConfigError(key, f"expected a list, got {value!r}")
        try:
            return tuple(float(p) for p in parts)
        except (TypeError, ValueError):
            raise ConfigError(key, f"not a list of numbers: {value!r}") from None
    if kind is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
            return value.lower() in ("true", "1")
        raise ConfigError(key, f"expected a boolean, got {value!r}")
    if kind is str:
        return str(value)
    try:
        if kind is int:
            as_float = float(value)
            if as_float != int(as_float):
                raise ValueError
            return int(as_float)
        return float(value)
    except (TypeError, ValueError):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(key, f"expected {expected}, got {value!r}") from None


def parse_param(text: str) -> tuple[str, object]:
    """Parse one --param KEY=VALUE override."""
    if "=" not in text:
        raise ConfigError(text, "override must look like key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    return key, _coerce(key, raw.strip())


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None,
                **direct) -> RunConfig:
    """Defaults, then config file values, then --param overrides, then kwargs."""
    merged: dict[str, object] = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config", f"{path} must hold a JSON object")
        for key, value in raw.items():
            merged[key] = _coerce(key, value)
    for text in overrides or []:
        key, value = parse_param(text)
        merged[key] = value
    for key, value in direct.items():
        merged[key] = _coerce(key, value)
    return RunConfig(**merged).validated()
