"""Run configuration: defaults, JSON files and --param overrides.

The configuration is a flat key set: one :class:`RunConfig` field per key,
each raw value coerced to its field's annotated type (``None`` only where
the field is ``| None``).  Nondimensional parameters (f_bar, mu2) are the
default route; supplying dimensional keys plus a freshwater flux derives
them instead, and mixing both makes f_bar win with a warning.  Every key
reaches the run: unset model keys take the defaults of
:mod:`thcbridge.model`, the others the defaults of the solver inputs they
build (grids, bridge endpoints, Monte Carlo ensemble).
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .bridge import DEFAULT_JUMP_THRESHOLD, BridgeSpec
from .fpe import SpatialGrid, TimeGrid
from .model import (
    DRIFTS,
    YEAR_SECONDS,
    CessiReduced,
    DimensionalParams,
    DoubleWell,
    DriftModel,
    LinearOU,
    ModelError,
    NondimensionalParams,
    nondimensionalize,
)
from .montecarlo import EnsembleConfig

DEFAULT_EPS_LIST = tuple(round(0.18 + 0.01 * i, 2) for i in range(13))

# Dimensional keys: config name -> (DimensionalParams field, SI value of one
# unit of the key).  Only the time scales are not given in SI units.
_DIMENSIONAL_KEYS = {
    "t_d_years": ("diffusion_time", YEAR_SECONDS),
    "t_a_years": ("advection_time", YEAR_SECONDS),
    "s0": ("reference_salinity", 1.0),
    "alpha_s": ("salinity_coefficient", 1.0),
    "alpha_t": ("thermal_expansion", 1.0),
    "theta": ("temperature_difference", 1.0),
    "h": ("ocean_depth", 1.0),
    "f": ("freshwater_flux", 1.0),
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
    # model (dimensional route)
    t_d_years: float | None = None
    t_a_years: float | None = None
    s0: float | None = None
    alpha_s: float | None = None
    alpha_t: float | None = None
    theta: float | None = None
    h: float | None = None
    f: float | None = None
    # drift selection (cessi uses f_bar/mu2; others for oracles)
    drift: str = "cessi"
    drift_a: float = DoubleWell.a
    drift_b: float = DoubleWell.b
    drift_rate: float = LinearOU.rate
    # grids
    y_min: float = SpatialGrid.y_min
    y_max: float = SpatialGrid.y_max
    n_cells: int = SpatialGrid.n_cells
    t_end: float = TimeGrid.t_end
    n_steps: int = TimeGrid.n_steps
    # noise
    epsilon: float = 0.20
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST
    # bridge
    y_start: float = BridgeSpec.y_start
    y_end: float = BridgeSpec.y_end
    jump_threshold: float = DEFAULT_JUMP_THRESHOLD
    # monte carlo
    n_paths: int = EnsembleConfig.n_paths
    dt_sde: float = EnsembleConfig.dt_sde
    reflect_at_bounds: bool = EnsembleConfig.reflect_at_bounds
    # run control
    seed: int = EnsembleConfig.seed
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

    def bridge_spec(self) -> BridgeSpec:
        return BridgeSpec(self.y_start, self.y_end, self.t_end)

    def ensemble_config(self) -> EnsembleConfig:
        return EnsembleConfig(**{f_.name: getattr(self, f_.name)
                                 for f_ in fields(EnsembleConfig)})

    def nondimensional(self) -> NondimensionalParams:
        """Resolve (f_bar, alpha, mu2), deriving from dimensional keys if given."""
        dimensional = {key: getattr(self, key) for key in _DIMENSIONAL_KEYS
                       if getattr(self, key) is not None}
        given = {key: getattr(self, key) for key in ("f_bar", "mu2")
                 if getattr(self, key) is not None}
        try:
            if not dimensional:
                return NondimensionalParams(**given)
            params = DimensionalParams(**{
                _DIMENSIONAL_KEYS[key][0]: value * _DIMENSIONAL_KEYS[key][1]
                for key, value in dimensional.items()})
            nd = nondimensionalize(params, f_bar=self.f_bar)
            return nd if self.mu2 is None else replace(nd, mu2=self.mu2)
        except ModelError as exc:
            # a dimensional field is named by the key that set it, in its units
            for key, value in dimensional.items():
                if _DIMENSIONAL_KEYS[key][0] == exc.name:
                    raise ConfigError(key, f"must be strictly positive, "
                                      f"got {value!r}") from exc
            # a given key is named as is; anything derived comes from "f"
            key = exc.name if exc.name in given or not dimensional else "f"
            raise ConfigError(key, str(exc)) from exc

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
        if not all(e > 0 for e in self.eps_list):
            raise ConfigError("eps_list", "entries must be positive")
        if list(self.eps_list) != sorted(self.eps_list):
            raise ConfigError("eps_list", "must be sorted ascending")
        if not self.epsilon > 0:
            raise ConfigError("epsilon", "must be positive")
        if not self.jump_threshold > 0:
            raise ConfigError("jump_threshold", "must be positive")
        if self.dump_every < 1:
            raise ConfigError("dump_every", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
        if self.n_paths < 1:
            raise ConfigError("n_paths", "must be >= 1")
        if not self.dt_sde > 0:
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


def _finite(value) -> float:
    """float(value) for a finite number; a boolean is not a number."""
    number = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


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
            return tuple(_finite(p) for p in parts)
        except (TypeError, ValueError):
            raise ConfigError(key, f"not a list of finite numbers: {value!r}") from None
    if kind is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
            return value.lower() in ("true", "1")
        raise ConfigError(key, f"expected a boolean, got {value!r}")
    if kind is str:
        return str(value)
    try:
        number = _finite(value)
        if kind is int:
            if number != int(number):
                raise ValueError
            return int(number)
        return number
    except (TypeError, ValueError):
        expected = "an integer" if kind is int else "a finite number"
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
