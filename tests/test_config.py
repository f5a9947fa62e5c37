"""Configuration loading, overrides and the two model-parameter routes."""

import json
import warnings

import pytest

from thcbridge.config import ConfigError, RunConfig, load_config, parse_param
from thcbridge.model import CessiReduced, DoubleWell, LinearOU, ZeroDrift


class TestDefaults:
    def test_default_model_route(self):
        config = load_config()
        nd = config.nondimensional()
        assert nd.f_bar == 1.1
        assert nd.mu2 == 6.2
        assert config.spatial_grid().n_cells == 800
        assert config.time_grid().n_steps == 4000
        assert config.eps_list[0] == 0.18 and config.eps_list[-1] == 0.30

    def test_default_drift_is_cessi(self):
        drift = load_config().drift_model()
        assert drift.f_bar == 1.1 and drift.mu2 == 6.2


class TestOverrides:
    def test_param_parsing(self):
        assert parse_param("epsilon=0.25") == ("epsilon", 0.25)
        assert parse_param("n_cells=400") == ("n_cells", 400)
        assert parse_param("reflect_at_bounds=false") == ("reflect_at_bounds", False)
        assert parse_param("eps_list=0.2,0.25") == ("eps_list", (0.2, 0.25))

    def test_param_errors(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_param("epsilon")
        with pytest.raises(ConfigError, match="unknown"):
            parse_param("volume=3")
        with pytest.raises(ConfigError, match="integer"):
            parse_param("n_cells=2.5")
        with pytest.raises(ConfigError, match="number"):
            parse_param("epsilon=fast")

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"epsilon": 0.22, "n_cells": 640}))
        config = load_config(path, overrides=["epsilon=0.27"])
        assert config.epsilon == 0.27
        assert config.n_cells == 640

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestModelRoutes:
    def test_dimensional_route_derives_f_bar(self):
        config = load_config(overrides=["f=9.276982264146245e-08"])
        nd = config.nondimensional()
        assert nd.f_bar == pytest.approx(1.1, rel=1e-10)
        assert nd.alpha == pytest.approx(3199.59)
        assert nd.mu2 == pytest.approx(219 / 35)

    def test_dimensional_route_without_flux_fails(self):
        with pytest.raises(ConfigError, match="'f'"):
            load_config(overrides=["theta=20"]).nondimensional()

    def test_explicit_f_bar_beats_flux(self):
        with pytest.warns(UserWarning):
            config = load_config(overrides=["f=1e-7", "f_bar=2.0"])
            nd = config.nondimensional()
        assert nd.f_bar == 2.0

    def test_drift_by_name(self):
        cases = {
            ("drift=cessi", "f_bar=1.0", "mu2=2.0"): CessiReduced(1.0, 2.0),
            ("drift=double-well",): DoubleWell(),
            ("drift=ou", "drift_rate=3.0"): LinearOU(3.0),
            ("drift=zero",): ZeroDrift(),
        }
        for overrides, drift in cases.items():
            assert load_config(overrides=list(overrides)).drift_model() == drift
        with pytest.raises(ConfigError, match="unknown drift 'pendulum'"):
            load_config(overrides=["drift=pendulum"])

    def test_mu2_override_on_dimensional_route(self):
        config = load_config(overrides=["f=9.276982264146245e-08", "mu2=6.2"])
        assert config.nondimensional().mu2 == 6.2


class TestValidation:
    def test_offending_key_reported(self):
        cases = {
            "epsilon=-1": "epsilon",
            "n_cells=32": "n_cells",
            "jump_threshold=0": "jump_threshold",
            "y_start=-5": "y_start",
            "dump_every=0": "dump_every",
            "dt_sde=-0.1": "dt_sde",
            "seed=-1": "seed",
        }
        for override, key in cases.items():
            with pytest.raises(ConfigError, match=key):
                load_config(overrides=[override])

    @pytest.mark.parametrize("key", ["epsilon", "jump_threshold", "y_min",
                                     "drift", "n_cells", "reflect_at_bounds"])
    def test_null_rejected_on_required_key(self, tmp_path, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: None}))
        with pytest.raises(ConfigError, match=f"'{key}'.*null"):
            load_config(path)

    def test_null_accepted_on_optional_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"f_bar": None, "mu2": None}))
        assert load_config(path).nondimensional().f_bar == 1.1

    @pytest.mark.parametrize("override", [
        "epsilon=nan", "epsilon=inf", "jump_threshold=nan", "dt_sde=nan",
        "eps_list=0.2,nan", "f_bar=nan", "alpha=-inf", "n_cells=inf",
    ])
    def test_non_finite_number_rejected(self, override):
        key = override.partition("=")[0]
        with pytest.raises(ConfigError, match=f"'{key}'.*(finite|integer)"):
            load_config(overrides=[override])

    @pytest.mark.parametrize("key", ["seed", "epsilon", "f_bar", "eps_list"])
    def test_boolean_is_not_a_number(self, tmp_path, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: [True] if key == "eps_list" else True}))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(path)

    @pytest.mark.parametrize("fields, key", [
        ({"alpha": -1.0}, "alpha"),
        ({"mu2": float("nan")}, "mu2"),
        ({"f_bar": float("inf")}, "f_bar"),
        ({"f": 1e-7, "f_bar": float("nan")}, "f_bar"),
        ({"f": 1e300}, "f"),
    ], ids=["alpha", "mu2", "f_bar", "f_bar-next-to-f", "derived-f_bar"])
    def test_nondimensional_names_the_key(self, fields, key):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # f_bar given next to f
            with pytest.raises(ConfigError, match="finite|positive") as info:
                RunConfig(**fields).nondimensional()
        assert info.value.key == key

    def test_empty_eps_list_rejected(self):
        with pytest.raises(ConfigError, match="eps_list"):
            load_config(eps_list=[])

    def test_unsorted_eps_list_rejected(self):
        with pytest.raises(ConfigError, match="sorted"):
            load_config(eps_list=[0.25, 0.2])

    def test_as_dict_round_trips_json(self):
        payload = load_config().as_dict()
        assert json.loads(json.dumps(payload)) == payload
