"""Validation-check registry on the default configuration.

The two Monte Carlo checks are exercised at full path count by the
acceptance suite; here the deterministic checks run against the default
configuration and the report structure is verified.
"""

import pytest

import thcbridge.fpe as fpe
from thcbridge.config import ConfigError, load_config
from thcbridge.validate import CHECKS, run_checks

DETERMINISTIC_CHECKS = [name for name in CHECKS if not name.startswith("mc-")]


class TestRunChecks:
    def test_deterministic_checks_pass_on_defaults(self):
        results = run_checks(load_config(), DETERMINISTIC_CHECKS)
        failures = [r for r in results if not r.passed]
        assert not failures, f"failed: {[(r.name, r.measured) for r in failures]}"

    def test_results_carry_measures_and_tolerances(self):
        results = run_checks(load_config(), ["mass", "heat-kernel"])
        for r in results:
            assert r.measured >= 0.0
            assert r.tolerance > 0.0
            payload = r.as_dict()
            assert set(payload) == {"name", "measured", "tolerance", "passed",
                                    "detail"}

    def test_subset_order_preserved(self):
        names = ["brownian-bridge", "mass"]
        results = run_checks(load_config(), names)
        assert [r.name for r in results] == names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            run_checks(load_config(), ["mass", "bogus"])

    def test_coarse_grid_fails_grid_convergence(self):
        # 64 cells on [-2, 3.5]: the coarse-vs-mid L1 is about 0.02
        config = load_config(overrides=["n_cells=64", "y_min=-2", "y_max=3.5"])
        result = run_checks(config, ["grid-convergence"])[0]
        assert not result.passed
        assert result.measured > result.tolerance

    def test_adequate_grid_passes_mass_check(self):
        config = load_config(overrides=["n_cells=400", "n_steps=2000"])
        result = run_checks(config, ["mass"])[0]
        assert result.passed

    def test_semigroup_check_fails_on_a_first_order_march(self, monkeypatch):
        # startup steps past the step count make every step backward Euler:
        # a first-order march, whose 100/400-step error ratio is about 4
        passed = run_checks(load_config(), ["semigroup"])[0]
        monkeypatch.setattr(fpe, "RANNACHER_STEPS", 1000)
        failed = run_checks(load_config(), ["semigroup"])[0]
        assert passed.passed and not failed.passed
        assert "ratio 15." in passed.detail and "ratio 4.0" in failed.detail
