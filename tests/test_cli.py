"""CLI surface: artifacts, exit codes, determinism and the manifest."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from thcbridge.cli import main
from thcbridge.config import load_config
from thcbridge.fpe import PDE_SCHEME, solve_backward, solve_forward
from thcbridge.montecarlo import EnsembleConfig, euler_maruyama_ensemble
from thcbridge.output import format_value

FAST_ZERO = ["--param", "n_cells=200", "--param", "n_steps=400",
             "--param", "t_end=1", "--param", "y_min=-1", "--param", "y_max=2",
             "--drift", "zero", "--start", "0", "--end", "1", "--eps", "0.5"]


def read_csv(path: Path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def long_csv_bytes(header, times, nodes, values) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in (t, y, row[i]))
                 for t, row in zip(times, values) for i, y in enumerate(nodes))
    return ("\n".join(lines) + "\n").encode()


def read_manifest(out: Path) -> dict:
    data = json.loads((out / "manifest.json").read_text())
    data.pop("timings_seconds")
    return data


class TestEquilibria:
    def test_default_three_rows(self, tmp_path, capsys):
        out = tmp_path / "eq"
        assert main(["equilibria", "--out", str(out)]) == 0
        rows = read_csv(out / "equilibria.csv")
        assert [round(float(r["y"]), 4) for r in rows] == [0.2402, 0.6911, 1.0687]
        assert [r["stability"] for r in rows] == ["stable", "unstable", "stable"]
        printed = capsys.readouterr().out
        assert "0.240229" in printed and "unstable" in printed

    def test_zero_forcing_single_row(self, tmp_path):
        out = tmp_path / "eq0"
        assert main(["equilibria", "--param", "f_bar=0", "--out", str(out)]) == 0
        rows = read_csv(out / "equilibria.csv")
        assert len(rows) == 1
        assert abs(float(rows[0]["y"])) < 1e-9

    def test_monostable_single_row(self, tmp_path):
        out = tmp_path / "eqm"
        assert main(["equilibria", "--param", "mu2=0.5", "--out", str(out)]) == 0
        assert len(read_csv(out / "equilibria.csv")) == 1

    def test_config_error_names_key(self, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["equilibria", "--param", "epsilon=-2",
                     "--out", str(out)]) == 2
        assert "epsilon" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "config"

    def test_non_cessi_drift_exit_2(self, tmp_path, capsys):
        for drift in ("zero", "pendulum"):
            out = tmp_path / drift
            assert main(["equilibria", "--param", f"drift={drift}",
                         "--out", str(out)]) == 2
            assert "'drift'" in capsys.readouterr().err
            manifest = json.loads((out / "manifest.json").read_text())
            assert "drift" in manifest["error"]["message"]
            assert not (out / "equilibria.csv").exists()


class TestBridgePath:
    def test_zero_drift_linear_path(self, tmp_path):
        out = tmp_path / "bz"
        assert main(["bridge-path", *FAST_ZERO, "--out", str(out)]) == 0
        rows = read_csv(out / "ml_path.csv")
        assert len(rows) == 401
        spacing = 3.0 / 200
        worst = max(abs(float(r["psi"]) - float(r["t"])) for r in rows)
        assert worst <= 2 * spacing
        jump = json.loads((out / "jump.json").read_text())
        assert jump["t_jump"] is None

    def test_require_jump_exit_code(self, tmp_path):
        out = tmp_path / "bz3"
        code = main(["bridge-path", *FAST_ZERO, "--require-jump",
                     "--out", str(out)])
        assert code == 3

    def test_cessi_jump_artifacts(self, tmp_path):
        out = tmp_path / "bc"
        args = ["bridge-path", "--param", "n_cells=400",
                "--param", "n_steps=1600", "--eps", "0.25", "--out", str(out)]
        assert main(args) == 0
        jump = json.loads((out / "jump.json").read_text())
        assert jump["t_jump"] == pytest.approx(6.45, abs=0.1)
        assert jump["gap"] > 0.5
        manifest = read_manifest(out)
        assert manifest["resolved_model"] == {"f_bar": 1.1, "mu2": 6.2}
        assert manifest["schemes"]["pde"] == PDE_SCHEME
        assert PDE_SCHEME.startswith("flux-form-scharfetter-gummel/")
        assert 0.0 <= manifest["diagnostics"]["path_max_mass_drift"] <= 1e-6

    def test_default_resolution_jump_value(self, tmp_path):
        out = tmp_path / "bd"
        assert main(["bridge-path", "--out", str(out)]) == 0
        jump = json.loads((out / "jump.json").read_text())
        assert abs(jump["t_jump"] - 6.86) <= 0.3
        assert jump["gap"] >= 0.5

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["bridge-path", *FAST_ZERO, "--seed", "7"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        for name in ("ml_path.csv", "jump.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1, m2 = read_manifest(out1), read_manifest(out2)
        m1["config"].pop("out_dir"), m2["config"].pop("out_dir")
        assert m1 == m2


class TestSurfaceDumps:
    def test_forward_csv_thinned(self, tmp_path, capsys):
        out = tmp_path / "fw"
        args = ["forward", "--param", "n_cells=100", "--param", "n_steps=50",
                "--param", "t_end=0.5", "--drift", "zero", "--start", "0.5",
                "--eps", "0.3", "--dump-every", "10", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out / "forward.csv")
        assert len(rows) == 6 * 100       # steps 0,10,20,30,40,50
        stored = sorted({float(r["t"]) for r in rows})
        assert stored == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert "(6 steps stored, dump_every=10)" in capsys.readouterr().out

    def test_artifact_bytes(self, tmp_path):
        # 57 steps thinned by 10 keep steps 0, 10, ..., 50 and the final 57
        params = ["n_cells=64", "n_steps=57", "t_end=0.57", "n_paths=500"]
        config = load_config(None, params, drift="zero", epsilon=0.3,
                             y_start=0.5, y_end=0.5, seed=11, dump_every=10)
        steps = [0, 10, 20, 30, 40, 50, 57]
        drift, grid, times = (config.drift_model(), config.spatial_grid(),
                              config.time_grid())
        out = tmp_path / "bytes"
        args = [a for p in params for a in ("--param", p)] + [
            "--drift", "zero", "--eps", "0.3", "--start", "0.5", "--end", "0.5",
            "--seed", "11", "--dump-every", "10", "--out", str(out)]
        for command in (["forward"], ["forward", "--format", "binary"],
                        ["backward"], ["mc"]):
            assert main([*command, *args]) == 0

        forward = solve_forward(drift, 0.3, grid, times, 0.5).values
        backward = solve_backward(drift, 0.3, grid, times, 0.5).values
        hist = euler_maruyama_ensemble(
            drift, 0.3, 0.5, grid, times,
            EnsembleConfig(n_paths=500, dt_sde=config.dt_sde, seed=11,
                           reflect_at_bounds=config.reflect_at_bounds))
        t_nodes = times.nodes[steps]
        assert (out / "forward.csv").read_bytes() == long_csv_bytes(
            ["t", "y", "p"], t_nodes, grid.nodes, forward[steps])
        assert (out / "backward.csv").read_bytes() == long_csv_bytes(
            ["t", "y", "g"], t_nodes, grid.nodes, backward[steps])
        assert (out / "forward.bin").read_bytes() == \
            forward[steps].astype("<f8").tobytes()
        meta = json.loads((out / "forward.meta.json").read_text())
        assert meta["stored_steps"] == steps
        assert meta["shape"] == [len(steps), 64]
        assert (out / "hist.csv").read_bytes() == long_csv_bytes(
            ["t", "y", "density"], hist.times, grid.nodes, hist.densities)

    def test_binary_round_trip(self, tmp_path):
        out = tmp_path / "fb"
        base = ["--param", "n_cells=100", "--param", "n_steps=50",
                "--param", "t_end=0.5", "--drift", "zero", "--start", "0.5",
                "--eps", "0.3", "--out", str(out)]
        assert main(["forward", *base, "--format", "binary"]) == 0
        meta = json.loads((out / "forward.meta.json").read_text())
        block = np.frombuffer((out / "forward.bin").read_bytes(),
                              dtype=meta["dtype"]).reshape(meta["shape"])
        assert meta["shape"] == [51, 100]
        masses = block.sum(axis=1) * (meta["y_max"] - meta["y_min"]) / meta["n_cells"]
        assert np.abs(masses - 1.0).max() < 1e-6
        drift = read_manifest(out)["diagnostics"]["forward_max_mass_drift"]
        assert 0.0 <= drift <= 1e-6

    def test_backward_dump(self, tmp_path):
        out = tmp_path / "bw"
        args = ["backward", "--param", "n_cells=100", "--param", "n_steps=50",
                "--param", "t_end=0.5", "--drift", "zero", "--end", "0.5",
                "--eps", "0.3", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out / "backward.csv")
        assert len(rows) == 51 * 100
        assert "g" in rows[0]
        # g is not a probability density, so it has no mass to drift
        assert "backward_max_mass_drift" not in read_manifest(out)["diagnostics"]


class TestSweepCommand:
    def test_two_point_sweep(self, tmp_path):
        out = tmp_path / "sw"
        args = ["sweep", "--eps-list", "0.20,0.25", "--param", "n_cells=400",
                "--param", "n_steps=1600", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["converged"] for r in rows] == ["true", "true"]
        assert float(rows[0]["t_jump"]) > float(rows[1]["t_jump"])

    def test_no_jump_rows_exit_3(self, tmp_path):
        out = tmp_path / "swz"
        args = ["sweep", *FAST_ZERO, "--eps-list", "0.5", "--out", str(out)]
        assert main(args) == 3
        rows = read_csv(out / "sweep.csv")
        assert rows[0]["converged"] == "false"
        assert rows[0]["t_jump"] == ""

    def test_empty_list_config_error(self, tmp_path):
        code = main(["sweep", "--eps-list", "", "--out", str(tmp_path / "swe")])
        assert code == 2


class TestMonteCarloCommand:
    def test_histogram_and_summary(self, tmp_path):
        out = tmp_path / "mc"
        args = ["mc", "--param", "n_paths=5000", "--param", "t_end=1",
                "--param", "n_steps=200", "--param", "n_cells=100",
                "--eps", "0.25", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["n_paths"] == 5000
        assert summary["seed"] == 3
        assert summary["dropped_fraction"] == 0.0
        assert "pcg64" in summary["rng"]
        rows = read_csv(out / "hist.csv")
        assert len(rows) == 100
        total = sum(float(r["density"]) for r in rows) * (3.5 / 100)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestFailureModes:
    def test_solver_failure_exit_4_with_manifest(self, tmp_path, monkeypatch):
        import thcbridge.cli as cli_mod
        from thcbridge.fpe import SolverError

        def boom(*args, **kwargs):
            raise SolverError("forced divergence")

        monkeypatch.setattr(cli_mod, "solve_forward", boom)
        out = tmp_path / "f4"
        code = main(["forward", "--param", "n_cells=100",
                     "--param", "n_steps=50", "--param", "t_end=0.5",
                     "--out", str(out)])
        assert code == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["message"] == "forced divergence"
        assert manifest["error"]["stage"] == "forward"
        assert "forward" in manifest["timings_seconds"]

    @pytest.mark.parametrize("key", ["epsilon", "jump_threshold", "y_min"])
    def test_null_required_key_exit_2_with_manifest(self, tmp_path, capsys, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: None}))
        out = tmp_path / "null"
        assert main(["bridge-path", "--config", str(path),
                     "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "config"
        assert repr(key) in manifest["error"]["message"]

    @pytest.mark.parametrize("args, key", [
        (["bridge-path", *FAST_ZERO, "--param", "jump_threshold=nan"],
         "jump_threshold"),
        (["equilibria", "--param", "f_bar=nan"], "f_bar"),
        (["equilibria", "--param", "f=1e300"], "f"),
        (["equilibria", "--param", "alpha=-1"], "alpha"),
        (["validate", "--checks", "mc-hitting", "--param", "f_bar=inf"],
         "f_bar"),
        (["sweep", "--eps-list", "0.2,nan"], "eps_list"),
        (["mc", "--param", "dt_sde=nan"], "dt_sde"),
        (["equilibria", "--param", "t_d_years=-1"], "t_d_years"),
        (["equilibria", "--param", "f=1e-7", "--param", "s0=-35"], "s0"),
    ], ids=["jump_threshold", "f_bar", "derived-f_bar", "alpha", "validate",
            "eps_list", "dt_sde", "t_d_years", "s0"])
    def test_bad_number_exit_2_with_manifest(self, tmp_path, capsys, args, key):
        out = tmp_path / "bad"
        assert main([*args, "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert repr(key) in manifest["error"]["message"]
        assert not (out / "jump.json").exists()

    @pytest.mark.parametrize("key", ["alpha", "t_r_days", "t0", "rho0", "q", "v"])
    def test_dead_model_key_is_unknown(self, tmp_path, capsys, key):
        out = tmp_path / "dead"
        assert main(["equilibria", "--param", f"{key}=1", "--out", str(out)]) == 2
        assert f"config key {key!r}: unknown" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "config"
        assert not (out / "equilibria.csv").exists()

    def test_boolean_seed_exit_2_with_manifest(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": True}))
        out = tmp_path / "bool"
        assert main(["mc", "--config", str(path), "--out", str(out)]) == 2
        assert "'seed'" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "config"

    def test_unwritable_out_dir_exit_2(self):
        assert main(["equilibria", "--out", "/dev/null/nope"]) == 2

    def test_grid_errors_inside_commands_exit_2(self, tmp_path):
        # mc duration not a multiple of dt_sde surfaces as a config error
        out = tmp_path / "g2"
        code = main(["mc", "--param", "n_paths=100", "--param", "t_end=0.0005",
                     "--param", "n_steps=1", "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "mc"


class TestValidateCommand:
    def test_checks_filter(self, tmp_path, capsys):
        out = tmp_path / "val"
        args = ["validate", "--checks", "mass", "--param", "n_cells=200",
                "--param", "n_steps=800", "--out", str(out)]
        assert main(args) == 0
        report = json.loads((out / "validation.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["mass"]
        assert report["all_passed"] is True
        assert "PASS mass" in capsys.readouterr().out

    def test_unknown_drift_is_config_error(self, tmp_path):
        assert main(["validate", "--checks", "heat-kernel", "--param",
                     "drift=pendulum", "--out", str(tmp_path / "vd")]) == 2

    def test_unknown_check_is_config_error(self, tmp_path):
        code = main(["validate", "--checks", "nonsense",
                     "--out", str(tmp_path / "vu")])
        assert code == 2

    def test_coarse_grid_fails_convergence(self, tmp_path, capsys):
        out = tmp_path / "vc"
        args = ["validate", "--checks", "grid-convergence",
                "--param", "n_cells=64", "--param", "y_min=-2",
                "--param", "y_max=3.5", "--out", str(out)]
        assert main(args) == 5
        report = json.loads((out / "validation.json").read_text())
        assert report["all_passed"] is False
        assert "FAIL grid-convergence" in capsys.readouterr().out
