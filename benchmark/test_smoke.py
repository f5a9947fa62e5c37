"""Smoke test of the benchmark at tiny problem sizes.

Run from the repository root:

    python3 -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--seed", "7", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    report = proc.stdout
    if trace:
        assert "trace.overhead_s" in report and "unmeasured" in report
    else:
        assert "failed_ops_frac" in report


def _run_in_process(capsys, workload: str) -> dict:
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--tiny"]) == 0
    return _result(capsys.readouterr().out)


def test_forced_oracle_miss_is_counted_not_fatal(monkeypatch, capsys):
    monkeypatch.setitem(workloads.JUMP_ANCHORS, 0.20, 1.0)
    result = _run_in_process(capsys, "sweep")
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_raising_repetition_fails_all_its_operations(monkeypatch, capsys):
    import thcbridge.bridge

    def broken(*_args, **_kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(thcbridge.bridge, "sweep_noise", broken)
    result = _run_in_process(capsys, "sweep")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_same_seed_gives_bitwise_identical_histograms(tmp_path):
    import thcbridge

    ensemble = workloads.Ensemble(thcbridge, 7, True, tmp_path)
    ensemble.prepare()
    first, _ = ensemble.rep(ensemble.drift)
    second, _ = ensemble.rep(ensemble.drift)
    assert first[0].densities.tobytes() == second[0].densities.tobytes()
    assert all(v.ok for v in ensemble.check(first) + ensemble.check(second))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
