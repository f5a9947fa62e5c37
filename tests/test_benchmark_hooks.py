"""The package names that the benchmark's tracer hooks still resolve.

``benchmark/tracing.py`` patches package functions and drift classes by
name, and the test suite never runs the benchmark's own smoke tests, so a
renamed or deleted hooked name would pass here and break ``--trace 1``.
The tracer module is loaded by path and read, not edited.
"""

import importlib.util
from pathlib import Path

import pytest

import thcbridge
import thcbridge.validate

TRACING_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    missing = [f"{layer}.{name}" for layer, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"thcbridge.{layer}"),
                                       name, None))]
    assert missing == []


def test_every_traced_drift_class_resolves(tracing):
    # the tracer swaps these names inside ``validate`` for proxy factories
    for name in tracing._DRIFT_CLASSES:
        assert getattr(thcbridge.validate, name) is getattr(thcbridge, name)
