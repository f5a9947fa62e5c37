"""Binary surface dumps: the bytes and sidecar of write_surface_binary, and
a peak far below one surface."""

import json

import numpy as np
import pytest

from thcbridge.fpe import SpatialGrid, TimeGrid, solve_backward, solve_forward
from thcbridge.model import CessiReduced
from thcbridge.output import stored_steps, write_surface_binary

from conftest import traced_peak

GRID = SpatialGrid(-1.0, 2.5, 400)
TIMES = TimeGrid(0.0, 10.0, 1000)


@pytest.fixture(scope="module")
def surfaces():
    # the backward surface is a reversed view of its march
    drift = CessiReduced(1.1, 6.2)
    return {"forward": solve_forward(drift, 0.25, GRID, TIMES, 0.2402),
            "backward": solve_backward(drift, 0.25, GRID, TIMES, 1.0687)}


@pytest.mark.parametrize("dump_every", [1, 7])
@pytest.mark.parametrize("kind", ["forward", "backward"])
def test_surface_binary(tmp_path, surfaces, kind, dump_every):
    surface = surfaces[kind]
    path, sidecar = tmp_path / f"{kind}.bin", tmp_path / f"{kind}.meta.json"
    _, peak = traced_peak(lambda: write_surface_binary(path, sidecar, surface,
                                                       dump_every))
    steps = stored_steps(TIMES.n_steps, dump_every)
    assert path.read_bytes() == \
        surface.values[steps].astype("<f8").tobytes()
    assert json.loads(sidecar.read_text()) == {
        "dtype": "<f8", "order": "C", "shape": [len(steps), GRID.n_cells],
        "kind": kind, "y_min": -1.0, "y_max": 2.5, "n_cells": 400,
        "t_start": 0.0, "t_end": 10.0, "n_steps": 1000,
        "dump_every": dump_every, "stored_steps": steps}
    assert peak < 0.25 * surface.values.nbytes
