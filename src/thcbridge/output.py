"""Deterministic CSV/JSON artifact writers.

Floats are written with 17 significant digits so artifacts round-trip
losslessly and two runs with the same config and seed are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def stored_steps(n_steps: int, dump_every: int) -> list[int]:
    """Every ``dump_every``-th step from 0; the final step is always kept."""
    steps = list(range(0, n_steps + 1, dump_every))
    return steps if steps[-1] == n_steps else steps + [n_steps]


def write_long_csv(path: Path, header: list[str], times, nodes, rows) -> None:
    """Long-format ``t,y,value`` lines, one float slice ``rows[k]`` per
    ``times[k]``, written a slice at a time; same bytes as :func:`write_csv`.
    """
    # "t".join(["", ",y0,%.17g\n", ",y1,%.17g\n", ...]) starts each line with t
    line_tails = ["", *(f",{format_value(y)},%.17g\n" for y in nodes)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, values in zip(times, rows):
            fh.write(format_value(t).join(line_tails) % tuple(values.tolist()))


def write_surface_csv(path: Path, surface, dump_every: int = 1,
                      value_name: str = "p") -> None:
    steps = stored_steps(surface.times.n_steps, dump_every)
    write_long_csv(path, ["t", "y", value_name], surface.times.nodes[steps],
                   surface.grid.nodes, (surface.values[n] for n in steps))


def write_surface_binary(path: Path, sidecar: Path, surface,
                         dump_every: int = 1) -> None:
    """Row-major float64 dump, written a slice at a time so the surface is
    never copied, plus a JSON sidecar with the grid metadata."""
    steps = stored_steps(surface.times.n_steps, dump_every)
    with open(path, "wb") as fh:
        for n in steps:
            fh.write(np.ascontiguousarray(surface.values[n], dtype="<f8"))
    write_json(sidecar, {
        "dtype": "<f8",
        "order": "C",
        "shape": [len(steps), surface.grid.n_cells],
        "kind": surface.kind,
        "y_min": surface.grid.y_min,
        "y_max": surface.grid.y_max,
        "n_cells": surface.grid.n_cells,
        "t_start": surface.times.t_start,
        "t_end": surface.times.t_end,
        "n_steps": surface.times.n_steps,
        "dump_every": dump_every,
        "stored_steps": steps,
    })
