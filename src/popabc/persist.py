"""Population CSV files and JSON run reports.

Floats are written with Python's shortest round-trip repr, so
write -> read -> write reproduces population files byte for byte; the test
``test_write_read_round_trip`` in ``tests/test_persist.py`` checks it.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .engine import Population


def format_float(x: float) -> str:
    return repr(float(x))


def population_filename(t: int) -> str:
    return f"gen_{t:03d}.csv"


def write_population(path, pop: Population):
    header = (
        "t,particle_id,"
        + ",".join(f"theta_{k}" for k in range(pop.dim))
        + ",weight,distance"
    )
    # chains repeat states, so each distinct value is formatted once; zeros
    # are not cached because 0.0 == -0.0 while their reprs differ
    texts: dict[float, str] = {}

    def text(x: float) -> str:
        s = texts.get(x)
        if s is None:
            s = format_float(x)
            if x:
                texts[x] = s
        return s

    columns = np.column_stack((pop.thetas, pop.weights, pop.dists)).T.tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(zip(*(map(text, column) for column in columns))):
            fh.write(f"{pop.t},{i},{','.join(row)}\n")


def write_report(path, report: dict):
    Path(path).write_text(json.dumps(report, indent=2) + "\n")

