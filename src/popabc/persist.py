"""Population CSV files and JSON run reports.

Floats are written with Python's shortest round-trip repr, so
write -> read -> write reproduces population files byte for byte.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .samplers import Population


def format_float(x: float) -> str:
    return repr(float(x))


def population_filename(t: int) -> str:
    return f"gen_{t:03d}.csv"


def write_population_csv(path, t: int, thetas: np.ndarray, weights: np.ndarray, dists: np.ndarray):
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    d = thetas.shape[1]
    header = (
        "t,particle_id,"
        + ",".join(f"theta_{k}" for k in range(d))
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

    columns = np.column_stack((thetas, weights, dists)).T.tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(zip(*(map(text, column) for column in columns))):
            fh.write(f"{int(t)},{i},{','.join(row)}\n")


def write_population(path, pop: Population):
    write_population_csv(path, pop.t, pop.thetas, pop.weights, pop.dists)


def read_population_csv(path):
    """Parse a population file back into (t, thetas, weights, dists)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    expected_prefix = ["t", "particle_id"]
    if header[:2] != expected_prefix or header[-2:] != ["weight", "distance"]:
        raise ValueError(f"unrecognized population header in {path}")
    d = len(header) - 4
    t = None
    thetas, weights, dists = [], [], []
    for line in lines[1:]:
        parts = line.split(",")
        row_t = int(parts[0])
        if t is None:
            t = row_t
        elif row_t != t:
            raise ValueError(f"mixed generation indices in {path}")
        thetas.append([float(v) for v in parts[2 : 2 + d]])
        weights.append(float(parts[2 + d]))
        dists.append(float(parts[3 + d]))
    return t, np.asarray(thetas), np.asarray(weights), np.asarray(dists)


def write_report(path, report: dict):
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())
