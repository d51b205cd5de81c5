"""Population CSV files and JSON run reports.

Floats are written with the shortest round-trip ``repr`` of a Python float, so
write -> read -> write reproduces population files byte for byte; the test
``test_write_read_round_trip`` in ``tests/test_persist.py`` checks it.
"""
from __future__ import annotations

import json
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .engine import Population, run_starts

# rows joined into each write of a population file
ROWS_PER_WRITE = 4096


def population_filename(t: int) -> str:
    return f"gen_{t:03d}.csv"


def remove_populations(out_dir: Path):
    """Delete the population files an earlier run left in ``out_dir``, and nothing else."""
    for path in out_dir.glob("gen_*.csv"):
        path.unlink()


def write_population(path, pop: Population):
    """One CSV row per particle. Each run of rows with the same bits (a chain's repeated
    state; 0.0 and -0.0 differ) is formatted once, and the rows are written in blocks."""
    header = (
        "t,particle_id,"
        + ",".join(f"theta_{k}" for k in range(pop.dim))
        + ",weight,distance"
    )
    table = np.column_stack((pop.thetas, pop.weights, pop.dists))
    starts = run_starts(table)
    texts = list(map(",".join, map(map, repeat(repr), table[starts].tolist())))
    # each row's text ends with the next row's "t,": the last row is written on its own
    lengths = np.diff(starts, append=pop.n - 1).tolist()
    rows = chain.from_iterable(map(repeat, map(f",{{}}\n{pop.t},".format, texts), lengths))
    pieces = chain.from_iterable(zip(map(str, range(pop.n)), rows))
    with open(path, "w") as fh:
        fh.write(f"{header}\n{pop.t},")
        while block := "".join(islice(pieces, 2 * ROWS_PER_WRITE)):
            fh.write(block)
        fh.write(f"{pop.n - 1},{texts[-1]}\n")


def write_report(path, report: dict):
    Path(path).write_text(json.dumps(report, indent=2) + "\n")

