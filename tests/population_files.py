"""Readers for the files a run writes. The package only writes them; the tests read them back."""
import json
from pathlib import Path

import numpy as np


def read_population_csv(path):
    """Parse a population file back into (t, thetas, weights, dists)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    if header[:2] != ["t", "particle_id"] or header[-2:] != ["weight", "distance"]:
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


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())
