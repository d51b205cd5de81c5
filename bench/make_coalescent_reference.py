#!/usr/bin/env python3
"""Regenerate ``coalescent_reference.json``: the coalescent model's ABC posterior at the final tolerance.

For each point of a midpoint grid over the uniform(0.1, 20) prior, the bench's
own simulator (``reference.simulate_coalescent_summaries``, independent of
``popabc``) estimates P(distance <= epsilon | theta). Under a flat prior the
tolerance-smoothed posterior is proportional to that acceptance probability,
so its mean and variance follow from the grid. Standard errors come from the
binomial error of each acceptance estimate, by the delta method.

Run from the repository root (a few minutes on two cores):

    python3 bench/make_coalescent_reference.py
"""
from __future__ import annotations

import argparse
import json
import math

import numpy as np

import reference

SEED = 20_080_524
EPSILON = 0.6
GRID_POINTS = 200
SIMS_PER_POINT = 20_000
BATCH = 5_000


def build(seed: int = SEED, epsilon: float = EPSILON, grid_points: int = GRID_POINTS,
          sims_per_point: int = SIMS_PER_POINT) -> dict:
    data = reference.coalescent_data()
    observed = np.asarray(data["observed"], dtype=float)
    scale = np.asarray(data["summary_sd"], dtype=float)
    lo, hi = reference.COALESCENT_SUPPORT
    width = (hi - lo) / grid_points
    grid = lo + width * (np.arange(grid_points) + 0.5)
    rng = np.random.default_rng(seed)
    accepted = np.zeros(grid_points, dtype=np.int64)
    for g, theta in enumerate(grid):
        for start in range(0, sims_per_point, BATCH):
            m = min(BATCH, sims_per_point - start)
            sims = reference.simulate_coalescent_summaries(np.full(m, theta), rng)
            dist = np.sqrt((((sims - observed) / scale) ** 2).sum(axis=1))
            accepted[g] += int(np.count_nonzero(dist <= epsilon))
    p = accepted / sims_per_point
    mass = p.sum()
    mean = float(grid @ p / mass)
    var = float(((grid - mean) ** 2) @ p / mass)
    p_var = p * (1.0 - p) / sims_per_point
    mean_se = math.sqrt(float(((grid - mean) ** 2) @ p_var)) / mass
    var_se = math.sqrt(float((((grid - mean) ** 2 - var) ** 2) @ p_var)) / mass
    return {
        "epsilon": epsilon,
        "seed": seed,
        "grid_points": grid_points,
        "sims_per_point": sims_per_point,
        "posterior_mean": mean,
        "posterior_mean_se": mean_se,
        "posterior_var": var,
        "posterior_var_se": var_se,
        "grid": [float(v) for v in grid],
        "accepted": [int(v) for v in accepted],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(reference.HERE / "coalescent_reference.json"))
    args = parser.parse_args()
    result = build()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"posterior mean {result['posterior_mean']:.4f} +- {result['posterior_mean_se']:.4f}, "
          f"variance {result['posterior_var']:.4f} +- {result['posterior_var_se']:.4f}")


if __name__ == "__main__":
    main()
