"""Single-population coalescent with stepwise microsatellite mutation.

A sample of n genes coalesces with Exponential(k(k-1)/2) waiting times in
scaled units while k lineages remain. Mutations fall on each branch as
Poisson(theta/2 * length) and every mutation shifts the allele size by +-1
with equal probability. Three summaries describe the sample: allele-size
variance, number of distinct alleles and expected heterozygosity. The
bundled observation is synthetic (theta = 5, pinned seed) and distances are
Euclidean after standardizing each summary by its prior-predictive standard
deviation, both stored in a committed data file.

``simulate`` is the one simulator the package holds: one call per
simulation, made of a few array draws. The committed data file comes from
a scalar reference process that draws one number per choice,
``scripts/coalescent_reference.py``; it stays outside the package because
no run calls it, and the tests check ``simulate`` against it.
"""
from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from ..models import ModelSpec, UniformBoxPrior

N_GENES = 30
DATA_FILE = "coalescent_observed.json"


@lru_cache(maxsize=None)
def _merge_plan(n: int):
    """Waiting-time scales 2/(k(k-1)), then pick bounds k and k-1, for k = n..2."""
    k = np.arange(n, 1, -1)
    return 2.0 / (k * (k - 1.0)), np.concatenate((k, k - 1)).astype(float)


def simulate(theta: np.ndarray, rng: np.random.Generator, n: int = N_GENES) -> np.ndarray:
    """Summaries of one realization, drawn in a few array calls.

    Same law as the scalar reference process in
    ``scripts/coalescent_reference.py``, with other draws. All mutations
    come from one Poisson total over the tree length, placed uniformly along
    the branches, which is the same as one independent Poisson count per
    branch.
    """
    theta = float(theta[0])
    if not theta > 0:
        raise ValueError("theta must be positive")
    if n < 2:
        raise ValueError("need at least 2 genes")
    wait_scale, pick_bounds = _merge_plan(n)
    births = np.zeros(2 * n - 1)
    np.cumsum(rng.standard_exponential(n - 1) * wait_scale, out=births[n:])
    picks = (rng.random(2 * n - 2) * pick_bounds).astype(np.intp).tolist()
    # merge two distinct active lineages per step; the last one fills the vacated slot
    active = list(range(n))
    parent = [0] * (2 * n - 2)
    node = n
    for a, b in zip(picks[: n - 1], picks[n - 1:]):
        if b >= a:
            b += 1
        parent[active[a]] = node
        parent[active[b]] = node
        active[a] = node
        active[b] = active[-1]
        active.pop()
        node += 1
    length = births[parent] - births[:-1]
    # the tree laid out twice: a uniform point on the first copy is a +1 step,
    # on the second a -1 step, so one uniform draw gives the branch and the sign
    ends = np.cumsum(np.concatenate((length, length)))
    n_mut = rng.poisson(0.5 * theta * ends[2 * n - 3])
    if n_mut == 0:
        return np.array([0.0, 1.0, 0.0])
    hits = np.bincount(np.searchsorted(ends, rng.random(n_mut) * ends[-1]), minlength=4 * n - 4)
    steps = (hits[: 2 * n - 2] - hits[2 * n - 2:]).tolist()
    allele = [0] * (2 * n - 1)
    for v in range(2 * n - 3, -1, -1):
        allele[v] = allele[parent[v]] + steps[v]
    leaves = allele[:n]
    total = sum(leaves)
    counts: dict[int, int] = {}
    for x in leaves:
        counts[x] = counts.get(x, 0) + 1
    nn = n * n
    variance = (n * sum(x * x for x in leaves) - total * total) / nn
    homozygosity = sum(c * c for c in counts.values()) / nn
    return np.array([variance, float(len(counts)), 1.0 - homozygosity])


def load_data_bundle() -> dict:
    text = resources.files(__package__).joinpath("data").joinpath(DATA_FILE).read_text()
    return json.loads(text)


def model() -> ModelSpec:
    bundle = load_data_bundle()
    return ModelSpec(
        name="coalescent-msat",
        prior=UniformBoxPrior([bundle["prior"][0]], [bundle["prior"][1]]),
        simulator=simulate,
        observed=bundle["observed"],
        summary_scale=bundle["summary_sd"],
    )
