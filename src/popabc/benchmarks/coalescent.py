"""Single-population coalescent with stepwise microsatellite mutation.

A sample of n genes coalesces with Exponential(k(k-1)/2) waiting times in
scaled units while k lineages remain. Mutations fall on each branch as
Poisson(theta/2 * length) and every mutation shifts the allele size by +-1
with equal probability. Three summaries describe the sample: allele-size
variance, number of distinct alleles and expected heterozygosity. The
bundled observation is synthetic (theta = 5, pinned seed) and distances are
Euclidean after standardizing each summary by its prior-predictive standard
deviation, both stored in a committed data file.

The process is written twice, drawing the same law in different ways:

* the reference path, ``sample_tree``, ``simulate_alleles`` and
  ``summaries``, draws one scalar per choice. The committed data file is
  regenerated from it draw for draw, so its draws must never change, and it
  is the process the calibration tests check.
* the sampler path, ``simulate``, is what the model hands the samplers: one
  call per simulation, made of a few array draws. The tests check its
  summaries against the reference path.
"""
from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from ..models import ModelSpec, UniformBoxPrior

N_GENES = 30
PRIOR_LOW = 0.1
PRIOR_HIGH = 20.0
THETA_TRUE = 5.0
OBSERVED_SEED = 202301
PREDICTIVE_SEED = 52901
N_PREDICTIVE = 10_000

DATA_FILE = "coalescent_observed.json"


def sample_tree(n: int, rng: np.random.Generator):
    """One coalescent genealogy for n genes.

    Returns (parent, branch_length) over 2n-1 nodes: leaves 0..n-1, internal
    nodes in coalescence order, root last with parent -1 and length 0.
    """
    if n < 2:
        raise ValueError("need at least 2 genes")
    total = 2 * n - 1
    parent = np.full(total, -1, dtype=np.int64)
    node_time = np.zeros(total)
    active = list(range(n))
    time = 0.0
    nxt = n
    for k in range(n, 1, -1):
        time += rng.exponential(2.0 / (k * (k - 1)))
        a = int(rng.integers(k))
        b = int(rng.integers(k - 1))
        if b >= a:
            b += 1
        left, right = active[a], active[b]
        parent[left] = nxt
        parent[right] = nxt
        node_time[nxt] = time
        # replace the two children with the new node, keeping list order stable
        lo, hi = (a, b) if a < b else (b, a)
        active[lo] = nxt
        active.pop(hi)
        nxt += 1
    branch_length = np.zeros(total)
    has_parent = parent >= 0
    branch_length[has_parent] = node_time[parent[has_parent]] - node_time[has_parent]
    return parent, branch_length


def simulate_alleles(theta: float, n: int, rng: np.random.Generator):
    """Allele sizes for one realization, plus the total mutation count."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    parent, branch_length = sample_tree(n, rng)
    total = parent.size
    mutations = rng.poisson(0.5 * theta * branch_length[: total - 1])
    ups = rng.binomial(mutations, 0.5)
    steps = np.zeros(total, dtype=np.int64)
    steps[: total - 1] = 2 * ups - mutations
    alleles = np.zeros(total, dtype=np.int64)
    # parents always carry higher indices, so a reverse sweep fills children
    for v in range(total - 2, -1, -1):
        alleles[v] = alleles[parent[v]] + steps[v]
    return alleles[:n], int(mutations.sum())


def summaries(alleles: np.ndarray) -> np.ndarray:
    """(allele-size variance, distinct allele count, expected heterozygosity)."""
    alleles = np.asarray(alleles)
    n = alleles.size
    _, counts = np.unique(alleles, return_counts=True)
    freqs = counts / n
    heterozygosity = 1.0 - float(np.sum(freqs * freqs))
    return np.array([float(np.var(alleles)), float(counts.size), heterozygosity])


@lru_cache(maxsize=None)
def _merge_plan(n: int):
    """Waiting-time scales 2/(k(k-1)), then pick bounds k and k-1, for k = n..2."""
    k = np.arange(n, 1, -1)
    return 2.0 / (k * (k - 1.0)), np.concatenate((k, k - 1)).astype(float)


def simulate(theta: np.ndarray, rng: np.random.Generator, n: int = N_GENES) -> np.ndarray:
    """Summaries of one realization, drawn in a few array calls.

    Same law as ``summaries(simulate_alleles(theta[0], n, rng)[0])``, with
    other draws. All mutations come from one Poisson total over the tree
    length, placed uniformly along the branches, which is the same as one
    independent Poisson count per branch.
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


def generate_data_bundle(
    n_genes: int = N_GENES,
    theta_true: float = THETA_TRUE,
    observed_seed: int = OBSERVED_SEED,
    predictive_seed: int = PREDICTIVE_SEED,
    n_predictive: int = N_PREDICTIVE,
) -> dict:
    """Synthetic observation plus prior-predictive standardization constants.

    Regenerating with the pinned seeds reproduces the committed data file
    exactly; runs then share one fixed distance metric.
    """
    rng = np.random.default_rng(observed_seed)
    alleles, _ = simulate_alleles(theta_true, n_genes, rng)
    observed = summaries(alleles)
    prior = UniformBoxPrior([PRIOR_LOW], [PRIOR_HIGH])
    rng_pred = np.random.default_rng(predictive_seed)
    sums = np.empty((n_predictive, 3))
    for i in range(n_predictive):
        theta = prior.sample(rng_pred)
        sims_alleles, _ = simulate_alleles(float(theta[0]), n_genes, rng_pred)
        sums[i] = summaries(sims_alleles)
    summary_sd = sums.std(axis=0)
    return {
        "n_genes": n_genes,
        "theta_true": theta_true,
        "observed_seed": observed_seed,
        "predictive_seed": predictive_seed,
        "n_predictive": n_predictive,
        "prior": [PRIOR_LOW, PRIOR_HIGH],
        "observed": [float(v) for v in observed],
        "summary_sd": [float(v) for v in summary_sd],
    }


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
