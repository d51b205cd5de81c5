"""Scalar reference process for the coalescent microsatellite model.

The same law as ``popabc.benchmarks.coalescent.simulate``, written to draw
one scalar per choice: ``sample_tree`` builds the genealogy,
``simulate_alleles`` drops mutations on it and ``summaries`` reduces the
sample. No run calls it, so it lives outside the package. It serves two
readers:

* ``make_coalescent_data.py`` regenerates the committed data file from it
  draw for draw, so its draws must never change.
* the tests check the calibration of this process, and check the package's
  ``simulate`` against it.
"""
from __future__ import annotations

import numpy as np

from popabc.benchmarks.coalescent import N_GENES
from popabc.models import UniformBoxPrior

PRIOR_LOW = 0.1
PRIOR_HIGH = 20.0
THETA_TRUE = 5.0
OBSERVED_SEED = 202301
PREDICTIVE_SEED = 52901
N_PREDICTIVE = 10_000


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
