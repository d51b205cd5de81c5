"""Reference values computed apart from the program under test.

Nothing here imports ``popabc``. The model definitions (priors, simulators,
observations) are restated from their documentation so that the bench can
check the samplers' output against targets the program did not compute:

* the tolerance-smoothed posterior moments of the mixture toy and of the
  conjugate normal model, by adaptive quadrature;
* a vectorized coalescent microsatellite simulator, written afresh, used by
  ``make_coalescent_reference.py`` to tabulate acceptance probabilities on a
  theta grid.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

HERE = Path(__file__).resolve().parent

# mixture toy: x | theta ~ 0.5 N(theta, 1) + 0.5 N(theta, 0.1^2), x_obs = 0,
# prior uniform(-10, 10), distance |x - 0|
MIXTURE_SUPPORT = (-10.0, 10.0)
MIXTURE_SDS = (1.0, 0.1)

# conjugate normal: s = mean of 10 draws of N(theta, 1), s_obs = 1.2,
# prior N(0, 10^2), distance |s - 1.2|
CONJUGATE_PRIOR_SD = 10.0
CONJUGATE_N_OBS = 10
CONJUGATE_OBSERVED = 1.2

# coalescent microsatellite model: 30 genes, stepwise mutation at rate theta/2
# per unit branch length, prior uniform(0.1, 20)
COALESCENT_GENES = 30
COALESCENT_SUPPORT = (0.1, 20.0)


def _moments(unnorm, lo: float, hi: float, points=None) -> tuple[float, float]:
    kw = {"limit": 400}
    if points is not None:
        kw["points"] = points
    mass = quad(unnorm, lo, hi, **kw)[0]
    mean = quad(lambda x: x * unnorm(x), lo, hi, **kw)[0] / mass
    var = quad(lambda x: (x - mean) ** 2 * unnorm(x), lo, hi, **kw)[0] / mass
    return mean, var


def mixture_smoothed_moments(epsilon: float) -> tuple[float, float]:
    """Mean and variance of theta given |x| <= epsilon under the mixture toy."""

    def accept_prob(theta):
        return sum(
            0.5 * (norm.cdf((epsilon - theta) / sd) - norm.cdf((-epsilon - theta) / sd))
            for sd in MIXTURE_SDS
        )

    return _moments(accept_prob, *MIXTURE_SUPPORT, points=[-1.0, 0.0, 1.0])


def conjugate_smoothed_moments(epsilon: float) -> tuple[float, float]:
    """Mean and variance of theta given |s - 1.2| <= epsilon (conjugate model)."""
    sd_s = 1.0 / math.sqrt(CONJUGATE_N_OBS)

    def unnorm(theta):
        hi = (CONJUGATE_OBSERVED + epsilon - theta) / sd_s
        lo = (CONJUGATE_OBSERVED - epsilon - theta) / sd_s
        return norm.pdf(theta, scale=CONJUGATE_PRIOR_SD) * (norm.cdf(hi) - norm.cdf(lo))

    return _moments(unnorm, -8.0, 10.0, points=[0.0, 1.2, 2.0])


def prior_logpdf(kind: str, params: tuple[float, float], thetas: np.ndarray) -> np.ndarray:
    """Log prior density of 1-d parameters: ``uniform`` (low, high) or ``normal`` (mean, sd)."""
    thetas = np.asarray(thetas, dtype=float)
    a, b = params
    if kind == "uniform":
        inside = (thetas >= a) & (thetas <= b)
        return np.where(inside, -math.log(b - a), -np.inf)
    return norm.logpdf(thetas, loc=a, scale=b)


def simulate_coalescent_summaries(thetas: np.ndarray, rng: np.random.Generator,
                                  n: int = COALESCENT_GENES) -> np.ndarray:
    """Summaries (allele-size variance, distinct alleles, heterozygosity) per theta.

    One replicate per entry of ``thetas``, all simulated together: Kingman
    coalescent with rate k(k-1)/2 while k lineages remain, Poisson(theta/2 *
    length) mutations per branch, each a +-1 step with equal probability.
    """
    thetas = np.asarray(thetas, dtype=float)
    r = thetas.size
    rows = np.arange(r)
    total = 2 * n - 1
    parent = np.full((r, total), -1, dtype=np.int64)
    node_time = np.zeros((r, total))
    active = np.tile(np.arange(n), (r, 1))
    now = np.zeros(r)
    for k in range(n, 1, -1):
        now = now + rng.exponential(2.0 / (k * (k - 1)), size=r)
        a = rng.integers(k, size=r)
        b = rng.integers(k - 1, size=r)
        b = b + (b >= a)
        node = total - (k - 1)  # internal nodes numbered n, n+1, ... in merge order
        parent[rows, active[rows, a]] = node
        parent[rows, active[rows, b]] = node
        node_time[:, node] = now
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        active[rows, lo] = node
        # drop column hi by shifting the tail left
        keep = np.arange(k - 1)[None, :]
        src = keep + (keep >= hi[:, None])
        active = np.take_along_axis(active[:, :k], src, axis=1)
    child = np.arange(total - 1)
    length = node_time[rows[:, None], parent[:, :-1]] - node_time[:, :-1]
    mutations = rng.poisson(0.5 * thetas[:, None] * length)
    steps = 2 * rng.binomial(mutations, 0.5) - mutations
    alleles = np.zeros((r, total), dtype=np.int64)
    for v in child[::-1]:
        alleles[:, v] = alleles[rows, parent[:, v]] + steps[:, v]
    leaves = alleles[:, :n]
    same = leaves[:, :, None] == leaves[:, None, :]
    multiplicity = same.sum(axis=2)
    distinct = (1.0 / multiplicity).sum(axis=1)
    homozygosity = multiplicity.sum(axis=1) / float(n * n)
    return np.column_stack([leaves.var(axis=1), np.round(distinct), 1.0 - homozygosity])


def coalescent_data() -> dict:
    """The committed observation and summary scales (an input, not an output)."""
    path = HERE.parent / "src" / "popabc" / "benchmarks" / "data" / "coalescent_observed.json"
    return json.loads(path.read_text())


def load_coalescent_reference() -> dict:
    return json.loads((HERE / "coalescent_reference.json").read_text())
