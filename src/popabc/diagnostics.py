"""Weighted-sample statistics and oracle comparison metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel
from .samplers import Population

QUANTILE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w_i^2) of a normalized weight vector."""
    weights = np.asarray(weights, dtype=float)
    kernel.check_weight_sum(weights)
    return float(1.0 / np.sum(weights * weights))


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Left-continuous inverse of the weighted empirical CDF.

    Returns the smallest sample value whose cumulative weight reaches q.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or values.shape != weights.shape:
        raise ValueError("values and weights must be matching 1-d arrays")
    kernel.check_weight_sum(weights)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = min(int(np.searchsorted(cum, q, side="left")), values.size - 1)
    return float(values[order[idx]])


def weighted_ecdf(values: np.ndarray, weights: np.ndarray):
    """Right-continuous weighted empirical CDF as a vectorized callable."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    padded = np.concatenate(([0.0], np.cumsum(weights[order])))

    def cdf(x):
        idx = np.searchsorted(sorted_values, np.asarray(x, dtype=float), side="right")
        return padded[idx]

    return cdf


def ks_two_sample(x1, w1, x2, w2) -> float:
    """Largest gap between two weighted empirical CDFs."""
    f1 = weighted_ecdf(x1, w1)
    f2 = weighted_ecdf(x2, w2)
    points = np.concatenate([np.asarray(x1, float), np.asarray(x2, float)])
    gaps = np.abs(f1(points) - f2(points))
    # also probe just below each jump so neither side's left limit is missed
    below = np.nextafter(points, -np.inf)
    gaps_below = np.abs(f1(below) - f2(below))
    return float(max(gaps.max(), gaps_below.max()))


@dataclass(frozen=True)
class PosteriorOracle:
    """Analytic reference posterior: first two moments plus CDF and quantile maps."""

    mean: float
    var: float
    cdf: Callable[[np.ndarray], np.ndarray]
    ppf: Callable[[float], float]


@dataclass(frozen=True)
class OracleComparison:
    mean_abs_err: float
    var_rel_err: float
    ks_statistic: float


def compare_to_oracle(
    thetas: np.ndarray,
    weights: np.ndarray,
    oracle: PosteriorOracle,
    grid_size: int = 512,
) -> OracleComparison:
    """Weighted-sample error against an analytic posterior (1-d models).

    The KS statistic compares the weighted empirical CDF with the oracle CDF
    on a fixed grid spanning the oracle's central 99.8% range, which keeps
    the comparison deterministic and resolution-independent.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 2:
        if thetas.shape[1] != 1:
            raise ValueError("oracle comparison is defined for 1-d parameters")
        thetas = thetas[:, 0]
    weights = np.asarray(weights, dtype=float)
    kernel.check_weight_sum(weights)
    # moments computed directly so degenerate one-particle samples still compare
    mean = float(weights @ thetas)
    var = float(weights @ (thetas - mean) ** 2)
    mean_abs_err = abs(mean - oracle.mean)
    var_rel_err = abs(var - oracle.var) / oracle.var
    grid = np.linspace(oracle.ppf(0.001), oracle.ppf(0.999), grid_size)
    empirical = weighted_ecdf(thetas, weights)(grid)
    ks = float(np.max(np.abs(empirical - np.asarray(oracle.cdf(grid), dtype=float))))
    return OracleComparison(mean_abs_err, var_rel_err, ks)


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation diagnostics destined for the run report."""

    t: int
    epsilon: float
    ess: float
    acceptance_rate: float
    sims_used: int
    weighted_mean: list[float]
    weighted_var: list[float]
    quantiles: dict[str, list[float]]


def generation_stats(pop: Population) -> GenerationStats:
    """Summarize one population: ESS, acceptance, moments and quantiles."""
    mean, var = kernel.weighted_moments(pop.thetas, pop.weights)
    quantiles = {
        str(q): [
            weighted_quantile(pop.thetas[:, k], pop.weights, q)
            for k in range(pop.dim)
        ]
        for q in QUANTILE_LEVELS
    }
    return GenerationStats(
        t=pop.t,
        epsilon=pop.epsilon,
        ess=ess(pop.weights),
        acceptance_rate=pop.n / pop.sims_used,
        sims_used=pop.sims_used,
        weighted_mean=[float(v) for v in mean],
        weighted_var=[float(v) for v in var],
        quantiles=quantiles,
    )
