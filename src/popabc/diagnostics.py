"""Weighted-sample statistics and oracle comparison metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel
from .engine import Population

QUANTILE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)
ORACLE_GRID_SIZE = 512  # points of the KS grid in compare_to_oracle


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w_i^2) of a normalized weight vector."""
    weights = np.asarray(weights, dtype=float)
    kernel.check_weight_sum(weights)
    return float(1.0 / np.sum(weights * weights))


def weighted_quantiles(values: np.ndarray, weights: np.ndarray, levels) -> list[float]:
    """Left-continuous inverse of the weighted empirical CDF at each level in (0, 1).

    At level q it is the smallest sample value whose cumulative weight reaches
    q. Every level comes from one stable sort and one cumulative sum.
    """
    levels = np.asarray(levels, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"levels must lie in (0, 1), got {levels.tolist()}")
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or values.shape != weights.shape:
        raise ValueError("values and weights must be matching 1-d arrays")
    kernel.check_weight_sum(weights)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = np.minimum(np.searchsorted(cum, levels, side="left"), values.size - 1)
    return [float(v) for v in values[order[idx]]]


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
    mean, var = kernel.weighted_moments(thetas, weights)
    mean_abs_err = abs(float(mean[0]) - oracle.mean)
    var_rel_err = abs(float(var[0]) - oracle.var) / oracle.var
    grid = np.linspace(oracle.ppf(0.001), oracle.ppf(0.999), ORACLE_GRID_SIZE)
    empirical = weighted_ecdf(thetas, weights)(grid)
    ks = float(np.max(np.abs(empirical - np.asarray(oracle.cdf(grid), dtype=float))))
    return OracleComparison(mean_abs_err, var_rel_err, ks)


def generation_stats(pop: Population) -> dict:
    """The run report's block for one population.

    Keys: ``t``, ``epsilon``, ``ess``, ``acceptance_rate`` (accepted particles
    per simulator call), ``sims_used``, ``weighted_mean``, ``weighted_var``,
    ``quantiles`` (one list per level in QUANTILE_LEVELS, keyed by the level
    as a string) and ``scale``, the kernel that proposed the population: None
    at t=1, else its per-dimension variances ``{"tau2": [...]}``. A moment that
    is not a finite float64 is None, so the report stays strict JSON.
    """
    with np.errstate(over="ignore"):  # a spread wider than about 1e154 squares to inf
        mean, var = kernel.weighted_moments(pop.thetas, pop.weights)
    per_dim = [weighted_quantiles(pop.thetas[:, k], pop.weights, QUANTILE_LEVELS)
               for k in range(pop.dim)]
    quantiles = {str(q): [col[i] for col in per_dim] for i, q in enumerate(QUANTILE_LEVELS)}
    if pop.scale is None:
        scale = None
    else:
        scale = {"tau2": [float(v) for v in pop.scale.tau2]}
    return {
        "t": pop.t,
        "epsilon": pop.epsilon,
        "ess": ess(pop.weights),
        "acceptance_rate": pop.n / pop.sims_used,
        "sims_used": pop.sims_used,
        "weighted_mean": [float(v) if np.isfinite(v) else None for v in mean],
        "weighted_var": [float(v) if np.isfinite(v) else None for v in var],
        "quantiles": quantiles,
        "scale": scale,
    }
