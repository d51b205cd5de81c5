"""Weighted-sample statistics and oracle comparison metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel
from .engine import Population, run_starts

QUANTILE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w_i^2) of a normalized weight vector."""
    weights = np.asarray(weights, dtype=float)
    kernel.check_weight_sum(weights)
    return float(1.0 / np.sum(weights * weights))


def _runs_as_rows(thetas: np.ndarray, weights):
    """Each run of rows with the same bits, weight included, as one row with the summed weight."""
    if np.shape(weights) != thetas.shape[:1]:
        raise ValueError("weights must be 1-d and match the number of particles")
    starts = run_starts(np.column_stack((thetas, weights)))
    return thetas[starts], np.add.reduceat(weights, starts)


def weighted_quantiles(values: np.ndarray, weights: np.ndarray, levels) -> list[float]:
    """Left-continuous inverse of the weighted empirical CDF at each level in (0, 1).

    At level q it is the smallest sample value whose cumulative weight reaches
    q to within ``kernel.WEIGHT_SUM_TOL``, the precision the weights are held
    to. So a level that k of n equal weights, or a run's summed weight, meets
    exactly is met, though the float sum may fall short of it by rounding.
    Every level comes from one stable sort and one cumulative sum.
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
    idx = np.searchsorted(cum, levels - kernel.WEIGHT_SUM_TOL, side="left")
    return [float(v) for v in values[order[np.minimum(idx, values.size - 1)]]]


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
    """Analytic reference posterior: first two moments and a continuous, vectorized CDF."""

    mean: float
    var: float
    cdf: Callable[[np.ndarray], np.ndarray]


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

    The KS statistic is the exact supremum of |weighted ECDF - oracle CDF|. The
    ECDF steps only at the sample's values and the oracle CDF is continuous, so
    the supremum is reached at a value or in the limit just below it.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 2 and thetas.shape[1] != 1:
        raise ValueError("oracle comparison is defined for 1-d parameters")
    thetas, weights = _runs_as_rows(thetas.reshape(-1), weights)
    mean, var = kernel.weighted_moments(thetas, weights)
    mean_abs_err = abs(float(mean[0]) - oracle.mean)
    var_rel_err = abs(float(var[0]) - oracle.var) / oracle.var
    steps = weighted_ecdf(thetas, weights)(np.stack((thetas, np.nextafter(thetas, -np.inf))))
    ks = float(np.max(np.abs(steps - oracle.cdf(thetas))))
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
    thetas, weights = _runs_as_rows(pop.thetas, pop.weights)
    with np.errstate(over="ignore"):  # a spread wider than about 1e154 squares to inf
        mean, var = kernel.weighted_moments(thetas, weights)
    per_dim = [weighted_quantiles(thetas[:, k], weights, QUANTILE_LEVELS)
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
