"""Gaussian perturbation kernel with population-driven scale adaptation.

The kernel variance is set to twice the weighted empirical variance of the
current weighted population, componentwise. Perturbation and density
evaluation share one KernelScale so the proposal and the importance-weight
denominator always agree.

That denominator, ``log_mixture_density``, is exact and O(N^2). Points and
centres are centred on the centres' weighted mean (so no digits are lost far
from the origin) and whitened; each quadratic form ``|a|^2 - 2 a.b + |b|^2``
is one GEMM per row block of ``BUDGET`` float64 entries, and each row is
shifted by its max before ``exp``, so the sum cannot underflow to 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePopulation
from .models import LOG_2PI

# weighted variances below this are treated as particle collapse
VARIANCE_FLOOR = 1e-12

WEIGHT_SUM_TOL = 1e-9

BUDGET = 1 << 20  # float64 entries in the one (rows, N) block of log_mixture_density


@dataclass(frozen=True)
class KernelScale:
    """Per-dimension perturbation variance ``tau2``.

    The kernel's covariance is ``diag(tau2)``; its per-dimension standard
    deviations ``sd`` are precomputed so perturbation and density evaluation
    share them.
    """

    tau2: np.ndarray
    sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau2 = np.atleast_1d(np.asarray(self.tau2, dtype=float))
        if tau2.ndim != 1 or not np.all((tau2 > 0) & np.isfinite(tau2)):
            raise ValueError("tau2 must be a 1-d array of finite positive variances")
        object.__setattr__(self, "tau2", tau2)
        object.__setattr__(self, "sd", np.sqrt(tau2))

    @property
    def dim(self) -> int:
        return self.sd.size


def check_weight_sum(weights: np.ndarray) -> float:
    """Sum of a weight vector, which must be 1 to within ``WEIGHT_SUM_TOL``."""
    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1, got {total}")
    return total


def weighted_moments(thetas: np.ndarray, weights: np.ndarray):
    """Weighted mean and per-dimension variance of a normalized population.

    Plain normalized-weight estimators: ``mean_k = sum_i w_i theta_ik`` and
    ``var_k = sum_i w_i (theta_ik - mean_k)^2``, no small-sample correction.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size != thetas.shape[0]:
        raise ValueError("weights must be 1-d and match the number of particles")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    weights = weights / check_weight_sum(weights)
    mean = weights @ thetas
    centered = thetas - mean
    var = weights @ (centered * centered)
    return mean, var


def adapt_scale(thetas: np.ndarray, weights: np.ndarray) -> KernelScale:
    """Kernel scale for the next generation: twice the weighted variance.

    Raises DegeneratePopulation when any dimension's weighted variance falls
    below the floor, which signals particle collapse rather than a usable
    spread estimate, or when twice it is not a finite float.
    """
    with np.errstate(over="ignore"):  # a spread wider than about 1e154 squares to inf
        _, var = weighted_moments(thetas, weights)
        tau2 = 2.0 * var
    if not np.all((var >= VARIANCE_FLOOR) & np.isfinite(tau2)):
        raise DegeneratePopulation(f"weighted variance below {VARIANCE_FLOOR}, or too large for "
                                   "a finite kernel, in at least one dimension")
    return KernelScale(tau2=tau2)


def perturb(
    theta_star: np.ndarray,
    scale: KernelScale,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Gaussian move centered on theta_star with the given scale.

    ``size=None`` returns one vector; an integer returns a ``(size, d)`` block
    drawn from the same stream.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    sd = scale.sd
    if theta_star.shape != sd.shape:
        raise ValueError(f"theta_star has shape {theta_star.shape}, expected ({sd.size},)")
    noise = rng.standard_normal(sd.shape if size is None else (size, sd.size))
    return theta_star + noise * sd


def log_mixture_density(
    points: np.ndarray, centers: np.ndarray, weights: np.ndarray, scale: KernelScale
) -> np.ndarray:
    """``log sum_j w_j N(points[i]; centers[j], K)`` for each point; see the module docstring."""
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    centers = np.asarray(centers, dtype=float).reshape(len(centers), -1)
    weights = np.asarray(weights, dtype=float)
    if points.shape[1] != scale.dim or centers.shape[1] != scale.dim:
        raise ValueError("point/center dimensions do not match the kernel scale")
    shift = weights @ centers / weights.sum()
    # times the reciprocal, not divided by sd: this keeps the bundled configs' CSVs
    # byte-identical to those of the earlier triangular-solve whitening
    inv_sd = 1.0 / scale.sd
    a = (points - shift) * inv_sd
    b = ((centers - shift) * inv_sd).T
    with np.errstate(divide="ignore"):
        col = np.log(weights) - 0.5 * np.einsum("ij,ij->j", b, b)
    out = np.empty(len(points))
    rows = max(1, BUDGET // len(centers))
    for lo in range(0, len(points), rows):
        blk = a[lo:lo + rows] @ b
        blk += col
        top = blk.max(axis=1, keepdims=True)
        blk -= top
        np.exp(blk, out=blk)
        out[lo:lo + rows] = np.log(blk.sum(axis=1)) + top[:, 0]
        del blk  # freed before the next block is allocated: one (rows, N) array at a time
    log_norm = -0.5 * (scale.dim * LOG_2PI + 2.0 * float(np.sum(np.log(scale.sd))))
    return out - 0.5 * np.einsum("ij,ij->i", a, a) + log_norm
