"""Generative model contract: priors, simulators and summary-space distances.

A model is a prior over parameters, a stochastic simulator mapping a
parameter vector to a vector of summary statistics, and the observed
summaries to compare against. Samplers only ever see the distance between
simulated and observed summaries, never raw data.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

Simulator = Callable[[np.ndarray, np.random.Generator], Union[np.ndarray, float]]

LOG_2PI = float(np.log(2.0 * np.pi))

_FLOAT64 = np.dtype(float)


@dataclass(frozen=True)
class UniformBoxPrior:
    """Independent uniform prior on an axis-aligned box.

    Parameters
    ----------
    lows, highs : array_like, shape (d,)
        Per-dimension bounds, ``lows[k] < highs[k]``.
    """

    lows: np.ndarray
    highs: np.ndarray
    _log_volume: float = field(init=False, repr=False, compare=False)
    _bounds: tuple = field(init=False, repr=False, compare=False)  # lows, highs as floats

    def __post_init__(self):
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        highs = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lows.ndim != 1 or lows.shape != highs.shape:
            raise ValueError("lows and highs must be 1-d arrays of equal length")
        if not np.all(np.isfinite(lows)) or not np.all(np.isfinite(highs)):
            raise ValueError("prior bounds must be finite")
        if not np.all(lows < highs):
            raise ValueError("each dimension needs low < high")
        with np.errstate(over="ignore"):  # finite bounds can lie further apart than any float
            log_volume = float(np.sum(np.log(highs - lows)))
        if not math.isfinite(log_volume):
            raise ValueError("prior box is too wide: its width or log-volume is not finite")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        object.__setattr__(self, "_log_volume", log_volume)
        object.__setattr__(self, "_bounds", (lows.tolist(), highs.tolist()))

    @property
    def dim(self) -> int:
        return self.lows.size

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        # one scalar draw per dimension: the same draws as rng.uniform(lows, highs)
        return np.array([rng.uniform(low, high) for low, high in zip(*self._bounds)])

    def logpdf_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = _check_thetas(thetas, self.dim)
        inside = np.all((thetas >= self.lows) & (thetas <= self.highs), axis=1)
        return np.where(inside, -self._log_volume, -np.inf)

    def in_support(self, theta) -> bool:
        lows, highs = self._bounds
        values = _check_theta(theta, len(lows))
        return all(map(operator.le, lows, values)) and all(map(operator.le, values, highs))


@dataclass(frozen=True)
class IndependentNormalPrior:
    """Independent Gaussian prior, one (mean, sd) pair per dimension."""

    means: np.ndarray
    sds: np.ndarray
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        means = np.atleast_1d(np.asarray(self.means, dtype=float))
        sds = np.atleast_1d(np.asarray(self.sds, dtype=float))
        if means.ndim != 1 or means.shape != sds.shape:
            raise ValueError("means and sds must be 1-d arrays of equal length")
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(sds)):
            raise ValueError("prior means and sds must be finite")
        if not np.all(sds > 0):
            raise ValueError("all sds must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)
        object.__setattr__(
            self, "_log_norm", float(-0.5 * np.sum(LOG_2PI + 2.0 * np.log(sds)))
        )

    @property
    def dim(self) -> int:
        return self.means.size

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.means, self.sds)

    def logpdf_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = _check_thetas(thetas, self.dim)
        z = (thetas - self.means) / self.sds
        return self._log_norm - 0.5 * np.sum(z * z, axis=1)

    def in_support(self, theta) -> bool:
        """A Gaussian's support is all of R^d: every finite vector of the right length."""
        return all(map(math.isfinite, _check_theta(theta, self.dim)))


PriorSpec = Union[UniformBoxPrior, IndependentNormalPrior]


def _check_theta(theta, dim: int) -> list:
    """``theta`` as ``dim`` Python floats; a float64 vector of that shape is read with no copy."""
    if type(theta) is not np.ndarray or theta.dtype is not _FLOAT64 or theta.shape != (dim,):
        theta = np.array(theta, dtype=float, ndmin=1)
        if theta.shape != (dim,):
            raise ValueError(f"parameter vector has shape {theta.shape}, expected ({dim},)")
    return theta.tolist()


def _check_thetas(thetas, dim: int) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    if thetas.ndim != 2 or thetas.shape[1] != dim:
        raise ValueError(f"parameter array has shape {thetas.shape}, expected (n, {dim})")
    return thetas


@dataclass(frozen=True)
class ModelSpec:
    """Bundle of prior, simulator and observed summaries for one problem.

    The simulator maps ``(theta, rng) -> summaries`` and must return a vector of the
    same length as ``observed`` on every call; with one summary a Python ``float`` is the
    fast path. The optional ``summary_scale`` divides each summary coordinate inside the distance.
    """

    name: str
    prior: PriorSpec
    simulator: Simulator
    observed: np.ndarray
    summary_scale: np.ndarray | None = None
    _one_summary: tuple | None = field(init=False, repr=False, compare=False)  # observed, scale

    def __post_init__(self):
        observed = np.atleast_1d(np.asarray(self.observed, dtype=float))
        if observed.ndim != 1 or observed.size == 0:
            raise ValueError(f"observed must be a non-empty 1-d vector of summaries, got shape "
                             f"{observed.shape}")
        if not np.all(np.isfinite(observed)):
            raise ValueError("observed summaries must be finite")
        object.__setattr__(self, "observed", observed)
        if self.summary_scale is not None:
            scale = np.atleast_1d(np.asarray(self.summary_scale, dtype=float))
            if scale.shape != observed.shape:
                raise ValueError("summary_scale must match observed length")
            if not np.all((scale > 0) & np.isfinite(scale)):
                raise ValueError("summary_scale entries must be finite and positive")
            object.__setattr__(self, "summary_scale", scale)
        one_summary = None
        if observed.size == 1:  # as Python floats; an unset scale divides by 1.0, exactly
            scale = 1.0 if self.summary_scale is None else self.summary_scale.item()
            one_summary = (observed.item(), scale)
        object.__setattr__(self, "_one_summary", one_summary)

    @property
    def dim(self) -> int:
        return self.prior.dim

    def simulate_distance(self, theta: np.ndarray, rng: np.random.Generator) -> float:
        """Run the simulator once and return the distance to the observed summaries.

        One summary's distance is ``sqrt(x * x)`` on Python floats, which equals the
        one-term dot product bit for bit; more summaries are summed by NumPy's dot.
        """
        summaries = self.simulator(theta, rng)
        one_summary = self._one_summary
        if type(summaries) is not float or one_summary is None:
            if type(summaries) is not np.ndarray or summaries.dtype is not _FLOAT64:
                summaries = np.asarray(summaries, dtype=float)
            if summaries.ndim == 0:
                summaries = summaries.reshape(1)
            if summaries.shape != self.observed.shape:
                raise ValueError(f"simulator returned summaries of shape {summaries.shape}, "
                                 f"expected {self.observed.shape}")
            if one_summary is not None:
                summaries = summaries.item()
        if one_summary is not None:
            x = (summaries - one_summary[0]) / one_summary[1]
            dist = math.sqrt(x * x)
        else:
            diff = summaries - self.observed
            if self.summary_scale is not None:
                diff = diff / self.summary_scale
            dist = math.sqrt(np.vdot(diff, diff))  # unlike ndarray.dot, no overflow warning
        if not math.isfinite(dist):
            raise ValueError(
                f"simulator returned summaries {np.atleast_1d(summaries).tolist()} at theta "
                f"{np.asarray(theta).tolist()}, whose distance is {dist}"
            )
        return dist
