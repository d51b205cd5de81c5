"""1-d Gaussian location mixture with a closed-form reference posterior.

The simulator emits one draw from an equal mixture of N(theta, 1) and
N(theta, 0.01); the observation is x = 0 and the distance is |x|. Under the
uniform(-10, 10) prior the exact posterior is the equal mixture of N(0, 1)
and N(0, 0.01) truncated to the support, so density, CDF and moments are
available in closed form. The sharp narrow component makes any weighting
error in a sequential sampler show up directly in the posterior variance.
"""
from __future__ import annotations

import math

import numpy as np

from ..diagnostics import PosteriorOracle
from ..models import ModelSpec, UniformBoxPrior

SUPPORT = (-10.0, 10.0)
WIDE_SD = 1.0
NARROW_SD = 0.1
OBSERVED = 0.0

_erfc = np.vectorize(math.erfc, otypes=[float])


def _phi(x):
    """Standard normal CDF, elementwise."""
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


# truncation masses of the two posterior components on the support
_Z_WIDE = float(_phi(SUPPORT[1] / WIDE_SD) - _phi(SUPPORT[0] / WIDE_SD))
_Z_NARROW = float(_phi(SUPPORT[1] / NARROW_SD) - _phi(SUPPORT[0] / NARROW_SD))


def simulate(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    sd = WIDE_SD if rng.random() < 0.5 else NARROW_SD
    # the draw of rng.normal(theta, sd), without the cost of its argument handling
    return np.array([float(theta[0]) + sd * rng.standard_normal()])


def model() -> ModelSpec:
    return ModelSpec(
        name="mixture-toy",
        prior=UniformBoxPrior([SUPPORT[0]], [SUPPORT[1]]),
        simulator=simulate,
        observed=[OBSERVED],
    )


def posterior_cdf(theta):
    """Exact posterior CDF, clamped to [0, 1] at the support edges."""
    theta = np.asarray(theta, dtype=float)
    clipped = np.clip(theta, SUPPORT[0], SUPPORT[1])
    wide = (_phi(clipped / WIDE_SD) - _phi(SUPPORT[0] / WIDE_SD)) / _Z_WIDE
    narrow = (_phi(clipped / NARROW_SD) - _phi(SUPPORT[0] / NARROW_SD)) / _Z_NARROW
    return 0.5 * (wide + narrow)


def posterior_moments() -> tuple[float, float]:
    """Exact posterior mean and variance (truncation correction included)."""
    var = 0.5 * (
        _truncated_centered_variance(WIDE_SD) + _truncated_centered_variance(NARROW_SD)
    )
    return 0.0, var


def _truncated_centered_variance(sd: float) -> float:
    a = SUPPORT[1] / sd
    z = float(_phi(a) - _phi(-a))
    pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return sd * sd * (1.0 - 2.0 * a * pdf / z)


def posterior_ppf(q: float) -> float:
    """Smallest x with posterior_cdf(x) >= q, by bisection down to adjacent floats."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    lo, hi = SUPPORT  # posterior_cdf(lo) < q <= posterior_cdf(hi) throughout
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if posterior_cdf(mid) < q:
            lo = mid
        else:
            hi = mid


def oracle() -> PosteriorOracle:
    mean, var = posterior_moments()
    return PosteriorOracle(mean=mean, var=var, cdf=posterior_cdf, ppf=posterior_ppf)

