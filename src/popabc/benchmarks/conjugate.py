"""Normal-mean model with an exact Gaussian posterior.

The simulator reports the mean of m = 10 draws from N(theta, 1), compared
with the fixed observed mean 1.2 under a N(0, 10^2) prior. In the zero-
tolerance limit the posterior is Gaussian with precision 1/100 + m, which
makes this the cleanest convergence check in the suite.
"""
from __future__ import annotations

from statistics import NormalDist

import numpy as np

from ..diagnostics import PosteriorOracle
from ..models import IndependentNormalPrior, ModelSpec

PRIOR_SD = 10.0
N_OBS = 10
OBSERVED_MEAN = 1.2

POSTERIOR_PRECISION = 1.0 / PRIOR_SD**2 + N_OBS
POSTERIOR_VAR = 1.0 / POSTERIOR_PRECISION
POSTERIOR_MEAN = N_OBS * OBSERVED_MEAN / POSTERIOR_PRECISION


def simulate(theta: np.ndarray, rng: np.random.Generator) -> float:
    return float(rng.normal(float(theta[0]), 1.0, size=N_OBS).mean())


def model() -> ModelSpec:
    return ModelSpec(
        name="conjugate-normal",
        prior=IndependentNormalPrior([0.0], [PRIOR_SD]),
        simulator=simulate,
        observed=[OBSERVED_MEAN],
    )


def oracle() -> PosteriorOracle:
    posterior = NormalDist(POSTERIOR_MEAN, float(np.sqrt(POSTERIOR_VAR)))
    return PosteriorOracle(
        mean=POSTERIOR_MEAN,
        var=POSTERIOR_VAR,
        cdf=np.vectorize(posterior.cdf, otypes=[float]),
        ppf=posterior.inv_cdf,
    )
