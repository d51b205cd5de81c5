"""Population-based approximate Bayesian computation.

Likelihood-free samplers sharing one model contract: plain rejection, an
adaptive sequential sampler with mixture-proposal importance weights and
automatic Gaussian kernel scaling, the prior-ratio (PRC) baseline it
corrects, and likelihood-free MCMC — plus diagnostics, benchmark models
with analytic reference posteriors, and a deterministic parallel engine.
"""
from .diagnostics import (
    OracleComparison,
    PosteriorOracle,
    compare_to_oracle,
    ess,
    generation_stats,
    weighted_quantile,
)
from .engine import Population
from .errors import BudgetExhausted, ConfigError, DegeneratePopulation, RunFailed, Stalled
from .kernel import KernelScale, adapt_scale, perturb, weighted_moments
from .models import (
    IndependentNormalPrior,
    ModelSpec,
    UniformBoxPrior,
    distance,
)
from .samplers import (
    MCMCResult,
    ToleranceSchedule,
    abc_mcmc,
    abc_pmc,
    abc_prc,
    abc_rejection,
    pmc_log_weights,
    prc_log_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "ConfigError",
    "DegeneratePopulation",
    "IndependentNormalPrior",
    "KernelScale",
    "MCMCResult",
    "ModelSpec",
    "OracleComparison",
    "Population",
    "PosteriorOracle",
    "RunFailed",
    "Stalled",
    "ToleranceSchedule",
    "UniformBoxPrior",
    "abc_mcmc",
    "abc_pmc",
    "abc_prc",
    "abc_rejection",
    "adapt_scale",
    "compare_to_oracle",
    "distance",
    "ess",
    "generation_stats",
    "perturb",
    "pmc_log_weights",
    "prc_log_weights",
    "weighted_moments",
    "weighted_quantile",
]
