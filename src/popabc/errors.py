"""Exceptions shared across the sampler stack."""


class BudgetExhausted(RuntimeError):
    """Raised when a generation stops short of n acceptances: out of budget, or stalled.

    Carries the partial progress of the generation that failed: how many
    particles were requested, how many had been accepted, and how many
    simulator calls that generation consumed.
    """

    def __init__(self, requested: int, accepted: int, sims_used: int, message: str | None = None):
        super().__init__(
            message or f"simulation budget exhausted: {accepted}/{requested} particles "
            f"accepted after {sims_used} simulator calls"
        )
        self.requested = requested
        self.accepted = accepted
        self.sims_used = sims_used


class DegeneratePopulation(RuntimeError):
    """Weighted population has collapsed (too few effective particles or zero variance)."""


class ConfigError(ValueError):
    """Run configuration failed validation."""
