"""Exceptions shared across the sampler stack."""


class RunFailed(RuntimeError):
    """A run stopped early: ``status`` names it in the report, ``partial`` is its progress."""

    status = "failed"
    partial = None


class BudgetExhausted(RunFailed):
    """Raised when a generation stops short of n acceptances: out of budget, or stalled.

    ``partial`` is the progress of the generation that failed: how many
    particles were requested, how many had been accepted, and how many
    simulator calls that generation consumed.
    """

    status = "budget-exhausted"

    def __init__(self, requested: int, accepted: int, sims_used: int, message: str | None = None):
        super().__init__(
            message or f"simulation budget exhausted: {accepted}/{requested} particles "
            f"accepted after {sims_used} simulator calls"
        )
        self.partial = {"requested": requested, "accepted": accepted, "sims_used": sims_used}


class Stalled(BudgetExhausted):
    """Raised when a generation accepts nothing in ``waves`` waves in a row, budget or not."""

    status = "stalled"

    def __init__(self, requested: int, accepted: int, sims_used: int, waves: int):
        super().__init__(
            requested, accepted, sims_used,
            f"no attempt was accepted in {waves} waves in a row: {accepted}/{requested} "
            f"particles accepted after {sims_used} simulator calls",
        )


class DegeneratePopulation(RunFailed):
    """Weighted population has collapsed (too few effective particles or zero variance)."""

    status = "degenerate-population"


class ConfigError(ValueError):
    """Run configuration failed validation."""
