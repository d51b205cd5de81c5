"""The bench workloads: generated run configs plus their references.

Each workload puts most of its time in a different layer of ``popabc``; why
each was chosen is in BENCHMARK.json and README.md. A run of the bench derives its sampler seeds from the workload
seed given on the command line, so the program sees only generated configs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import reference

BANDS_FILE = Path(__file__).resolve().parent / "bands.json"

# two-sided normal quantile for a false-fail rate of 1e-6 per check: twenty
# runs of each workload make a few hundred checks, so the chance that any of
# them fails on a correct program stays near 1e-4
BAND_Z = 4.891638


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # run config document, without the seed
    seeds_per_round: int
    prior: tuple[str, tuple[float, float]]  # restated from the model docs

    @property
    def is_population(self) -> bool:
        return self.config["algorithm"] != "mcmc"

    @property
    def final_epsilon(self) -> float:
        return self.config["schedule"][-1] if self.is_population else self.config["epsilon"]

    def run_seeds(self, workload_seed: int) -> list[int]:
        """Sampler seeds of one round: disjoint for distinct workload seeds."""
        k = self.seeds_per_round
        return [workload_seed * 1000 + i for i in range(k)]

    def config_doc(self, seed: int, workers: int | None = None) -> dict:
        doc = dict(self.config, seed=seed)
        if workers is not None:
            doc["workers"] = workers
        return doc

    def reference_moments(self) -> dict[str, float]:
        """Target moments and the standard error of the reference itself."""
        eps = self.final_epsilon
        if self.config["model"] == "mixture-toy":
            mean, var = reference.mixture_smoothed_moments(eps)
            return {"mean": mean, "var": var, "mean_se": 0.0, "var_se": 0.0}
        if self.config["model"] == "conjugate-normal":
            mean, var = reference.conjugate_smoothed_moments(eps)
            return {"mean": mean, "var": var, "mean_se": 0.0, "var_se": 0.0}
        ref = reference.load_coalescent_reference()
        if ref["epsilon"] != eps:
            raise ValueError("coalescent reference was built for another tolerance")
        return {
            "mean": ref["posterior_mean"], "var": ref["posterior_var"],
            "mean_se": ref["posterior_mean_se"], "var_se": ref["posterior_var_se"],
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixture-pmc",
            config={
                "algorithm": "pmc", "model": "mixture-toy", "n_particles": 2000,
                "schedule": [2.0, 0.5, 0.10], "workers": 1,
            },
            seeds_per_round=3,
            prior=("uniform", (-10.0, 10.0)),
        ),
        Workload(
            name="coalescent-pmc",
            config={
                "algorithm": "pmc", "model": "coalescent-msat", "n_particles": 1000,
                "schedule": [2.0, 1.0, 0.6], "workers": 2,
            },
            seeds_per_round=3,
            prior=("uniform", (0.1, 20.0)),
        ),
        Workload(
            name="conjugate-large-n",
            config={
                "algorithm": "pmc", "model": "conjugate-normal", "n_particles": 10_000,
                "schedule": [10.0, 3.0, 1.0, 0.3, 0.1], "workers": 1,
            },
            seeds_per_round=1,
            prior=("normal", (0.0, 10.0)),
        ),
        Workload(
            name="mixture-mcmc",
            config={
                "algorithm": "mcmc", "model": "mixture-toy", "epsilon": 0.10,
                "n_iter": 100_000, "burn_in": 5000, "proposal_sd": 1.5,
            },
            seeds_per_round=2,
            prior=("uniform", (-10.0, 10.0)),
        ),
    )
}


def load_bands() -> dict:
    return json.loads(BANDS_FILE.read_text())
