"""The four ABC algorithms: rejection, PMC, PRC and likelihood-free MCMC.

All four share the model contract and, for the sequential pair, the same
propagation engine; they differ only in how particles are weighted: the
engine returns each generation as a ``Population``, and PMC and PRC replace
its equal weights.

* ``abc_pmc`` treats each generation as importance sampling against the
  actual proposal — the previous weighted population convolved with the
  Gaussian kernel — so its weights are
  ``prior(theta_i) / sum_j w_j K(theta_i | theta_j)``.
* ``abc_prc`` uses the prior-ratio weight ``prior(theta_i) / prior(ancestor)``
  that a symmetric backward kernel yields. It ignores the mixture proposal
  and is kept as the baseline whose posterior approximation is biased
  (degenerating to uniform weights under a flat prior).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine, kernel
from .engine import Population
from .errors import BudgetExhausted, DegeneratePopulation
from .kernel import KernelScale
from .models import ModelSpec, PriorSpec


@dataclass(frozen=True)
class ToleranceSchedule:
    """Strictly decreasing tolerances eps_1 > ... > eps_T."""

    epsilons: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 1:
            raise ValueError("schedule needs at least one tolerance")
        for e in eps:
            if not math.isfinite(e) or e < 0:
                raise ValueError(f"tolerances must be finite and nonnegative, got {e}")
        for a, b in zip(eps, eps[1:]):
            if b >= a:
                raise ValueError(
                    f"schedule must be strictly decreasing, got {a} followed by {b}"
                )
        object.__setattr__(self, "epsilons", eps)


def pmc_log_weights(
    thetas: np.ndarray,
    prior: PriorSpec,
    prev_thetas: np.ndarray,
    prev_weights: np.ndarray,
    scale: KernelScale,
) -> np.ndarray:
    """Log unnormalized PMC weights: log prior - log mixture proposal density.

    The denominator is the previous population's kernel mixture evaluated at
    each new particle, an exact O(N^2) pass (``kernel.log_mixture_density``):
    both populations centred on the previous weighted mean and whitened, the
    quadratic form expanded into one GEMM per row block, each row shifted by
    its max before ``exp``, and blocks sized to ``kernel.BUDGET`` entries.
    """
    thetas = np.asarray(thetas, dtype=float)
    log_denom = kernel.log_mixture_density(thetas, prev_thetas, prev_weights, scale)
    return prior.logpdf_batch(thetas) - log_denom


def prc_log_weights(
    thetas: np.ndarray,
    ancestors: np.ndarray,
    prior: PriorSpec,
    prev_thetas: np.ndarray,
) -> np.ndarray:
    """Log PRC weights with a symmetric backward kernel: the prior ratio.

    Constant (zero) under a flat prior, which is exactly how the weight
    update loses the mixture-proposal information.
    """
    thetas = np.asarray(thetas, dtype=float)
    prev_thetas = np.asarray(prev_thetas, dtype=float)
    return prior.logpdf_batch(thetas) - prior.logpdf_batch(prev_thetas[ancestors])


def _normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    if np.all(np.isneginf(log_w)):
        raise DegeneratePopulation("all particle weights vanished")
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def abc_rejection(
    model: ModelSpec,
    epsilon: float,
    n_particles: int,
    *,
    seed: int,
    budget: int | None = None,
    workers: int | str = 1,
) -> Population:
    """Plain rejection ABC: prior draws accepted within epsilon, equal weights."""
    engine.check_arg("n_particles", n_particles)
    engine.check_arg("epsilon", epsilon)
    with engine.WorkerPool(workers, model) as pool:
        return engine.initial_generation(
            model, epsilon, n_particles, seed=seed, budget=budget, pool=pool
        )


def _sequential_abc(
    model: ModelSpec,
    schedule,
    n_particles: int,
    *,
    seed: int,
    budget: int | None,
    workers: int | str,
    weighting: str,
    on_generation=None,
) -> list[Population]:
    engine.check_arg("n_particles", n_particles, sequential=True)
    if not isinstance(schedule, ToleranceSchedule):
        schedule = ToleranceSchedule(tuple(schedule))
    remaining = None if budget is None else int(budget)
    populations: list[Population] = []
    with engine.WorkerPool(workers, model) as pool:
        for t, eps_t in enumerate(schedule.epsilons, start=1):
            prev = populations[-1] if populations else None
            if prev is None:
                pop = engine.initial_generation(
                    model, eps_t, n_particles, seed=seed, budget=remaining, pool=pool
                )
            else:
                scale = kernel.adapt_scale(prev.thetas, prev.weights)
                res = engine.propagate_generation(
                    model, eps_t, t, prev.thetas, prev.weights, scale, n_particles,
                    seed=seed, budget=remaining, pool=pool,
                )
                if weighting == "pmc":
                    log_w = pmc_log_weights(
                        res.thetas, model.prior, prev.thetas, prev.weights, scale
                    )
                else:
                    log_w = prc_log_weights(res.thetas, res.ancestors, model.prior, prev.thetas)
                pop = replace(res, weights=_normalize_log_weights(log_w))
            populations.append(pop)
            if on_generation is not None:
                on_generation(pop)
            if remaining is not None:
                remaining -= pop.sims_used
    return populations


def abc_pmc(
    model: ModelSpec,
    schedule,
    n_particles: int,
    *,
    seed: int,
    budget: int | None = None,
    workers: int | str = 1,
    on_generation=None,
) -> list[Population]:
    """Adaptive sequential ABC with mixture-proposal importance weights.

    Generation 1 is rejection sampling at the first tolerance; each later
    generation resamples the previous population, perturbs with the adapted
    Gaussian kernel (redrawing ancestor and move together whenever the
    proposal leaves the prior support), accepts within the tightened
    tolerance, and reweights by prior over realized mixture density.
    """
    return _sequential_abc(
        model, schedule, n_particles, seed=seed, budget=budget, workers=workers,
        weighting="pmc", on_generation=on_generation,
    )


def abc_prc(
    model: ModelSpec,
    schedule,
    n_particles: int,
    *,
    seed: int,
    budget: int | None = None,
    workers: int | str = 1,
    on_generation=None,
) -> list[Population]:
    """Sequential ABC with prior-ratio weights (the biased baseline).

    Propagation is identical to ``abc_pmc``; only the weight update differs.
    """
    return _sequential_abc(
        model, schedule, n_particles, seed=seed, budget=budget, workers=workers,
        weighting="prc", on_generation=on_generation,
    )


# steps per block of MCMC draws; part of the chain's stream layout, so changing
# it changes every MCMC output
CHUNK = 256


@dataclass(frozen=True)
class MCMCResult:
    """Likelihood-free MCMC output: the chain plus acceptance accounting."""

    thetas: np.ndarray  # (n_iter, d), state after each step
    dists: np.ndarray  # (n_iter,), realized distance of the current state
    n_accepted: int
    sims_used: int
    init_sims: int

    @property
    def n_iter(self) -> int:
        return self.thetas.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_iter


def abc_mcmc(
    model: ModelSpec,
    epsilon: float,
    n_iter: int,
    proposal_sd,
    *,
    seed: int,
    budget: int | None = None,
) -> MCMCResult:
    """Likelihood-free Metropolis-Hastings at a fixed tolerance.

    Gaussian random-walk proposals (symmetric, so the proposal ratio
    cancels); a move is accepted when its simulated distance is within
    epsilon and a uniform draw passes the prior ratio. Out-of-support
    proposals are rejected without spending a simulation. The chain starts
    from a one-particle ``abc_rejection`` draw, counted against the budget.

    The chain draws from two streams of ``engine.CHAIN_STREAM_T``. Counter 0
    gives, for each block of ``CHUNK`` steps (fewer in the last block), the
    block's proposal noise ``(m, d)`` and then its ``m`` acceptance uniforms;
    counter 1 feeds the simulator, one call after another. Step i proposes
    ``theta_{i-1} + noise_i``: between acceptances the rest of a block is
    proposed and support-checked in one array step, so the Python work per
    step is one simulator call at most. The chain is built from its accepted
    states and their run lengths at the end.
    """
    engine.check_arg("n_iter", n_iter)
    d = model.dim
    sd = engine.check_arg("proposal_sd", np.asarray(proposal_sd, dtype=float))
    if sd.shape not in ((), (1,), (d,)):
        raise ValueError(f"proposal_sd must be one SD or {d}, one per model dimension; "
                         f"got {sd.tolist()}")
    sd = np.broadcast_to(sd, (d,))
    found = abc_rejection(model, epsilon, 1, seed=seed, budget=budget)
    theta = found.thetas[0]
    cur_lp = model.prior.logpdf(theta)
    limit = math.inf if budget is None else int(budget)
    draws = engine.attempt_stream(seed, engine.CHAIN_STREAM_T, 0)
    sim_rng = engine.attempt_stream(seed, engine.CHAIN_STREAM_T, 1)
    sims = found.sims_used
    # looked up once, when the chain starts: a ModelSpec subclass's method is the one called
    simulate_distance = model.simulate_distance
    logpdf_batch = model.prior.logpdf_batch
    log = math.log
    # the chain as runs: states[k] is the state from step starts[k] until the next start;
    # rows past the last acceptance are never written, so they take no memory
    states = np.empty((n_iter + 1, d))
    state_dists = np.empty(n_iter + 1)
    starts = np.empty(n_iter + 1, dtype=np.intp)
    states[0], state_dists[0], starts[0] = theta, found.dists[0], 0
    n_accepted = 0
    for lo in range(0, n_iter, CHUNK):
        m = min(CHUNK, n_iter - lo)
        noise = draws.standard_normal((m, d)) * sd
        us = draws.random(m)
        i = 0  # first step of the block not yet taken
        while i < m:
            props = theta + noise[i:]
            lps = logpdf_batch(props)
            for k in np.flatnonzero(lps > -np.inf).tolist():
                if sims >= limit:
                    raise BudgetExhausted(n_iter, lo + i + k, sims)
                dist = simulate_distance(props[k], sim_rng)
                sims += 1
                if dist <= epsilon and log(us[i + k]) < lps[k] - cur_lp:
                    n_accepted += 1
                    states[n_accepted] = props[k]
                    theta = states[n_accepted]
                    cur_lp = lps[k]
                    state_dists[n_accepted] = dist
                    starts[n_accepted] = lo + i + k
                    i += k + 1
                    break
            else:
                break  # no move accepted: the rest of the block repeats theta
    lengths = np.diff(starts[:n_accepted + 1], append=n_iter)
    thetas = np.repeat(states[:n_accepted + 1], lengths, axis=0)
    dists = np.repeat(state_dists[:n_accepted + 1], lengths)
    return MCMCResult(thetas, dists, n_accepted, sims, found.sims_used)
