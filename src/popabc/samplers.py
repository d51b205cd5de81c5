"""The four ABC algorithms: rejection, PMC, PRC and likelihood-free MCMC.

All four share the model contract and, for the sequential pair, the same
propagation engine; they differ only in how particles are weighted.

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
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import engine, kernel
from .errors import BudgetExhausted, DegeneratePopulation
from .kernel import KernelScale
from .models import ModelSpec, PriorSpec

WEIGHT_BLOCK = 512  # new particles per block of the O(N^2) weight pass

@dataclass(frozen=True)
class Population:
    """A generation of weighted particles.

    ``scale`` is the kernel scale that proposed this generation (None for
    the first, which samples the prior directly). ``sims_used`` counts the
    simulator calls this generation consumed.
    """

    t: int
    epsilon: float
    thetas: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    dists: np.ndarray  # (n,)
    scale: KernelScale | None
    sims_used: int

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        if thetas.ndim == 1:
            thetas = thetas[:, None]
        weights = np.asarray(self.weights, dtype=float)
        dists = np.asarray(self.dists, dtype=float)
        n = thetas.shape[0]
        if n < 1:
            raise ValueError("population must contain at least one particle")
        if weights.shape != (n,) or dists.shape != (n,):
            raise ValueError("thetas, weights and dists must have matching lengths")
        if not np.all(np.isfinite(thetas)) or not np.all(np.isfinite(weights)):
            raise ValueError("particles must be finite")
        kernel.check_weight_sum(weights)
        if np.any(dists > self.epsilon):
            raise ValueError("every particle distance must be within epsilon")
        if self.t < 1:
            raise ValueError("generation index starts at 1")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dists", dists)

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]


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

    @property
    def n_generations(self) -> int:
        return len(self.epsilons)


@dataclass(frozen=True)
class AutoSchedule:
    """Quantile-driven schedule: eps_{t+1} = q-quantile of accepted distances.

    A convenience extension — comparison runs use fixed schedules.
    """

    first_epsilon: float
    quantile: float
    n_generations: int

    def __post_init__(self):
        if not (0.0 < self.quantile < 1.0):
            raise ValueError("quantile must lie in (0, 1)")
        if self.first_epsilon <= 0:
            raise ValueError("first_epsilon must be positive")
        if self.n_generations < 1:
            raise ValueError("n_generations must be >= 1")


def pmc_log_weights(
    thetas: np.ndarray,
    prior: PriorSpec,
    prev_thetas: np.ndarray,
    prev_weights: np.ndarray,
    scale: KernelScale,
) -> np.ndarray:
    """Log unnormalized PMC weights: log prior - log mixture proposal density.

    The denominator is the previous population's kernel mixture evaluated at
    each new particle, an O(N^2) pass done blockwise in the log domain.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[0]
    log_prior = prior.logpdf_batch(thetas)
    with np.errstate(divide="ignore"):
        log_wprev = np.log(np.asarray(prev_weights, dtype=float))
    log_denom = np.empty(n)
    for lo in range(0, n, WEIGHT_BLOCK):
        hi = min(lo + WEIGHT_BLOCK, n)
        lk = kernel.log_density_matrix(thetas[lo:hi], prev_thetas, scale)
        log_denom[lo:hi] = logsumexp(lk + log_wprev[None, :], axis=1)
    return log_prior - log_denom


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
    w = np.exp(log_w - logsumexp(log_w))
    return w / w.sum()


def _validate_common(model: ModelSpec, n_particles: int, seed: int):
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")


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
    _validate_common(model, n_particles, seed)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    with engine.WorkerPool(workers, model) as pool:
        return _rejection_generation(model, epsilon, n_particles, seed, budget, pool)


def _rejection_generation(model, epsilon, n_particles, seed, budget, pool) -> Population:
    """Generation 1: prior draws accepted within epsilon, with equal weights."""
    res = engine.initial_generation(
        model, epsilon, n_particles, seed=seed, budget=budget, pool=pool
    )
    weights = np.full(n_particles, 1.0 / n_particles)
    return Population(
        t=1, epsilon=float(epsilon), thetas=res.thetas, weights=weights,
        dists=res.dists, scale=None, sims_used=res.sims_used,
    )


def _epsilon_for(schedule, t: int, prev: Population | None) -> float:
    if isinstance(schedule, ToleranceSchedule):
        return schedule.epsilons[t - 1]
    if t == 1:
        return schedule.first_epsilon
    eps = _plain_quantile(prev.dists, schedule.quantile)
    if eps >= prev.epsilon:
        raise DegeneratePopulation(
            f"auto schedule stalled: quantile tolerance {eps} did not decrease"
        )
    return eps


def _plain_quantile(values: np.ndarray, q: float) -> float:
    order = np.sort(np.asarray(values, dtype=float))
    cum = np.arange(1, order.size + 1) / order.size
    idx = min(int(np.searchsorted(cum, q, side="left")), order.size - 1)
    return float(order[idx])


def _sequential_abc(
    model: ModelSpec,
    schedule,
    n_particles: int,
    *,
    seed: int,
    budget: int | None,
    workers: int | str,
    kernel_mode: str,
    weighting: str,
    on_generation=None,
) -> list[Population]:
    _validate_common(model, n_particles, seed)
    if n_particles < 2:
        raise ValueError("sequential samplers need n_particles >= 2")
    if not isinstance(schedule, (ToleranceSchedule, AutoSchedule)):
        schedule = ToleranceSchedule(tuple(schedule))
    remaining = None if budget is None else int(budget)
    populations: list[Population] = []
    with engine.WorkerPool(workers, model) as pool:
        for t in range(1, schedule.n_generations + 1):
            prev = populations[-1] if populations else None
            eps_t = _epsilon_for(schedule, t, prev)
            if prev is None:
                pop = _rejection_generation(model, eps_t, n_particles, seed, remaining, pool)
            else:
                scale = kernel.adapt_scale(prev.thetas, prev.weights, mode=kernel_mode)
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
                pop = Population(
                    t=t, epsilon=eps_t, thetas=res.thetas,
                    weights=_normalize_log_weights(log_w),
                    dists=res.dists, scale=scale, sims_used=res.sims_used,
                )
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
    kernel_mode: str = "diagonal",
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
        kernel_mode=kernel_mode, weighting="pmc", on_generation=on_generation,
    )


def abc_prc(
    model: ModelSpec,
    schedule,
    n_particles: int,
    *,
    seed: int,
    budget: int | None = None,
    workers: int | str = 1,
    kernel_mode: str = "diagonal",
    on_generation=None,
) -> list[Population]:
    """Sequential ABC with prior-ratio weights (the biased baseline).

    Propagation is identical to ``abc_pmc``; only the weight update differs.
    """
    return _sequential_abc(
        model, schedule, n_particles, seed=seed, budget=budget, workers=workers,
        kernel_mode=kernel_mode, weighting="prc", on_generation=on_generation,
    )


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
    init: np.ndarray | None = None,
    budget: int | None = None,
) -> MCMCResult:
    """Likelihood-free Metropolis-Hastings at a fixed tolerance.

    Gaussian random-walk proposals (symmetric, so the proposal ratio
    cancels); a move is accepted when its simulated distance is within
    epsilon and a uniform draw passes the prior ratio. Out-of-support
    proposals are rejected without spending a simulation. When ``init`` is
    None the chain starts from a prior draw accepted at epsilon, found by
    rejection and counted against the budget.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    proposal_sd = np.broadcast_to(
        np.asarray(proposal_sd, dtype=float), (model.dim,)
    ).copy()
    if not np.all(proposal_sd > 0):
        raise ValueError("proposal_sd must be positive")
    init_sims = 0
    if init is None:
        with engine.WorkerPool(1, model) as pool:
            found = engine.initial_generation(
                model, epsilon, 1, seed=seed, budget=budget, pool=pool
            )
        theta = found.thetas[0]
        cur_dist = float(found.dists[0])
        init_sims = found.sims_used
    else:
        theta = np.atleast_1d(np.asarray(init, dtype=float))
        rng0 = engine.attempt_stream(seed, engine.CHAIN_STREAM_T, 1)
        cur_dist = model.simulate_distance(theta, rng0)
        init_sims = 1
        if cur_dist > epsilon:
            raise ValueError("init must satisfy the tolerance")
    limit = math.inf if budget is None else int(budget)
    rng = engine.attempt_stream(seed, engine.CHAIN_STREAM_T, 0)
    cur_lp = model.prior.logpdf(theta)
    d = model.dim
    thetas = np.empty((n_iter, d))
    dists = np.empty(n_iter)
    sims = init_sims
    n_accepted = 0
    for i in range(n_iter):
        prop = theta + rng.standard_normal(d) * proposal_sd
        lp = model.prior.logpdf(prop)
        if lp > -np.inf:
            if sims + 1 > limit:
                raise BudgetExhausted(n_iter, i, sims)
            prop_dist = model.simulate_distance(prop, rng)
            sims += 1
            u = rng.random()
            if prop_dist <= epsilon and math.log(u) < lp - cur_lp:
                theta = prop
                cur_dist = prop_dist
                cur_lp = lp
                n_accepted += 1
        thetas[i] = theta
        dists[i] = cur_dist
    return MCMCResult(thetas, dists, n_accepted, sims, init_sims)
