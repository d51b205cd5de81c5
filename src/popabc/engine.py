"""Deterministic parallel particle propagation.

A generation comes back as an equally weighted ``Population`` that keeps
each particle's ancestor; the samplers only replace its weights.

Every simulation attempt draws from its own RNG stream, derived from
(master seed, generation index, attempt counter) via the counter of a
Philox generator. Attempts are dispatched in waves whose sizes depend only
on accept/attempt counts so far, never on the worker count, and acceptances
are taken in attempt-counter order. Together this makes every run
bit-identical for a fixed seed whether it executes on 1 worker or 8.

Budget accounting is exact: a wave is either fully simulated or not started,
and ``sims_used`` counts every simulator invocation including the tail of
the final wave that overshoots the requested number of acceptances. A
generation that accepts nothing in ``STALL_WAVES`` waves in a row fails.
"""
from __future__ import annotations

import bisect
import math
import numbers
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import kernel
from .errors import BudgetExhausted, ConfigError, Stalled
from .models import ModelSpec

# chain namespace: generation indices start at 1, so t=0 is reserved for the
# MCMC chain. Its counter 0 gives each block of samplers.CHUNK steps its proposal
# noise, then its acceptance uniforms; its counter 1 feeds the simulator
CHAIN_STREAM_T = 0

# waves in a row without an acceptance before a generation gives up: such waves
# grow to the cap of max(4n, 20000) attempts, so that is over 1e6 attempts at any n
STALL_WAVES = 60


# type tests of the argument rules and of the config keys: a bool is not taken for a number
def is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# The rule of each run argument, its type and range, stated once as (test, what a valid
# value is): the engine and samplers check their arguments here, and the config keys
# named after them.
ARG_RULES = {
    "seed": (lambda v: is_integer(v) and 0 <= v < 2**64, "an unsigned 64-bit integer"),
    "n_particles": (lambda v: is_integer(v) and v >= 1, "an integer >= 1"),
    "sequential n_particles": (lambda v: is_integer(v) and v >= 2,
                               "an integer >= 2, for the variance of the kernel"),
    "epsilon": (lambda v: is_real(v) and 0 <= v < math.inf, "nonnegative and a finite number"),
    "n_iter": (lambda v: is_integer(v) and v >= 1, "an integer >= 1"),
    "proposal_sd": (lambda v: is_real(v) and 0 < v < math.inf, "a finite positive number"),
    "budget": (lambda v: is_integer(v) and v >= 1, "a positive integer"),
}


def check_arg(name: str, value, sequential: bool = False):
    """``value``, if it keeps the rule for ``name`` (or for PMC and PRC, if ``sequential``)."""
    test, what = ARG_RULES.get(f"sequential {name}" if sequential else name, ARG_RULES[name])
    if not test(value):
        raise ValueError(f"{name} must be {what}, got {value}")
    return value


def budget_limit(budget) -> float:
    """Simulator calls a run may spend: ``budget``, or no limit if it is None."""
    return math.inf if budget is None else int(check_arg("budget", budget))


def attempt_stream(seed: int, t: int, counter: int) -> Generator:
    """Independent RNG stream for one attempt, pure in (seed, t, counter)."""
    return StreamFactory(seed).stream(t, counter)


class StreamFactory:
    """Reusable source of attempt streams for one seed.

    ``stream(t, counter)`` lays the 256-bit Philox counter out as
    (0, 0, t, counter), leaving 2**128 draws per stream before any two
    streams could touch. It resets one Philox state in place instead of
    constructing fresh objects, which matters in the per-attempt hot loop.
    The state is held as Python lists, which the state setter reads faster
    than arrays.
    """

    def __init__(self, seed: int):
        self._gen = Generator(Philox(key=int(check_arg("seed", seed))))
        self._bg = self._gen.bit_generator
        self._counter = [0, 0, 0, 0]
        key = self._bg.state["state"]["key"].tolist()
        # buffer_pos 4 marks the buffer as used up, so the first draw reads the counter
        self._state = {"bit_generator": "Philox", "state": {"counter": self._counter, "key": key},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(self, t: int, counter: int) -> Generator:
        self._counter[2] = t
        self._counter[3] = counter
        self._bg.state = self._state
        return self._gen


def resolve_workers(requested) -> int:
    """Worker count: a positive integer, or 'auto' for one per CPU this process may use."""
    if requested == "auto":
        if hasattr(os, "sched_getaffinity"):  # the CPUs it may use; cpu_count counts the host's
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not is_integer(requested) or requested < 1:
        raise ConfigError(f"workers must be a positive integer or 'auto', got {requested!r}")
    return requested


@contextmanager
def worker_pool(workers: int | str, model: ModelSpec):
    """``(workers, map)`` for the attempt chunks: the builtin ``map`` for one worker,
    else a process pool's, shut down however the block exits.

    Each wave is cut into ``min(workers, wave)`` contiguous chunks whose sizes
    differ by at most one, so one worker takes a wave as one chunk. Chunking
    only affects scheduling; results come back in submission order, so the
    pool size never changes what a run produces.
    """
    workers = resolve_workers(workers)
    if workers == 1:
        yield workers, map
        return
    # worker processes receive the model by pickle: fail before any starts
    try:
        pickle.dumps(model)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigError(
            f"model {model.name!r} cannot be sent to worker processes ({exc}); "
            "define its simulator at module level or run with workers: 1"
        ) from None
    from concurrent.futures import ProcessPoolExecutor  # a one-worker run never loads it

    with ProcessPoolExecutor(max_workers=workers) as executor:
        yield workers, executor.map


@dataclass(frozen=True)
class Population:
    """A generation of weighted particles.

    ``scale`` is the kernel scale that proposed this generation (None for
    the first, which samples the prior directly). ``sims_used`` counts the
    simulator calls this generation consumed. ``ancestors`` indexes each
    particle's ancestor in the previous generation (None at t=1).
    """

    t: int
    epsilon: float
    thetas: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    dists: np.ndarray  # (n,)
    scale: kernel.KernelScale | None
    sims_used: int
    ancestors: np.ndarray | None = None  # (n,)

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
        if not np.all(dists <= self.epsilon):  # refuses a NaN distance too
            raise ValueError("every particle distance must be within epsilon")
        if self.t < 1:
            raise ValueError("generation index starts at 1")
        if self.ancestors is not None:
            anc = np.asarray(self.ancestors)
            if self.t == 1 or anc.shape != (n,) or anc.dtype.kind not in "iu" or np.any(anc < 0):
                raise ValueError("ancestors must be n indices into the previous generation, "
                                 "and None at t=1")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dists", dists)

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]


def run_starts(rows: np.ndarray) -> np.ndarray:
    """First index of each run of consecutive (n, k) float64 rows with the same bits."""
    bits = rows.view(np.uint64)
    return np.flatnonzero(np.r_[True, np.any(bits[1:] != bits[:-1], axis=1)])


def _run_attempt_chunk(args):
    """Evaluate attempts [lo, hi): one simulator call each, support-checked first.

    For perturbation generations an attempt redraws both the ancestor index
    and the Gaussian move until the proposal lands inside the prior support,
    so zero-prior parameters never reach the simulator and each attempt costs
    exactly one simulation.
    """
    model, epsilon, seed, t, lo, hi, prev_thetas, prev_cumw, scale = args
    m = hi - lo
    d = model.dim
    thetas = np.empty((m, d))
    dists = np.empty(m)
    ancestors = np.full(m, -1, dtype=np.int64)
    prior = model.prior
    # looked up once per chunk, when it starts: a wrapper put on kernel.perturb, or a
    # ModelSpec subclass, before the run is the one called
    stream = StreamFactory(seed).stream
    sample, perturb, in_support = prior.sample, kernel.perturb, prior.in_support
    simulate_distance, bisect_right = model.simulate_distance, bisect.bisect_right
    if prev_thetas is not None:
        # Python rows and floats: indexing them costs less than indexing arrays
        rows, cumw = list(prev_thetas), prev_cumw.tolist()
        last = len(cumw) - 1
    for i in range(m):
        rng = stream(t, lo + i)
        if prev_thetas is None:
            theta = sample(rng)
        else:
            while True:
                j = min(bisect_right(cumw, rng.random()), last)  # inverse-CDF ancestor pick
                theta = perturb(rows[j], scale, rng)
                if in_support(theta):
                    break
            ancestors[i] = j
        dists[i] = simulate_distance(theta, rng)
        thetas[i] = theta
    return thetas, dists, ancestors, dists <= epsilon


def _wave_size(n: int, accepted: int, attempted: int) -> int:
    """Next wave size from deterministic progress counts only.

    The first wave equals n, so an accept-everything tolerance costs exactly
    n simulations; later waves plan the remaining need at the observed
    acceptance rate, at least 64 and at most ``max(4n, 20000)`` attempts.
    """
    if attempted == 0:
        return n
    need = n - accepted
    rate = max(accepted, 1) / attempted
    planned = int(math.ceil(need / rate))
    return min(max(planned, 64), max(4 * n, 20_000))


def _collect(
    model: ModelSpec,
    epsilon: float,
    n: int,
    seed: int,
    budget: float,
    pool: tuple,  # (workers, map), from worker_pool
    prev: Population | None = None,
    scale: kernel.KernelScale | None = None,
) -> Population:
    t = 1 if prev is None else prev.t + 1
    workers, map_chunks = pool
    prev_thetas = None if prev is None else prev.thetas
    prev_cumw = None if prev is None else np.cumsum(prev.weights)
    kept_thetas, kept_dists, kept_anc = [], [], []
    accepted = 0
    attempted = 0
    dead_waves = 0  # waves in a row that accepted nothing
    while accepted < n:
        remaining = budget - attempted
        if remaining <= 0:
            raise BudgetExhausted(n, accepted, attempted)
        if dead_waves == STALL_WAVES:
            raise Stalled(n, accepted, attempted, STALL_WAVES)
        wave = _wave_size(n, accepted, attempted)
        if remaining < wave:
            wave = remaining
        bounds = np.linspace(attempted, attempted + wave, min(workers, wave) + 1, dtype=int).tolist()
        chunk_args = [(model, epsilon, seed, t, lo, hi, prev_thetas, prev_cumw, scale)
                      for lo, hi in zip(bounds[:-1], bounds[1:])]
        before = accepted
        for thetas, dists, ancestors, accept in map_chunks(_run_attempt_chunk, chunk_args):
            if accepted < n and np.any(accept):
                kept_thetas.append(thetas[accept])
                kept_dists.append(dists[accept])
                kept_anc.append(ancestors[accept])
                accepted += int(np.count_nonzero(accept))
        attempted += wave
        dead_waves = dead_waves + 1 if accepted == before else 0
    thetas = np.concatenate(kept_thetas)[:n]
    dists = np.concatenate(kept_dists)[:n]
    ancestors = None if prev is None else np.concatenate(kept_anc)[:n]
    return Population(t, float(epsilon), thetas, np.full(n, 1.0 / n), dists, scale, attempted,
                      ancestors)


def initial_generation(
    model: ModelSpec,
    epsilon: float,
    n: int,
    *,
    seed: int,
    budget: float = math.inf,
    pool: tuple,
) -> Population:
    """First generation: prior draws accepted within epsilon, with equal weights."""
    return _collect(model, epsilon, n, seed, budget, pool)


def propagate_generation(
    model: ModelSpec,
    epsilon: float,
    prev: Population,
    scale: kernel.KernelScale,
    n: int,
    *,
    seed: int,
    budget: float = math.inf,
    pool: tuple,
) -> Population:
    """Generation ``prev.t + 1``: resample ``prev``, perturb, accept within epsilon; equal weights.

    The i-th accepted particle is the i-th successful attempt in
    attempt-counter order, independent of scheduling.
    """
    return _collect(model, epsilon, n, seed, budget, pool, prev, scale)
