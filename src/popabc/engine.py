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
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
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

# pool chunking, see _split_chunks
CHUNKS_PER_WORKER = 4
MIN_CHUNK = 64


# The range rule of each run argument, stated once as (test, what a valid value is): the
# engine and samplers check their arguments here, and the config keys named after them.
ARG_RULES = {
    "seed": (lambda v: 0 <= v < 2**64, "an unsigned 64-bit integer"),
    "n_particles": (lambda v: v >= 1, ">= 1"),
    "sequential n_particles": (lambda v: v >= 2, ">= 2, for the variance of the kernel"),
    "epsilon": (lambda v: v >= 0, "nonnegative"),
    "n_iter": (lambda v: v >= 1, ">= 1"),
    "proposal_sd": (lambda v: np.all((v > 0) & np.isfinite(v)), "a finite positive number"),
}


def check_arg(name: str, value, sequential: bool = False):
    """``value``, if it keeps the rule for ``name`` (or for PMC and PRC, if ``sequential``)."""
    test, what = ARG_RULES.get(f"sequential {name}" if sequential else name, ARG_RULES[name])
    if not test(value):
        raise ValueError(f"{name} must be {what}, got {value}")
    return value


def attempt_stream(seed: int, t: int, counter: int) -> Generator:
    """Independent RNG stream for one attempt, pure in (seed, t, counter).

    The 256-bit Philox counter is laid out as (0, 0, t, counter), leaving
    2**128 draws per stream before any two streams could touch.
    """
    check_arg("seed", seed)
    return Generator(Philox(key=int(seed), counter=(int(counter) << 192) | (int(t) << 128)))


class StreamFactory:
    """Reusable source of attempt streams for one seed.

    ``stream(t, counter)`` yields draws bit-identical to
    ``attempt_stream(seed, t, counter)`` but resets one Philox state in
    place instead of constructing fresh objects, which matters in the
    per-attempt hot loop. The state is held as Python lists, which the
    state setter reads faster than arrays.
    """

    def __init__(self, seed: int):
        self._gen = attempt_stream(seed, 0, 0)
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
    """Worker count: a positive integer, or 'auto' for one per CPU."""
    if requested == "auto":
        return os.cpu_count() or 1
    if not isinstance(requested, int) or isinstance(requested, bool) or requested < 1:
        raise ConfigError(f"workers must be a positive integer or 'auto', got {requested!r}")
    return requested


class WorkerPool:
    """Maps attempt chunks over an optional process pool.

    With ``workers > 1`` each wave is cut into a multiple of ``workers``
    equal chunks (``_split_chunks``), so the workers finish a wave together.
    Chunking only affects scheduling; results are reassembled in submission
    order, so the pool size never changes what a run produces.
    """

    def __init__(self, workers: int | str, model: ModelSpec):
        self.workers = resolve_workers(workers)
        if self.workers > 1:
            # worker processes receive the model by pickle: fail before any starts
            try:
                pickle.dumps(model)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ConfigError(
                    f"model {model.name!r} cannot be sent to worker processes ({exc}); "
                    "define its simulator at module level or run with workers: 1"
                ) from None
        self._executor = (
            ProcessPoolExecutor(max_workers=self.workers) if self.workers > 1 else None
        )

    def map_chunks(self, fn, arg_list):
        if self._executor is None:
            return [fn(args) for args in arg_list]
        return list(self._executor.map(fn, arg_list))

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


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
        if np.any(dists > self.epsilon):
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
    return lo, thetas, dists, ancestors, dists <= epsilon


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


def _split_chunks(start: int, size: int, workers: int):
    """Contiguous, ordered chunks tiling attempts ``[start, start + size)``.

    One worker takes the wave as one chunk. Otherwise the chunk count is a
    multiple of ``workers``, up to ``CHUNKS_PER_WORKER`` chunks each while a
    chunk keeps at least ``MIN_CHUNK`` attempts, so every worker gets an
    equal share of even the smallest wave. A wave smaller than ``workers``
    runs one attempt per chunk.
    """
    if workers <= 1:
        n_chunks = 1
    else:
        per_worker = min(CHUNKS_PER_WORKER, max(1, size // (workers * MIN_CHUNK)))
        n_chunks = min(workers * per_worker, size)
    bounds = np.linspace(start, start + size, n_chunks + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _collect(
    model: ModelSpec,
    epsilon: float,
    t: int,
    n: int,
    seed: int,
    budget,
    pool: WorkerPool,
    prev_thetas=None,
    prev_weights=None,
    scale=None,
) -> Population:
    limit = math.inf if budget is None else int(budget)
    prev_cumw = None if prev_weights is None else np.cumsum(prev_weights)
    kept_thetas, kept_dists, kept_anc = [], [], []
    accepted = 0
    attempted = 0
    dead_waves = 0  # waves in a row that accepted nothing
    while accepted < n:
        remaining = limit - attempted
        if remaining <= 0:
            raise BudgetExhausted(n, accepted, attempted)
        if dead_waves == STALL_WAVES:
            raise Stalled(n, accepted, attempted, STALL_WAVES)
        wave = _wave_size(n, accepted, attempted)
        if remaining < wave:
            wave = int(remaining)
        chunk_args = [
            (model, epsilon, seed, t, lo, hi, prev_thetas, prev_cumw, scale)
            for lo, hi in _split_chunks(attempted, wave, pool.workers)
        ]
        before = accepted
        for _, thetas, dists, ancestors, accept in pool.map_chunks(
            _run_attempt_chunk, chunk_args
        ):
            if accepted < n and np.any(accept):
                kept_thetas.append(thetas[accept])
                kept_dists.append(dists[accept])
                kept_anc.append(ancestors[accept])
                accepted += int(np.count_nonzero(accept))
        attempted += wave
        dead_waves = dead_waves + 1 if accepted == before else 0
    thetas = np.concatenate(kept_thetas)[:n]
    dists = np.concatenate(kept_dists)[:n]
    ancestors = np.concatenate(kept_anc)[:n] if prev_thetas is not None else None
    return Population(t, float(epsilon), thetas, np.full(n, 1.0 / n), dists, scale, attempted,
                      ancestors)


def initial_generation(
    model: ModelSpec,
    epsilon: float,
    n: int,
    *,
    seed: int,
    budget=None,
    pool: WorkerPool,
) -> Population:
    """First generation: prior draws accepted within epsilon, with equal weights."""
    return _collect(model, epsilon, 1, n, seed, budget, pool)


def propagate_generation(
    model: ModelSpec,
    epsilon: float,
    t: int,
    prev_thetas: np.ndarray,
    prev_weights: np.ndarray,
    scale: kernel.KernelScale,
    n: int,
    *,
    seed: int,
    budget=None,
    pool: WorkerPool,
) -> Population:
    """Generation t >= 2: resample, perturb, accept within epsilon; equal weights.

    The i-th accepted particle is the i-th successful attempt in
    attempt-counter order, independent of scheduling.
    """
    if t < 2:
        raise ValueError("propagate_generation is for generations t >= 2")
    return _collect(
        model, epsilon, t, n, seed, budget, pool,
        prev_thetas=prev_thetas, prev_weights=prev_weights, scale=scale,
    )
