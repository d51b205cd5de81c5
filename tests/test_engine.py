import bisect
import concurrent.futures
import math
import multiprocessing
import os

import numpy as np
import pytest
from numpy.random import Generator, Philox

from popabc import benchmarks, engine, kernel
from popabc.cli import execute_run
from popabc.config import parse_run_config
from popabc.errors import BudgetExhausted, ConfigError, Stalled
from popabc.kernel import KernelScale
from popabc.models import IndependentNormalPrior, ModelSpec, UniformBoxPrior
from popabc.samplers import abc_pmc, abc_rejection


def passthrough_model(counter=None):
    """Simulator just reports theta; distance is |theta - 0.5|."""

    def simulate(theta, rng):
        if counter is not None:
            counter.append(float(theta[0]))
        return np.array([theta[0]])

    return ModelSpec(
        name="passthrough",
        prior=UniformBoxPrior([0.0], [1.0]),
        simulator=simulate,
        observed=[0.5],
    )


def test_attempt_stream_is_deterministic():
    a = engine.attempt_stream(123, 2, 17).standard_normal(4)
    b = engine.attempt_stream(123, 2, 17).standard_normal(4)
    assert np.array_equal(a, b)


def test_attempt_streams_differ_across_counters():
    draws = {
        (t, k): engine.attempt_stream(9, t, k).random()
        for t in (1, 2)
        for k in range(5)
    }
    assert len(set(draws.values())) == len(draws)


def test_stream_factory_matches_fresh_streams():
    # the counter layout (0, 0, t, counter), written out here apart from the engine's
    factory = engine.StreamFactory(77)
    for t in (1, 3):
        for k in (0, 5, 1000):
            for stream in (factory.stream(t, k), engine.attempt_stream(77, t, k)):
                fresh = Generator(Philox(key=77, counter=(k << 192) | (t << 128)))
                assert stream.random() == fresh.random()
                assert np.array_equal(stream.standard_normal(3), fresh.standard_normal(3))
                assert stream.integers(0, 1000) == fresh.integers(0, 1000)


def test_stream_rejects_bad_seed():
    with pytest.raises(ValueError):
        engine.attempt_stream(-1, 1, 0)
    with pytest.raises(ValueError):
        engine.StreamFactory(2**64)


def test_accept_everything_costs_exactly_n():
    pop = abc_rejection(passthrough_model(), 1e9, 250, seed=1)
    assert pop.sims_used == 250
    assert pop.n == 250


def test_unreachable_tolerance_exhausts_budget():
    with pytest.raises(BudgetExhausted) as exc:
        abc_rejection(passthrough_model(), 0.0, 10, seed=1, budget=50)
    assert exc.value.partial == {"requested": 10, "accepted": 0, "sims_used": 50}


def test_sims_used_equals_simulator_invocations():
    calls = []
    pop = abc_rejection(passthrough_model(calls), 0.2, 80, seed=3)
    assert pop.sims_used == len(calls)


def test_pmc_sims_used_equals_simulator_invocations():
    calls = []
    pops = abc_pmc(passthrough_model(calls), (0.4, 0.3, 0.2), 60, seed=5)
    assert sum(p.sims_used for p in pops) == len(calls)


def test_rerun_is_identical():
    first = abc_rejection(passthrough_model(), 0.25, 120, seed=11)
    second = abc_rejection(passthrough_model(), 0.25, 120, seed=11)
    assert np.array_equal(first.thetas, second.thetas)
    assert np.array_equal(first.dists, second.dists)
    assert first.sims_used == second.sims_used


# each wave is cut into min(workers, wave) chunks: 300 splits unevenly at 8 workers, and 5
# particles at 8 workers start with a wave of 5 one-attempt chunks, fewer than the workers
@pytest.mark.parametrize("workers, n_particles", [(2, 300), (3, 300), (8, 300), (8, 5)],
                         ids=["2", "3", "8", "8-first-wave-under-workers"])
def test_worker_count_invariance(workers, n_particles):
    from popabc.benchmarks import get_model

    model = get_model("mixture-toy")
    ref = abc_pmc(model, (2.0, 0.8), n_particles, seed=123, workers=1)
    got = abc_pmc(model, (2.0, 0.8), n_particles, seed=123, workers=workers)
    for a, b in zip(ref, got):
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.dists, b.dists)
        assert a.sims_used == b.sims_used


def test_no_out_of_support_theta_reaches_simulator():
    seen = []
    model = passthrough_model(seen)
    # wide kernel around a boxed prior forces many support redraws
    abc_pmc(model, (0.6, 0.5, 0.4), 50, seed=9)
    assert all(0.0 <= v <= 1.0 for v in seen)


def test_resolve_workers_integer():
    assert engine.resolve_workers(2) == 2


def test_resolve_workers_auto():
    assert engine.resolve_workers("auto") >= 1


def test_resolve_workers_auto_counts_the_cpus_this_process_may_use(monkeypatch):
    # pinned to one CPU of an 8-CPU host, as under `taskset -c 0`
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert engine.resolve_workers("auto") == 1
    # a platform without affinity masks counts the host's CPUs
    monkeypatch.delattr(os, "sched_getaffinity")
    assert engine.resolve_workers("auto") == 8


def test_resolve_workers_rejects_garbage():
    with pytest.raises(ConfigError):
        engine.resolve_workers("many")
    with pytest.raises(ConfigError):
        engine.resolve_workers(0)
    with pytest.raises(ConfigError):  # 'auto' is the one spelling of one worker per CPU
        engine.resolve_workers(None)


def test_first_wave_matches_request_size():
    assert engine._wave_size(500, 0, 0) == 500
    # later waves plan the remaining need at the observed rate, no headroom
    assert engine._wave_size(100, 50, 200) == int(np.ceil(50 / 0.25))
    # within the floor of 64 and the cap of max(4n, 20000)
    assert engine._wave_size(100, 99, 100) == 64
    assert engine._wave_size(100, 0, 1000) == 20_000


def test_budget_counts_partial_progress():
    model = passthrough_model()
    with pytest.raises(BudgetExhausted) as exc:
        abc_rejection(model, 0.01, 200, seed=2, budget=300)
    assert 0 <= exc.value.partial["accepted"] < 200
    assert exc.value.partial["sims_used"] == 300


def test_nan_summaries_fail_on_first_call():
    calls = []

    def simulate(theta, rng):
        calls.append(1)
        return np.array([np.nan])

    model = ModelSpec(
        name="nan", prior=UniformBoxPrior([0.0], [1.0]), simulator=simulate, observed=[0.5]
    )
    with pytest.raises(ValueError, match=r"summaries \[nan\] at theta \[0\."):
        abc_rejection(model, 1.0, 10, seed=1, budget=5000)
    assert len(calls) == 1


def test_unpicklable_simulator_with_workers_is_config_error():
    model = ModelSpec(
        name="lambda-sim",
        prior=UniformBoxPrior([0.0], [1.0]),
        simulator=lambda theta, rng: np.array([theta[0]]),
        observed=[0.5],
    )
    with pytest.raises(ConfigError, match="lambda-sim"):
        abc_rejection(model, 0.2, 10, seed=1, workers=2)


def fails_above_0_9(theta, rng):
    """Passes theta through and fails above 0.9; defined at module level, so it pickles."""
    if theta[0] > 0.9:
        raise RuntimeError(f"simulator failed at {theta[0]}")
    return np.array([theta[0]])


def test_simulator_failure_in_the_pool_is_the_in_process_failure():
    # every chunk of the first wave holds a failing attempt; the one raised is the first in
    # counter order, as in process, and the pool's processes are gone however the run ends
    model = ModelSpec(name="fails-high", prior=UniformBoxPrior([0.0], [1.0]),
                      simulator=fails_above_0_9, observed=[0.5])
    failures = []
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match="simulator failed at 0.9") as exc:
            abc_rejection(model, 1.0, 1000, seed=3, workers=workers)
        failures.append((type(exc.value), str(exc.value)))
        assert multiprocessing.active_children() == []
    assert failures[0] == failures[1]
    abc_rejection(benchmarks.get_model("mixture-toy"), 1.0, 200, seed=3, workers=2)
    assert multiprocessing.active_children() == []


def test_a_bad_seed_is_refused_before_the_pool_starts(monkeypatch):
    # starting a pool would fail
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    with pytest.raises(ValueError, match="seed must be"):
        abc_pmc(benchmarks.get_model("mixture-toy"), (2.0, 1.0), 50, seed=5.7, workers=2)


def test_support_redraw_redraws_the_ancestor():
    """A proposal outside the support redraws ancestor and move together.

    Under a U(0, 1) prior with a narrow kernel, a move from the particle at
    0.0 stays inside half the time and a move from 0.5 always does, so with
    equal weights the accepted share of ancestor 0 is (1/4) / (3/4) = 1/3.
    Redrawing only the move would keep the ancestor and give 1/2.
    """
    model = passthrough_model()
    prev = engine.Population(1, 1.0, [[0.0], [0.5]], [0.5, 0.5], [0.5, 0.0], None, 2)
    with engine.worker_pool(1, model) as pool:
        res = engine.propagate_generation(
            model, 1.0, prev, KernelScale(tau2=[1e-4]), 3000, seed=4, pool=pool
        )
    assert res.t == 2
    share = float(np.mean(res.ancestors == 0))
    # the share's standard error is sqrt((1/3)(2/3)/3000) = 0.0086
    assert abs(share - 1 / 3) < 0.05, share
    assert np.all(res.thetas[res.ancestors == 0] >= 0.0)


def test_stall_guard_raises_when_nothing_is_ever_accepted(monkeypatch):
    monkeypatch.setattr(engine, "STALL_WAVES", 5)
    model = ModelSpec(
        name="never",
        prior=UniformBoxPrior([0.0], [1.0]),
        simulator=lambda theta, rng: np.array([2.0]),
        observed=[0.5],
    )
    with pytest.raises(Stalled, match="no attempt was accepted") as exc:
        abc_rejection(model, 1.0, 10, seed=1)
    assert "budget" not in str(exc.value)
    assert (exc.value.partial["requested"], exc.value.partial["accepted"]) == (10, 0)
    # waves of 10, 10 * 10, 10 * 110, 10 * 1210 and the cap of 20000
    sims = 10 + 100 + 1100 + 12_100 + 20_000
    assert exc.value.partial["sims_used"] == sims
    # a run with no budget reports the stall as a stall, with the same partial counts
    monkeypatch.setitem(benchmarks.MODEL_BUILDERS, "mixture-toy", lambda: model)
    cfg = parse_run_config({"algorithm": "rejection", "model": "mixture-toy", "seed": 1,
                            "n_particles": 10, "epsilon": 1.0})
    code, report, _ = execute_run(cfg)
    assert code == 3
    assert report["status"] == "stalled"
    assert report["error"] == str(exc.value)
    assert report["partial"] == {"requested": 10, "accepted": 0, "sims_used": sims}
    assert report["generations"] == [] and report["totals"]["sims_used"] == sims


@pytest.mark.parametrize("n", [1, 10, 2000])
def test_stall_guard_allows_a_million_attempts(n):
    attempted = 0
    for _ in range(engine.STALL_WAVES):
        attempted += engine._wave_size(n, 0, attempted)
    assert attempted > 1_000_000


# ------------------------------------------------- the attempt loop is exact


def reference_chunk(model, epsilon, seed, t, lo, hi, prev_thetas, prev_cumw, scale):
    """The attempt loop with plain formulas: a fresh stream per attempt, a
    searchsorted ancestor, a (1, d) noise block, an array support check and a
    scaled Euclidean norm. Also returns how many proposals left the support."""
    prior = model.prior
    uniform = isinstance(prior, UniformBoxPrior)
    thetas, dists, ancestors, redraws = [], [], [], 0
    for counter in range(lo, hi):
        rng = engine.attempt_stream(seed, t, counter)
        j = -1
        if prev_thetas is None:
            theta = (rng.uniform(prior.lows, prior.highs) if uniform
                     else rng.normal(prior.means, prior.sds))
        else:
            while True:
                u = rng.random()
                j = min(int(np.searchsorted(prev_cumw, u, side="right")), prev_cumw.size - 1)
                noise = rng.standard_normal((1, model.dim))
                theta = (prev_thetas[j] + noise * np.sqrt(scale.tau2))[0]
                if not uniform or (np.all(theta >= prior.lows) and np.all(theta <= prior.highs)):
                    break
                redraws += 1
        diff = np.atleast_1d(np.asarray(model.simulator(theta, rng), dtype=float)) - model.observed
        if model.summary_scale is not None:
            diff = diff / model.summary_scale
        dists.append(math.sqrt(np.dot(diff, diff)))
        thetas.append(theta)
        ancestors.append(j)
    dists = np.array(dists)
    return np.array(thetas), dists, np.array(ancestors), dists <= epsilon, redraws


def noisy_box_model(prior):
    def simulate(theta, rng):
        return theta + 0.3 * rng.standard_normal(2)

    return ModelSpec(name="noisy", prior=prior, simulator=simulate, observed=[0.5, 0.9],
                     summary_scale=[1.0, 2.0])


@pytest.mark.parametrize("prior", [UniformBoxPrior([0.0, 0.0], [1.0, 1.0]),
                                   IndependentNormalPrior([0.5, 0.5], [1.0, 2.0])],
                         ids=["uniform-box", "normal"])
@pytest.mark.parametrize("scale", [KernelScale(tau2=[0.3, 0.1])], ids=["diagonal"])
@pytest.mark.parametrize("t", [1, 3], ids=["generation-1", "propagation"])
def test_attempt_chunk_equals_reference_loop(prior, scale, t):
    model = noisy_box_model(prior)
    rng = np.random.default_rng(8)
    prev_thetas = rng.uniform(0.0, 1.0, size=(50, 2))
    prev_cumw = np.cumsum(rng.dirichlet(np.ones(50)))
    args = (model, 0.4, 2024, t, 100, 700) + (
        (None, None, None) if t == 1 else (prev_thetas, prev_cumw, scale)
    )
    thetas, dists, ancestors, accept = engine._run_attempt_chunk(args)
    ref_thetas, ref_dists, ref_ancestors, ref_accept, redraws = reference_chunk(*args)
    assert thetas.shape == (600, 2) and np.all(thetas == ref_thetas)
    assert np.all(dists == ref_dists)
    assert np.all(ancestors == ref_ancestors)
    assert np.all(accept == ref_accept) and 0 < accept.sum() < 600
    if t == 3 and isinstance(prior, UniformBoxPrior):
        assert redraws > 100


def call_by_call_chunk(model, epsilon, seed, t, lo, hi, prev_thetas, prev_cumw, scale):
    """``engine._run_attempt_chunk`` as it was written before its per-attempt callables
    were bound once per chunk, with the earlier bodies of ``ModelSpec.simulate_distance``
    (an ``ndmin=1`` copy and a Euclidean norm), ``kernel.perturb`` and
    ``UniformBoxPrior.in_support`` (a checked copy of theta) and the inverse-CDF
    ancestor pick written out inline."""
    m = hi - lo
    thetas = np.empty((m, model.dim))
    dists = np.empty(m)
    ancestors = np.full(m, -1, dtype=np.int64)
    prior = model.prior
    factory = engine.StreamFactory(seed)
    if prev_thetas is not None:
        rows, cumw = list(prev_thetas), prev_cumw.tolist()
    for i in range(m):
        rng = factory.stream(t, lo + i)
        if prev_thetas is None:
            theta = prior.sample(rng)
        else:
            while True:
                j = min(bisect.bisect_right(cumw, rng.random()), len(cumw) - 1)
                theta_star = np.asarray(rows[j], dtype=float)
                theta = theta_star + rng.standard_normal(scale.dim) * scale.sd
                values = np.array(theta, dtype=float, ndmin=1).tolist()
                if all(low <= v <= high for low, high, v in zip(*prior._bounds, values)):
                    break
            ancestors[i] = j
        summaries = np.array(model.simulator(theta, rng), dtype=float, ndmin=1)
        diff = summaries - model.observed
        if model.summary_scale is not None:
            diff = diff / model.summary_scale
        dists[i] = math.sqrt(np.dot(diff, diff))
        thetas[i] = theta
    return thetas, dists, ancestors, dists <= epsilon


def box_escape_model():
    """A 2-d box that the pinned kernel below mostly proposes out of."""
    def simulate(theta, rng):
        return theta + 0.3 * rng.standard_normal(2)

    return ModelSpec(name="box-escape", prior=UniformBoxPrior([0.0, -1.0], [1.0, 0.0]),
                     simulator=simulate, observed=[0.5, -0.5], summary_scale=[1.0, 0.5])


# (model, epsilon, population to perturb: lows, highs, kernel variance per dimension)
PINNED_CASES = {
    "mixture": (lambda: benchmarks.get_model("mixture-toy"), 0.5, [-10.0], [10.0], [4.0]),
    "coalescent": (lambda: benchmarks.get_model("coalescent-msat"), 1.0, [0.1], [20.0], [9.0]),
    "box-escape": (box_escape_model, 0.3, [0.0, -1.0], [1.0, 0.0], [4.0, 4.0]),
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
@pytest.mark.parametrize("t, lo, hi", [(1, 0, 300), (2, 0, 300), (4, 1000, 1250)],
                         ids=["generation-1", "generation-2", "generation-4-from-1000"])
def test_attempt_chunk_equals_the_call_by_call_loop(case, t, lo, hi):
    make_model, epsilon, lows, highs, tau2 = PINNED_CASES[case]
    model = make_model()
    rng = np.random.default_rng(31)
    prev_thetas = rng.uniform(lows, highs, size=(40, len(lows)))
    prev_cumw = np.cumsum(rng.dirichlet(np.ones(40)))
    args = (model, epsilon, 555, t, lo, hi) + (
        (None, None, None) if t == 1 else (prev_thetas, prev_cumw, KernelScale(tau2=tau2))
    )
    thetas, dists, ancestors, accept = engine._run_attempt_chunk(args)
    want = call_by_call_chunk(*args)
    assert thetas.shape == (hi - lo, len(lows))
    for got, ref in zip((thetas, dists, ancestors, accept), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert 0 < accept.sum() < hi - lo


def test_box_escape_case_mostly_redraws():
    # the pinned box case is there for its redraws: most proposals leave the box
    _, _, lows, highs, tau2 = PINNED_CASES["box-escape"]
    prior = UniformBoxPrior(lows, highs)
    rng = np.random.default_rng(5)
    starts = rng.uniform(lows, highs, size=(2000, 2))
    moved = starts + rng.standard_normal((2000, 2)) * np.sqrt(tau2)
    assert np.mean(prior.logpdf_batch(moved) == -np.inf) > 0.8


def test_attempt_chunk_binds_perturb_when_it_starts(monkeypatch):
    # a wrapper put on kernel.perturb after import, as the bench's tracer does, is called
    calls = []
    original = kernel.perturb

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "perturb", counted)
    model = benchmarks.get_model("mixture-toy")
    args = (model, 0.5, 1, 2, 0, 50, np.array([[0.0], [1.0]]), np.array([0.5, 1.0]),
            KernelScale(tau2=[1.0]))
    engine._run_attempt_chunk(args)
    assert len(calls) >= 50
