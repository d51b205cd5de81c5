import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from popabc import engine, kernel
from popabc.errors import BudgetExhausted, DegeneratePopulation
from popabc.kernel import KernelScale, check_weight_sum
from popabc.models import IndependentNormalPrior, ModelSpec, UniformBoxPrior
from popabc.samplers import (
    CHUNK,
    MCMCResult,
    Population,
    ToleranceSchedule,
    _normalize_log_weights,
    abc_mcmc,
    abc_pmc,
    abc_prc,
    abc_rejection,
    pmc_log_weights,
    prc_log_weights,
)
from popabc.benchmarks import get_model


def constant_model():
    """Distance is always zero: every simulated proposal is accepted."""
    return ModelSpec(
        name="constant",
        prior=UniformBoxPrior([0.0], [1.0]),
        simulator=lambda theta, rng: np.array([0.0]),
        observed=[0.0],
    )


def weighted_var(pop):
    mean = float(pop.weights @ pop.thetas[:, 0])
    return float(pop.weights @ (pop.thetas[:, 0] - mean) ** 2)


# ---------------------------------------------------------------- schedules


def test_schedule_requires_strict_decrease():
    with pytest.raises(ValueError):
        ToleranceSchedule((1.0, 2.0))
    with pytest.raises(ValueError):
        ToleranceSchedule((1.0, 1.0))
    with pytest.raises(ValueError):
        ToleranceSchedule(())
    with pytest.raises(ValueError):
        ToleranceSchedule((1.0, -0.5))
    assert ToleranceSchedule((3, 1.0, 0)).epsilons == (3.0, 1.0, 0.0)


# ---------------------------------------------------------------- resampling
# The engine resamples by inverse CDF over the cumulative weights of a
# Population, whose weights check_weight_sum has checked. These tests read the
# ancestors that one chunk of attempts picks, on a model where every proposal
# stays inside the support, so no pick is redrawn.


def resampled_ancestors(weights, attempts: int, seed: int) -> np.ndarray:
    model = ModelSpec(name="wide", prior=UniformBoxPrior([-10.0], [10.0]),
                      simulator=lambda theta, rng: theta, observed=[0.0])
    prev_thetas = np.zeros((len(weights), 1))
    args = (model, 100.0, seed, 2, 0, attempts, prev_thetas, np.cumsum(weights),
            KernelScale(tau2=[1e-4]))
    _, _, ancestors, accept = engine._run_attempt_chunk(args)
    assert np.all(accept)
    return ancestors


def test_resample_single_particle():
    assert np.all(resampled_ancestors([1.0], 50, seed=0) == 0)


def test_resample_excludes_zero_weight():
    assert np.all(resampled_ancestors([0.0, 1.0], 200, seed=1) == 1)


def test_resample_frequencies():
    counts = np.bincount(resampled_ancestors([0.5, 0.5], 100_000, seed=2), minlength=2)
    assert abs(counts[0] / 100_000 - 0.5) < 0.01


def test_resample_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        check_weight_sum(np.array([0.5, 0.6]))
    assert check_weight_sum(np.array([0.25, 0.75])) == 1.0


# ---------------------------------------------------------------- weights


def test_pmc_weight_single_ancestor_value():
    # one ancestor at 0 with weight 1, tau2 = 1, offspring at 0, U(-10, 10) prior:
    # 0.05 / phi(0) = 0.05 * sqrt(2 pi)
    prior = UniformBoxPrior([-10.0], [10.0])
    log_w = pmc_log_weights(
        np.array([[0.0]]),
        prior,
        np.array([[0.0]]),
        np.array([1.0]),
        KernelScale(tau2=[1.0]),
    )
    expected = 0.05 * math.sqrt(2 * math.pi)
    assert math.exp(log_w[0]) == pytest.approx(expected, rel=1e-12)
    assert math.exp(log_w[0]) == pytest.approx(0.12533, abs=1e-5)


def test_pmc_weights_match_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(50):
        n = int(rng.integers(3, 40))
        d = int(rng.integers(1, 3))
        prev = rng.normal(0, 2, size=(n, d))
        cur = rng.normal(0, 2, size=(n, d))
        weights = rng.dirichlet(np.ones(n))
        tau2 = rng.uniform(0.1, 4.0, size=d)
        if trial % 2 == 0:
            prior = UniformBoxPrior([-30.0] * d, [30.0] * d)
        else:
            prior = IndependentNormalPrior([0.0] * d, [3.0] * d)
        got = np.exp(pmc_log_weights(cur, prior, prev, weights, KernelScale(tau2=tau2)))
        for i in range(n):
            denom = 0.0
            for j in range(n):
                quad_form = 0.0
                log_norm = 0.0
                for k in range(d):
                    diff = cur[i][k] - prev[j][k]
                    quad_form += diff * diff / tau2[k]
                    log_norm += math.log(2 * math.pi * tau2[k])
                denom += weights[j] * math.exp(-0.5 * (quad_form + log_norm))
            expected = math.exp(prior.logpdf_batch(cur)[i]) / denom
            assert abs(got[i] - expected) / expected < 1e-10


def brute_log_weights(cur, prior, prev, weights, cov):
    """Log PMC weights from the explicit inverse of the kernel covariance, summed in log
    space with its own max shift.

    Differences are taken on the raw parameters; zero-weight ancestors are skipped.
    """
    d = len(cov)
    inv = np.linalg.inv(cov)
    log_norm = -0.5 * (d * math.log(2 * math.pi) + math.log(np.linalg.det(cov)))
    out = []
    for x in cur:
        terms = [
            math.log(w) + log_norm - 0.5 * float((x - c) @ inv @ (x - c))
            for c, w in zip(prev, weights) if w > 0
        ]
        top = max(terms)
        out.append(prior.logpdf_batch([x])[0] - top - math.log(sum(math.exp(t - top) for t in terms)))
    return np.array(out)


def test_pmc_weights_match_brute_force_far_from_origin():
    # a weight pass that whitened raw theta before subtracting lost digits out here:
    # it read rel 2.4e-10 off at offset 1e5 / sd 1e-2
    rng = np.random.default_rng(8)
    for offset in (1e3, 1e4, 1e5, 1e6):
        for sd in (1e-2, 0.1, 1.0):
            n = 20
            d = 1 if sd < 1.0 else 2
            prev = offset + rng.normal(0, sd, size=(n, d))
            cur = offset + rng.normal(0, sd, size=(n, d))
            weights = rng.dirichlet(np.ones(n))
            tau2 = sd * sd * rng.uniform(0.5, 4.0, size=d)
            prior = UniformBoxPrior([offset - 10.0] * d, [offset + 10.0] * d)
            got = np.exp(pmc_log_weights(cur, prior, prev, weights, KernelScale(tau2=tau2)))
            for i in range(n):
                denom = 0.0
                for j in range(n):
                    quad_form = 0.0
                    log_norm = 0.0
                    for k in range(d):
                        diff = cur[i][k] - prev[j][k]
                        quad_form += diff * diff / tau2[k]
                        log_norm += math.log(2 * math.pi * tau2[k])
                    denom += weights[j] * math.exp(-0.5 * (quad_form + log_norm))
                expected = math.exp(prior.logpdf_batch(cur)[i]) / denom
                assert abs(got[i] - expected) / expected < 1e-10, (offset, sd)


@pytest.mark.parametrize("d", [1, 2], ids=["1-diagonal", "2-diagonal"])
def test_pmc_weights_far_particle_and_zero_weights(d):
    rng = np.random.default_rng(9)
    n = 30
    cov = np.diag(rng.uniform(0.5, 2.0, size=d))
    scale = KernelScale(tau2=np.diag(cov))
    # two clusters 120 kernel SDs apart along the widest axis, and a new particle
    # midway: 60 SDs from every centre, so each kernel term underflows to 0 in
    # double precision and only a shifted sum keeps the weight finite
    gap = 60.0 * math.sqrt(np.linalg.eigvalsh(cov).max())
    side = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    prev = side[:, None] * gap * np.eye(d)[0] + rng.normal(0, 1, size=(n, d))
    cur = prev + rng.normal(0, 1, size=(n, d))
    cur[0] = 0.0
    weights = rng.dirichlet(np.ones(n))
    weights[::3] = 0.0
    weights /= weights.sum()
    prev[3] = cur[0]  # a zero-weight ancestor right on the far particle
    prior = UniformBoxPrior([-1e3] * d, [1e3] * d)
    log_w = pmc_log_weights(cur, prior, prev, weights, scale)
    assert np.all(np.isfinite(log_w))
    assert np.all(np.abs(log_w - brute_log_weights(cur, prior, prev, weights, cov)) < 1e-10)
    # zero-weight ancestors contribute nothing: dropping them changes no weight
    kept = weights > 0
    dropped = pmc_log_weights(cur, prior, prev[kept], weights[kept], scale)
    assert np.all(np.abs(dropped - log_w) < 1e-10)


def test_pmc_weights_independent_of_block_budget(monkeypatch):
    rng = np.random.default_rng(10)
    n, d = 37, 2
    prev = rng.normal(0, 2, size=(n, d))
    cur = rng.normal(0, 2, size=(n, d))
    weights = rng.dirichlet(np.ones(n))
    tau2 = [1.5, 0.9]
    prior = IndependentNormalPrior([0.0] * d, [3.0] * d)
    one_block = pmc_log_weights(cur, prior, prev, weights, KernelScale(tau2=tau2))
    brute = brute_log_weights(cur, prior, prev, weights, np.diag(tau2))
    assert np.all(np.abs(one_block - brute) < 1e-10)
    for budget in (3 * n, 5 * n - 1, 1):  # blocks of 3 rows, 4 rows, and 1 row
        monkeypatch.setattr(kernel, "BUDGET", budget)
        blocked = pmc_log_weights(cur, prior, prev, weights, KernelScale(tau2=tau2))
        np.testing.assert_allclose(blocked, one_block, rtol=1e-13)
        assert np.all(np.abs(blocked - brute) < 1e-10)


def test_pmc_weights_peak_memory_follows_budget():
    # one (rows, N) block of BUDGET float64 entries is the pass's only large array, so
    # two blocks' worth bounds it; a fixed 512-row block and logsumexp traced 292 MB
    rng = np.random.default_rng(11)
    n = 10_000
    prev = rng.normal(size=(n, 1))
    cur = rng.normal(size=(n, 1))
    weights = rng.dirichlet(np.ones(n))
    prior = UniformBoxPrior([-50.0], [50.0])
    tracemalloc.start()
    try:
        log_w = pmc_log_weights(cur, prior, prev, weights, KernelScale(tau2=[0.5]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(log_w))
    assert peak < 2 * kernel.BUDGET * 8, peak


def test_prc_weight_normal_prior_ratio():
    # ancestor at 0, offspring at 1, N(0, 1) prior: phi(1)/phi(0) = exp(-1/2)
    prior = IndependentNormalPrior([0.0], [1.0])
    log_w = prc_log_weights(
        np.array([[1.0]]), np.array([0]), prior, np.array([[0.0]])
    )
    assert math.exp(log_w[0]) == pytest.approx(math.exp(-0.5), rel=1e-12)


# ---------------------------------------------------------------- populations


def test_population_invariants_enforced():
    with pytest.raises(ValueError):
        Population(
            t=1, epsilon=0.5,
            thetas=np.array([[0.0], [1.0]]),
            weights=np.array([0.5, 0.5]),
            dists=np.array([0.1, 0.9]),  # exceeds epsilon
            scale=None, sims_used=2,
        )
    with pytest.raises(ValueError):
        Population(
            t=1, epsilon=1.0,
            thetas=np.array([[0.0], [1.0]]),
            weights=np.array([0.7, 0.7]),
            dists=np.array([0.1, 0.2]),
            scale=None, sims_used=2,
        )
    with pytest.raises(ValueError, match="within epsilon"):  # no NaN is > epsilon
        Population(t=1, epsilon=0.5, thetas=np.zeros((2, 1)), weights=[0.5, 0.5],
                   dists=[np.nan, 0.1], scale=None, sims_used=2)


def test_population_ancestors_checked():
    base = dict(t=2, epsilon=1.0, thetas=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]),
                dists=np.array([0.1, 0.2]), scale=None, sims_used=2)
    assert np.array_equal(Population(**base, ancestors=np.array([1, 1])).ancestors, [1, 1])
    for ancestors in (np.array([0]), np.array([0, 1, 1]), np.array([0.0, 1.0]), np.array([0, -1])):
        with pytest.raises(ValueError, match="ancestors"):
            Population(**base, ancestors=ancestors)
    with pytest.raises(ValueError, match="ancestors"):
        Population(**dict(base, t=1), ancestors=np.array([0, 1]))


# ---------------------------------------------------------------- rejection


def test_rejection_accept_everything():
    pop = abc_rejection(constant_model(), 10.0, 64, seed=8)
    assert pop.sims_used == 64
    assert np.all(pop.weights == pop.weights[0])


def test_rejection_rejects_empty_request():
    with pytest.raises(ValueError):
        abc_rejection(constant_model(), 1.0, 0, seed=0)


@pytest.mark.parametrize("epsilon", [float("nan"), -0.5, float("inf")])
def test_rejection_and_mcmc_reject_bad_epsilon(monkeypatch, epsilon):
    # no distance is <= nan, so an unchecked NaN would spend simulations until the
    # stall guard stops it; a low guard keeps that failure fast
    monkeypatch.setattr(engine, "STALL_WAVES", 3)
    model = get_model("mixture-toy")
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        abc_rejection(model, epsilon, 10, seed=1)
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        abc_mcmc(model, epsilon, 10, 1.0, seed=1)


@pytest.mark.parametrize("budget", [0, -3, 2.5, float("nan"), "100"])
def test_samplers_refuse_a_budget_that_is_not_a_positive_integer(budget):
    model = get_model("mixture-toy")
    message = re.escape(f"budget must be a positive integer, got {budget}")
    with pytest.raises(ValueError, match=message):
        abc_rejection(model, 1.0, 10, seed=1, budget=budget)
    with pytest.raises(ValueError, match=message):
        abc_pmc(model, (2.0, 1.0), 10, seed=1, budget=budget)
    with pytest.raises(ValueError, match=message):
        abc_mcmc(model, 1.0, 10, 1.0, seed=1, budget=budget)


@pytest.mark.parametrize("name, value", [
    ("seed", 5.7), ("seed", True), ("seed", "5"),
    ("n_particles", 10.0), ("n_particles", "10"), ("n_particles", True),
    ("epsilon", "1.0"), ("epsilon", True),
])
def test_samplers_refuse_an_argument_of_the_wrong_type(name, value):
    # each rule tests the type with the range: no float seed truncated, no bool taken for 1,
    # and a ValueError that names the argument instead of a bare comparison TypeError
    model = get_model("mixture-toy")
    args = {"epsilon": 1.0, "n_particles": 20, "seed": 5, name: value}
    message = f"^{name} must be .*, got {re.escape(str(value))}$"
    with pytest.raises(ValueError, match=message):
        abc_rejection(model, args["epsilon"], args["n_particles"], seed=args["seed"])
    with pytest.raises(ValueError, match=message):
        abc_pmc(model, (args["epsilon"],), args["n_particles"], seed=args["seed"])
    if name != "n_particles":
        with pytest.raises(ValueError, match=message):
            abc_mcmc(model, args["epsilon"], 10, 1.0, seed=args["seed"])


@pytest.mark.parametrize("n_iter, proposal_sd, name", [
    ("10", 1.0, "n_iter"), (10.0, 1.0, "n_iter"), (10, "1.0", "proposal_sd"),
    (10, True, "proposal_sd"), (10, [1.0, "1.0"], "proposal_sd"),
])
def test_mcmc_refuses_chain_arguments_of_the_wrong_type(n_iter, proposal_sd, name):
    model = ModelSpec(name="plane", prior=UniformBoxPrior([0.0, 0.0], [1.0, 1.0]),
                      simulator=lambda theta, rng: np.array([0.0]), observed=[0.0])
    with pytest.raises(ValueError, match=f"^{name} must be "):
        abc_mcmc(model, 0.5, n_iter, proposal_sd, seed=1)


def test_rejection_mixture_variance():
    # analytic posterior variance 0.505; tolerance-smoothing at eps=0.1 is small
    pop = abc_rejection(get_model("mixture-toy"), 0.10, 5000, seed=42)
    assert abs(weighted_var(pop) - 0.505) / 0.505 < 0.10


# ---------------------------------------------------------------- pmc / prc


@pytest.mark.parametrize("offset", [-800.0, 0.0, 800.0])
def test_normalize_log_weights_matches_logsumexp(offset):
    # exp(+-800) overflows or underflows on its own; the shift keeps every weight.
    # Every entry plus the offset is exact, so the weights are the offset-free ones.
    base = np.array([0.0, -1.0, -2.5, -np.inf, -30.0, 3.0])
    got = _normalize_log_weights(base + offset)
    want = np.exp(base - logsumexp(base))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    assert got[3] == 0.0
    check_weight_sum(got)


def test_normalize_log_weights_all_vanished_is_degenerate():
    with pytest.raises(DegeneratePopulation, match="vanished"):
        _normalize_log_weights(np.full(4, -np.inf))


def test_pmc_single_generation_equals_rejection():
    model = get_model("mixture-toy")
    rej = abc_rejection(model, 2.0, 150, seed=99)
    (pmc_pop,) = abc_pmc(model, (2.0,), 150, seed=99)
    assert np.array_equal(rej.thetas, pmc_pop.thetas)
    assert np.array_equal(rej.weights, pmc_pop.weights)
    assert np.array_equal(rej.dists, pmc_pop.dists)
    assert rej.sims_used == pmc_pop.sims_used


def test_pmc_generations_respect_tolerances():
    pops = abc_pmc(get_model("mixture-toy"), (2.0, 0.8, 0.4), 200, seed=5)
    assert [p.t for p in pops] == [1, 2, 3]
    for pop, eps in zip(pops, (2.0, 0.8, 0.4)):
        assert pop.epsilon == eps
        assert np.all(pop.dists <= eps)
        assert abs(pop.weights.sum() - 1.0) < 1e-9
    assert pops[0].scale is None
    assert pops[1].scale is not None


def test_pmc_posterior_moments_smallish_run():
    """The PMC estimator at N=1000 recovers the mixture posterior moments.

    The band [0.38, 0.65] and the bound |mean| < 0.12 apply to the averages
    over five independent runs (seeds 0-4), not to a single run. A seed study
    over seeds 0-39 gave a per-seed weighted variance of mean 0.505 and SD
    0.081 (analytic oracle 0.505, 0.508 after tolerance smoothing); 4 of the
    40 single runs fall outside the band. The five-seed average has SD about
    0.081 / sqrt(5) = 0.036, so a correct sampler fails this test with
    probability about 3e-4 under a normal approximation. A PRC-weighted run
    (prior-ratio weights, variance about 0.26) fails it: with abc_prc in
    place of abc_pmc the five-seed average is 0.281.
    """
    model = get_model("mixture-toy")
    runs = [abc_pmc(model, (2.0, 0.5, 0.10), 1000, seed=seed)[-1] for seed in range(5)]
    variances = [weighted_var(pop) for pop in runs]
    means = [float(pop.weights @ pop.thetas[:, 0]) for pop in runs]
    detail = (
        f"per-seed variances {[round(v, 4) for v in variances]}, "
        f"per-seed means {[round(m, 4) for m in means]}"
    )
    assert 0.38 <= np.mean(variances) <= 0.65, detail
    assert abs(np.mean(means)) < 0.12, detail


def test_prc_uniform_prior_weights_exactly_equal():
    pops = abc_prc(get_model("mixture-toy"), (2.0, 0.8, 0.4), 150, seed=17)
    for pop in pops:
        assert np.all(pop.weights == pop.weights[0])


def test_prc_propagation_matches_pmc_before_weighting():
    # same seed, same first two generations of proposals: generation 2 particle
    # positions and ancestors agree because gen-1 weights are uniform for both samplers
    model = get_model("mixture-toy")
    pmc_pops = abc_pmc(model, (2.0, 0.8), 120, seed=31)
    prc_pops = abc_prc(model, (2.0, 0.8), 120, seed=31)
    assert np.array_equal(pmc_pops[1].thetas, prc_pops[1].thetas)
    assert np.array_equal(pmc_pops[1].ancestors, prc_pops[1].ancestors)
    assert not np.array_equal(pmc_pops[1].weights, prc_pops[1].weights)


def test_sequential_populations_record_their_ancestors():
    pops = abc_pmc(get_model("mixture-toy"), (2.0, 0.8, 0.4), 120, seed=31)
    assert pops[0].ancestors is None
    for prev, pop in zip(pops, pops[1:]):
        assert pop.ancestors.shape == (pop.n,) and pop.ancestors.dtype.kind == "i"
        assert np.all((pop.ancestors >= 0) & (pop.ancestors < prev.n))


def test_prc_weights_are_the_prior_ratio_along_the_ancestor():
    # conjugate-normal has a N(0, 10^2) prior, so PRC weights are not uniform
    model = get_model("conjugate-normal")
    pops = abc_prc(model, (10.0, 3.0, 1.0), 300, seed=5)
    for prev, pop in zip(pops, pops[1:]):
        parent = prev.thetas[pop.ancestors, 0]
        ratio = np.exp((parent**2 - pop.thetas[:, 0] ** 2) / (2 * 10.0**2))
        assert np.ptp(pop.weights) > 0
        np.testing.assert_allclose(pop.weights, ratio / ratio.sum(), rtol=1e-12, atol=0)


def test_sequential_requires_two_particles():
    with pytest.raises(ValueError):
        abc_pmc(get_model("mixture-toy"), (2.0, 1.0), 1, seed=0)


def test_budget_exhaustion_streams_completed_generations():
    model = get_model("mixture-toy")
    seen = []
    with pytest.raises(BudgetExhausted):
        abc_pmc(model, (5.0, 0.0), 100, seed=1, budget=400, on_generation=seen.append)
    assert len(seen) == 1
    assert seen[0].t == 1


def test_a_population_too_wide_for_a_finite_kernel_is_degenerate():
    # its weighted variance overflows, which pyproject.toml's warning filter would also catch
    model = ModelSpec(name="widest", prior=UniformBoxPrior([-8e307], [8e307]),
                      simulator=lambda theta, rng: np.array([0.0]), observed=[0.0])
    seen = []
    with pytest.raises(DegeneratePopulation, match="too large for a finite kernel"):
        abc_pmc(model, (1e9, 1e8), 50, seed=1, on_generation=seen.append)
    assert [pop.t for pop in seen] == [1]


# ---------------------------------------------------------------- mcmc


def test_mcmc_flat_prior_inside_support_always_accepts():
    # constant simulator keeps distance at zero; tiny proposals stay inside
    model = constant_model()
    result = abc_mcmc(model, 0.5, 500, 1e-4, seed=4)
    assert result.n_accepted == 500
    assert result.acceptance_rate == 1.0


def test_mcmc_out_of_support_proposals_rejected():
    model = constant_model()
    result = abc_mcmc(model, 0.5, 2000, 10.0, seed=5)
    # huge proposals frequently leave [0, 1]; those moves must be rejected
    assert result.n_accepted < 2000
    assert np.all((result.thetas >= 0.0) & (result.thetas <= 1.0))


def test_mcmc_rejected_step_repeats_state():
    model = constant_model()
    result = abc_mcmc(model, 0.5, 400, 10.0, seed=6)
    changed = np.count_nonzero(np.diff(result.thetas[:, 0]))
    assert changed == result.n_accepted or changed == result.n_accepted - 1


def test_mcmc_takes_per_dimension_proposal_sd():
    # configs give one number; a library caller may still give one SD per dimension
    model = ModelSpec(name="plane", prior=UniformBoxPrior([0.0, 0.0], [1.0, 1.0]),
                      simulator=lambda theta, rng: np.array([0.0]), observed=[0.0])
    scalar = abc_mcmc(model, 0.5, 300, 0.2, seed=3)
    same = abc_mcmc(model, 0.5, 300, [0.2, 0.2], seed=3)
    assert np.array_equal(scalar.thetas, same.thetas)
    narrow = abc_mcmc(model, 0.5, 300, [0.2, 1e-6], seed=3)
    assert np.ptp(narrow.thetas[:, 1]) < 1e-3 < np.ptp(narrow.thetas[:, 0])
    with pytest.raises(ValueError, match="proposal_sd"):
        abc_mcmc(model, 0.5, 300, [0.2, 0.2, 0.2], seed=3)
    for bad in (np.inf, [0.2, np.inf]):  # a chain that could never move
        with pytest.raises(ValueError, match="proposal_sd"):
            abc_mcmc(model, 0.5, 300, bad, seed=3)


def test_mcmc_finds_init_and_counts_sims():
    model = get_model("mixture-toy")
    result = abc_mcmc(model, 0.5, 2000, 1.0, seed=9)
    assert result.init_sims >= 1
    assert result.sims_used >= result.init_sims
    assert np.all(result.dists <= 0.5)


def test_mcmc_mixture_variance_sanity():
    result = abc_mcmc(get_model("mixture-toy"), 0.10, 60_000, 1.5, seed=1)
    var = float(np.var(result.thetas[5000:, 0]))
    assert 0.38 <= var <= 0.64


def test_mcmc_accepts_on_a_uniform_of_zero(monkeypatch):
    """``Generator.random`` can return exactly 0.0, and log 0 = -inf lies below any prior
    ratio: with every acceptance uniform zero, each in-support move within epsilon is taken."""
    real_stream = engine.attempt_stream

    class ZeroUniforms:
        def __init__(self, rng):
            self.standard_normal = rng.standard_normal

        def random(self, size):
            return np.zeros(size)

    def stream(seed, t, counter):
        rng = real_stream(seed, t, counter)
        return ZeroUniforms(rng) if (t, counter) == (engine.CHAIN_STREAM_T, 0) else rng

    monkeypatch.setattr(engine, "attempt_stream", stream)
    summaries = []

    def simulate(theta, rng):
        summaries.append(theta[0] + rng.normal())
        return np.array([summaries[-1]])

    model = ModelSpec(name="normal-prior", prior=IndependentNormalPrior([0.0], [1.0]),
                      simulator=simulate, observed=[0.0])
    result = abc_mcmc(model, 1.0, 2 * CHUNK, 2.0, seed=5)
    within = np.abs(summaries[result.init_sims:]) <= 1.0
    assert result.n_accepted == np.count_nonzero(within) > 0
    assert result.sims_used == len(summaries)


def test_mcmc_budget_enforced():
    with pytest.raises(BudgetExhausted) as exc:
        abc_mcmc(get_model("mixture-toy"), 0.5, 100_000, 1.0, seed=2, budget=500)
    # the step whose simulation would have been call 501, as the reference loop finds it
    assert exc.value.partial == {"requested": 100_000, "accepted": 435, "sims_used": 500}
    with pytest.raises(BudgetExhausted) as ref:
        reference_mcmc(get_model("mixture-toy"), 0.5, 100_000, 1.0, seed=2, budget=500)
    assert ref.value.partial == exc.value.partial


def reference_mcmc(model, epsilon, n_iter, proposal_sd, *, seed, budget=None):
    """``abc_mcmc`` one step at a time, from the same two streams in the same layout."""
    found = abc_rejection(model, epsilon, 1, seed=seed, budget=budget)
    theta, cur_dist = found.thetas[0], float(found.dists[0])
    cur_lp = model.prior.logpdf_batch(found.thetas)[0]
    sd = np.broadcast_to(np.asarray(proposal_sd, dtype=float), (model.dim,))
    draws = engine.attempt_stream(seed, engine.CHAIN_STREAM_T, 0)
    sim_rng = engine.attempt_stream(seed, engine.CHAIN_STREAM_T, 1)
    sims, n_accepted = found.sims_used, 0
    thetas, dists = [], []
    for lo in range(0, n_iter, CHUNK):
        m = min(CHUNK, n_iter - lo)
        noise = draws.standard_normal((m, model.dim)) * sd
        us = draws.random(m)
        for i in range(m):
            prop = theta + noise[i]
            lp = model.prior.logpdf_batch([prop])[0]
            if lp > -math.inf:
                if budget is not None and sims >= budget:
                    raise BudgetExhausted(n_iter, lo + i, sims)
                dist = model.simulate_distance(prop, sim_rng)
                sims += 1
                if dist <= epsilon and (us[i] == 0.0 or math.log(us[i]) < lp - cur_lp):
                    theta, cur_dist, cur_lp = prop, dist, lp
                    n_accepted += 1
            thetas.append(theta)
            dists.append(cur_dist)
    return MCMCResult(np.array(thetas), np.array(dists), n_accepted, sims, found.sims_used)


def normal_prior_model():
    """A Gaussian prior, so the prior ratio decides moves the distance lets through."""
    return ModelSpec(
        name="normal-prior",
        prior=IndependentNormalPrior([0.0], [1.0]),
        simulator=lambda theta, rng: np.array([theta[0] + rng.normal()]),
        observed=[0.0],
    )


def normal_prior_model_2d():
    # in 2-d, a density written apart from logpdf_batch can differ from it in the last ulp
    return ModelSpec(
        name="normal-prior-2d",
        prior=IndependentNormalPrior([0.0, 0.5], [1.0, 2.0]),
        simulator=lambda theta, rng: theta + rng.normal(size=2),
        observed=[0.0, 0.0],
    )


def box_model_2d():
    return ModelSpec(
        name="box-2d",
        prior=UniformBoxPrior([0.0, -1.0], [1.0, 2.0]),
        simulator=lambda theta, rng: theta + rng.normal(size=2),
        observed=[0.5, 0.5],
    )


@pytest.mark.parametrize(
    "make_model, epsilon, n_iter, proposal_sd, seed",
    [
        (lambda: get_model("mixture-toy"), 0.1, 5_000, 1.5, 1),
        (box_model_2d, 1.0, 3_000, 10.0, 7),  # most proposals leave the support
        (lambda: get_model("mixture-toy"), 0.5, 3 * CHUNK + 17, 1.0, 4),
        (normal_prior_model, 1.0, 2 * CHUNK + 1, [2.0], 5),
        (normal_prior_model_2d, 2.0, 2 * CHUNK + 1, [1.0, 2.0], 6),
    ],
    ids=["mixture", "box-2d-wide", "partial-last-block", "normal-prior", "normal-prior-2d"],
)
def test_mcmc_equals_the_per_step_reference(make_model, epsilon, n_iter, proposal_sd, seed):
    model = make_model()
    got = abc_mcmc(model, epsilon, n_iter, proposal_sd, seed=seed)
    want = reference_mcmc(model, epsilon, n_iter, proposal_sd, seed=seed)
    assert np.array_equal(got.thetas, want.thetas)
    assert np.array_equal(got.dists, want.dists)
    assert (got.n_accepted, got.sims_used, got.init_sims) == (
        want.n_accepted, want.sims_used, want.init_sims
    )
    assert 0 < got.n_accepted < n_iter - 1


def test_mcmc_partial_last_block_case_holds_states_across_blocks():
    # the premise of the reference case above: the last block is short, and some
    # state is held across a block boundary
    model = get_model("mixture-toy")
    n_iter = 3 * CHUNK + 17
    got = abc_mcmc(model, 0.5, n_iter, 1.0, seed=4)
    boundaries = np.arange(CHUNK, n_iter, CHUNK)
    assert np.any(got.thetas[boundaries - 1, 0] == got.thetas[boundaries, 0])
    assert n_iter % CHUNK != 0


def test_mcmc_budget_out_mid_block_matches_the_reference():
    model = get_model("mixture-toy")
    with pytest.raises(BudgetExhausted) as got:
        abc_mcmc(model, 0.1, 10_000, 1.5, seed=3, budget=777)
    with pytest.raises(BudgetExhausted) as want:
        reference_mcmc(model, 0.1, 10_000, 1.5, seed=3, budget=777)
    assert got.value.partial == want.value.partial
    assert got.value.partial["sims_used"] == 777
    assert got.value.partial["accepted"] % CHUNK != 0
