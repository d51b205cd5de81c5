"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance here is fixed; the statistical checks use pinned
seeds so the whole suite is deterministic.
"""
import math
import time

import numpy as np
import pytest
import yaml

import coalescent_reference as reference
from test_diagnostics import ks_two_sample

from popabc import persist
from popabc.benchmarks import conjugate, get_model, mixture
from popabc.cli import execute_compare, main
from popabc.config import parse_compare_config
from popabc.errors import DegeneratePopulation
from popabc.kernel import KernelScale, adapt_scale
from popabc.models import IndependentNormalPrior, ModelSpec, UniformBoxPrior
from popabc.samplers import abc_mcmc, abc_pmc, abc_prc, abc_rejection, pmc_log_weights

MIXTURE_SCHEDULE = (2.0, 0.5, 0.10)
ORACLE_VAR = 0.505


def weighted_mean_var(pop):
    mean = float(pop.weights @ pop.thetas[:, 0])
    var = float(pop.weights @ (pop.thetas[:, 0] - mean) ** 2)
    return mean, var


@pytest.fixture(scope="module")
def mixture_model():
    return get_model("mixture-toy")


@pytest.fixture(scope="module")
def pmc_mixture_runs(mixture_model):
    """Five deterministic sequential runs shared by criteria 3 and 5."""
    return {
        seed: abc_pmc(mixture_model, MIXTURE_SCHEDULE, 5000, seed=seed)
        for seed in (11, 12, 13, 14, 15)
    }


def test_criterion_01_weight_formula_matches_brute_force():
    """PMC weights equal prior / mixture density on 1000 random instances."""
    rng = np.random.default_rng(314)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(3, 51))
        d = int(rng.integers(1, 3))
        prev = rng.normal(0, 2, size=(n, d))
        cur = rng.normal(0, 2, size=(n, d))
        weights = rng.dirichlet(np.ones(n))
        tau2 = rng.uniform(0.1, 4.0, size=d)
        if trial % 2 == 0:
            prior = UniformBoxPrior([-30.0] * d, [30.0] * d)
            prior_pdf = lambda theta: (1.0 / 60.0) ** d
        else:
            prior = IndependentNormalPrior([0.0] * d, [3.0] * d)
            prior_pdf = lambda theta: math.prod(
                math.exp(-0.5 * (v / 3.0) ** 2) / (3.0 * math.sqrt(2 * math.pi))
                for v in theta
            )
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
            expected = prior_pdf(cur[i]) / denom
            worst = max(worst, abs(got[i] - expected) / expected)
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 10.0
    print(f"\n[criterion 1] weight formula vs brute force: worst rel err {worst:.2e} "
          f"in {elapsed:.1f}s PASS")


def test_criterion_02_kernel_adaptation_matches_oracle():
    """adapt_scale equals twice an independent weighted variance, 1000 cases."""
    rng = np.random.default_rng(271)
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 50))
        d = int(rng.integers(1, 4))
        thetas = rng.normal(0, rng.uniform(0.3, 4.0), size=(n, d))
        weights = rng.dirichlet(np.ones(n))
        try:
            scale = adapt_scale(thetas, weights)
        except DegeneratePopulation:
            continue
        total = weights.sum()
        for k in range(d):
            mean_k = sum(weights[i] * thetas[i][k] for i in range(n)) / total
            var_k = sum(weights[i] * (thetas[i][k] - mean_k) ** 2 for i in range(n)) / total
            worst = max(worst, abs(scale.tau2[k] - 2 * var_k) / (2 * var_k))
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 990
    assert worst < 1e-12
    assert elapsed < 1.0
    print(f"\n[criterion 2] kernel adaptation vs oracle: worst rel err {worst:.2e} "
          f"on {checked} populations in {elapsed:.2f}s PASS")


def test_criterion_03_pmc_posterior_correctness(pmc_mixture_runs):
    """Mixture benchmark, five seeds: variance in [0.45, 0.56], |mean| < 0.05."""
    for seed, pops in pmc_mixture_runs.items():
        mean, var = weighted_mean_var(pops[-1])
        assert 0.45 <= var <= 0.56, f"seed {seed}: variance {var} outside [0.45, 0.56]"
        assert abs(mean) < 0.05, f"seed {seed}: mean {mean} too far from 0"
    print("\n[criterion 3] sequential sampler variance in [0.45, 0.56] and "
          "|mean| < 0.05 on 5 seeds PASS")


def test_criterion_04_prior_ratio_weighting_is_biased(mixture_model):
    """Replicated comparison: prior-ratio weighting misses the exact variance
    by strictly more than corrected weighting, and its weights collapse to
    uniform under the flat prior."""
    replicates = 20
    pmc_devs, prc_devs = [], []
    for r in range(replicates):
        seed = 1000 + r
        pmc_pops = abc_pmc(mixture_model, MIXTURE_SCHEDULE, 2000, seed=seed)
        prc_pops = abc_prc(mixture_model, MIXTURE_SCHEDULE, 2000, seed=seed)
        pmc_devs.append(abs(weighted_mean_var(pmc_pops[-1])[1] - ORACLE_VAR))
        prc_devs.append(abs(weighted_mean_var(prc_pops[-1])[1] - ORACLE_VAR))
        for pop in prc_pops:
            assert np.all(pop.weights == pop.weights[0]), (
                f"seed {seed}: PRC weights not exactly uniform at t={pop.t}"
            )
    pmc_mean = float(np.mean(pmc_devs))
    prc_mean = float(np.mean(prc_devs))
    assert prc_mean > pmc_mean
    print(f"\n[criterion 4] mean |var - 0.505| over {replicates} replicates: "
          f"prior-ratio {prc_mean:.4f} > corrected {pmc_mean:.4f}; "
          f"uniform-prior weights exactly equal PASS")


def test_criterion_05_matched_tolerance_agreement(mixture_model, pmc_mixture_runs):
    """PMC final generation vs plain rejection at the same tolerance."""
    final = pmc_mixture_runs[11][-1]
    rejection = abc_rejection(mixture_model, MIXTURE_SCHEDULE[-1], 5000, seed=211)
    ks = ks_two_sample(
        final.thetas[:, 0], final.weights, rejection.thetas[:, 0], rejection.weights
    )
    assert ks < 0.05
    print(f"\n[criterion 5] two-sample KS at matched tolerance: {ks:.4f} < 0.05 PASS")


def test_criterion_06_mcmc_sanity(mixture_model):
    """Likelihood-free MCMC: 2e5 post-burn-in iterations, variance within 10%."""
    burn = 10_000
    result = abc_mcmc(mixture_model, 0.10, burn + 200_000, 1.5, seed=1)
    var = float(np.var(result.thetas[burn:, 0]))
    assert abs(var - ORACLE_VAR) / ORACLE_VAR < 0.10
    print(f"\n[criterion 6] MCMC variance {var:.4f} within 10% of 0.505 PASS")


def test_criterion_07_conjugate_oracle_convergence():
    """Gaussian-posterior model: moments within 5% at the tightest tolerance."""
    pops = abc_pmc(
        get_model("conjugate-normal"),
        (10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01),
        5000,
        seed=11,
    )
    mean, var = weighted_mean_var(pops[-1])
    mean_err = abs(mean - conjugate.POSTERIOR_MEAN) / conjugate.POSTERIOR_MEAN
    var_err = abs(var - conjugate.POSTERIOR_VAR) / conjugate.POSTERIOR_VAR
    assert mean_err < 0.05
    assert var_err < 0.05
    print(f"\n[criterion 7] conjugate posterior: mean rel err {mean_err:.4f}, "
          f"var rel err {var_err:.4f} (both < 0.05) PASS")


def test_criterion_08_coalescent_calibration():
    """Pairwise mutation-count mean within 3% of theta; heterozygosity monotone."""
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    for theta in (1.0, 5.0):
        total = sum(
            reference.simulate_alleles(theta, 2, rng)[1] for _ in range(100_000)
        )
        mean = total / 100_000
        assert abs(mean - theta) / theta < 0.03, f"theta={theta}: mean {mean}"
    het_means = []
    for theta in (0.5, 2.0, 8.0):
        values = [
            reference.summaries(reference.simulate_alleles(theta, 30, rng)[0])[2]
            for _ in range(10_000)
        ]
        het_means.append(float(np.mean(values)))
    assert het_means[0] < het_means[1] < het_means[2]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\n[criterion 8] pairwise mutation mean within 3%, heterozygosity "
          f"{[round(h, 3) for h in het_means]} monotone, {elapsed:.1f}s PASS")


def test_criterion_09_worker_count_determinism(tmp_path):
    """Bit-identical CSV output at 1, 2 and 8 workers for bundled models."""
    docs = {
        "mixture-pmc": {
            "algorithm": "pmc",
            "model": "mixture-toy",
            "seed": 77,
            "n_particles": 300,
            "schedule": [2.0, 0.8],
        },
        "coalescent-rejection": {
            "algorithm": "rejection",
            "model": "coalescent-msat",
            "seed": 78,
            "n_particles": 60,
            "epsilon": 2.5,
        },
    }
    for label, doc in docs.items():
        outputs = {}
        for workers in (1, 2, 8):
            out_dir = tmp_path / f"{label}-w{workers}"
            cfg = dict(doc, workers=workers, out_dir=str(out_dir))
            cfg_path = tmp_path / f"{label}-w{workers}.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg))
            assert main(["run", "--config", str(cfg_path)]) == 0
            outputs[workers] = {
                f.name: f.read_bytes() for f in sorted(out_dir.glob("gen_*.csv"))
            }
        assert outputs[1] == outputs[2] == outputs[8]
        assert outputs[1], f"{label}: no population files written"
    print("\n[criterion 9] workers in {1, 2, 8}: population CSVs bit-identical PASS")


def test_criterion_10_compare_harness_sim_accounting(monkeypatch):
    """Comparison report totals equal the simulator's true invocation count."""
    import popabc.benchmarks as benchmarks_pkg

    calls = []
    base = get_model("mixture-toy")

    def counting_simulator(theta, rng):
        calls.append(1)
        return mixture.simulate(theta, rng)

    counted = ModelSpec(
        name=base.name,
        prior=base.prior,
        simulator=counting_simulator,
        observed=base.observed,
    )
    monkeypatch.setitem(benchmarks_pkg.MODEL_BUILDERS, "mixture-toy", lambda: counted)

    cfg = parse_compare_config(
        {
            "model": "mixture-toy",
            "seed": 555,
            "replicates": 2,
            "algorithms": [
                {"algorithm": "pmc", "n_particles": 100, "schedule": [2.0, 0.8]},
                {"algorithm": "prc", "n_particles": 100, "schedule": [2.0, 0.8]},
                {
                    "algorithm": "mcmc",
                    "epsilon": 0.8,
                    "n_iter": 2000,
                    "burn_in": 200,
                    "proposal_sd": 1.0,
                },
            ],
        }
    )
    code, report = execute_compare(cfg)
    assert code == 0
    for block in report["algorithms"].values():
        assert block["total_sims"] == sum(r["sims_used"] for r in block["replicates"])
    grand_total = report["totals"]["sims_used"]
    assert grand_total == sum(b["total_sims"] for b in report["algorithms"].values())
    assert grand_total == len(calls)
    print(f"\n[criterion 10] compare harness accounted for all {grand_total} "
          f"simulator calls exactly PASS")
