import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

import coalescent_reference as reference

from popabc.benchmarks import (
    coalescent,
    conjugate,
    get_model,
    get_oracle,
    mixture,
    model_names,
)
from popabc.diagnostics import compare_to_oracle
from popabc.samplers import abc_rejection


def test_registry_names():
    assert model_names() == ["coalescent-msat", "conjugate-normal", "mixture-toy"]
    with pytest.raises(KeyError):
        get_model("nope")
    assert get_oracle("coalescent-msat") is None
    assert get_oracle("mixture-toy") is not None


# ---------------------------------------------------------------- mixture


# each posterior component's sd and its truncation mass on the support
COMPONENTS = [
    (sd, norm.cdf(mixture.SUPPORT[1] / sd) - norm.cdf(mixture.SUPPORT[0] / sd))
    for sd in (mixture.WIDE_SD, mixture.NARROW_SD)
]


def posterior_pdf(theta):
    """Exact mixture posterior density on the support (zero outside)."""
    theta = np.asarray(theta, dtype=float)
    inside = (theta >= mixture.SUPPORT[0]) & (theta <= mixture.SUPPORT[1])
    dens = 0.5 * sum(norm.pdf(theta, scale=sd) / z for sd, z in COMPONENTS)
    return np.where(inside, dens, 0.0)


def scipy_posterior_cdf(theta):
    """The mixture posterior CDF through SciPy's normal: the reference for the package's."""
    lo = mixture.SUPPORT[0]
    clipped = np.clip(np.asarray(theta, dtype=float), *mixture.SUPPORT)
    return 0.5 * sum((norm.cdf(clipped / sd) - norm.cdf(lo / sd)) / z for sd, z in COMPONENTS)


def smoothed_posterior_moments(epsilon: float) -> tuple[float, float]:
    """Moments of the tolerance-smoothed mixture posterior, by adaptive quadrature.

    This is the distribution a correct sampler actually targets at a finite
    tolerance: the posterior of theta given |x| <= epsilon. Used to validate
    how much slack a finite tolerance adds around the exact variance.
    """

    def unnorm(theta):
        return 0.5 * sum(
            norm.cdf((epsilon - theta) / sd) - norm.cdf((-epsilon - theta) / sd)
            for sd, _ in COMPONENTS
        )

    lo, hi = mixture.SUPPORT
    mass = quad(unnorm, lo, hi, limit=200)[0]
    mean = quad(lambda x: x * unnorm(x), lo, hi, limit=200)[0] / mass
    second = quad(lambda x: x * x * unnorm(x), lo, hi, limit=200)[0] / mass
    return mean, second - mean * mean


# the oracle's own grid ends (0.001, 0.999) and a sweep between them
ORACLE_LEVELS = np.concatenate(([0.001, 0.01, 0.3, 0.5, 0.77, 0.99, 0.999],
                                np.linspace(0.0005, 0.9995, 199)))


def test_mixture_cdf_center_and_edges():
    assert mixture.posterior_cdf(0.0) == pytest.approx(0.5, rel=1e-12)
    assert mixture.posterior_cdf(10.0) == pytest.approx(1.0, abs=1e-9)
    assert mixture.posterior_cdf(-10.0) == pytest.approx(0.0, abs=1e-9)


def test_mixture_cdf_matches_quadrature():
    # the narrow component makes a sharp spike at zero; tell quad about it
    expected, _ = quad(
        posterior_pdf, -10.0, 1.0, points=[-0.5, 0.0, 0.5], limit=400
    )
    assert mixture.posterior_cdf(1.0) == pytest.approx(expected, abs=1e-8)


def test_mixture_density_integrates_to_one():
    total, _ = quad(posterior_pdf, -10.0, 10.0, limit=400)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_mixture_moments():
    mean, var = mixture.posterior_moments()
    assert mean == 0.0
    assert var == pytest.approx(0.505, abs=1e-9)
    # quadrature cross-check of the second moment
    second, _ = quad(lambda x: x * x * posterior_pdf(x), -10.0, 10.0, limit=400)
    assert var == pytest.approx(second, abs=1e-9)


def test_mixture_cdf_nondecreasing_dense_grid():
    grid = np.linspace(-10.0, 10.0, 10_000)
    values = mixture.posterior_cdf(grid)
    assert np.all(np.diff(values) >= 0)
    assert values[0] == pytest.approx(0.0, abs=1e-9)
    assert values[-1] == pytest.approx(1.0, abs=1e-9)


def test_mixture_ppf_inverts_cdf():
    for q in (0.01, 0.3, 0.5, 0.77, 0.99):
        assert mixture.posterior_cdf(mixture.posterior_ppf(q)) == pytest.approx(q, abs=1e-9)


def test_mixture_oracle_matches_scipy():
    grid = np.linspace(-11.0, 11.0, 20_001)
    assert np.max(np.abs(mixture.posterior_cdf(grid) - scipy_posterior_cdf(grid))) <= 1e-12
    for q in ORACLE_LEVELS:
        # brentq's default xtol is 2e-12; the bisection runs down to adjacent floats
        want = brentq(lambda x: scipy_posterior_cdf(x) - q, *mixture.SUPPORT)
        assert abs(mixture.posterior_ppf(q) - want) <= 1e-12, q


def test_mixture_simulator_moments():
    # x | theta has mean theta and variance 0.5 * (1 + 0.01)
    model = get_model("mixture-toy")
    rng = np.random.default_rng(3)
    draws = np.array([model.simulator(np.array([3.0]), rng) for _ in range(50_000)])
    assert abs(draws.mean() - 3.0) < 0.02
    assert abs(draws.var() - 0.505) / 0.505 < 0.05


@given(theta=st.floats(min_value=mixture.SUPPORT[0], max_value=mixture.SUPPORT[1]),
       seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_mixture_simulator_draws_as_rng_normal_did(theta, seed):
    # the earlier body drew rng.normal(theta, sd) into a one-element array: the same summary,
    # now a Python float, and the stream left at the same place, so the next draw agrees too
    rng, previous = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    got = mixture.simulate(np.array([theta]), rng)
    sd = mixture.WIDE_SD if previous.random() < 0.5 else mixture.NARROW_SD
    want = np.array([previous.normal(theta, sd)])
    assert type(got) is float
    assert np.array([got]).tobytes() == want.tobytes()
    assert rng.random() == previous.random()


def test_mixture_smoothed_variance_near_exact():
    mean, var = smoothed_posterior_moments(0.10)
    assert abs(mean) < 1e-9
    assert var == pytest.approx(0.50833, abs=1e-4)
    # the acceptance band around 0.505 comfortably covers the smoothed target
    assert 0.45 < var < 0.56


def test_mixture_rejection_ks_against_oracle():
    # the eps = 0.05 smoothing bias plus Monte Carlo noise stays below 0.05
    pop = abc_rejection(get_model("mixture-toy"), 0.05, 10_000, seed=77)
    result = compare_to_oracle(pop.thetas, pop.weights, mixture.oracle())
    assert result.ks_statistic < 0.05


# ---------------------------------------------------------------- conjugate


def test_conjugate_posterior_constants():
    assert conjugate.POSTERIOR_VAR == pytest.approx(1 / (0.01 + 10), rel=1e-12)
    assert conjugate.POSTERIOR_MEAN == pytest.approx(10 * 1.2 / 10.01, rel=1e-12)


def test_conjugate_simulator_is_mean_of_draws():
    rng = np.random.default_rng(4)
    draws = [conjugate.simulate(np.array([2.0]), rng) for _ in range(20_000)]
    assert all(type(x) is float for x in draws)
    draws = np.array(draws)
    assert abs(draws.mean() - 2.0) < 0.01
    assert abs(draws.var() - 0.1) / 0.1 < 0.05  # var of the mean of 10 unit normals


def test_conjugate_oracle_roundtrip():
    oracle = conjugate.oracle()
    for q in (0.05, 0.5, 0.95):
        assert oracle.cdf(oracle.ppf(q)) == pytest.approx(q, rel=1e-9)


def test_conjugate_oracle_matches_scipy():
    oracle = conjugate.oracle()
    loc, scale = conjugate.POSTERIOR_MEAN, np.sqrt(conjugate.POSTERIOR_VAR)
    grid = np.linspace(loc - 10 * scale, loc + 10 * scale, 20_001)
    assert np.max(np.abs(oracle.cdf(grid) - norm.cdf(grid, loc=loc, scale=scale))) <= 1e-12
    for q in ORACLE_LEVELS:
        assert abs(oracle.ppf(q) - norm.ppf(q, loc=loc, scale=scale)) <= 1e-12, q


# ---------------------------------------------------------------- coalescent


def test_tree_has_n_minus_one_coalescences():
    rng = np.random.default_rng(5)
    for n in (2, 5, 30):
        parent, blen = reference.sample_tree(n, rng)
        assert parent.size == 2 * n - 1
        assert parent[-1] == -1  # root
        assert np.count_nonzero(parent >= 0) == 2 * n - 2
        assert np.all(blen[:-1] > 0)
        assert blen[-1] == 0.0


def test_tiny_theta_is_monomorphic():
    rng = np.random.default_rng(6)
    for _ in range(200):
        alleles, n_mut = reference.simulate_alleles(1e-6, 30, rng)
        summary = reference.summaries(alleles)
        assert n_mut == 0
        assert summary[0] == 0.0  # variance
        assert summary[1] == 1.0  # distinct alleles
        assert summary[2] == 0.0  # heterozygosity
    for _ in range(200):
        assert np.array_equal(coalescent.simulate(np.array([1e-6]), rng), [0.0, 1.0, 0.0])


def test_pairwise_mutation_count_mean():
    # two lineages: expected pair coalescence time 1, total branch length 2,
    # so mutations average theta; 2e4 replicates give ~1% standard error
    rng = np.random.default_rng(7)
    theta = 5.0
    total = sum(reference.simulate_alleles(theta, 2, rng)[1] for _ in range(20_000))
    assert abs(total / 20_000 - theta) / theta < 0.05


def test_heterozygosity_monotone_in_theta():
    rng = np.random.default_rng(8)
    means = []
    for theta in (0.5, 2.0, 8.0):
        het = [
            reference.summaries(reference.simulate_alleles(theta, 30, rng)[0])[2]
            for _ in range(3000)
        ]
        means.append(np.mean(het))
    assert means[0] < means[1] < means[2]


def test_summary_ranges():
    rng = np.random.default_rng(9)
    for _ in range(200):
        theta = rng.uniform(0.1, 20)
        summary = coalescent.simulate(np.array([theta]), rng)
        assert np.all(np.isfinite(summary))
        assert 0.0 <= summary[2] <= 1.0
        assert 1 <= summary[1] <= 30
        assert summary[0] >= 0.0


def test_simulate_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        reference.simulate_alleles(0.0, 30, rng)
    with pytest.raises(ValueError):
        reference.sample_tree(1, rng)
    with pytest.raises(ValueError):
        coalescent.simulate(np.array([0.0]), rng)
    with pytest.raises(ValueError):
        coalescent.simulate(np.array([5.0]), rng, n=1)


def test_sampler_path_matches_reference_process():
    """``simulate`` and the scalar reference process agree on each summary's mean.

    Seed 2024, 4,000 draws of each path per theta, so 12 z-scores. Each uses
    both samples' variances, against the bench's band of |z| <= 4.9, which a
    correct pair breaks with probability about 1e-6 per score.
    """
    rng = np.random.default_rng(2024)
    draws = 4000
    for theta in (0.5, 5.0, 13.8, 19.0):
        fast = np.array([coalescent.simulate(np.array([theta]), rng) for _ in range(draws)])
        ref = np.array([
            reference.summaries(reference.simulate_alleles(theta, 30, rng)[0])
            for _ in range(draws)
        ])
        se = np.sqrt((fast.var(axis=0) + ref.var(axis=0)) / draws)
        z = (fast.mean(axis=0) - ref.mean(axis=0)) / se
        assert np.all(np.abs(z) <= 4.9), f"theta={theta}: z={z}"


def test_sampler_path_pairwise_variance_mean():
    """Two genes differ by a sum of Poisson(theta * T) +-1 steps, T ~ Exp(1).

    So E[variance summary] = E[(x1 - x2)^2] / 4 = theta / 4. Seed 2025,
    20,000 draws per theta, band |z| <= 4.9.
    """
    rng = np.random.default_rng(2025)
    draws = 20_000
    for theta in (1.0, 5.0):
        var = np.array([coalescent.simulate(np.array([theta]), rng, n=2)[0] for _ in range(draws)])
        z = (var.mean() - theta / 4) / (var.std() / np.sqrt(draws))
        assert abs(z) <= 4.9, f"theta={theta}: z={z}"


def test_data_bundle_reproducible_from_pinned_seeds():
    bundle = coalescent.load_data_bundle()
    regenerated = reference.generate_data_bundle(
        n_genes=bundle["n_genes"],
        theta_true=bundle["theta_true"],
        observed_seed=bundle["observed_seed"],
        predictive_seed=bundle["predictive_seed"],
        n_predictive=bundle["n_predictive"],
    )
    assert regenerated == bundle


def test_coalescent_model_uses_bundle():
    bundle = coalescent.load_data_bundle()
    model = get_model("coalescent-msat")
    assert np.array_equal(model.observed, np.array(bundle["observed"]))
    assert np.array_equal(model.summary_scale, np.array(bundle["summary_sd"]))
    assert np.all(model.summary_scale > 0)


def test_data_file_committed_matches_module_constants():
    path = Path(coalescent.__file__).parent / "data" / coalescent.DATA_FILE
    on_disk = json.loads(path.read_text())
    assert on_disk["n_genes"] == coalescent.N_GENES
    assert on_disk["theta_true"] == reference.THETA_TRUE
