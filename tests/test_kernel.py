import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from popabc.errors import DegeneratePopulation
from popabc.kernel import (
    KernelScale,
    adapt_scale,
    log_density_matrix,
    perturb,
    weighted_covariance,
    weighted_moments,
)


def brute_moments(thetas, weights):
    """Independent loop-based oracle for the weighted mean and variance."""
    n = len(thetas)
    d = len(thetas[0])
    total = sum(weights)
    mean = [sum(weights[i] * thetas[i][k] for i in range(n)) / total for k in range(d)]
    var = [
        sum(weights[i] * (thetas[i][k] - mean[k]) ** 2 for i in range(n)) / total
        for k in range(d)
    ]
    return mean, var


def test_weighted_moments_symmetric_two_point():
    mean, var = weighted_moments(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    assert mean[0] == 0.0
    assert var[0] == 1.0


def test_weighted_moments_hand_example():
    thetas = np.array([[0.0], [1.0], [2.0]])
    weights = np.array([0.2, 0.3, 0.5])
    mean, var = weighted_moments(thetas, weights)
    assert mean[0] == pytest.approx(1.3, rel=1e-12)
    assert var[0] == pytest.approx(0.610, rel=1e-12)
    oracle_mean, oracle_var = brute_moments(thetas.tolist(), weights.tolist())
    assert mean[0] == pytest.approx(oracle_mean[0], rel=1e-12)
    assert var[0] == pytest.approx(oracle_var[0], rel=1e-12)


def test_weighted_moments_degenerate_point_mass():
    mean, var = weighted_moments(np.array([[3.0], [3.0]]), np.array([0.25, 0.75]))
    assert var[0] == 0.0
    with pytest.raises(DegeneratePopulation):
        adapt_scale(np.array([[3.0], [3.0]]), np.array([0.25, 0.75]))


def test_adapt_scale_needs_two_effective_particles():
    # one weighted particle is a valid population with variance exactly 0,
    # which the variance floor turns into DegeneratePopulation in both modes
    thetas, weights = np.array([[0.0, 2.0], [1.0, 3.0]]), np.array([1.0, 0.0])
    mean, var = weighted_moments(thetas, weights)
    assert mean.tolist() == [0.0, 2.0] and var.tolist() == [0.0, 0.0]
    for mode in ("diagonal", "full"):
        with pytest.raises(DegeneratePopulation):
            adapt_scale(thetas, weights, mode=mode)


def test_weighted_moments_rejects_unnormalized():
    with pytest.raises(ValueError):
        weighted_moments(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))


def test_adapt_scale_twice_unit_variance():
    scale = adapt_scale(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    assert scale.mode == "diagonal"
    assert scale.tau2[0] == pytest.approx(2.0, rel=1e-12)


def test_adapt_scale_hand_example():
    scale = adapt_scale(np.array([[0.0], [1.0], [2.0]]), np.array([0.2, 0.3, 0.5]))
    assert scale.tau2[0] == pytest.approx(1.220, rel=1e-12)


def test_adapt_scale_matches_oracle_on_random_populations():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        thetas = rng.normal(0, rng.uniform(0.5, 5), size=(n, d))
        weights = rng.dirichlet(np.ones(n))
        if np.count_nonzero(weights) < 2:
            continue
        try:
            scale = adapt_scale(thetas, weights)
        except DegeneratePopulation:
            continue
        _, oracle_var = brute_moments(thetas.tolist(), weights.tolist())
        for k in range(d):
            assert scale.tau2[k] == pytest.approx(2 * oracle_var[k], rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=30)
def test_adapt_scale_invariant_to_weight_rescaling(factor):
    thetas = np.array([[0.1], [0.9], [2.4], [-1.2]])
    raw = np.array([1.0, 3.0, 0.5, 2.0])
    base = adapt_scale(thetas, raw / raw.sum())
    scaled = adapt_scale(thetas, (factor * raw) / (factor * raw).sum())
    assert scaled.tau2[0] == pytest.approx(base.tau2[0], rel=1e-9)


def test_kernel_scale_validation():
    with pytest.raises(ValueError):
        KernelScale()
    with pytest.raises(ValueError):
        KernelScale(tau2=[1.0], cov=np.eye(1))
    with pytest.raises(ValueError):
        KernelScale(tau2=[0.0])
    with pytest.raises(ValueError):
        KernelScale(cov=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD
    # np.linalg.cholesky factors NaN and inf without raising
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            KernelScale(tau2=[1.0, bad])
        with pytest.raises(ValueError):
            KernelScale(cov=np.array([[1.0, 0.0], [0.0, bad]]))


def test_perturb_rejects_wrong_shape():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        perturb(np.array([0.0, 0.0]), KernelScale(tau2=[1.0]), rng)
    with pytest.raises(ValueError):
        perturb(np.array([[0.0, 0.0]]), KernelScale(cov=np.eye(2)), rng)


def test_perturb_at_variance_floor_stays_close():
    scale = KernelScale(tau2=[1e-12])
    rng = np.random.default_rng(0)
    draws = perturb(np.array([2.0]), scale, rng, size=1000)
    assert np.all(np.abs(draws - 2.0) < 1e-3)


def test_perturb_moments():
    scale = KernelScale(tau2=[2.0])
    rng = np.random.default_rng(1)
    draws = perturb(np.array([0.0]), scale, rng, size=100_000)[:, 0]
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 2.0) / 2.0 < 0.05


def test_perturb_diagonal_coordinates_uncorrelated():
    scale = KernelScale(tau2=[1.0, 3.0])
    rng = np.random.default_rng(2)
    draws = perturb(np.array([0.0, 0.0]), scale, rng, size=100_000)
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr) < 0.02


def test_kernel_logdensity_standard_normal_values():
    scale = KernelScale(tau2=[1.0])
    got = log_density_matrix(np.array([[0.0], [1.0]]), np.array([[0.0]]), scale)[:, 0]
    assert got[0] == pytest.approx(norm.logpdf(0.0), rel=1e-9)
    assert got[1] == pytest.approx(norm.logpdf(1.0), rel=1e-9)


def test_kernel_logdensity_symmetry():
    rng = np.random.default_rng(3)
    scale = KernelScale(tau2=[0.7, 2.3])
    a = rng.normal(size=(100, 2))
    b = rng.normal(size=(100, 2))
    np.testing.assert_allclose(
        log_density_matrix(a, b, scale), log_density_matrix(b, a, scale).T, rtol=1e-12
    )


def test_kernel_logdensity_dimension_mismatch():
    with pytest.raises(ValueError):
        log_density_matrix(np.array([[0.0, 1.0]]), np.array([[0.0]]), KernelScale(tau2=[1.0]))


def test_kernel_density_integrates_to_one():
    scale = KernelScale(tau2=[1.7])
    total, _ = quad(
        lambda x: math.exp(log_density_matrix([[x]], [[0.3]], scale)[0, 0]), -15.0, 15.0, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_perturb_density_consistency():
    # histogram density from 1e6 draws vs exp(logdensity) at 5 points, d=1
    scale = KernelScale(tau2=[1.0])
    rng = np.random.default_rng(7)
    draws = perturb(np.array([0.0]), scale, rng, size=1_000_000)[:, 0]
    width = 0.1
    for point in (-1.5, -0.75, 0.0, 0.75, 1.5):
        in_bin = np.mean(np.abs(draws - point) < width / 2)
        estimate = in_bin / width
        expected = math.exp(log_density_matrix([[point]], [[0.0]], scale)[0, 0])
        assert abs(estimate - expected) / expected < 0.02


def test_full_covariance_adaptation_matches_oracle():
    rng = np.random.default_rng(21)
    thetas = rng.multivariate_normal([0, 1], [[2.0, 0.8], [0.8, 1.0]], size=400)
    weights = rng.dirichlet(np.ones(400))
    scale = adapt_scale(thetas, weights, mode="full")
    assert scale.mode == "full"
    _, cov = weighted_covariance(thetas, weights)
    n = len(thetas)
    mean = [sum(weights[i] * thetas[i][k] for i in range(n)) for k in range(2)]
    brute = [
        [
            sum(weights[i] * (thetas[i][a] - mean[a]) * (thetas[i][b] - mean[b]) for i in range(n))
            for b in range(2)
        ]
        for a in range(2)
    ]
    assert np.allclose(scale.cov, 2 * np.array(brute), rtol=1e-12)
    assert np.allclose(scale.cov, 2 * cov, rtol=1e-12)


def test_full_covariance_perturb_and_density():
    cov = np.array([[1.5, -0.6], [-0.6, 0.9]])
    scale = KernelScale(cov=cov)
    rng = np.random.default_rng(22)
    draws = perturb(np.array([1.0, -2.0]), scale, rng, size=200_000)
    emp = np.cov(draws.T)
    assert np.allclose(emp, cov, rtol=0.05, atol=0.02)
    # density cross-checked against an independent implementation
    reference = multivariate_normal(mean=[1.0, -2.0], cov=cov)
    for point in ([1.0, -2.0], [0.0, 0.0], [2.5, -1.0]):
        got = log_density_matrix(np.array([point]), np.array([[1.0, -2.0]]), scale)[0, 0]
        assert got == pytest.approx(reference.logpdf(point), rel=1e-10)


def test_log_density_matrix_matches_pointwise():
    rng = np.random.default_rng(23)
    full = np.array([[1.0, 0.3], [0.3, 0.8]])
    for scale, cov in ((KernelScale(tau2=[0.5, 2.0]), np.diag([0.5, 2.0])), (KernelScale(cov=full), full)):
        xs = rng.normal(size=(7, 2))
        cs = rng.normal(size=(5, 2))
        matrix = log_density_matrix(xs, cs, scale)
        for i in range(7):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    multivariate_normal(mean=cs[j], cov=cov).logpdf(xs[i]), rel=1e-12
                )
    # diagonal mode is full mode with cov = diag(tau2): same moves, same densities
    v = np.array([0.5, 2.0])
    diagonal, full = KernelScale(tau2=v), KernelScale(cov=np.diag(v))
    for size in (None, 50):
        assert np.array_equal(
            perturb([1.0, -2.0], diagonal, np.random.default_rng(24), size=size),
            perturb([1.0, -2.0], full, np.random.default_rng(24), size=size),
        )
    xs, cs = rng.normal(size=(7, 2)), rng.normal(size=(5, 2))
    np.testing.assert_allclose(
        log_density_matrix(xs, cs, diagonal), log_density_matrix(xs, cs, full), rtol=1e-12
    )
