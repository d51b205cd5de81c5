import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popabc.models import (
    IndependentNormalPrior,
    ModelSpec,
    UniformBoxPrior,
    distance,
)


def test_uniform_sample_stays_in_support():
    prior = UniformBoxPrior([0.0], [1.0])
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = prior.sample(rng)
        assert 0.0 <= theta[0] <= 1.0


def test_normal_sample_is_finite():
    prior = IndependentNormalPrior([0.0], [1.0])
    rng = np.random.default_rng(4)
    assert np.isfinite(prior.sample(rng)).all()


def test_uniform_sample_mean_matches_center():
    # law of large numbers: 1e5 draws from U(-10, 10), sd of mean ~ 0.018
    prior = UniformBoxPrior([-10.0], [10.0])
    rng = np.random.default_rng(5)
    draws = np.array([prior.sample(rng) for _ in range(100_000)])
    assert abs(draws.mean()) < 0.2


def test_uniform_logpdf_value():
    prior = UniformBoxPrior([-10.0], [10.0])
    assert prior.logpdf([0.0]) == pytest.approx(math.log(1 / 20), rel=1e-12)


def test_uniform_logpdf_outside_support():
    prior = UniformBoxPrior([-10.0], [10.0])
    assert prior.logpdf([11.0]) == -math.inf


def test_normal_logpdf_standard_at_zero():
    prior = IndependentNormalPrior([0.0], [1.0])
    assert prior.logpdf([0.0]) == pytest.approx(math.log(0.3989422804014327), rel=1e-9)


def test_logpdf_dimension_mismatch():
    prior = UniformBoxPrior([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        prior.logpdf([0.5])
    with pytest.raises(ValueError):
        IndependentNormalPrior([0.0], [1.0]).logpdf([0.0, 0.0])


def test_prior_validation():
    with pytest.raises(ValueError):
        UniformBoxPrior([1.0], [0.0])
    with pytest.raises(ValueError):
        IndependentNormalPrior([0.0], [0.0])


def test_logpdf_batch_matches_scalar():
    prior = UniformBoxPrior([-1.0, 0.0], [1.0, 2.0])
    thetas = np.array([[0.0, 1.0], [2.0, 1.0], [-0.5, 0.1]])
    batch = prior.logpdf_batch(thetas)
    for row, value in zip(thetas, batch):
        assert value == prior.logpdf(row)


def test_distance_identity():
    assert distance([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_distance_3_4_5():
    assert distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, rel=1e-12)


def test_distance_scalar_abs():
    assert distance([1.0], [-2.0]) == pytest.approx(3.0, rel=1e-12)


def test_distance_length_mismatch():
    with pytest.raises(ValueError):
        distance([1.0], [1.0, 2.0])


def test_distance_with_scale():
    got = distance([2.0, 10.0], [0.0, 0.0], scale=np.array([2.0, 10.0]))
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.tuples(coords, coords), st.tuples(coords, coords), st.tuples(coords, coords))
def test_distance_symmetry_and_triangle(a, b, c):
    a, b, c = map(np.asarray, (a, b, c))
    assert distance(a, b) == distance(b, a)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25)
def test_uniform_density_constant_on_support(seed):
    prior = UniformBoxPrior([-3.0, 1.0], [4.0, 2.5])
    rng = np.random.default_rng(seed)
    values = {prior.logpdf(prior.sample(rng)) for _ in range(100)}
    assert len(values) == 1


@pytest.mark.parametrize(
    "prior",
    [UniformBoxPrior([-2.0], [5.0]), IndependentNormalPrior([1.0, -1.0], [2.0, 0.5])],
)
def test_sampled_points_have_positive_density(prior):
    rng = np.random.default_rng(9)
    for _ in range(100):
        assert prior.logpdf(prior.sample(rng)) > -math.inf


def test_in_support_rejects_nan_and_wrong_length():
    box = UniformBoxPrior([0.0, 0.0], [1.0, 1.0])
    assert box.in_support([0.5, 1.5]) is False
    for prior in (box, IndependentNormalPrior([0.0, 0.0], [1.0, 1.0])):
        assert prior.in_support(np.array([0.0, 1.0])) is True
        assert prior.in_support(np.array([np.nan, 0.5])) is False
        for theta in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ValueError):
                prior.in_support(theta)


@pytest.mark.parametrize("returned", [0.7, [0.7], np.array([0.7]), np.float64(0.7)],
                         ids=["float", "list", "array", "numpy-scalar"])
def test_simulate_distance_accepts_scalar_and_list_returns(returned):
    model = ModelSpec(name="fixed", prior=UniformBoxPrior([0.0], [1.0]),
                      simulator=lambda theta, rng: returned, observed=[0.5])
    assert model.simulate_distance(np.array([0.5]), np.random.default_rng(0)) == distance(0.7, 0.5)


def test_modelspec_validates_simulator_output():
    model = ModelSpec(
        name="bad",
        prior=UniformBoxPrior([0.0], [1.0]),
        simulator=lambda theta, rng: np.array([1.0, 2.0]),
        observed=[0.0],
    )
    with pytest.raises(ValueError, match="summaries"):
        model.simulate_distance(np.array([0.5]), np.random.default_rng(0))


def test_modelspec_summary_scale_validation():
    with pytest.raises(ValueError):
        ModelSpec(
            name="bad",
            prior=UniformBoxPrior([0.0], [1.0]),
            simulator=lambda theta, rng: np.array([1.0]),
            observed=[0.0],
            summary_scale=[1.0, 2.0],
        )
