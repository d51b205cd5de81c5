import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popabc.models import (
    IndependentNormalPrior,
    ModelSpec,
    UniformBoxPrior,
)


def plain_distance(a, b, scale=None) -> float:
    """Euclidean distance between two summary vectors, each coordinate divided by
    ``scale`` first: the formula ``ModelSpec.simulate_distance`` must reproduce."""
    diff = np.atleast_1d(np.asarray(a, dtype=float)) - np.atleast_1d(np.asarray(b, dtype=float))
    if scale is not None:
        diff = diff / np.asarray(scale, dtype=float)
    return math.sqrt(np.dot(diff, diff))


def distance(summaries, observed, scale=None) -> float:
    """``simulate_distance`` of a model whose simulator always returns ``summaries``."""
    model = ModelSpec(name="fixed", prior=UniformBoxPrior([0.0], [1.0]),
                      simulator=lambda theta, rng: np.array(summaries, dtype=float),
                      observed=observed, summary_scale=scale)
    return model.simulate_distance(np.array([0.5]), np.random.default_rng(0))


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
    assert prior.logpdf_batch([[0.0]])[0] == pytest.approx(math.log(1 / 20), rel=1e-12)


def test_uniform_logpdf_outside_support():
    prior = UniformBoxPrior([-10.0], [10.0])
    assert prior.logpdf_batch([[11.0]])[0] == -math.inf
    # a 2-d point is outside when any one coordinate is
    box = UniformBoxPrior([-1.0, 0.0], [1.0, 2.0])
    got = box.logpdf_batch([[0.0, 1.0], [2.0, 1.0], [-0.5, 0.1], [0.0, 2.5]])
    assert got.tolist() == pytest.approx([-math.log(4.0), -math.inf, -math.log(4.0), -math.inf])


def test_normal_logpdf_standard_at_zero():
    prior = IndependentNormalPrior([0.0], [1.0])
    assert prior.logpdf_batch([[0.0]])[0] == pytest.approx(math.log(0.3989422804014327), rel=1e-9)


def test_logpdf_dimension_mismatch():
    prior = UniformBoxPrior([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        prior.logpdf_batch([[0.5]])
    with pytest.raises(ValueError):
        IndependentNormalPrior([0.0], [1.0]).logpdf_batch([[0.0, 0.0]])


def test_prior_validation():
    with pytest.raises(ValueError):
        UniformBoxPrior([1.0], [0.0])
    with pytest.raises(ValueError):
        IndependentNormalPrior([0.0], [0.0])


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
    got = distance([2.0, 10.0], [0.0, 0.0], scale=[2.0, 10.0])
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
    values = prior.logpdf_batch([prior.sample(rng) for _ in range(100)])
    assert len(set(values.tolist())) == 1


@pytest.mark.parametrize(
    "prior",
    [UniformBoxPrior([-2.0], [5.0]), IndependentNormalPrior([1.0, -1.0], [2.0, 0.5])],
)
def test_sampled_points_have_positive_density(prior):
    rng = np.random.default_rng(9)
    assert np.all(prior.logpdf_batch([prior.sample(rng) for _ in range(100)]) > -math.inf)


def test_in_support_rejects_nan_and_wrong_length():
    box = UniformBoxPrior([0.0, 0.0], [1.0, 1.0])
    assert box.in_support([0.5, 1.5]) is False
    rng = np.random.default_rng(3)
    for prior in (box, IndependentNormalPrior([0.0, 0.0], [1.0, 1.0])):
        assert prior.in_support(np.array([0.0, 1.0])) is True
        for bad in (np.nan, np.inf, -np.inf):
            assert prior.in_support(np.array([bad, 0.5])) is False
        for theta in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ValueError):
                prior.in_support(theta)
        # the support is where the prior density is positive
        points = 2.0 * rng.standard_normal((200, 2))
        for theta, log_p in zip(points, prior.logpdf_batch(points)):
            assert prior.in_support(theta) is bool(log_p > -np.inf)


@pytest.mark.parametrize("returned", [0.7, [0.7], np.array([0.7]), np.float64(0.7)],
                         ids=["float", "list", "array", "numpy-scalar"])
def test_simulate_distance_accepts_scalar_and_list_returns(returned):
    model = ModelSpec(name="fixed", prior=UniformBoxPrior([0.0], [1.0]),
                      simulator=lambda theta, rng: returned, observed=[0.5])
    got = model.simulate_distance(np.array([0.5]), np.random.default_rng(0))
    assert got == plain_distance(0.7, 0.5)


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


@pytest.mark.parametrize("means, sds", [([np.nan], [1.0]), ([np.inf], [1.0]),
                                        ([0.0], [np.inf]), ([0.0, 0.0], [1.0, np.nan])],
                         ids=["nan-mean", "inf-mean", "inf-sd", "nan-sd"])
def test_normal_prior_rejects_non_finite_parameters(means, sds):
    with pytest.raises(ValueError, match="finite"):
        IndependentNormalPrior(means, sds)


def test_modelspec_rejects_infinite_scale_and_2d_observed():
    # an infinite scale would drop its summary from every distance
    with pytest.raises(ValueError, match="summary_scale"):
        ModelSpec(name="bad", prior=UniformBoxPrior([0.0], [1.0]),
                  simulator=lambda theta, rng: np.array([3.0, 1.0]),
                  observed=[0.0, 0.0], summary_scale=[np.inf, 1.0])
    with pytest.raises(ValueError, match="observed"):
        ModelSpec(name="bad", prior=UniformBoxPrior([0.0], [1.0]),
                  simulator=lambda theta, rng: np.array([0.0, 0.0]),
                  observed=[[0.0, 0.0]])


def test_modelspec_rejects_empty_observed():
    # with no summaries every distance is 0.0, so every attempt would be accepted
    with pytest.raises(ValueError, match="observed"):
        ModelSpec(name="empty", prior=UniformBoxPrior([0.0], [1.0]),
                  simulator=lambda theta, rng: np.array([]), observed=[])


@pytest.mark.parametrize("lows, highs", [([-1e308], [1e308]), ([0.0, -1.5e308], [1.0, 1.5e308])],
                         ids=["1-d", "2-d"])
def test_uniform_prior_refuses_a_box_wider_than_any_float(lows, highs):
    # the width overflows to inf: the density would be 0 inside the support, and a draw
    # would fail with an untyped OverflowError. It is refused, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too wide"):
            UniformBoxPrior(lows, highs)
    # a box whose width is still a float builds, with a finite density and draws inside it
    prior = UniformBoxPrior([-8e307], [8e307])
    assert math.isfinite(prior.logpdf_batch([[0.0]])[0])
    assert prior.in_support(prior.sample(np.random.default_rng(0)))


def fixed_model(returned, observed=(0.5,)):
    return ModelSpec(name="fixed", prior=UniformBoxPrior([0.0], [1.0]),
                     simulator=lambda theta, rng: returned, observed=list(observed))


def test_simulate_distance_takes_a_0d_array_as_one_summary():
    got = fixed_model(np.array(0.7)).simulate_distance(np.array([0.5]), np.random.default_rng(0))
    assert got == plain_distance(0.7, 0.5)


@pytest.mark.parametrize("returned, observed, shapes",
                         [(np.array([[0.7]]), (0.5,), r"\(1, 1\), expected \(1,\)"),
                          (np.array([[0.7, 0.1]]), (0.5, 0.5), r"\(1, 2\), expected \(2,\)"),
                          ([0.7, 0.1, 0.2], (0.5, 0.5), r"\(3,\), expected \(2,\)")],
                         ids=["1x1-array", "1x2-array", "wrong-length-list"])
def test_simulate_distance_rejects_wrong_shapes(returned, observed, shapes):
    # the message names the returned shape and the expected one, not a count of rows
    with pytest.raises(ValueError, match="simulator returned summaries of shape " + shapes):
        fixed_model(returned, observed).simulate_distance(np.array([0.5]),
                                                          np.random.default_rng(0))


def test_simulate_distance_names_theta_when_a_summary_is_infinite():
    model = fixed_model([np.inf, 0.0], observed=(0.0, 0.0))
    with pytest.raises(ValueError, match=r"theta \[0\.25\]"):
        model.simulate_distance(np.array([0.25]), np.random.default_rng(0))


@pytest.mark.parametrize("summaries, scale", [([3.0, 1.0], None), ([3.0, 1.0], [2.0, 0.5]),
                                              ([1e-3, 7.0, -2.5], [0.3, 3.0, 1.7]),
                                              ([0.7], None), ([0.7], [0.3]),
                                              ([-2.9], None), ([-2.9], [1.7]),
                                              ([0.25], None), ([0.25], [3.0]),
                                              ([1e-170], None), ([-1e-170], [7.0])])
def test_simulate_distance_matches_models_distance_bit_for_bit(summaries, scale):
    # one summary takes the Python-float path, two or more the dot product; both match it
    observed = [0.25] * len(summaries)
    model = ModelSpec(name="fixed", prior=UniformBoxPrior([0.0], [1.0]),
                      simulator=lambda theta, rng: np.array(summaries), observed=observed,
                      summary_scale=scale)
    got = model.simulate_distance(np.array([0.5]), np.random.default_rng(0))
    want = plain_distance(summaries, observed, scale)
    assert got == want


@pytest.mark.parametrize("scale", [None, [0.5]], ids=["unscaled", "scaled"])
def test_simulate_distance_refuses_a_one_summary_distance_that_overflows(scale):
    # 1e200 squared overflows: the distance is inf, refused with theta named, and no
    # RuntimeWarning is raised on the way
    model = ModelSpec(name="fixed", prior=UniformBoxPrior([0.0], [1.0]),
                      simulator=lambda theta, rng: np.array([1e200]), observed=[0.0],
                      summary_scale=scale)
    with pytest.raises(ValueError, match=r"theta \[0\.5\], whose distance is inf"):
        model.simulate_distance(np.array([0.5]), np.random.default_rng(0))


def test_in_support_reads_lists_int_arrays_and_2d_arrays_as_before():
    box = UniformBoxPrior([0.0, 0.0], [1.0, 2.0])
    normal = IndependentNormalPrior([0.0, 0.0], [1.0, 1.0])
    assert box.in_support([0.5, 1.5]) is True and box.in_support([0.5, 2.5]) is False
    assert box.in_support(np.array([1, 2])) is True and box.in_support(np.array([2, 0])) is False
    assert normal.in_support([0.5, 1e300]) is True and normal.in_support(np.array([3, -4])) is True
    # float32 and strided views are read as float vectors too
    assert box.in_support(np.array([0.5, 1.5], dtype=np.float32)) is True
    assert box.in_support(np.array([[0.5, 9.0], [1.5, 9.0]])[:, 0]) is True
    # an int vector is compared after its conversion to float, as before: 2**53 + 1
    # rounds to 2**53, which is the upper bound
    edge = UniformBoxPrior([0.0], [2.0 ** 53])
    assert edge.in_support(np.array([2 ** 53 + 1])) is True
    for prior in (box, normal):
        for theta in (np.array([[0.5, 0.5]]), np.array([[0.5], [0.5]]), np.array(0.5)):
            with pytest.raises(ValueError, match="shape"):
                prior.in_support(theta)
