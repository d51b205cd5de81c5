import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from popabc.diagnostics import (
    ORACLE_GRID_SIZE,
    QUANTILE_LEVELS,
    PosteriorOracle,
    compare_to_oracle,
    ess,
    generation_stats,
    weighted_ecdf,
    weighted_quantiles,
)
from popabc.kernel import weighted_moments
from popabc.models import ModelSpec, UniformBoxPrior
from popabc.samplers import Population, abc_rejection


def normal_oracle(mean=0.0, sd=1.0):
    return PosteriorOracle(
        mean=mean,
        var=sd * sd,
        cdf=lambda x: norm.cdf(x, loc=mean, scale=sd),
        ppf=lambda q: float(norm.ppf(q, loc=mean, scale=sd)),
    )


# ---------------------------------------------------------------- ess


def test_ess_equal_weights():
    assert ess(np.full(40, 1 / 40)) == pytest.approx(40.0, rel=1e-12)


def test_ess_single_atom():
    weights = np.zeros(10)
    weights[3] = 1.0
    assert ess(weights) == pytest.approx(1.0, rel=1e-12)


def test_ess_hand_value():
    assert ess(np.array([0.5, 0.3, 0.2])) == pytest.approx(1 / 0.38, rel=1e-12)


def test_ess_rejects_unnormalized():
    with pytest.raises(ValueError):
        ess(np.array([0.5, 0.6]))


normalized_weights = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=30
).map(lambda ws: np.array(ws) / np.sum(ws))


@given(normalized_weights, st.randoms())
@settings(max_examples=50)
def test_ess_permutation_invariant(weights, pyrandom):
    perm = list(range(len(weights)))
    pyrandom.shuffle(perm)
    assert ess(weights[perm]) == pytest.approx(ess(weights), rel=1e-9)


@given(normalized_weights, st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50)
def test_ess_decreases_when_mass_concentrates(weights, fraction):
    order = np.argsort(weights)
    light, heavy = order[0], order[-1]
    if weights[light] == weights[heavy]:
        return
    shifted = weights.copy()
    delta = fraction * weights[light]
    shifted[light] -= delta
    shifted[heavy] += delta
    assert ess(shifted) < ess(weights)


# ---------------------------------------------------------------- quantiles


def test_weighted_quantile_median_of_three():
    values = np.array([1.0, 2.0, 3.0])
    weights = np.full(3, 1 / 3)
    assert weighted_quantiles(values, weights, [0.5]) == [2.0]


def test_weighted_quantile_mass_dominant_atom():
    assert weighted_quantiles(np.array([0.0, 10.0]), np.array([0.9, 0.1]), [0.5]) == [0.0]


def test_weighted_quantiles_take_the_lower_value_at_a_cumulative_weight():
    # left-continuous: at q equal to a cumulative weight, the value that reaches q
    values = np.array([4.0, 1.0, 3.0, 2.0])
    weights = np.full(4, 0.25)  # cumulative weights 0.25, 0.5, 0.75, 1 are exact
    assert weighted_quantiles(values, weights, [0.25, 0.5, 0.75]) == [1.0, 2.0, 3.0]


def test_weighted_quantile_normal_tail():
    rng = np.random.default_rng(10)
    values = rng.standard_normal(10_000)
    weights = np.full(10_000, 1e-4)
    (got,) = weighted_quantiles(values, weights, [0.975])
    assert abs(got - 1.9600) < 0.08


def test_weighted_quantile_rejects_bad_q():
    values = np.array([1.0, 2.0])
    weights = np.array([0.5, 0.5])
    for q in (0.0, 1.0, -0.2, 1.7, np.nan):
        with pytest.raises(ValueError):
            weighted_quantiles(values, weights, [q])
        with pytest.raises(ValueError):  # one bad level among good ones
            weighted_quantiles(values, weights, [0.5, q])


def test_weighted_quantiles_checks_values_and_weights():
    for values, weights in ((np.array([1.0, 2.0]), np.array([1.0])),
                            (np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]])),
                            (np.array([1.0, 2.0]), np.array([0.5, 0.6]))):
        with pytest.raises(ValueError):
            weighted_quantiles(values, weights, [0.5])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=30))
@settings(max_examples=50)
def test_weighted_quantile_monotone_in_q(values):
    values = np.array(values)
    weights = np.full(len(values), 1.0 / len(values))
    qs = [0.1, 0.3, 0.5, 0.7, 0.9]
    results = weighted_quantiles(values, weights, qs)
    assert results == [weighted_quantiles(values, weights, [q])[0] for q in qs]
    assert all(a <= b for a, b in zip(results, results[1:]))


# ---------------------------------------------------------------- oracle comparison


def test_compare_to_oracle_exact_draws():
    # DKW: for 1e4 iid draws, KS above 0.02 has probability < 1e-3
    rng = np.random.default_rng(11)
    draws = rng.standard_normal(10_000)
    weights = np.full(10_000, 1e-4)
    result = compare_to_oracle(draws, weights, normal_oracle())
    assert result.ks_statistic < 0.02
    assert result.mean_abs_err < 0.05


def test_compare_to_oracle_single_particle():
    result = compare_to_oracle(
        np.array([0.0]), np.array([1.0]), normal_oracle(mean=0.0, sd=1.0)
    )
    assert result.var_rel_err == pytest.approx(1.0, rel=1e-12)
    assert result.mean_abs_err == 0.0


def test_compare_to_oracle_shifted_sample():
    from popabc.benchmarks import mixture

    oracle = mixture.oracle()
    result = compare_to_oracle(
        np.array([oracle.mean + 1.0]), np.array([1.0]), oracle
    )
    assert result.mean_abs_err == pytest.approx(1.0, rel=1e-12)


def test_compare_to_oracle_rejects_multidim():
    with pytest.raises(ValueError):
        compare_to_oracle(np.zeros((5, 2)), np.full(5, 0.2), normal_oracle())


@pytest.mark.parametrize("weights", [np.full(4, 0.25), np.full((5, 1), 0.2)])
def test_compare_to_oracle_rejects_weights_that_do_not_match_the_particles(weights):
    with pytest.raises(ValueError, match="weights must be 1-d and match the number"):
        compare_to_oracle(np.zeros(5), weights, normal_oracle())


# ---------------------------------------------------------------- ks distance


def ks_two_sample(x1, w1, x2, w2) -> float:
    """Largest gap between two weighted empirical CDFs."""
    f1 = weighted_ecdf(x1, w1)
    f2 = weighted_ecdf(x2, w2)
    points = np.concatenate([np.asarray(x1, float), np.asarray(x2, float)])
    gaps = np.abs(f1(points) - f2(points))
    # also probe just below each jump so neither side's left limit is missed
    below = np.nextafter(points, -np.inf)
    gaps_below = np.abs(f1(below) - f2(below))
    return float(max(gaps.max(), gaps_below.max()))


def test_ks_two_sample_identical_is_zero():
    x = np.array([0.0, 1.0, 2.0])
    w = np.full(3, 1 / 3)
    assert ks_two_sample(x, w, x, w) == 0.0


def test_ks_two_sample_disjoint_is_one():
    x1 = np.array([0.0, 1.0])
    x2 = np.array([10.0, 11.0])
    w = np.array([0.5, 0.5])
    assert ks_two_sample(x1, w, x2, w) == pytest.approx(1.0)


def test_weighted_ecdf_steps():
    cdf = weighted_ecdf(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
    assert cdf(0.5) == 0.0
    assert cdf(1.0) == 0.25
    assert cdf(1.5) == 0.25
    assert cdf(2.0) == 1.0


# ---------------------------------------------------------------- stats block


def test_generation_stats_fields():
    rng = np.random.default_rng(12)
    thetas = rng.standard_normal((500, 1))
    weights = np.full(500, 1 / 500)
    pop = Population(
        t=2, epsilon=1e9, thetas=thetas, weights=weights,
        dists=np.abs(rng.standard_normal(500)), scale=None, sims_used=1000,
    )
    stats = generation_stats(pop)
    assert list(stats) == ["t", "epsilon", "ess", "acceptance_rate", "sims_used",
                           "weighted_mean", "weighted_var", "quantiles", "scale"]
    assert stats["t"] == 2
    assert stats["epsilon"] == 1e9
    assert stats["sims_used"] == 1000
    assert stats["acceptance_rate"] == pytest.approx(0.5)
    assert stats["ess"] == pytest.approx(500.0, rel=1e-9)
    mean, var = weighted_moments(thetas, weights)
    assert stats["weighted_mean"][0] == pytest.approx(float(mean[0]), rel=1e-12)
    assert stats["weighted_var"][0] == pytest.approx(float(var[0]), rel=1e-12)
    assert set(stats["quantiles"]) == {"0.025", "0.25", "0.5", "0.75", "0.975"}
    assert stats["quantiles"]["0.5"][0] == weighted_quantiles(thetas[:, 0], weights, [0.5])[0]
    assert stats["scale"] is None


def test_generation_stats_moments_match_independent_loop():
    rng = np.random.default_rng(13)
    thetas = rng.standard_normal((50, 2))
    weights = rng.dirichlet(np.ones(50))
    mean, var = weighted_moments(thetas, weights)
    for k in range(2):
        loop_mean = sum(weights[i] * thetas[i][k] for i in range(50))
        loop_var = sum(weights[i] * (thetas[i][k] - loop_mean) ** 2 for i in range(50))
        assert mean[k] == pytest.approx(loop_mean, abs=1e-12)
        assert var[k] == pytest.approx(loop_var, abs=1e-12)


def test_a_moment_that_overflows_float64_is_null():
    # a U(-8e307, 8e307) population's variance is near 2e615: the block holds None for it,
    # which JSON writes as null, with no RuntimeWarning (an error under the test settings)
    model = ModelSpec(name="wide", prior=UniformBoxPrior([-8e307], [8e307]),
                      simulator=lambda theta, rng: np.array([0.0]), observed=[0.0])
    stats = generation_stats(abc_rejection(model, 1.0, 50, seed=1))
    assert stats["weighted_var"] == [None]
    assert math.isfinite(stats["weighted_mean"][0])
    json.dumps(stats, allow_nan=False)


# ---------------------------------------------------------------- runs of repeated rows


def statistics_row_by_row(thetas, weights, oracle):
    """The report's statistics and oracle errors taken over every row, one at a time."""
    mean, var = weighted_moments(thetas, weights)
    grid = np.linspace(oracle.ppf(0.001), oracle.ppf(0.999), ORACLE_GRID_SIZE)
    ks = np.max(np.abs(weighted_ecdf(thetas, weights)(grid) - oracle.cdf(grid)))
    return {"mean": float(mean[0]), "var": float(var[0]),
            "quantiles": weighted_quantiles(thetas, weights, QUANTILE_LEVELS),
            "ess": ess(weights), "mean_abs_err": abs(float(mean[0]) - oracle.mean),
            "var_rel_err": abs(float(var[0]) - oracle.var) / oracle.var, "ks": float(ks)}


def statistics_as_reported(thetas, weights, oracle):
    pop = Population(t=1, epsilon=1.0, thetas=thetas, weights=weights,
                     dists=np.zeros(len(thetas)), scale=None, sims_used=len(thetas))
    stats = generation_stats(pop)
    errors = compare_to_oracle(thetas, weights, oracle)
    return {"mean": stats["weighted_mean"][0], "var": stats["weighted_var"][0],
            "quantiles": [stats["quantiles"][str(q)][0] for q in QUANTILE_LEVELS],
            "ess": stats["ess"], "mean_abs_err": errors.mean_abs_err,
            "var_rel_err": errors.var_rel_err, "ks": errors.ks_statistic}


def exact_quantiles(thetas, weights):
    """Per level, the set of values the left-continuous weighted quantile may be: the smallest
    value whose exactly summed cumulative weight reaches the level, and also the next one
    where that sum meets the level within rounding (a tie that float sums decide)."""
    values = np.unique(thetas)
    cum = np.array([math.fsum(weights[thetas <= v]) for v in values])
    allowed = []
    for q in QUANTILE_LEVELS:
        j = min(int(np.searchsorted(cum, q - 1e-12)), values.size - 1)
        tie = abs(cum[j] - q) <= 1e-12
        allowed.append({values[j], values[min(j + 1, values.size - 1)]} if tie else {values[j]})
    return allowed


@given(rows=st.lists(st.tuples(st.floats(min_value=-50, max_value=50), st.integers(1, 12),
                               st.floats(min_value=1e-3, max_value=1.0)),
                     min_size=1, max_size=40, unique_by=lambda row: row[0]),
       equal_weights=st.booleans())
@settings(max_examples=300, deadline=None)
def test_runs_of_repeated_rows_change_no_statistic(rows, equal_weights):
    # a chain repeats its state between acceptances: each run of repeated rows is taken as
    # one row with the run's weight. The statistics match those taken row by row, and a
    # population with no repeated row gives them bit for bit. A quantile level that a
    # cumulative weight meets within rounding may go to either neighbour, on either path
    values, counts, raw = (np.array(col) for col in zip(*rows))
    if equal_weights:  # an MCMC chain's weights
        raw = np.ones_like(raw)
    oracle = normal_oracle(mean=1.0, sd=20.0)
    once = raw / raw.sum()
    once_reported = statistics_as_reported(values, once, oracle)
    assert once_reported == statistics_row_by_row(values, once, oracle)

    thetas = np.repeat(values, counts)
    weights = np.repeat(raw, counts)
    weights = weights / weights.sum()
    got = statistics_as_reported(thetas, weights, oracle)
    want = statistics_row_by_row(thetas, weights, oracle)
    for q, allowed, g, w in zip(QUANTILE_LEVELS, exact_quantiles(thetas, weights),
                                got["quantiles"], want["quantiles"]):
        assert g in allowed and w in allowed, q
        assert len(allowed) == 2 or g == w, q
    assert got["ess"] == want["ess"]
    spread = max(1.0, float(np.max(np.abs(values))))
    assert got["mean"] == pytest.approx(want["mean"], rel=1e-12, abs=1e-12 * spread)
    assert got["var"] == pytest.approx(want["var"], rel=1e-12, abs=1e-12 * spread**2)
    assert got["mean_abs_err"] == pytest.approx(want["mean_abs_err"], rel=1e-12,
                                                abs=1e-12 * spread)
    assert got["var_rel_err"] == pytest.approx(want["var_rel_err"], rel=1e-12,
                                               abs=1e-12 * spread**2 / oracle.var)
    assert got["ks"] == pytest.approx(want["ks"], rel=1e-12, abs=1e-12)
