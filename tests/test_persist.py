import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popabc import persist
from popabc.samplers import Population


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(finite_floats)
def test_format_float_round_trips(x):
    assert float(persist.format_float(x)) == x


def test_population_filename():
    assert persist.population_filename(3) == "gen_003.csv"
    assert persist.population_filename(42) == "gen_042.csv"


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    thetas = rng.standard_normal((50, 2))
    weights = rng.dirichlet(np.ones(50))
    dists = np.abs(rng.standard_normal(50))
    path = tmp_path / "gen_001.csv"
    persist.write_population_csv(path, 1, thetas, weights, dists)

    t, thetas2, weights2, dists2 = persist.read_population_csv(path)
    assert t == 1
    assert np.array_equal(thetas, thetas2)
    assert np.array_equal(weights, weights2)
    assert np.array_equal(dists, dists2)

    # write -> read -> write must be byte identical
    second = tmp_path / "copy.csv"
    persist.write_population_csv(second, t, thetas2, weights2, dists2)
    assert path.read_bytes() == second.read_bytes()


def test_csv_keeps_signed_zeros_among_repeated_values(tmp_path):
    # the writer formats each distinct value once; 0.0 == -0.0 must not share a text
    path = tmp_path / "gen_001.csv"
    thetas = np.array([[0.0], [-0.0], [0.0], [1.5], [1.5]])
    persist.write_population_csv(path, 1, thetas, np.full(5, 0.2), np.zeros(5))
    column = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert column == ["0.0", "-0.0", "0.0", "1.5", "1.5"]


def test_csv_header_layout(tmp_path):
    path = tmp_path / "gen_001.csv"
    persist.write_population_csv(
        path, 1, np.zeros((2, 3)), np.array([0.5, 0.5]), np.zeros(2)
    )
    header = path.read_text().splitlines()[0]
    assert header == "t,particle_id,theta_0,theta_1,theta_2,weight,distance"


def test_write_population_from_population_object(tmp_path):
    pop = Population(
        t=2,
        epsilon=1.0,
        thetas=np.array([[0.1], [0.2]]),
        weights=np.array([0.5, 0.5]),
        dists=np.array([0.3, 0.4]),
        scale=None,
        sims_used=10,
    )
    path = tmp_path / persist.population_filename(pop.t)
    persist.write_population(path, pop)
    t, thetas, weights, dists = persist.read_population_csv(path)
    assert t == 2
    assert np.array_equal(thetas, pop.thetas)


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        persist.read_population_csv(path)


def test_report_round_trip(tmp_path):
    report = {"status": "ok", "totals": {"sims_used": 12}, "generations": []}
    path = tmp_path / "report.json"
    persist.write_report(path, report)
    assert persist.read_report(path) == report
