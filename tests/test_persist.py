import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popabc import persist
from popabc.samplers import Population
from population_files import read_population_csv, read_report


def population(t, thetas, weights, dists):
    return Population(t=t, epsilon=float(np.max(dists)), thetas=thetas, weights=weights,
                      dists=dists, scale=None, sims_used=len(dists))


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def reference_csv(pop):
    """The population file written one row at a time, each value by ``repr``."""
    header = ",".join(["t", "particle_id", *(f"theta_{k}" for k in range(pop.dim)),
                       "weight", "distance"])
    rows = np.column_stack((pop.thetas, pop.weights, pop.dists)).tolist()
    return "".join([header + "\n"] + [f"{pop.t},{i}," + ",".join(map(repr, row)) + "\n"
                                       for i, row in enumerate(rows)])


def assert_writes_reference(path, pop):
    persist.write_population(path, pop)
    assert path.read_text() == reference_csv(pop)


@given(finite_floats)
def test_written_values_round_trip(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("csv") / "gen_001.csv"
    persist.write_population(path, population(1, np.array([[x]]), np.ones(1), np.abs([x])))
    _, thetas, _, dists = read_population_csv(path)
    assert thetas[0, 0] == x and dists[0] == abs(x)


def test_population_filename():
    assert persist.population_filename(3) == "gen_003.csv"
    assert persist.population_filename(42) == "gen_042.csv"


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    thetas = rng.standard_normal((50, 2))
    weights = rng.dirichlet(np.ones(50))
    dists = np.abs(rng.standard_normal(50))
    path = tmp_path / "gen_001.csv"
    persist.write_population(path, population(1, thetas, weights, dists))

    t, thetas2, weights2, dists2 = read_population_csv(path)
    assert t == 1
    assert np.array_equal(thetas, thetas2)
    assert np.array_equal(weights, weights2)
    assert np.array_equal(dists, dists2)

    # write -> read -> write must be byte identical
    second = tmp_path / "copy.csv"
    persist.write_population(second, population(t, thetas2, weights2, dists2))
    assert path.read_bytes() == second.read_bytes()


def test_csv_header_layout(tmp_path):
    path = tmp_path / "gen_001.csv"
    persist.write_population(
        path, population(1, np.zeros((2, 3)), np.array([0.5, 0.5]), np.zeros(2))
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
    t, thetas, weights, dists = read_population_csv(path)
    assert t == 2
    assert np.array_equal(thetas, pop.thetas)


def test_report_round_trip(tmp_path):
    report = {"status": "ok", "totals": {"sims_used": 12}, "generations": []}
    path = tmp_path / "report.json"
    persist.write_report(path, report)
    assert read_report(path) == report


# rows 0-1 and 6-7 repeat; rows 2-5 each differ from the row before in one column only
RUNS_2D = np.array([
    [0.25, -1.5, 0.125, 0.5],
    [0.25, -1.5, 0.125, 0.5],
    [0.25, -1.25, 0.125, 0.5],  # theta_1
    [1e-300, -1.25, 0.125, 0.5],  # theta_0
    [1e-300, -1.25, 0.125, 0.25],  # distance
    [1e-300, -1.25, 0.0, 0.25],  # weight
    [3.0, 7.0, 0.125, 0.75],
    [3.0, 7.0, 0.125, 0.75],
])


@pytest.mark.parametrize("rows", [slice(None), slice(0, 1), slice(5, 7), slice(2, 6)],
                         ids=["runs", "one-row", "two-rows", "all-distinct"])
def test_csv_matches_the_row_by_row_reference(tmp_path, rows):
    table = RUNS_2D[rows]
    weights = table[:, 2] / table[:, 2].sum()
    assert_writes_reference(tmp_path / "gen_002.csv",
                            population(2, table[:, :2], weights, table[:, 3]))


def test_csv_keeps_signed_zeros_among_repeated_values(tmp_path):
    # the writer formats each run of equal rows once; 0.0 == -0.0 must not share a text,
    # within a run or across runs
    z, nz = 0.0, -0.0
    thetas = np.array([[z, nz], [z, nz], [nz, nz], [nz, z], [nz, z], [z, z], [z, z]])
    dists = np.array([z, z, z, z, nz, nz, z])
    weights = np.array([0.25, 0.25, 0.25, 0.25, nz, z, z])
    pop = population(3, thetas, weights, dists)
    assert_writes_reference(tmp_path / "gen_003.csv", pop)
    lines = (tmp_path / "gen_003.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == ["0.0", "0.0", "-0.0", "-0.0", "-0.0",
                                                      "0.0", "0.0"]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.lists(
    st.lists(st.integers(0, 3), min_size=d + 2, max_size=d + 2), min_size=1, max_size=40)))
def test_csv_matches_the_reference_on_chains(tmp_path_factory, rows):
    """Rows drawn from a few values, signed zeros among them, so runs of every length form;
    a row's codes pick its thetas and distance from those values, and one of two weights."""
    codes = np.array(rows)
    values = np.array([0.0, -0.0, 1.5, 1e-300])
    n = len(codes)
    weights = np.where(codes[:, -1] % 2, np.nextafter(1 / n, 1), 1 / n)
    pop = population(1, values[codes[:, :-2]], weights, values[codes[:, -2]])
    assert_writes_reference(tmp_path_factory.mktemp("csv") / "gen_001.csv", pop)
