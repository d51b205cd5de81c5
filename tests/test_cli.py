import json
import math
from dataclasses import replace

import numpy as np
import pytest
import yaml

from popabc import benchmarks, engine, kernel, persist
from popabc.benchmarks import get_model, mixture
from popabc.cli import execute_compare, execute_run, main
from popabc.config import load_run_config, parse_compare_config, parse_run_config
from popabc.errors import ConfigError
from popabc.models import ModelSpec, UniformBoxPrior
from popabc.samplers import ToleranceSchedule, abc_mcmc, abc_pmc, abc_rejection
from population_files import read_population_csv, read_report


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def pmc_doc(**overrides):
    doc = {
        "algorithm": "pmc",
        "model": "mixture-toy",
        "seed": 42,
        "n_particles": 120,
        "schedule": [3.0, 1.5],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------- validation


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, pmc_doc())
    assert main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_nondecreasing_schedule_names_entries(tmp_path, capsys):
    path = write_config(tmp_path, pmc_doc(schedule=[1.0, 2.0]))
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "1.0" in err and "2.0" in err


def test_validate_unknown_algorithm(tmp_path):
    path = write_config(tmp_path, pmc_doc(algorithm="smc"))
    assert main(["validate", "--config", path]) == 2


def test_validate_missing_required_key(tmp_path, capsys):
    doc = pmc_doc()
    del doc["n_particles"]
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", path]) == 2
    assert "n_particles" in capsys.readouterr().err


def test_validate_unknown_key(tmp_path, capsys):
    for key, value in (("particles", 10), ("auto_schedule", {"quantile": 0.5, "generations": 4})):
        path = write_config(tmp_path, pmc_doc(**{key: value}))
        assert main(["validate", "--config", path]) == 2
        assert key in capsys.readouterr().err


def test_validate_missing_file():
    assert main(["validate", "--config", "/nonexistent/cfg.yaml"]) == 2


@pytest.mark.parametrize("command", ["run", "compare", "validate"])
def test_config_that_is_a_directory_is_a_config_error(tmp_path, capsys, command):
    assert main([command, "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


def test_validate_rejects_unknown_model(tmp_path, capsys):
    path = write_config(tmp_path, pmc_doc(model="no-such-model"))
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "no-such-model" in err and "unknown model" in err


def test_validate_rejects_compare_on_model_without_oracle(tmp_path, capsys):
    doc = {"model": "coalescent-msat", "seed": 1, "replicates": 1,
           "algorithms": [{"algorithm": "rejection", "n_particles": 10, "epsilon": 3.0}]}
    assert main(["validate", "--config", write_config(tmp_path, doc)]) == 2
    assert "reference posterior" in capsys.readouterr().err


def test_compare_on_unknown_model_reports_it_unknown(tmp_path, capsys):
    doc = {"model": "no-such-model", "seed": 1, "replicates": 1,
           "algorithms": [{"algorithm": "rejection", "n_particles": 10, "epsilon": 3.0}]}
    assert main(["compare", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "unknown model" in err and "no-such-model" in err
    assert "reference posterior" not in err


def test_mcmc_proposal_sd_of_wrong_length_is_a_config_error(tmp_path, capsys, monkeypatch):
    doc = {"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5,
           "n_iter": 100, "proposal_sd": [1.0, 2.0], "out_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "proposal_sd must be a finite positive number" in err, err
    assert not (tmp_path / "out").exists()
    # proposal_sd is one number, which abc_mcmc applies to every dimension: a list
    # is refused at any length, on a 2-d model too
    plane = ModelSpec(name="plane", prior=UniformBoxPrior([0.0, 0.0], [1.0, 1.0]),
                      simulator=lambda theta, rng: theta, observed=[0.5, 0.5])
    monkeypatch.setitem(benchmarks.MODEL_BUILDERS, "plane", lambda: plane)
    for sd in ([1.5], [1.5, 0.5], [1.0, 1.0, 1.0]):
        with pytest.raises(ConfigError, match="proposal_sd must be a finite positive number"):
            parse_run_config(dict(doc, model="plane", proposal_sd=sd))
    # an infinite SD sends every proposal out of the support: the chain never moves
    for sd in (math.inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match="proposal_sd must be a finite positive number"):
            parse_run_config(dict(doc, proposal_sd=sd))
    assert parse_run_config(dict(doc, model="plane", proposal_sd=1.5)).proposal_sd == 1.5


def test_parse_rejects_bad_seed():
    with pytest.raises(ConfigError):
        parse_run_config(pmc_doc(seed=-1))
    with pytest.raises(ConfigError):
        parse_run_config(pmc_doc(seed=2**64))


@pytest.mark.parametrize("doc, library", [
    (pmc_doc(seed=-1), lambda: engine.attempt_stream(-1, 1, 0)),
    (pmc_doc(n_particles=1), lambda: abc_pmc(get_model("mixture-toy"), (1.0,), 1, seed=1)),
    ({"algorithm": "rejection", "model": "mixture-toy", "seed": 1, "n_particles": 0,
      "epsilon": 1.0}, lambda: abc_rejection(get_model("mixture-toy"), 1.0, 0, seed=1)),
    ({"algorithm": "rejection", "model": "mixture-toy", "seed": 1, "n_particles": 5,
      "epsilon": -0.5}, lambda: abc_rejection(get_model("mixture-toy"), -0.5, 5, seed=1)),
    ({"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5, "n_iter": 0,
      "proposal_sd": 1.0}, lambda: abc_mcmc(get_model("mixture-toy"), 0.5, 0, 1.0, seed=1)),
    ({"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5, "n_iter": 10,
      "proposal_sd": 0.0}, lambda: abc_mcmc(get_model("mixture-toy"), 0.5, 10, 0.0, seed=1)),
    (pmc_doc(workers=0), lambda: engine.resolve_workers(0)),
    (pmc_doc(budget=0), lambda: abc_rejection(get_model("mixture-toy"), 1.0, 5, seed=1, budget=0)),
    ({"algorithm": "rejection", "model": "mixture-toy", "seed": 1, "n_particles": 5,
      "epsilon": math.inf}, lambda: abc_rejection(get_model("mixture-toy"), math.inf, 5, seed=1)),
    (pmc_doc(schedule=[math.inf, 1.0]), lambda: ToleranceSchedule((math.inf, 1.0))),
    # the type is part of each rule: a config refuses a wrongly typed value as a library does
    (pmc_doc(seed=5.5), lambda: abc_rejection(get_model("mixture-toy"), 1.0, 5, seed=5.5)),
    (pmc_doc(n_particles=10.0), lambda: abc_pmc(get_model("mixture-toy"), (1.0,), 10.0, seed=1)),
    ({"algorithm": "rejection", "model": "mixture-toy", "seed": 1, "n_particles": 5,
      "epsilon": "1.0"}, lambda: abc_rejection(get_model("mixture-toy"), "1.0", 5, seed=1)),
    (pmc_doc(schedule=[2.0, "1.0"]), lambda: ToleranceSchedule((2.0, "1.0"))),
    ({"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5, "n_iter": "10",
      "proposal_sd": 1.0}, lambda: abc_mcmc(get_model("mixture-toy"), 0.5, "10", 1.0, seed=1)),
    ({"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5, "n_iter": 10,
      "proposal_sd": "1.0"}, lambda: abc_mcmc(get_model("mixture-toy"), 0.5, 10, "1.0", seed=1)),
    (pmc_doc(budget=2.5), lambda: abc_pmc(get_model("mixture-toy"), (1.0,), 5, seed=1, budget=2.5)),
], ids=["seed", "pmc-n_particles", "rejection-n_particles", "epsilon", "n_iter", "proposal_sd",
        "workers", "budget", "infinite-epsilon", "infinite-schedule", "float-seed",
        "float-n_particles", "string-epsilon", "string-schedule", "string-n_iter",
        "string-proposal_sd", "float-budget"])
def test_config_reports_the_librarys_own_rule(doc, library):
    # each range rule is stated once, in the library: a config value out of range is
    # refused with the message a library call with that value raises
    with pytest.raises(ValueError) as lib:
        library()
    with pytest.raises(ConfigError) as cfg:
        parse_run_config(doc)
    assert str(cfg.value).endswith(f": {lib.value}")


def test_parse_mcmc_requires_chain_keys():
    doc = {"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5}
    with pytest.raises(ConfigError, match="n_iter"):
        parse_run_config(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        (pmc_doc(epsilon=0.01), "epsilon does not apply to pmc"),
        # no algorithm reads a kernel key: the kernel is always twice the weighted variance
        ({"algorithm": "rejection", "model": "mixture-toy", "seed": 1, "n_particles": 10,
          "epsilon": 0.5, "kernel": {"mode": "full"}}, "unknown keys ['kernel']"),
        ({"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5, "n_iter": 100,
          "proposal_sd": 1.0, "kernel": {"mode": "full"}}, "unknown keys ['kernel']"),
        (pmc_doc(kernel={"mode": "diagonal"}), "unknown keys ['kernel']"),
        ({"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5, "n_iter": 100,
          "proposal_sd": 1.0, "workers": 4}, "workers does not apply to mcmc"),
    ],
    ids=["pmc-epsilon", "rejection-kernel", "mcmc-kernel", "pmc-kernel", "mcmc-workers"],
)
def test_parse_rejects_key_the_algorithm_does_not_read(doc, message):
    with pytest.raises(ConfigError) as info:
        parse_run_config(doc)
    assert message in str(info.value)


def test_parse_accepts_the_default_of_a_key_the_algorithm_does_not_read():
    doc = {"algorithm": "mcmc", "model": "mixture-toy", "seed": 1, "epsilon": 0.5,
           "n_iter": 100, "proposal_sd": 1.0}
    assert parse_run_config(dict(doc, workers=1)) == parse_run_config(doc)


def test_load_run_config_round_trip(tmp_path):
    path = write_config(tmp_path, pmc_doc(workers="auto", budget=10_000))
    cfg = load_run_config(path)
    assert cfg.workers == "auto"
    assert cfg.budget == 10_000
    assert cfg.schedule.epsilons == (3.0, 1.5)


# ---------------------------------------------------------------- run


def test_run_pmc_happy_path(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, pmc_doc(out_dir=str(out_dir)))
    assert main(["run", "--config", path]) == 0
    assert (out_dir / "gen_001.csv").exists()
    assert (out_dir / "gen_002.csv").exists()
    report = read_report(out_dir / "report.json")
    assert report["status"] == "ok"
    assert report["partial"] is None
    assert report["config"]["seed"] == 42
    assert len(report["generations"]) == 2
    assert report["totals"]["sims_used"] == sum(
        g["sims_used"] for g in report["generations"]
    )
    assert report["oracle_comparison"] is not None
    # populations on disk agree with the report
    for gen in report["generations"]:
        t, thetas, weights, dists = read_population_csv(
            out_dir / persist.population_filename(gen["t"])
        )
        assert t == gen["t"]
        assert abs(weights.sum() - 1.0) < 1e-9
        assert np.all(dists <= gen["epsilon"])
        recomputed_mean = float(weights @ thetas[:, 0])
        assert recomputed_mean == pytest.approx(gen["weighted_mean"][0], abs=1e-12)
    out = capsys.readouterr().out
    assert "total sims" in out


def test_run_records_proposal_scales(tmp_path, monkeypatch, capsys):
    # a 2-d model, so that the kernel has one variance per dimension
    plane = ModelSpec(name="plane", prior=UniformBoxPrior([0.0, 0.0], [1.0, 1.0]),
                      simulator=lambda theta, rng: theta + 0.1 * rng.standard_normal(2),
                      observed=[0.5, 0.5])
    monkeypatch.setitem(benchmarks.MODEL_BUILDERS, "plane", lambda: plane)
    out_dir = tmp_path / "out"
    doc = pmc_doc(model="plane", out_dir=str(out_dir))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    report = read_report(out_dir / "report.json")
    assert report["generations"][0]["scale"] is None
    scale = report["generations"][1]["scale"]
    assert set(scale) == {"tau2"}
    # twice the weighted variance of the generation it perturbs
    _, thetas, weights, _ = read_population_csv(out_dir / "gen_001.csv")
    var = weights @ (thetas - weights @ thetas) ** 2
    assert np.array(scale["tau2"]) == pytest.approx(2.0 * var, rel=1e-12)
    # the kernel has no setting: a kernel key, in either former mode, is unknown
    capsys.readouterr()
    for mode in ("diagonal", "full"):
        doc = pmc_doc(model="plane", kernel={"mode": mode}, out_dir=str(tmp_path / mode))
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
        assert "unknown keys ['kernel']" in capsys.readouterr().err
        assert not (tmp_path / mode).exists()


def test_run_unreachable_tolerance_flags_partial(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path,
        pmc_doc(schedule=[10.0, 0.0], n_particles=60, budget=600, out_dir=str(out_dir)),
    )
    assert main(["run", "--config", path]) == 3
    assert (out_dir / "gen_001.csv").exists()
    assert not (out_dir / "gen_002.csv").exists()
    report = read_report(out_dir / "report.json")
    assert report["status"] == "budget-exhausted"
    assert report["error"]
    assert len(report["generations"]) == 1


def test_budget_exhausted_report_counts_failed_generation():
    cfg = parse_run_config(
        pmc_doc(n_particles=500, schedule=[2.0, 0.5, 0.1], seed=1, budget=5000)
    )
    code, report, populations = execute_run(cfg)
    assert code == 3
    assert report["status"] == "budget-exhausted"
    completed = sum(g["sims_used"] for g in report["generations"])
    partial = report["partial"]
    assert partial["requested"] == 500 and partial["accepted"] < 500
    assert completed + partial["sims_used"] == 5000
    assert report["totals"]["sims_used"] == 5000


def test_degenerate_population_is_a_failed_run_with_no_partial(tmp_path, monkeypatch):
    # a variance floor above any weighted variance makes adapt_scale raise at t=2
    monkeypatch.setattr(kernel, "VARIANCE_FLOOR", 1e6)
    out_dir = tmp_path / "out"
    cfg = parse_run_config(pmc_doc(seed=3, n_particles=200, schedule=[2.0, 0.5]))
    code, report, populations = execute_run(cfg, persist_to=out_dir)
    assert code == 3
    assert (report["status"], report["partial"]) == ("degenerate-population", None)
    assert report["error"]
    assert (out_dir / "gen_001.csv").exists()
    assert not (out_dir / "gen_002.csv").exists()
    assert [g["t"] for g in report["generations"]] == [1] and len(populations) == 1
    assert report["totals"]["sims_used"] == report["generations"][0]["sims_used"] == 1177
    assert read_report(out_dir / "report.json")["status"] == "degenerate-population"


def test_run_unknown_model(tmp_path, capsys):
    path = write_config(tmp_path, pmc_doc(model="unknown-model"))
    assert main(["run", "--config", path]) == 2
    assert "unknown-model" in capsys.readouterr().err


def test_run_rejection(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "algorithm": "rejection",
        "model": "mixture-toy",
        "seed": 3,
        "n_particles": 100,
        "epsilon": 1.0,
        "out_dir": str(out_dir),
    }
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    report = read_report(out_dir / "report.json")
    assert len(report["generations"]) == 1
    assert report["generations"][0]["epsilon"] == 1.0


@pytest.mark.parametrize(
    "doc",
    [
        {"algorithm": "rejection", "n_particles": 1, "epsilon": 1.0},
        {"algorithm": "mcmc", "epsilon": 1.0, "n_iter": 50, "burn_in": 49, "proposal_sd": 1.0},
    ],
    ids=["rejection", "mcmc"],
)
def test_run_one_particle_population_is_ok(doc):
    code, report, populations = execute_run(
        parse_run_config({"model": "mixture-toy", "seed": 6, **doc})
    )
    assert (code, report["status"], report["error"]) == (0, "ok", None)
    assert len(report["generations"]) == 1 and populations[0].n == 1
    assert report["generations"][0]["ess"] == 1.0
    assert report["generations"][0]["weighted_var"] == [0.0]


def test_run_mcmc(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "algorithm": "mcmc",
        "model": "mixture-toy",
        "seed": 4,
        "epsilon": 0.5,
        "n_iter": 3000,
        "burn_in": 500,
        "proposal_sd": 1.0,
        "out_dir": str(out_dir),
    }
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    report = read_report(out_dir / "report.json")
    assert report["mcmc"]["n_iter"] == 3000
    assert report["mcmc"]["burn_in"] == 500
    t, thetas, weights, dists = read_population_csv(out_dir / "gen_001.csv")
    assert thetas.shape[0] == 2500
    assert np.all(dists <= 0.5)


def test_mcmc_reports_the_chains_acceptance_rate(tmp_path, capsys):
    # accepted moves per step, not the post-burn-in chain length per simulator call
    out_dir = tmp_path / "out"
    doc = {"algorithm": "mcmc", "model": "mixture-toy", "seed": 42, "epsilon": 0.1,
           "n_iter": 2000, "burn_in": 100, "proposal_sd": 1.5, "out_dir": str(out_dir)}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    report = read_report(out_dir / "report.json")
    rate = report["mcmc"]["acceptance_rate"]
    assert report["generations"][0]["acceptance_rate"] == rate <= 1.0
    assert f"acc={rate:.3g}" in captured.err and f"acc={rate:.3g}" in captured.out


def test_mcmc_budget_spent_in_the_start_draw_reports_its_counts(tmp_path):
    # the chain starts from a one-particle rejection draw; a budget spent there leaves
    # no chain step, and partial counts that draw, not chain steps
    out_dir = tmp_path / "out"
    doc = {"algorithm": "mcmc", "model": "mixture-toy", "seed": 42, "epsilon": 0.001,
           "n_iter": 1000, "proposal_sd": 1.0, "budget": 50, "out_dir": str(out_dir)}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 3
    report = read_report(out_dir / "report.json")
    assert report["status"] == "budget-exhausted"
    assert report["partial"] == {"requested": 1, "accepted": 0, "sims_used": 50}
    assert report["generations"] == [] and report["mcmc"] is None
    assert report["totals"]["sims_used"] == 50
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.json"]


def test_rerun_into_the_same_out_dir_leaves_no_earlier_generation(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("not a run's file\n")
    for schedule in ([3.0, 2.0, 1.5, 1.0], [3.0, 1.5]):
        doc = pmc_doc(schedule=schedule, out_dir=str(out_dir))
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["gen_001.csv", "gen_002.csv", "notes.txt", "report.json"]
    assert len(read_report(out_dir / "report.json")["generations"]) == 2
    # a rerun that fails in its first generation leaves none of the earlier ones
    doc = pmc_doc(schedule=[3.0, 0.0], budget=50, out_dir=str(out_dir))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 3
    assert sorted(p.name for p in out_dir.iterdir()) == ["notes.txt", "report.json"]


def test_run_coalescent_small(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "algorithm": "rejection",
        "model": "coalescent-msat",
        "seed": 5,
        "n_particles": 40,
        "epsilon": 2.5,
        "out_dir": str(out_dir),
    }
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    report = read_report(out_dir / "report.json")
    assert report["oracle_comparison"] is None


# ---------------------------------------------------------------- compare


def compare_doc(out_dir, replicates=2):
    return {
        "model": "mixture-toy",
        "seed": 900,
        "replicates": replicates,
        "out_dir": str(out_dir),
        "algorithms": [
            {"algorithm": "pmc", "n_particles": 150, "schedule": [2.0, 0.5]},
            {"algorithm": "prc", "n_particles": 150, "schedule": [2.0, 0.5]},
            {
                "algorithm": "mcmc",
                "epsilon": 0.5,
                "n_iter": 4000,
                "burn_in": 500,
                "proposal_sd": 1.0,
            },
        ],
    }


def test_compare_happy_path(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    path = write_config(tmp_path, compare_doc(out_dir))
    assert main(["compare", "--config", path]) == 0
    report = read_report(out_dir / "comparison.json")
    assert set(report["algorithms"]) == {"pmc", "prc", "mcmc"}
    for block in report["algorithms"].values():
        assert len(block["replicates"]) == 2
        assert block["total_sims"] == sum(r["sims_used"] for r in block["replicates"])
        for key in ("mean_abs_err", "var_rel_err", "ks_statistic"):
            assert block["means"][key] == pytest.approx(
                float(np.mean([r[key] for r in block["replicates"]])), rel=1e-12
            )
    assert report["totals"]["sims_used"] == sum(
        b["total_sims"] for b in report["algorithms"].values()
    )
    assert report["winner"] is not None
    captured = capsys.readouterr()
    assert "winner by metric" in captured.out
    assert "[pmc t=2]" in captured.err and "[mcmc t=1]" in captured.err


def test_compare_budget_exhaustion_reports_partial_generation(tmp_path):
    doc = dict(compare_doc(tmp_path / "cmp"), budget=100)
    path = write_config(tmp_path, doc)
    assert main(["compare", "--config", path]) == 3
    report = read_report(tmp_path / "cmp" / "comparison.json")
    assert report["status"] == "budget-exhausted"
    assert report["partial"]["requested"] == 150
    assert report["partial"]["sims_used"] == 100
    assert report["winner"] is None


def counting_mixture(monkeypatch):
    """Make ``mixture-toy`` count its simulator calls; returns the call list."""
    calls = []
    base = get_model("mixture-toy")

    def simulator(theta, rng):
        calls.append(1)
        return mixture.simulate(theta, rng)

    counted = ModelSpec(name=base.name, prior=base.prior, simulator=simulator,
                        observed=base.observed)
    monkeypatch.setitem(benchmarks.MODEL_BUILDERS, "mixture-toy", lambda: counted)
    return calls


def test_compare_budget_exhaustion_counts_every_simulator_call(monkeypatch):
    # rejection at eps=0.1 spends the whole budget of its first replicate
    calls = counting_mixture(monkeypatch)
    cfg = parse_compare_config(
        {
            "model": "mixture-toy",
            "seed": 3,
            "replicates": 2,
            "budget": 2000,
            "algorithms": [
                {"algorithm": "rejection", "n_particles": 150, "epsilon": 0.1},
                {"algorithm": "pmc", "n_particles": 150, "schedule": [2.0, 0.1]},
            ],
        }
    )
    code, report = execute_compare(cfg)
    assert code == 3
    assert report["status"] == "budget-exhausted"
    assert report["algorithms"] == {} and report["winner"] is None
    assert report["partial"]["sims_used"] == 2000
    assert report["totals"]["sims_used"] == len(calls) == 2000


def test_compare_rows_match_their_run_reports():
    cfg = parse_compare_config(
        {
            "model": "mixture-toy",
            "seed": 77,
            "replicates": 2,
            "algorithms": [
                {"algorithm": "pmc", "n_particles": 100, "schedule": [2.0, 0.8]},
                {"algorithm": "rejection", "n_particles": 100, "epsilon": 0.8},
            ],
        }
    )
    code, report = execute_compare(cfg)
    assert code == 0
    for run_cfg in cfg.algorithms:
        for row in report["algorithms"][run_cfg.label]["replicates"]:
            _, run, _ = execute_run(run_cfg, seed=row["seed"])
            final = run["generations"][-1]
            assert row["sims_used"] == run["totals"]["sims_used"]
            assert row["weighted_mean"] == final["weighted_mean"][0]
            assert row["weighted_var"] == final["weighted_var"][0]
            for key, value in run["oracle_comparison"].items():
                assert row[key] == value


def test_compare_same_algorithm_twice_same_seed_identical(tmp_path):
    out_dir = tmp_path / "cmp"
    doc = {
        "model": "mixture-toy",
        "seed": 901,
        "replicates": 1,
        "out_dir": str(out_dir),
        "algorithms": [
            {"algorithm": "pmc", "n_particles": 100, "schedule": [2.0, 0.8]},
            {"algorithm": "pmc", "n_particles": 100, "schedule": [2.0, 0.8]},
        ],
    }
    path = write_config(tmp_path, doc)
    assert main(["compare", "--config", path]) == 0
    report = read_report(out_dir / "comparison.json")
    labels = list(report["algorithms"])
    assert labels == ["pmc", "pmc#1"]
    # the repeated entry is the first one, relabelled by its index
    first_cfg, second_cfg = parse_compare_config(doc).algorithms
    assert second_cfg == replace(first_cfg, name="pmc#1")
    first = report["algorithms"][labels[0]]["replicates"][0]
    second = report["algorithms"][labels[1]]["replicates"][0]
    assert first == second


def test_compare_refuses_a_generated_label_that_is_taken(tmp_path, capsys):
    # the third entry's generated label is the first entry's name: the second PMC's
    # results would take the PRC entry's place in the report
    out_dir = tmp_path / "cmp"
    pmc = {"algorithm": "pmc", "n_particles": 20, "schedule": [2.0, 1.0]}
    doc = {"model": "mixture-toy", "seed": 1, "replicates": 1, "out_dir": str(out_dir),
           "algorithms": [{**pmc, "algorithm": "prc", "name": "pmc#2"}, pmc, pmc]}
    with pytest.raises(ConfigError, match=r"algorithms\[2\]: .*'pmc#2'.*give it a name"):
        parse_compare_config(doc)
    assert main(["compare", "--config", write_config(tmp_path, doc)]) == 2
    assert "give it a name" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compare_requires_matched_final_tolerance(tmp_path, capsys):
    doc = compare_doc(tmp_path / "cmp")
    doc["algorithms"][2]["epsilon"] = 0.4
    path = write_config(tmp_path, doc)
    assert main(["compare", "--config", path]) == 2
    assert "final tolerances" in capsys.readouterr().err


def test_compare_requires_oracle_model(tmp_path, capsys):
    doc = {
        "model": "coalescent-msat",
        "seed": 1,
        "replicates": 1,
        "algorithms": [
            {"algorithm": "rejection", "n_particles": 10, "epsilon": 3.0},
        ],
    }
    path = write_config(tmp_path, doc)
    assert main(["compare", "--config", path]) == 2
    assert "reference posterior" in capsys.readouterr().err


def test_compare_validate_subcommand(tmp_path):
    path = write_config(tmp_path, compare_doc(tmp_path / "cmp"))
    assert main(["validate", "--config", path]) == 0


def test_parse_compare_inherits_seed_and_model():
    cfg = parse_compare_config(
        {
            "model": "mixture-toy",
            "seed": 5,
            "replicates": 2,
            "algorithms": [
                {"algorithm": "rejection", "n_particles": 10, "epsilon": 0.5}
            ],
        }
    )
    assert cfg.algorithms[0].model == "mixture-toy"
    assert cfg.algorithms[0].seed == 5


@pytest.mark.parametrize("key, value", [("seed", 999), ("out_dir", "elsewhere")])
def test_parse_compare_refuses_per_algorithm_seed_and_out_dir(key, value):
    # a replicate runs at the top-level seed plus its index and writes nothing of its
    # own, so either key in an entry would be ignored
    doc = {"model": "mixture-toy", "seed": 1, "replicates": 1,
           "algorithms": [{"algorithm": "rejection", "n_particles": 10, "epsilon": 0.5,
                           key: value}]}
    with pytest.raises(ConfigError, match=rf"algorithms\[0\]: {key} .*set it at the top level"):
        parse_compare_config(doc)


def test_parse_compare_copies_workers_only_where_read():
    cfg = parse_compare_config(
        {
            "model": "mixture-toy",
            "seed": 5,
            "replicates": 2,
            "workers": 2,
            "budget": 50_000,
            "algorithms": [
                {"algorithm": "pmc", "n_particles": 10, "schedule": [1.0, 0.5]},
                {"algorithm": "mcmc", "epsilon": 0.5, "n_iter": 100, "proposal_sd": 1.0},
            ],
        }
    )
    pmc, mcmc = cfg.algorithms
    assert (pmc.workers, pmc.budget) == (2, 50_000)
    assert (mcmc.workers, mcmc.budget) == (1, 50_000)


def test_bundled_configs_validate():
    from pathlib import Path

    configs = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.yaml"))
    assert configs, "bundled configs missing"
    for cfg_path in configs:
        assert main(["validate", "--config", str(cfg_path)]) == 0


def refuse_constant(name):
    raise ValueError(f"report.json holds {name}, which strict JSON parsers refuse")


def test_report_is_valid_json_document(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, pmc_doc(out_dir=str(out_dir)))
    main(["run", "--config", path])
    parsed = json.loads((out_dir / "report.json").read_text(), parse_constant=refuse_constant)
    assert parsed["algorithm"] == "pmc"


def test_report_with_a_moment_that_overflows_is_valid_json(tmp_path, monkeypatch, capsys):
    wide = ModelSpec(name="wide", prior=UniformBoxPrior([-8e307], [8e307]),
                     simulator=lambda theta, rng: np.array([0.0]), observed=[0.0])
    monkeypatch.setitem(benchmarks.MODEL_BUILDERS, "wide", lambda: wide)
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, {"algorithm": "rejection", "model": "wide", "seed": 1,
                                   "n_particles": 50, "epsilon": 1.0, "out_dir": str(out_dir)})
    assert main(["run", "--config", path]) == 0
    parsed = json.loads((out_dir / "report.json").read_text(), parse_constant=refuse_constant)
    assert parsed["generations"][0]["weighted_var"] == [None]
    assert "var=[null]" in capsys.readouterr().out
