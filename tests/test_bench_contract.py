"""The contract between ``cli.execute_run`` and the bench's tracer.

``bench/tracing.py`` measures layers by wrapping named module attributes, and
silently drops every metric whose wrapped name has gone. These tests run its
``Tracer`` around two small runs, so a renamed or bypassed boundary fails here
instead of shrinking the bench's output.
"""
import importlib.util
from pathlib import Path

import pytest

from popabc import cli
from popabc.config import parse_run_config

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer(full=True)
    tracer.install()
    yield tracer
    tracer.uninstall()


def traced_run(tracer, doc, persist_to=None):
    """Summary of one traced run, after the checks every traced run must pass."""
    cfg = parse_run_config(doc)
    code, report, _ = tracer.span("cli.execute_run", cli.execute_run, cfg, persist_to=persist_to)
    assert code == 0
    assert tracer.missing == []
    assert tracer.unavailable_metrics() == set()
    summary = tracer.summary()
    assert summary["simulate_calls"] == report["totals"]["sims_used"]
    return summary, report


def test_traced_pmc_run_reports_every_layer(tracer, tmp_path):
    summary, report = traced_run(
        tracer,
        {"algorithm": "pmc", "model": "mixture-toy", "seed": 3, "n_particles": 200,
         "schedule": [2.0, 0.5]},
        persist_to=tmp_path,
    )
    assert report["totals"]["sims_used"] == summary["attempts"]
    assert summary["perturb_calls"] >= summary["propagated_attempts"] > 0
    assert summary["weight_pairs"] == 200 * 200
    assert summary["diagnostics_s"] > 0
    assert summary["persist_s"] > 0


def test_traced_coalescent_run_counts_every_simulation(tracer):
    # the bench's coalescent models.simulate_us is read through this same boundary
    summary, report = traced_run(
        tracer,
        {"algorithm": "pmc", "model": "coalescent-msat", "seed": 3, "n_particles": 100,
         "schedule": [2.0, 1.0], "workers": 1},
    )
    assert report["totals"]["sims_used"] == summary["attempts"]
    assert summary["perturb_calls"] >= summary["propagated_attempts"] > 0
    # and samplers.weight_pair_ns through this one: one 100 x 100 weight pass
    assert summary["weight_pairs"] == 100 * 100


def test_traced_mcmc_run_counts_its_steps(tracer):
    summary, _ = traced_run(
        tracer,
        {"algorithm": "mcmc", "model": "mixture-toy", "seed": 3, "epsilon": 0.5,
         "n_iter": 2000, "burn_in": 200, "proposal_sd": 1.0},
    )
    assert summary["mcmc_steps"] == 2000
    assert summary["diagnostics_s"] > 0
