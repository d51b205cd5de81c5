"""Command-line front end: run one sampler, compare several, validate configs.

Subcommands:
    popabc run --config run.yaml
    popabc compare --config compare.yaml
    popabc validate --config either.yaml

A compare replicate is one run. Runs print one progress line per generation
to stderr; compare's totals count every simulator call, a failed replicate's
included. Exit codes: 0 success, 2 configuration/validation error, 3 any
``errors.RunFailed``, such as an exhausted budget (partial outputs are kept
and the failure's status is recorded in the report).
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import benchmarks, persist
from .config import (
    CompareConfig,
    RunConfig,
    load_compare_config,
    load_run_config,
    load_yaml,
    parse_compare_config,
    parse_run_config,
)
from .diagnostics import compare_to_oracle, generation_stats
from .engine import Population
from .errors import ConfigError, RunFailed
from .samplers import abc_mcmc, abc_pmc, abc_prc, abc_rejection


def _dispatch(cfg: RunConfig, model, seed: int, on_generation):
    """Run the configured algorithm, streaming populations to the callback; returns
    the report's mcmc block, None for the population samplers. MCMC also passes the
    callback its chain's acceptance rate, accepted moves per step."""
    if cfg.algorithm == "mcmc":
        result = abc_mcmc(
            model, cfg.epsilon, cfg.n_iter, cfg.proposal_sd, seed=seed, budget=cfg.budget
        )
        n = result.n_iter - cfg.burn_in
        on_generation(
            Population(
                t=1, epsilon=cfg.epsilon, thetas=result.thetas[cfg.burn_in :],
                weights=np.full(n, 1.0 / n), dists=result.dists[cfg.burn_in :],
                scale=None, sims_used=result.sims_used,
            ),
            result.acceptance_rate,
        )
        return {
            "n_iter": result.n_iter,
            "burn_in": cfg.burn_in,
            "acceptance_rate": result.acceptance_rate,
            "init_sims": result.init_sims,
        }
    sampler = {"rejection": abc_rejection, "pmc": abc_pmc, "prc": abc_prc}[cfg.algorithm]
    tolerance = cfg.epsilon if cfg.algorithm == "rejection" else cfg.schedule
    sampler(
        model, tolerance, cfg.n_particles,
        seed=seed, budget=cfg.budget, workers=cfg.workers,
        on_generation=on_generation,
    )
    return None


def execute_run(cfg: RunConfig, seed: int | None = None, persist_to: Path | None = None):
    """Run one configured sampler; returns (exit_code, report, populations). A
    ``RunFailed`` is recorded in the report instead of raised."""
    model = benchmarks.get_model(cfg.model)
    seed = cfg.seed if seed is None else seed
    out_dir = persist_to
    if out_dir is None and cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        persist.remove_populations(out_dir)

    populations: list[Population] = []
    generations: list[dict] = []
    mcmc_extra = None

    def on_generation(pop: Population, acceptance_rate: float | None = None):
        populations.append(pop)
        if out_dir is not None:
            persist.write_population(out_dir / persist.population_filename(pop.t), pop)
        block = generation_stats(pop)
        if acceptance_rate is not None:
            block["acceptance_rate"] = acceptance_rate
        generations.append(block)
        print(
            f"[{cfg.algorithm} t={block['t']}] eps={block['epsilon']:g} n={pop.n} "
            f"sims={block['sims_used']} acc={block['acceptance_rate']:.3g}",
            file=sys.stderr,
        )

    outcome = {"status": "ok", "error": None, "partial": None}
    started = time.perf_counter()
    try:
        mcmc_extra = _dispatch(cfg, model, seed, on_generation)
    except RunFailed as exc:
        outcome.update(status=exc.status, error=str(exc), partial=exc.partial)
    wall = time.perf_counter() - started

    oracle = benchmarks.get_oracle(cfg.model)
    oracle_block = None
    if oracle is not None and outcome["status"] == "ok" and populations:
        final = populations[-1]
        oracle_block = asdict(compare_to_oracle(final.thetas, final.weights, oracle))

    sims_used = sum(gen["sims_used"] for gen in generations)
    if outcome["partial"] is not None:
        sims_used += outcome["partial"]["sims_used"]

    report = {
        "config": cfg.raw,
        "algorithm": cfg.algorithm,
        "model": cfg.model,
        "seed": seed,
        **outcome,
        "generations": generations,
        "mcmc": mcmc_extra,
        "totals": {
            "sims_used": int(sims_used),
            "wall_time_s": wall,
        },
        "oracle_comparison": oracle_block,
    }
    if out_dir is not None:
        persist.write_report(out_dir / "report.json", report)
    return (0 if outcome["status"] == "ok" else 3), report, populations


def execute_compare(cfg: CompareConfig):
    """Replicated head-to-head comparison against the model's oracle. Each replicate
    is one unpersisted ``execute_run``; the first that fails stops the comparison
    and lends it its status, error and partial, and the totals count its calls."""
    started = time.perf_counter()
    algorithms = {}
    sims_used = 0
    for run_cfg in cfg.algorithms:
        rows = []
        for r in range(cfg.replicates):
            seed_r = (cfg.seed + r) % 2**64
            code, run, _ = execute_run(run_cfg, seed=seed_r)
            sims_used += run["totals"]["sims_used"]
            if code != 0:
                break
            final = run["generations"][-1]
            rows.append(
                {
                    "replicate": r,
                    "seed": seed_r,
                    "sims_used": run["totals"]["sims_used"],
                    **run["oracle_comparison"],
                    "weighted_mean": final["weighted_mean"][0],
                    "weighted_var": final["weighted_var"][0],
                }
            )
        if code != 0:
            break
        algorithms[run_cfg.label] = {
            "algorithm": run_cfg.algorithm,
            "replicates": rows,
            "means": {
                key: float(np.mean([row[key] for row in rows]))
                for key in ("mean_abs_err", "var_rel_err", "ks_statistic")
            },
            "total_sims": int(sum(row["sims_used"] for row in rows)),
        }
    outcome = {key: run[key] for key in ("status", "error", "partial")}  # of the last run

    winner = {}
    if outcome["status"] == "ok":
        for key in ("mean_abs_err", "var_rel_err", "ks_statistic"):
            winner[key] = min(algorithms, key=lambda a: algorithms[a]["means"][key])
        winner["sims_used"] = min(algorithms, key=lambda a: algorithms[a]["total_sims"])

    report = {
        "config": cfg.raw,
        "model": cfg.model,
        "master_seed": cfg.seed,
        "replicates": cfg.replicates,
        "final_epsilon": cfg.algorithms[0].final_epsilon,
        **outcome,
        "algorithms": algorithms,
        "winner": winner or None,
        "totals": {
            "sims_used": int(sims_used),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        persist.write_report(out_dir / "comparison.json", report)
    return (0 if outcome["status"] == "ok" else 3), report


def _print_run_summary(report: dict):
    print(f"algorithm: {report['algorithm']}  model: {report['model']}  status: {report['status']}")
    for gen in report["generations"]:
        mean, var = (", ".join("null" if v is None else f"{v:.4g}" for v in gen[key])
                     for key in ("weighted_mean", "weighted_var"))
        print(
            f"  t={gen['t']} eps={gen['epsilon']:g} ess={gen['ess']:.1f} "
            f"acc={gen['acceptance_rate']:.3g} sims={gen['sims_used']} "
            f"mean=[{mean}] var=[{var}]"
        )
    print(f"total sims: {report['totals']['sims_used']}")
    if report.get("oracle_comparison"):
        oc = report["oracle_comparison"]
        print(
            f"vs oracle: |mean err|={oc['mean_abs_err']:.4g} "
            f"var rel err={oc['var_rel_err']:.4g} KS={oc['ks_statistic']:.4g}"
        )


def _print_compare_summary(report: dict):
    print(f"model: {report['model']}  replicates: {report['replicates']}  status: {report['status']}")
    header = f"{'algorithm':<14}{'|mean err|':>12}{'var rel err':>13}{'KS':>10}{'sims':>12}"
    print(header)
    for label, block in report["algorithms"].items():
        m = block["means"]
        print(
            f"{label:<14}{m['mean_abs_err']:>12.4g}{m['var_rel_err']:>13.4g}"
            f"{m['ks_statistic']:>10.4g}{block['total_sims']:>12}"
        )
    if report.get("winner"):
        wins = ", ".join(f"{k}: {v}" for k, v in report["winner"].items())
        print(f"winner by metric -> {wins}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="popabc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config file")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = load_run_config(args.config)
            code, report, _ = execute_run(cfg)
            _print_run_summary(report)
            return code
        if args.command == "compare":
            cfg = load_compare_config(args.config)
            code, report = execute_compare(cfg)
            _print_compare_summary(report)
            return code
        # validate: accept either config flavor
        doc = load_yaml(args.config)
        if "algorithms" in doc:
            parse_compare_config(doc)
        else:
            parse_run_config(doc, context=str(args.config))
        print("config ok")
        return 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
