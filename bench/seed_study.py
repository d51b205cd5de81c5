#!/usr/bin/env python3
"""Seed study behind the statistical bands in ``bands.json``, and the PRC power check.

For each workload, runs ``cli.execute_run`` on the study seeds (distinct from
every seed the bench derives from a workload seed below 100) and records
the per-seed mean and variance of the final population. The band of a check
is the independent reference +- BAND_Z * sqrt(sd^2 / k + reference_se^2),
where k is the number of seeds averaged in one round of the bench.

    python3 bench/seed_study.py mixture-pmc mixture-mcmc     # rewrite those entries
    python3 bench/seed_study.py --power-check                # PRC must fail the band

The power check runs the mixture-pmc round of workload seeds 0-4 with
``algorithm: prc`` and exits non-zero if any round passes the band.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys

import checkout

checkout.require_program()

from checks import check_bands, weighted_moments  # noqa: E402
from workloads import BANDS_FILE, WORKLOADS, load_bands  # noqa: E402
from popabc import cli  # noqa: E402
from popabc.config import parse_run_config  # noqa: E402

STUDY_FIRST_SEED = 100_000
STUDY_SEEDS = {"mixture-pmc": 40, "coalescent-pmc": 40, "conjugate-large-n": 20, "mixture-mcmc": 40}


def final_moments(doc: dict, seed: int) -> dict:
    with contextlib.redirect_stderr(io.StringIO()):
        code, report, pops = cli.execute_run(parse_run_config(doc), seed=seed)
    if code != 0:
        raise SystemExit(f"seed {seed}: run failed with status {report['status']}")
    mean, var = weighted_moments(pops[-1].thetas, pops[-1].weights)
    return {"mean": mean, "var": var}


def study(name: str) -> dict:
    w = WORKLOADS[name]
    seeds = range(STUDY_FIRST_SEED, STUDY_FIRST_SEED + STUDY_SEEDS[name])
    rows = []
    for seed in seeds:
        rows.append(final_moments(w.config_doc(seed), seed))
        print(name, seed, rows[-1], flush=True)
    entry = {"seeds": [seeds.start, seeds.stop - 1]}
    for key in ("mean", "var"):
        values = [r[key] for r in rows]
        entry[key] = {
            "mean": statistics.fmean(values),
            "sd": statistics.stdev(values),
            "values": values,
        }
    return entry


def power_check() -> int:
    w = WORKLOADS["mixture-pmc"]
    bands = load_bands()
    passed = 0
    for workload_seed in range(5):
        moments = [final_moments(dict(w.config_doc(s), algorithm="prc"), s)
                   for s in w.run_seeds(workload_seed)]
        fail, result = check_bands(w, moments, bands)
        print(f"workload seed {workload_seed}: PRC variance {result['var']['value']:.4f}, "
              f"band [{result['var']['band'][0]:.4f}, {result['var']['band'][1]:.4f}]: "
              f"{'fails' if fail else 'PASSES'}")
        passed += not fail
    return 1 if passed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--power-check", action="store_true")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    if args.power_check:
        return power_check()
    bands = load_bands() if BANDS_FILE.exists() else {}
    for name in args.workloads:
        bands[name] = study(name)
        BANDS_FILE.write_text(json.dumps(bands, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
