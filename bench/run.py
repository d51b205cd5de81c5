#!/usr/bin/env python3
"""The bench command: one workload, timed from outside, checked, written to ``BENCH_<name>.json``.

    python3 bench/run.py --workload mixture-pmc --seed 0 --seconds 15 --trace 0

Each execution goes through the path users take: the run config is parsed
with ``config.parse_run_config`` and run by ``cli.execute_run``, which writes
the population CSVs and ``report.json`` to a temporary directory under
``.bench_out/``. A round runs every sampler seed the workload derives from
``--seed``; rounds repeat until ``--seconds`` have passed (at least one).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the per-layer metrics: each seed runs once with only
the engine boundary wrapped (the baseline for the trace overhead and for
collect time), once with every boundary wrapped, and, for a workload that
uses a process pool, once more with the pool and the engine boundary.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
including the machine description, goes to ``.bench_out/BENCH_<name>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import checkout
from checks import check_bands, check_run, outputs_digest
from tracing import Tracer
from workloads import WORKLOADS, load_bands

SETUP_PROBES = 3
OUT = checkout.ROOT / ".bench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 10**12:
        parser.error("--seed must lie in [0, 1e12)")
    return args, WORKLOADS[args.workload]


def measure_setup(doc: dict) -> list[float]:
    """Seconds from starting a fresh interpreter to its first sampler call, per probe."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), str(checkout.SRC), json.dumps(doc)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - started)
    return samples


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(checkout.SRC.rglob("*.py"))),
    }


def _blas_threads():
    """Thread count of the OpenBLAS bundled with NumPy, or None if it cannot be asked."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    """HEAD commit read from ``.git`` in the checkout; None outside a git checkout."""
    git = checkout.ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def execute(cli, cfg, seed: int, out_dir: Path, tracer=None):
    """One ``cli.execute_run``; returns (seconds, exit code, report, populations)."""
    with contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        if tracer is None:
            code, report, pops = cli.execute_run(cfg, seed=seed, persist_to=out_dir)
        else:
            code, report, pops = tracer.span(
                "cli.execute_run", cli.execute_run, cfg, seed=seed, persist_to=out_dir)
        elapsed = time.perf_counter() - started
    return elapsed, code, report, pops


class Ledger:
    """Operation counts, check failures and per-seed results shared by both modes."""

    def __init__(self, w, bands):
        self.w = w
        self.bands = bands
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sims: dict[int, int] = {}
        self.digests: dict[int, str] = {}
        self.moments: dict[int, dict] = {}
        self.band_results: dict = {}

    def record(self, seed: int, out_dir: Path, code: int, report: dict, pops: list) -> bool:
        """Check one execution; the first of each seed fully, repeats for identical output."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return False
        digest = outputs_digest(out_dir)
        if seed not in self.digests:
            fail, moments = check_run(self.w, seed, out_dir, code, report, pops)
            self.failures.extend(fail)
            self.digests[seed] = digest
            self.sims[seed] = int(report["totals"]["sims_used"])
            self.moments[seed] = moments
        elif digest != self.digests[seed]:
            self.failures.append(f"seed {seed}: outputs differ from the first execution")
        return True

    def finish_round(self, seeds):
        if self.band_results or any(s not in self.moments or not self.moments[s] for s in seeds):
            return
        fail, self.band_results = check_bands(self.w, [self.moments[s] for s in seeds], self.bands)
        self.failures.extend(fail)


def run_untraced(w, cli, parse_run_config, seeds, seconds, tmp: Path, ledger: Ledger):
    """Executions with nothing wrapped; returns their times and the peak RSS in MB.

    The peak is read after the first execution, before any check runs, so
    that the checker's own memory is not counted.
    """
    cfgs = {s: parse_run_config(w.config_doc(s)) for s in seeds}
    times = []
    peak_mb = None
    started = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - started < seconds:
        for seed in seeds:
            out_dir = tmp / f"r{rnd}-s{seed}"
            elapsed, code, report, pops = execute(cli, cfgs[seed], seed, out_dir)
            if peak_mb is None:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if ledger.record(seed, out_dir, code, report, pops):
                times.append(elapsed)
            shutil.rmtree(out_dir)
        ledger.finish_round(seeds)
        rnd += 1
    return times, peak_mb


def run_traced(w, cli, parse_run_config, seeds, seconds, tmp: Path, ledger: Ledger):
    light, full = Tracer(full=False), Tracer(full=True)
    pool_workers = int(w.config.get("workers", 1))
    rows = []
    counts = {}
    started = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - started < seconds:
        for seed in seeds:
            row = {}
            plan = [("light", light, 1), ("full", full, 1)]
            if pool_workers > 1:
                plan.append(("pool", light, pool_workers))
            for label, tracer, workers in plan:
                cfg = parse_run_config(w.config_doc(seed, workers=workers))
                out_dir = tmp / f"r{rnd}-s{seed}-{label}"
                tracer.reset()
                cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
                tracer.install()
                try:
                    _, code, report, pops = execute(cli, cfg, seed, out_dir, tracer)
                finally:
                    tracer.uninstall()
                cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
                if ledger.record(seed, out_dir, code, report, pops):
                    row[label] = tracer.summary()
                    row[label]["children_cpu_s"] = (cpu1.ru_utime + cpu1.ru_stime
                                                    - cpu0.ru_utime - cpu0.ru_stime)
                    row[label]["sims_total"] = int(report["totals"]["sims_used"])
                shutil.rmtree(out_dir)
            if len(row) == len(plan):
                rows.append(row)
                if rnd == 0:
                    _add_counts(counts, row, ledger, seed, full.missing)
        ledger.finish_round(seeds)
        rnd += 1
    spans_path = OUT / f"spans_{w.name}.csv"
    full.write_spans(spans_path)
    return layer_metrics(rows, counts, pool_workers, full), rows, spans_path, full.missing


def _add_counts(counts: dict, row: dict, ledger: Ledger, seed: int, missing: list[str]):
    f = row["full"]
    if "models.simulate_distance" not in missing and f["simulate_calls"] != f["sims_total"]:
        ledger.failures.append(
            f"seed {seed}: {f['simulate_calls']} simulator calls traced, report says {f['sims_total']}")
    for key, value in (
        ("attempts", f["attempts"]), ("sims_needed", f["sims_needed"]),
        ("simulate_calls", f["simulate_calls"]), ("perturb_calls", f["perturb_calls"]),
        ("redraws", f["perturb_calls"] - f["propagated_attempts"]),
        ("weight_pairs", f["weight_pairs"]), ("persist_bytes", f["persist_bytes"]),
    ):
        counts[key] = counts.get(key, 0) + value


def layer_metrics(rows, counts, pool_workers, tracer) -> dict:
    """Per-layer metrics: seconds are medians over executions, counts totals over a round."""
    if not rows:
        return {}

    def med(fn):
        return statistics.median(fn(r) for r in rows)

    def per(num, den, factor):
        return num * factor / den if den else 0.0

    collect_w1 = med(lambda r: r["light"]["collect_s"])
    metrics = {
        "engine.collect_s": (collect_w1, "s"),
        "engine.attempts": (counts.get("attempts", 0), "count"),
        "engine.sims_needed": (counts.get("sims_needed", 0), "count"),
        "engine.overshoot_sims": (counts.get("attempts", 0) - counts.get("sims_needed", 0), "count"),
        "engine.attempt_self_us": (med(lambda r: per(
            r["light"]["collect_s"] - r["full"]["engine_simulate_s"], r["full"]["attempts"], 1e6)), "us"),
        "engine.parallel_speedup": (
            collect_w1 / med(lambda r: r["pool"]["collect_s"]) if pool_workers > 1 else 0.0, "x"),
        "engine.worker_cpu_s": (
            med(lambda r: r["pool"]["children_cpu_s"]) if pool_workers > 1 else 0.0, "s"),
        "models.simulate_calls": (counts.get("simulate_calls", 0), "count"),
        "models.simulate_us": (med(lambda r: per(
            r["full"]["simulate_s"], r["full"]["simulate_calls"], 1e6)), "us"),
        "kernel.perturb_calls": (counts.get("perturb_calls", 0), "count"),
        "kernel.redraws": (counts.get("redraws", 0), "count"),
        "kernel.adapt_s": (med(lambda r: r["full"]["adapt_s"]), "s"),
        "samplers.weight_s": (med(lambda r: r["full"]["weight_s"]), "s"),
        "samplers.weight_pairs": (counts.get("weight_pairs", 0), "count"),
        "samplers.weight_pair_ns": (med(lambda r: per(
            r["full"]["weight_s"], r["full"]["weight_pairs"], 1e9)), "ns"),
        "samplers.mcmc_step_us": (med(lambda r: per(
            r["full"]["mcmc_self_s"], r["full"]["mcmc_steps"], 1e6)), "us"),
        "diagnostics.s": (med(lambda r: r["full"]["diagnostics_s"]), "s"),
        "persist.s": (med(lambda r: r["full"]["persist_s"]), "s"),
        "persist.bytes": (counts.get("persist_bytes", 0), "bytes"),
        "cli.self_s": (med(lambda r: r["full"]["cli_self_s"]), "s"),
        "trace.overhead_s": (med(lambda r: r["full"]["run_s"]) - med(lambda r: r["light"]["run_s"]), "s"),
    }
    gone = tracer.unavailable_metrics()
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in gone}


def main(argv=None) -> int:
    checkout.require_program()
    args, w = parse_args(argv)
    seeds = w.run_seeds(args.seed)
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(w.config_doc(seeds[0]))

    from popabc import cli
    from popabc.config import parse_run_config

    ledger = Ledger(w, load_bands())
    record = {"workload": w.name, "seed": args.seed, "sampler_seeds": seeds,
              "seconds": args.seconds, "trace": args.trace}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        if args.trace:
            metrics, rows, spans_path, missing = run_traced(
                w, cli, parse_run_config, seeds, args.seconds, Path(tmp), ledger)
            record.update(spans=str(spans_path.relative_to(checkout.ROOT)), missing_layers=missing,
                          executions=rows)
        else:
            times, rss = run_untraced(
                w, cli, parse_run_config, seeds, args.seconds, Path(tmp), ledger)
            metrics = {
                "run_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
                "sims_total": {"value": sum(ledger.sims.values()), "unit": "calls"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
            record.update(
                run_s_samples=times, setup_s_samples=setup,
                children_peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            )
    correct = not ledger.failures and ledger.attempted > ledger.failed
    record.update(
        correct=correct, attempted=ledger.attempted, failed=ledger.failed,
        failures=ledger.failures, sims_per_seed=ledger.sims, final_moments=ledger.moments,
        bands=ledger.band_results, metrics=metrics, machine=machine(),
    )
    suffix = ".trace" if args.trace else ""
    (OUT / f"BENCH_{w.name}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in ledger.failures:
        print(f"CHECK FAILED: {failure}")
    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
