#!/usr/bin/env python3
"""Run the bundled run configs on a parent revision and on the working tree; compare outputs.

    python scripts/same_outputs.py --parent HEAD~1

The parent's files come from ``git archive <rev>``, unpacked into a temporary
directory, so the repository gains no worktree or branch. The other side is
the working tree as it stands, uncommitted edits included. Each side runs
``python -m popabc.cli run`` with its own ``src/`` on ``PYTHONPATH``, from its
own run directory, on the same config text: every bundled run config, plus
``mixture_pmc.yaml`` switched to ``prc`` and ``coalescent_pmc.yaml`` at
``workers: 1`` and ``workers: 2``. Compare configs (those with
``algorithms:``) are skipped.

For each output file it prints whether the two sides wrote the same bytes;
``report.json`` is compared with every ``wall_time_s`` removed. Where a
population CSV differs it prints the largest relative change per column, and
where a report differs, the first keys that differ and whether ``sims_used``
matches per generation. The exit status is 0 when every file is identical and 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def run_configs() -> dict[str, dict]:
    """Name -> config document for every run to compare, ``out_dir`` set to ``out``."""
    runs = {}
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        doc = yaml.safe_load(path.read_text())
        if "algorithms" in doc:
            continue
        runs[path.stem] = doc
        if path.stem == "mixture_pmc":
            runs["mixture_pmc-prc"] = {**doc, "algorithm": "prc"}
        if path.stem == "coalescent_pmc":
            for workers in (1, 2):
                runs[f"coalescent_pmc-workers{workers}"] = {**doc, "workers": workers}
    return {name: {**doc, "out_dir": "out"} for name, doc in runs.items()}


def unpack_parent(rev: str, dest: Path) -> Path:
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True)
    if commit.returncode != 0:
        raise SystemExit(f"same_outputs: {rev!r} is not a commit: {commit.stderr.strip()}")
    archive = dest / "parent.tar"
    subprocess.run(["git", "archive", "--output", str(archive), commit.stdout.strip()],
                   cwd=ROOT, check=True)
    tree = dest / "parent"
    with tarfile.open(archive) as tar:
        extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(tree, **extra)
    archive.unlink()
    return tree


def run_side(src: Path, config: Path, rundir: Path) -> Path:
    """Run one config with the package under ``src``; returns its output directory."""
    rundir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "popabc.cli", "run", "--config", str(config)],
                          cwd=rundir, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 3):  # 3: a run failure, recorded in its report
        raise SystemExit(f"same_outputs: {config.stem} failed with {src}:\n{proc.stderr}")
    return rundir / "out"


def without_wall_time(value):
    if isinstance(value, dict):
        return {k: without_wall_time(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [without_wall_time(v) for v in value]
    return value


def csv_change(a: Path, b: Path) -> str:
    """Largest relative change per column between two population CSVs."""
    rows_a = list(csv.reader(a.read_text().splitlines()))
    rows_b = list(csv.reader(b.read_text().splitlines()))
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return (f"header {rows_a[0]} vs {rows_b[0]}, {len(rows_a) - 1} vs {len(rows_b) - 1} "
                "rows")
    changes = []
    for k, name in enumerate(rows_a[0][2:], start=2):
        worst = 0.0
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            x, y = float(ra[k]), float(rb[k])
            if x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        changes.append(f"{name} {worst:.3g}")
    return "largest relative change: " + ", ".join(changes)


def differing_keys(a, b, path: str = "") -> list[str]:
    """Paths into two JSON documents where their values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(set(a) | set(b))
                for p in differing_keys(a.get(k), b.get(k), f"{path}.{k}" if path else k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in differing_keys(x, y, f"{path}[{i}]")]
    return [] if a == b else [path]


def report_change(a: dict, b: dict) -> str:
    keys = differing_keys(a, b)
    sims_a = [gen["sims_used"] for gen in a.get("generations", [])]
    sims_b = [gen["sims_used"] for gen in b.get("generations", [])]
    verdict = "match" if sims_a == sims_b else "differ"
    more = f" and {len(keys) - 4} more" if len(keys) > 4 else ""
    return (f"differs at {', '.join(keys[:4])}{more}; "
            f"sims_used per generation {verdict}: {sims_a} vs {sims_b}")


def compare(name: str, out_a: Path, out_b: Path) -> tuple[int, int]:
    """Print one line per output file; returns (identical, total)."""
    files = sorted({p.name for p in out_a.iterdir()} | {p.name for p in out_b.iterdir()})
    same = 0
    for fname in files:
        a, b = out_a / fname, out_b / fname
        label = f"{name}/{fname}"
        if not a.exists() or not b.exists():
            print(f"{label:<40} DIFFERS  written on one side only")
            continue
        if fname.endswith(".json"):
            doc_a = without_wall_time(json.loads(a.read_text()))
            doc_b = without_wall_time(json.loads(b.read_text()))
            identical = doc_a == doc_b
            detail = "" if identical else report_change(doc_a, doc_b)
        else:
            identical = a.read_bytes() == b.read_bytes()
            detail = "" if identical or not fname.endswith(".csv") else csv_change(a, b)
        same += identical
        print(f"{label:<40} {'identical' if identical else 'DIFFERS  ' + detail}")
    return same, len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    same = total = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        parent = unpack_parent(args.parent, tmp)
        for name, doc in run_configs().items():
            config = tmp / "configs" / f"{name}.yaml"
            config.parent.mkdir(exist_ok=True)
            config.write_text(yaml.safe_dump(doc, sort_keys=False))
            out_a = run_side(parent / "src", config, tmp / "runs" / "parent" / name)
            out_b = run_side(ROOT / "src", config, tmp / "runs" / "change" / name)
            s, n = compare(name, out_a, out_b)
            same += s
            total += n
    print(f"{same} of {total} files identical against {args.parent}")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
