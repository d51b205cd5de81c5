#!/usr/bin/env python3
"""Run the tier-1 suite once, timed, and write its wall time to ``.bench_out/BENCH_tier1.json``.

    python scripts/tier1_time.py

The command is the tier-1 one, ``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``, with ``--durations=10``, run from the
repository root. Pytest's output passes through unchanged. The JSON file
holds the wall seconds, the counts of passed, failed and errored tests and
the ten slowest test phases. The exit status is pytest's.
"""
from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=10"]
OUT = ROOT / ".bench_out" / "BENCH_tier1.json"

# "352 passed, 2 failed, 1 error in 95.21s (0:01:35)", the last line pytest prints
SUMMARY = re.compile(r"\b(\d+) (passed|failed|errors?)\b")
# "17.80s call     tests/test_acceptance.py::test_criterion_04_...", one per slow phase
DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown) +(.+)$")


def summarize(lines: list[str]) -> dict:
    """Test counts and the slowest phases, read from pytest's output lines."""
    counts = {"passed": 0, "failed": 0, "errors": 0}
    summary = next((line for line in reversed(lines) if re.search(r" in [\d.]+s\b", line)), "")
    for n, what in SUMMARY.findall(summary):
        counts["errors" if what.startswith("error") else what] = int(n)
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(DURATION.match, lines) if m]
    return {**counts, "slowest": slowest[:10]}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    lines = []
    start = time.perf_counter()
    with subprocess.Popen(COMMAND, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line.rstrip("\n"))
    wall_s = time.perf_counter() - start
    result = {"command": "PYTHONPATH=src python " + " ".join(COMMAND[1:]),
              "wall_s": round(wall_s, 3), **summarize(lines), "exit_status": proc.returncode,
              "python": platform.python_version(), "nproc": os.cpu_count()}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"tier1_time: {wall_s:.1f} s, written to {OUT.relative_to(ROOT)}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
