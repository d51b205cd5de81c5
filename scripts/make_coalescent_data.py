#!/usr/bin/env python3
"""Regenerate the pinned coalescent observation and standardization constants.

The bundle is deterministic given the seeds recorded inside it, so running
this script reproduces the committed data file byte for byte. It draws from
the module's reference path (``simulate_alleles`` and ``summaries``), whose
draws stay fixed, not from the sampler path ``simulate``.
"""
import argparse
import json
from pathlib import Path

from popabc.benchmarks import coalescent


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: the package data file)",
    )
    args = parser.parse_args()
    bundle = coalescent.generate_data_bundle()
    if args.out is None:
        out = Path(coalescent.__file__).parent / "data" / coalescent.DATA_FILE
    else:
        out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(bundle, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"observed summaries: {bundle['observed']}")
    print(f"summary sds:        {bundle['summary_sd']}")


if __name__ == "__main__":
    main()
