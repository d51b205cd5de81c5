#!/usr/bin/env python3
"""Regenerate the pinned coalescent observation and standardization constants.

The bundle is deterministic given the seeds recorded inside it, so running
this script reproduces the committed data file byte for byte:

    PYTHONPATH=src python scripts/make_coalescent_data.py --out bundle.json

It draws from the scalar reference process in ``coalescent_reference.py``
beside it, whose draws stay fixed, not from the package's ``simulate``.
"""
import argparse
import json
from pathlib import Path

from coalescent_reference import generate_data_bundle

from popabc.benchmarks import coalescent


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: the package data file)",
    )
    args = parser.parse_args()
    bundle = generate_data_bundle()
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
