"""Set-up probe: a fresh process that does what a run does before its first sampler call.

    python3 bench/setup_probe.py <src dir> '<run config as JSON>'

Imports ``popabc``, parses the config and builds the model (for the
coalescent this loads the committed data bundle), then prints
``time.monotonic()``. The parent subtracts its own monotonic clock reading
taken just before it started the process.
"""
import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from popabc import benchmarks, cli  # noqa: E402,F401  (cli: the import a user run pays)
from popabc.config import parse_run_config  # noqa: E402

benchmarks.get_model(parse_run_config(json.loads(sys.argv[2])).model)
print(repr(time.monotonic()))
