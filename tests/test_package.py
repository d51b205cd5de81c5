import os
import subprocess
import sys
from pathlib import Path

import popabc

# short one-worker PMC runs on every bundled model, each with its oracle comparison
# where the model has one; a process pool's modules must stay unloaded. Then the
# names of any SciPy modules that got imported
RUNTIME_PROBE = """
import sys
from popabc.cli import execute_run
from popabc.config import parse_run_config
for model, schedule in (("coalescent-msat", [2.0, 1.0]), ("mixture-toy", [2.0, 0.5]),
                        ("conjugate-normal", [3.0, 1.0])):
    cfg = parse_run_config({"algorithm": "pmc", "model": model, "seed": 3,
                            "n_particles": 200, "schedule": schedule, "workers": 1})
    code, report, _ = execute_run(cfg)
    assert code == 0, report["error"]
    assert (report["oracle_comparison"] is None) == (model == "coalescent-msat"), model
pool_modules = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
assert not pool_modules, sorted(pool_modules)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_every_export_resolves():
    namespace = {}
    exec("from popabc import *", namespace)  # AttributeError on a name left in __all__
    assert set(popabc.__all__) <= set(namespace)


def test_runs_import_no_scipy():
    """The runtime needs NumPy and PyYAML alone; SciPy is for the tests only. A
    one-worker run does not import a process pool either."""
    path = [str(Path(popabc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", RUNTIME_PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
