"""Run configuration: YAML documents parsed into validated dataclasses.

The config dialect is YAML (a single key-value tree per file). Required
keys for every run: ``algorithm``, ``model``, ``seed``, plus the
algorithm's own parameters (``n_particles`` and ``schedule`` for the
sequential samplers, ``epsilon`` for rejection, ``epsilon``/``n_iter``/
``proposal_sd`` for MCMC). Each value has one spelling: ``proposal_sd``
is one finite positive number, and the sequential samplers' kernel has no
setting, since it is always twice the weighted variance per dimension.
A compare config sets ``seed`` and ``out_dir`` at its top level only.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from . import benchmarks
from .engine import ARG_RULES, check_arg, is_integer, resolve_workers
from .errors import ConfigError
from .samplers import ToleranceSchedule

ALGORITHMS = ("rejection", "pmc", "prc", "mcmc")
POPULATION_ALGORITHMS = ("rejection", "pmc", "prc")
SEQUENTIAL_ALGORITHMS = ("pmc", "prc")

_REQUIRED = object()  # default of a key that the algorithms reading it must give


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    model: str
    seed: int
    n_particles: int | None = None
    schedule: ToleranceSchedule | None = None
    epsilon: float | None = None
    workers: int | str = 1
    budget: int | None = None
    out_dir: str | None = None
    n_iter: int | None = None
    burn_in: int = 0
    proposal_sd: float | None = None
    name: str | None = None
    raw: dict = field(default_factory=dict, compare=False)

    @property
    def label(self) -> str:
        return self.name or self.algorithm

    @property
    def final_epsilon(self) -> float:
        if self.schedule is not None:
            return self.schedule.epsilons[-1]
        return self.epsilon


@dataclass(frozen=True)
class CompareConfig:
    model: str
    seed: int
    replicates: int
    algorithms: tuple[RunConfig, ...]
    out_dir: str | None = None
    raw: dict = field(default_factory=dict, compare=False)


def _known_model(name) -> str:
    if name not in benchmarks.model_names():
        raise ValueError(f"unknown model; available: {', '.join(benchmarks.model_names())}")
    return name


class _Key(NamedTuple):
    """One config key: what a valid value is and the test for it, the
    algorithms that read the key, its default when absent or null, and the
    conversion of a valid value."""

    what: str = ""
    valid: Callable[[object], bool] = lambda value: True
    algorithms: tuple[str, ...] = ALGORITHMS
    default: object = None
    convert: Callable = lambda value: value


# An algorithm rejects the keys it does not read. A key named after an engine.ARG_RULES
# entry is checked by that rule alone, type and range; valid tests the type of the others,
# whose range is the library's rule in resolve_workers or ToleranceSchedule.
_RUN_KEYS = {
    "algorithm": _Key(f"one of {', '.join(ALGORITHMS)}", lambda v: v in ALGORITHMS, default=_REQUIRED),
    "model": _Key("a model name", lambda v: isinstance(v, str), default=_REQUIRED,
                  convert=_known_model),
    "seed": _Key(default=_REQUIRED),
    "n_particles": _Key(algorithms=POPULATION_ALGORITHMS, default=_REQUIRED),
    "schedule": _Key(
        "a list of tolerances",
        lambda v: isinstance(v, (list, tuple)),
        SEQUENTIAL_ALGORITHMS, _REQUIRED, lambda v: ToleranceSchedule(tuple(v)),
    ),
    "epsilon": _Key(algorithms=("rejection", "mcmc"), default=_REQUIRED, convert=float),
    "n_iter": _Key(algorithms=("mcmc",), default=_REQUIRED),
    "proposal_sd": _Key(algorithms=("mcmc",), default=_REQUIRED, convert=float),
    "burn_in": _Key("a nonnegative integer", lambda v: is_integer(v) and v >= 0, ("mcmc",), 0),
    "budget": _Key(),
    # checked as the worker pool checks it, and kept as written: 'auto' stays 'auto'
    "workers": _Key("a positive integer or 'auto'", lambda v: True, POPULATION_ALGORITHMS, 1,
                    lambda v: resolve_workers(v) and v),
    "out_dir": _Key("a path", lambda v: True),
    "name": _Key("a string", lambda v: isinstance(v, str)),
}

_COMPARE_KEYS = {
    "model": _RUN_KEYS["model"],
    "seed": _RUN_KEYS["seed"],
    "replicates": _Key("a positive integer", lambda v: is_integer(v) and v >= 1, default=_REQUIRED),
    "algorithms": _Key("a non-empty list", lambda v: isinstance(v, list) and v != [], default=_REQUIRED),
    "out_dir": _RUN_KEYS["out_dir"],
    "workers": _RUN_KEYS["workers"],
    "budget": _RUN_KEYS["budget"],
}


def _check_keys(doc, keys: dict, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(doc).__name__}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _parse_keys(doc: dict, keys: dict, context: str, algorithm: str | None = None) -> dict:
    """Checked, converted value of each key that ``algorithm`` reads (every key if None);
    a key given for an algorithm that does not read it is an error unless it is the
    key's default."""
    values = {}
    for name, key in keys.items():
        value = doc.get(name)
        if algorithm is not None and algorithm not in key.algorithms:
            # it may restate the default, which is what the algorithm does (mcmc: one worker)
            if value is not None and value != key.default:
                raise ConfigError(f"{context}: {name} does not apply to {algorithm}")
            continue
        if value is None:
            if key.default is _REQUIRED:
                raise ConfigError(f"{context}: missing required key {name!r}")
            values[name] = key.default
        elif not key.valid(value):
            raise ConfigError(f"{context}: {name} must be {key.what}, got {value!r}")
        else:
            try:
                if name in ARG_RULES:
                    check_arg(name, value, sequential=algorithm in SEQUENTIAL_ALGORITHMS)
                values[name] = key.convert(value)
            except ValueError as exc:
                raise ConfigError(f"{context}: {name} {value!r}: {exc}") from None
    return values


def parse_run_config(doc: dict, context: str = "run config") -> RunConfig:
    _check_keys(doc, _RUN_KEYS, context)
    algorithm = _parse_keys(doc, {"algorithm": _RUN_KEYS["algorithm"]}, context)["algorithm"]
    values = _parse_keys(doc, _RUN_KEYS, context, algorithm)
    if algorithm == "mcmc" and values["burn_in"] >= values["n_iter"]:
        raise ConfigError(f"{context}: burn_in must be smaller than n_iter")
    return RunConfig(**values, raw=dict(doc))


def parse_compare_config(doc: dict) -> CompareConfig:
    context = "compare config"
    _check_keys(doc, _COMPARE_KEYS, context)
    top = _parse_keys(doc, _COMPARE_KEYS, context)
    model = top["model"]
    if model not in benchmarks.ORACLE_BUILDERS:
        raise ConfigError(f"{context}: compare needs a model with an analytic reference "
                          f"posterior; {model!r} has none")
    runs = []
    labels = set()
    for i, entry in enumerate(top["algorithms"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"{context}: algorithms[{i}] must be a mapping")
        for key in ("seed", "out_dir"):
            if key in entry:
                raise ConfigError(f"{context}: algorithms[{i}]: {key} does not apply per "
                                  "algorithm; set it at the top level")
        entry = dict(entry)
        for key in ("model", "seed", "workers", "budget"):
            if doc.get(key) is not None and entry.get("algorithm") in _RUN_KEYS[key].algorithms:
                entry.setdefault(key, doc[key])
        run = parse_run_config(entry, context=f"{context}: algorithms[{i}]")
        if run.model != model:
            raise ConfigError(
                f"{context}: algorithms[{i}] targets model {run.model!r}, "
                f"but the comparison is on {model!r}"
            )
        label = run.label
        if label in labels:
            label = f"{label}#{i}"
            if label in labels:
                raise ConfigError(f"{context}: algorithms[{i}]: its generated label {label!r} "
                                  "is taken too; give it a name")
            run = replace(run, name=label)
        labels.add(label)
        runs.append(run)
    finals = {run.label: run.final_epsilon for run in runs}
    values = set(finals.values())
    if len(values) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in finals.items())
        raise ConfigError(f"{context}: final tolerances must match across algorithms ({detail})")
    top["algorithms"] = tuple(runs)
    del top["workers"], top["budget"]  # copied into the entries that read them above
    return CompareConfig(**top, raw=dict(doc))


def load_yaml(path) -> dict:
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return doc

