"""Spans at the module boundaries of ``popabc``, recorded from outside.

``Tracer.install`` replaces public functions on their modules with wrappers
that record one span per call (name, start, end, parent) in memory, plus
counts at the same boundaries; ``uninstall`` puts the originals back. The
simulator boundary is traced through a ``ModelSpec`` subclass instance,
handed to ``cli.execute_run`` by wrapping ``benchmarks.get_model``. Nothing
under ``src/`` is modified.

A wrapped name that no longer exists is reported as missing, and every
metric that depends on it is left out of the results, so that a refactor
shows as a missing layer rather than as a layer that costs nothing.
"""
from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path
from time import perf_counter

ENGINE_SPANS = ("engine.initial_generation", "engine.propagate_generation")

# (span name, module under popabc, attribute, per_layer metrics that need it)
TARGETS = (
    ("engine.initial_generation", "engine", "initial_generation",
     ("engine.collect_s", "engine.attempts", "engine.sims_needed", "engine.overshoot_sims",
      "engine.attempt_self_us", "engine.parallel_speedup", "engine.worker_cpu_s",
      "kernel.redraws", "samplers.mcmc_step_us")),
    ("engine.propagate_generation", "engine", "propagate_generation",
     ("engine.collect_s", "engine.attempts", "engine.sims_needed", "engine.overshoot_sims",
      "engine.attempt_self_us", "engine.parallel_speedup", "engine.worker_cpu_s",
      "kernel.redraws")),
    ("kernel.perturb", "kernel", "perturb", ("kernel.perturb_calls", "kernel.redraws")),
    ("kernel.adapt_scale", "kernel", "adapt_scale", ("kernel.adapt_s",)),
    ("samplers.pmc_log_weights", "samplers", "pmc_log_weights",
     ("samplers.weight_s", "samplers.weight_pairs", "samplers.weight_pair_ns")),
    ("samplers.abc_mcmc", "cli", "abc_mcmc", ("samplers.mcmc_step_us",)),
    ("persist.write_population", "persist", "write_population", ("persist.s", "persist.bytes")),
    ("persist.write_report", "persist", "write_report", ("persist.s", "persist.bytes")),
    ("diagnostics.generation_stats", "cli", "generation_stats", ("diagnostics.s",)),
    ("diagnostics.compare_to_oracle", "cli", "compare_to_oracle", ("diagnostics.s",)),
)
MODEL_METRICS = (
    "models.simulate_calls", "models.simulate_us", "engine.sims_needed",
    "engine.overshoot_sims", "engine.attempt_self_us",
)


class Tracer:
    """In-memory spans and boundary counts for one traced ``execute_run`` at a time."""

    def __init__(self, full: bool):
        self.full = full
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.stack: list[int] = []
        self.dists: list[float] = []  # simulate_distance results, in call order
        self.generations: list[dict] = []  # one per engine call
        self.weight_pairs = 0
        self.persist_bytes = 0
        self.mcmc_steps = 0

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrapper(self, name: str, fn):
        tracer = self

        if name in ENGINE_SPANS:
            def wrapped(model, epsilon, *args, **kwargs):
                n = args[-1] if args else kwargs["n"]
                first = len(tracer.dists)
                res = tracer.span(name, fn, model, epsilon, *args, **kwargs)
                tracer.generations.append({
                    "span": name, "epsilon": float(epsilon), "n": int(n),
                    "sims_used": int(res.sims_used), "first_dist": first,
                })
                return res
        elif name == "samplers.pmc_log_weights":
            def wrapped(thetas, prior, prev_thetas, *args, **kwargs):
                tracer.weight_pairs += len(thetas) * len(prev_thetas)
                return tracer.span(name, fn, thetas, prior, prev_thetas, *args, **kwargs)
        elif name == "samplers.abc_mcmc":
            def wrapped(model, epsilon, n_iter, *args, **kwargs):
                tracer.mcmc_steps += int(n_iter)
                return tracer.span(name, fn, model, epsilon, n_iter, *args, **kwargs)
        elif name.startswith("persist."):
            def wrapped(path, *args, **kwargs):
                res = tracer.span(name, fn, path, *args, **kwargs)
                tracer.persist_bytes += Path(path).stat().st_size
                return res
        else:
            def wrapped(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapped

    # -- installation ----------------------------------------------------

    def install(self):
        self.missing = []
        for name, module_name, attr, _ in TARGETS:
            if not self.full and name not in ENGINE_SPANS:
                continue
            module = importlib.import_module(f"popabc.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
        if self.full:
            self._install_model()

    def _install_model(self):
        from popabc import benchmarks, models

        spec = getattr(models, "ModelSpec", None)
        get_model = getattr(benchmarks, "get_model", None)
        if spec is None or get_model is None or not hasattr(spec, "simulate_distance"):
            self.missing.append("models.simulate_distance")
            return
        tracer = self

        class TracedModel(spec):
            def simulate_distance(self, theta, rng):
                dist = tracer.span("models.simulate_distance", super().simulate_distance,
                                   theta, rng)
                tracer.dists.append(dist)
                return dist

        def traced_get_model(name):
            model = get_model(name)
            fields = {f.name: getattr(model, f.name)
                      for f in dataclasses.fields(model) if f.init}
            return TracedModel(**fields)

        self._saved.append((benchmarks, "get_model", get_model))
        benchmarks.get_model = traced_get_model

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def unavailable_metrics(self) -> set[str]:
        gone = set()
        for name, _, _, metrics in TARGETS:
            if name in self.missing:
                gone.update(metrics)
        if "models.simulate_distance" in self.missing:
            gone.update(MODEL_METRICS)
        if self.missing:
            gone.add("cli.self_s")
        return gone

    # -- summaries of one execution --------------------------------------

    def summary(self) -> dict:
        """Layer totals of the execution recorded since the last ``reset``."""
        roots = [i for i, s in enumerate(self.spans) if s[3] == -1]
        total = {}
        count = {}
        for name, start, end, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1

        def t(*names):
            return sum(total.get(n, 0.0) for n in names)

        needed = 0
        for gen in self.generations:
            seen = 0
            dists = self.dists[gen["first_dist"]:]
            for i, dist in enumerate(dists):
                if dist <= gen["epsilon"]:
                    seen += 1
                    if seen == gen["n"]:
                        needed += i + 1
                        break
        attempts = sum(g["sims_used"] for g in self.generations)
        propagated = sum(g["sims_used"] for g in self.generations
                         if g["span"] == "engine.propagate_generation")
        engine_in_mcmc = sum(
            end - start for name, start, end, parent in self.spans
            if name in ENGINE_SPANS and parent >= 0 and self.spans[parent][0] == "samplers.abc_mcmc"
        )
        engine_simulate_s = sum(
            end - start for name, start, end, parent in self.spans
            if name == "models.simulate_distance" and parent >= 0
            and self.spans[parent][0] in ENGINE_SPANS
        )
        root_children = {}
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][3] == -1:
                root_children[parent] = root_children.get(parent, 0.0) + (end - start)
        run_s = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        return {
            "run_s": run_s,
            "collect_s": t(*ENGINE_SPANS),
            "attempts": attempts,
            "sims_needed": needed,
            "propagated_attempts": propagated,
            "simulate_calls": count.get("models.simulate_distance", 0),
            "simulate_s": t("models.simulate_distance"),
            "engine_simulate_s": engine_simulate_s,
            "perturb_calls": count.get("kernel.perturb", 0),
            "adapt_s": t("kernel.adapt_scale"),
            "weight_s": t("samplers.pmc_log_weights"),
            "weight_pairs": self.weight_pairs,
            "mcmc_self_s": t("samplers.abc_mcmc") - engine_in_mcmc,
            "mcmc_steps": self.mcmc_steps,
            "diagnostics_s": t("diagnostics.generation_stats", "diagnostics.compare_to_oracle"),
            "persist_s": t("persist.write_population", "persist.write_report"),
            "persist_bytes": self.persist_bytes,
            "cli_self_s": run_s - sum(root_children.values()),
        }

    def write_spans(self, path: Path):
        """Write the recorded spans as CSV, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{(start - origin) * 1e6:.3f},"
                         f"{(end - origin) * 1e6:.3f}\n")
