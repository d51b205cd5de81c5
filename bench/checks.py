"""Correctness checks on one run's written outputs, against independent computations.

Every check holds for any seed: structural checks are exact, the weight and
kernel identities are recomputed here with plain NumPy/SciPy, and the
statistical bands are centred on references computed apart from the program
(``reference.py``), with widths from the recorded seed study in
``bands.json``. ``popabc`` is not imported here.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm

import reference
from workloads import BAND_Z, Workload

WEIGHT_SUM_TOL = 1e-9
RATIO_RTOL = 1e-9
TAU2_RTOL = 1e-10
SAMPLED_PARTICLES = 200


def read_population(path: Path):
    """Parse a population CSV; also rebuild its text to test the round trip."""
    text = path.read_text()
    lines = text.splitlines()
    header = lines[0].split(",")
    d = len(header) - 4
    rows = [line.split(",") for line in lines[1:]]
    t = {int(r[0]) for r in rows}
    values = np.array([[float(v) for v in r[2:]] for r in rows])
    rebuilt = "\n".join(
        [lines[0]] + [",".join(r[:2] + [repr(float(v)) for v in r[2:]]) for r in rows]
    ) + "\n"
    return t, values[:, :d], values[:, d], values[:, d + 1], rebuilt == text


def weighted_moments(thetas: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a 1-d weighted sample, with exactly rounded sums."""
    x = thetas[:, 0]
    mean = math.fsum(weights * x)
    return mean, math.fsum(weights * (x - mean) ** 2)


def outputs_digest(out_dir: Path) -> str:
    """Digest of everything a run wrote, except its wall time and worker count."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report["totals"].pop("wall_time_s", None)
            report["config"].pop("workers", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()


def check_run(w: Workload, seed: int, out_dir: Path, code: int, report: dict,
              populations: list) -> tuple[list[str], dict]:
    """Exact checks on one ``execute_run``; returns (failures, final moments)."""
    fail = []

    def expect(ok, message):
        if not ok:
            fail.append(f"{w.name} seed {seed}: {message}")
        return ok

    expect(code == 0 and report.get("status") == "ok",
           f"exit code {code}, status {report.get('status')}")
    on_disk = json.loads((out_dir / "report.json").read_text())
    expect(on_disk == json.loads(json.dumps(report)), "report.json differs from the returned report")
    gens = report["generations"]
    if w.is_population:
        schedule = [float(e) for e in w.config["schedule"]]
        n_expected = w.config["n_particles"]
    else:
        schedule = [float(w.config["epsilon"])]
        n_expected = w.config["n_iter"] - w.config["burn_in"]
    if not expect(len(gens) == len(schedule) == len(populations),
                  f"{len(gens)} generations reported, {len(schedule)} scheduled"):
        return fail, {}
    expect(report["totals"]["sims_used"] == sum(g["sims_used"] for g in gens),
           "report sims differ from the sum over generations")
    kind, params = w.prior
    prev = None
    for t, eps in enumerate(schedule, start=1):
        path = out_dir / f"gen_{t:03d}.csv"
        if not expect(path.is_file(), f"{path.name} missing"):
            return fail, {}
        ts, thetas, weights, dists, round_trip = read_population(path)
        pop = populations[t - 1]
        expect(ts == {t}, f"{path.name}: generation column {sorted(ts)}")
        expect(round_trip, f"{path.name}: floats do not round-trip to the same text")
        expect(np.array_equal(thetas, pop.thetas) and np.array_equal(weights, pop.weights)
               and np.array_equal(dists, pop.dists),
               f"{path.name}: parsed values differ from the returned population")
        expect(len(weights) == n_expected, f"{path.name}: {len(weights)} particles")
        expect(gens[t - 1]["epsilon"] == eps, f"t={t}: tolerance {gens[t - 1]['epsilon']}")
        expect(abs(math.fsum(weights) - 1.0) <= WEIGHT_SUM_TOL and np.all(weights >= 0),
               f"t={t}: weights sum to {math.fsum(weights)!r}")
        expect(np.all(dists <= eps), f"t={t}: distance {dists.max()!r} beyond {eps}")
        expect(np.all(np.isfinite(reference.prior_logpdf(kind, params, thetas[:, 0]))),
               f"t={t}: theta outside the prior support")
        if prev is not None:
            fail.extend(_check_weights(w, seed, t, gens[t - 1], prev, thetas, weights))
        prev = (thetas, weights)
    return fail, dict(zip(("mean", "var"), weighted_moments(*prev)))


def _check_weights(w: Workload, seed: int, t: int, gen: dict, prev, thetas, weights):
    """Kernel variance and PMC weight identity of generation t >= 2."""
    fail = []
    prev_thetas, prev_weights = prev
    _, prev_var = weighted_moments(prev_thetas, prev_weights)
    tau2 = 2.0 * prev_var
    scale = gen.get("scale") or {}
    reported = (scale.get("tau2") or [float("nan")])[0]
    if not abs(reported - tau2) <= TAU2_RTOL * tau2:
        fail.append(f"{w.name} seed {seed}: t={t} tau2 {reported!r}, expected {tau2!r}")
    # w_i / w_k == prior(theta_i) q(theta_k) / (prior(theta_k) q(theta_i)), with
    # q(theta) = sum_j w_j N(theta; theta_j, tau2) summed here, not by the program
    rng = np.random.default_rng([seed, t])
    idx = rng.choice(len(weights), size=min(SAMPLED_PARTICLES, len(weights)), replace=False)
    x = thetas[idx, 0]
    kind, params = w.prior
    log_q = logsumexp(
        norm.logpdf(x[:, None], loc=prev_thetas[None, :, 0], scale=math.sqrt(tau2)),
        b=prev_weights[None, :], axis=1,
    )
    log_ref = reference.prior_logpdf(kind, params, x) - log_q
    log_ratio = np.log(weights[idx]) - log_ref
    spread = np.abs(np.expm1(log_ratio - log_ratio[0]))
    if not spread.max() <= RATIO_RTOL:
        fail.append(f"{w.name} seed {seed}: t={t} weight ratios off by rel {spread.max():.3g}")
    return fail


def check_bands(w: Workload, moments: list[dict], bands: dict) -> tuple[list[str], dict]:
    """Average of each final moment over a round's seeds against its band."""
    fail = []
    ref = w.reference_moments()
    study = bands[w.name]
    result = {}
    k = len(moments)
    for key in ("mean", "var"):
        avg = sum(m[key] for m in moments) / k
        half = BAND_Z * math.sqrt(study[key]["sd"] ** 2 / k + ref[f"{key}_se"] ** 2)
        lo, hi = ref[key] - half, ref[key] + half
        result[key] = {"value": avg, "reference": ref[key], "band": [lo, hi]}
        if not lo <= avg <= hi:
            fail.append(f"{w.name}: mean of final {key} over {k} seeds is {avg:.5g}, "
                        f"outside [{lo:.5g}, {hi:.5g}] around {ref[key]:.5g}")
    return fail, result
