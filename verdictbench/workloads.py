"""Workloads: the canonical ``configs/*.json`` at two scales.

Each workload runs its configs in the listed order, each through
``validate_config`` + ``run_experiment``.  The ten canonical configs take
two to three minutes on a 2-core machine, more than a benchmark run may
take, so configs override only their replication counts (clt ``samples``,
``reps`` elsewhere).  Problem sizes (n, m, p, step sizes, step counts,
substeps) and tolerances stay canonical, so the per-call work of every layer
is what the canonical configs do.

``WORKLOADS`` is the verdict scale, run once by the traced run.  Its counts
stay high enough for the checks to keep their canonical meaning: the fixed
KS threshold of 0.03 needs several thousand samples, and
``converge_quadratic`` and ``converge_logistic`` keep their canonical
replications because their recursion, block and plateau checks fail far
more often with fewer (the logistic one even at the default seed with 45).
``weighting_gap`` is left out: its minimum of 1,000 replications costs as
much as the rest of ``sampling`` and draws from the same samplers.

``TIMING_SCALE`` is the timing scale of the untraced run: a twentieth or
less of the verdict-scale replications, so that one round of a workload
takes about a second and each config is timed 20 to 40 times in a run.

Why these workloads: each layer a later change is likely to optimise does
most of the work in one workload and almost none in another.

* ``sampling``: large-n weight draws with no trajectories; ``weights`` and
  ``numerics`` (subset loop, gamma boost, stream derivation) dominate and
  ``dynamics`` does nothing.
* ``trajectories``: small state, many steps (Euler-Maruyama substeps,
  weighted and Gaussian SGD with n <= 512); ``dynamics`` loop overhead and
  per-call ``models`` costs dominate, ``weights`` is about a tenth.
* ``logistic``: gathers into a fixed 10,000-row dataset, sigmoid and
  ``grad_loss`` per step, and small-n gaussian weights every step, where
  per-call overhead rather than vector length sets the cost.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 20260808

# Checks in each config's report.json at the commit that introduced the
# benchmark.  Fewer checks is a failed verdict, so an empty check list cannot
# pass; more checks are allowed.
BASELINE_CHECKS = {
    "clt_dirichlet_p1": 2,
    "clt_gaussian_p6": 7,
    "clt_minibatch_p1": 2,
    "clt_rademacher_p1": 2,
    "weight_moments": 12,
    "converge_quadratic": 6,
    "gd_ode": 5,
    "wass_scaling": 2,
    "converge_logistic": 38,
}

# Verdict scale.
WORKLOADS = {
    "sampling": {
        "clt_minibatch_p1": {"samples": 5000},
        "clt_dirichlet_p1": {"samples": 5000},
        "clt_gaussian_p6": {"samples": 5000},
        "clt_rademacher_p1": {"samples": 5000},
        "weight_moments": {"reps": 2000},
    },
    "trajectories": {
        "wass_scaling": {"reps": 250},
        "converge_quadratic": {},
        "gd_ode": {},
    },
    "logistic": {
        "converge_logistic": {},
    },
}

# Timing scale.  Fixed-threshold checks (the KS bound of 0.03 needs thousands
# of samples) fail often at this scale; that lowers ``check_pass_frac`` at
# every commit alike and is not an error.
TIMING_SCALE = {
    "sampling": {
        "clt_minibatch_p1": {"samples": 250},
        "clt_dirichlet_p1": {"samples": 250},
        "clt_gaussian_p6": {"samples": 250},
        "clt_rademacher_p1": {"samples": 250},
        "weight_moments": {"reps": 100},
    },
    "trajectories": {
        "wass_scaling": {"reps": 12},
        "converge_quadratic": {"reps": 25},
        "gd_ode": {},
    },
    "logistic": {
        "converge_logistic": {"reps": 3},
    },
}

_DEFAULT_SCHEMES = 3  # weights-moments defaults to all three schemes


def replications(raw: dict) -> int:
    """Monte Carlo replications one config runs, counted from its config."""
    command = raw["command"]
    if command == "clt":
        return raw["samples"]
    if command == "weights-moments":
        return raw["reps"] * len(raw.get("schemes", [None] * _DEFAULT_SCHEMES))
    if command == "wass-scaling":
        return raw["reps"] * len(raw["gammas"]) * 2  # weighted SGD and EM ensembles
    if command == "converge":
        if raw["model"]["kind"] == "logistic":
            return raw["reps"] * len(raw["runs"]) * len(raw["kappas"])
        return raw["reps"] * len(raw["runs"]) * 2  # Gaussian SGD and weighted SGD
    if command == "gd-ode":
        return len(raw["gammas"]) * 2  # one GD run and one ODE solve per step size
    raise ValueError(f"unknown command {command!r}")


def build_inputs(
    workload: str, configs_dir: Path, seed: int, scale: dict = WORKLOADS
) -> list[dict]:
    """The workload's configs with the overrides of ``scale`` and ``seed`` applied."""
    inputs = []
    for name, overrides in scale[workload].items():
        raw = json.loads((configs_dir / f"{name}.json").read_text())
        raw.update(overrides)
        raw["seed"] = seed
        inputs.append({
            "name": name,
            "raw": raw,
            "replications": replications(raw),
            "baseline_checks": BASELINE_CHECKS[name],
        })
    return inputs


def timing_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 64-bit seeds derived from ``seed``; the first is
    ``seed`` itself."""
    return [seed] + [
        int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:8], "little")
        for k in range(1, count)
    ]
