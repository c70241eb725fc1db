"""Config-driven experiment runner with pass/fail verdicts.

Each command exercises one family of claims, whose runner measures it and
returns its checks' statistics and its CSV tables; ``run_experiment`` alone
judges them and writes the CSV artifacts plus a ``report.json`` into the
output directory:

* ``weights-moments``  weight-scheme moment targets
* ``clt``              normality of the scaled weighted gradient error
* ``weighting-gap``    exact second-moment identity between weighted and
                       plain-average errors
* ``wass-scaling``     squared Wasserstein-2 distance to the diffusion as
                       the step size shrinks
* ``converge``         geometric convergence under strong convexity
* ``gd-ode``           gradient descent against its gradient-flow limit

Configs are strict JSON, checked against the command's schema in
``SCHEMAS``: unknown keys are rejected, no integer may exceed
``dynamics.MAX_STEPS``, and every violation is reported with the offending
key.  Validation builds the domain objects the run uses (the config's
``plan``: each weight scheme at its own (n, m), and run configs, which carry
no sizes), and each command runs what validation built, from the
one root stream ``run_experiment`` derives for it.  Given the same config
and seed, outputs are byte-identical: every replication draws from a stream
derived from its own index, and reductions happen in index order, whatever
chunk of replications a step draws and reduces together.  A config sets
what runs, never how it is judged: each runner takes the config and its
root stream, touches no file, and returns its checks' statistics as (key,
name, statistic, reference, scale) tuples and its tables as
``{csv name: (header, rows)}``; ``judge``, the one place a check is built,
judges each statistic as ``BOUNDS`` declares for its command and key.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import (
    DIVERGENCE_LIMIT,
    MAX_STEPS,
    DivergenceError,
    RunConfig,
    run_diffusion_em,
    run_gaussian_sgd,
    run_gd,
    run_msgd,
    run_ode,
)
from .models import (
    generate_logistic_dataset,
    make_logistic_model,
    make_quadratic_model,
    make_uniform_clt_model,
    ridge_penalties,
)
from .numerics import derive_stream
from .stats import (
    clt_error_samples,
    contraction_bound,
    contraction_fit,
    contraction_fit_jackknife,
    convergence_curve,
    covariance_with_se,
    fit_segment,
    ks_normality,
    log_slope,
    mean_with_se,
    plateau_bound,
    sliced_w2,
    weighting_gap,
)
from .weights import (
    SCHEME_KINDS,
    WeightScheme,
    check_batch,
    empirical_weight_moments,
    sigma_entries,
)

COMMANDS = {
    "weights-moments": "check weight-scheme means, variances, covariances, and m*sum(w^2)",
    "clt": "KS-test the scaled weighted gradient error against its normal limit",
    "weighting-gap": "verify the exact weighted-vs-plain-average error gap identity",
    "wass-scaling": "sliced W2^2 between weighted SGD and its diffusion across step sizes",
    "converge": "convergence curves, contraction factors, and plateau bounds",
    "gd-ode": "gradient descent against the gradient-flow solution across step sizes",
}

# How each check is judged, by command and key, in one of judge's forms; the plain numbers
# are what three statistics fold in, the logistic blocks and the histogram bins.
BOUNDS = {
    "weights-moments": {"coord_mean": ("abs", 4), "coord_var": ("abs", 4),
                        "coord_cov": ("abs", 4), "m_sum_sq": ("abs", 3, 1e-12)},
    "clt": {"ks_coord": ("le", 0.03), "covariance_max_sigmas": ("le", 4), "hist_bins": 50},
    "weighting-gap": {"gap": ("abs", 3, 1e-12)},
    "wass-scaling": {"monotone_ratio": ("le", 0.1), "loglog_slope": ("in", (0.8, 2.2))},
    "converge": {"recursion_max_dev": ("le", 0), "recursion_sigmas": 4.0,
                 "recursion_floor": 1e-15, "rho_hat": ("abs", 0.02), "plateau": ("le", 0),
                 "blocks": 8, "block_decrease": ("le", 0), "block_decrease_sigmas": 2.0,
                 "tail_below_start": ("le", 0), "tail_below_start_frac": 0.5,
                 "plateau_flat": ("le", 0), "plateau_flat_sigmas": 2.0,
                 "plateau_flat_frac": 0.05, "rho_order": ("le", 2.0)},
    "gd-ode": {"bound_gamma": ("le", 0), "loglog_slope": ("in", (0.8, 1.2))},
}


# The most values wass-scaling's sliced W2 projects per ensemble, reps * n_directions: a cap
# on projections no run could allocate, far above any shipped run (64,000), not a memory budget.
MAX_PROJECTED = 10**7


class ConfigError(ValueError):
    """Invalid experiment config; ``diagnostics`` lists every violation."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config.  ``params`` is the config resolved against its
    command's schema; ``plan`` holds the domain objects validation built
    for the run: the weight schemes, each at its own (n, m), the model (for
    logistic, one model over the whole kappa grid), the resolved start, the
    run configs and the logistic kappas."""

    command: str
    seed: int
    params: dict
    raw: dict
    plan: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass
class CheckResult:
    """One named verdict, built by :func:`judge`.  ``comparison`` is "abs"
    (|observed - target| <= tolerance) or "le" (observed <= target + tolerance)."""

    name: str
    observed: float
    target: float
    tolerance: float
    comparison: str = "abs"

    @property
    def passed(self) -> bool:
        if self.comparison == "le":
            return self.observed <= self.target + self.tolerance
        return abs(self.observed - self.target) <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "observed": float(self.observed),
            "target": float(self.target),
            "tolerance": float(self.tolerance),
            "comparison": self.comparison,
            "pass": bool(self.passed),
        }


def judge(command: str, key: str, name: str, statistic: float, reference: float = 0.0,
          scale: float = 1.0) -> CheckResult:
    """The check `name`, judged as ``BOUNDS[command][key]`` declares; the one place a
    check is built.  ("abs", k) passes when |statistic - reference| <= k * scale, and
    ("abs", k, floor) adds the floor; ("le", k) when statistic <= reference + k * scale;
    ("in", (low, high)) when low <= statistic <= high.  `scale` is an SE, or 1 for a
    fixed bound; README.md's "Bounds" says what each check bounds."""
    form, k, *floor = BOUNDS[command][key]
    if form == "in":
        low, high = k
        return CheckResult(name, statistic, (low + high) / 2.0, (high - low) / 2.0)
    return CheckResult(name, statistic, reference, k * scale + sum(floor, 0.0), form)


@dataclass
class ExperimentReport:
    command: str
    seed: int
    config: dict
    resolved: dict
    checks: list[CheckResult]
    files: list[str] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        """True when there is at least one check and every check passes."""
        return bool(self.checks) and all(check.passed for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "config": self.config,
            "resolved": self.resolved,
            "checks": [check.as_dict() for check in self.checks],
            "files": sorted(self.files),
            "overall_pass": self.overall_pass,
        }


# ----------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------

REQUIRED = object()  # the default of a key the config must give
OPTIONAL = object()  # the default of a key echoed in ``resolved`` only when given


class Field(NamedTuple):
    """One config key: its type, its default and its lower bound.

    ``type`` is int, float (any number), str, ``[item type]`` for a list,
    or a declaration for an object: a dict of Fields by key, or a
    :class:`Kinds`.  ``default`` is what a left-out key resolves to, or
    REQUIRED or OPTIONAL.  ``low`` bounds a number, or a list's length.
    """

    type: object
    default: object = OPTIONAL
    low: Optional[float] = None


class Kinds(dict):
    """The declaration of an object whose keys depend on its ``kind``."""


_SCHEME = Kinds({kind: {} for kind in SCHEME_KINDS} | {"gaussian": {"base": Field(str)}})
_QUADRATIC = {"p": Field(int, low=1), "s": Field(float), "theta_star": Field([float])}
_NOISELESS = {"p": _QUADRATIC["p"], "theta_star": _QUADRATIC["theta_star"]}  # GD and the flow
_LOGISTIC = {"p": Field(int, REQUIRED), "t": Field(int, REQUIRED)}
_RUN = {
    "gamma": Field(float, REQUIRED), "num_steps": Field(int, REQUIRED),
    "fit_burn_in": Field(int), "fit_window": Field(int),
}
_EVERY_SCHEME = [{"kind": "minibatch"}, {"kind": "gaussian"}, {"kind": "dirichlet"}]
_PLANE = {"kind": "quadratic", "p": 2, "s": 1.0}
_LINE = {"kind": "quadratic", "p": 1, "theta_star": [0.0]}

# Each command's keys beside ``command``, ``seed`` and ``out`` (the default
# output directory, which the --out flag overrides).
SCHEMAS: dict[str, dict[str, Field]] = {
    "weights-moments": {
        "n": Field(int, REQUIRED), "m": Field(int, REQUIRED), "reps": Field(int, REQUIRED, 100),
        "schemes": Field([_SCHEME], _EVERY_SCHEME, 1),
    },
    "clt": {
        "n": Field(int, REQUIRED), "m": Field(int, REQUIRED),
        "samples": Field(int, REQUIRED, 100), "p": Field(int, 1, 1),
        "scheme": Field(_SCHEME, {"kind": "dirichlet"}),
    },
    "weighting-gap": {
        "pairs": Field([[int]], REQUIRED, 1), "reps": Field(int, REQUIRED, 1000),
        "schemes": Field([_SCHEME], _EVERY_SCHEME, 1),
    },
    "wass-scaling": {
        "gammas": Field([float], REQUIRED), "reps": Field(int, REQUIRED, 1),
        "n": Field(int, 512), "m": Field(int, 64), "horizon": Field(float, 1.0),
        "scheme": Field(_SCHEME, {"kind": "gaussian"}),
        "model": Field(Kinds(quadratic=_QUADRATIC), _PLANE),
        "em_substeps": Field(int, 50, 1), "n_directions": Field(int, 128, 1),
    },
    "converge": {
        "model": Field(Kinds(quadratic=_QUADRATIC, logistic=_LOGISTIC), REQUIRED),
        "scheme": Field(_SCHEME, {"kind": "gaussian"}),
        "n": Field(int, REQUIRED), "m": Field(int, REQUIRED), "reps": Field(int, REQUIRED, 2),
        "runs": Field([_RUN], REQUIRED, 1), "kappas": Field([float], low=1),
        "x0": Field([float]),
    },
    "gd-ode": {
        "gammas": Field([float], REQUIRED), "x0": Field([float]), "horizon": Field(float, 1.0),
        "model": Field(Kinds(quadratic=_NOISELESS), _LINE),
    },
}
_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _walk(obj: dict, decl, where: str, inner: str, diags: list[str]) -> dict:
    """`obj` resolved against its declaration: each declared key's value,
    else its default, checked and resolved, or None if it is missing or
    violates the schema.  A key is reported as ``where.key`` and its
    contents under ``inner + key``."""
    if isinstance(decl, Kinds):
        kind = obj.get("kind")
        if not (isinstance(kind, str) and kind in decl):
            diags.append(f"{where}.kind: expected one of {list(decl)}, got {kind!r}")
            return obj
        decl = {"kind": Field(str)} | decl[kind]
    diags.extend(f"{where}: unknown key {key!r}" for key in obj if key not in decl)
    resolved = {}
    for key, spec in decl.items():
        value = obj.get(key, spec.default)
        if value is OPTIONAL:
            continue
        count = len(diags)
        if value is REQUIRED:
            diags.append(f"{where}.{key}: required")
        else:
            value = _resolve(value, spec, f"{where}.{key}", inner + key, diags)
        resolved[key] = value if len(diags) == count else None
    return resolved


def _resolve(value, spec: Field, where: str, path: str, diags: list[str]):
    typ = spec.type
    if isinstance(typ, list):
        if not isinstance(value, list):
            diags.append(f"{where}: expected a list, got {type(value).__name__}")
        elif spec.low is not None and len(value) < spec.low:
            diags.append(f"{where}: must not be empty")
        else:
            return [
                _resolve(v, Field(typ[0]), f"{path}[{i}]", f"{path}[{i}]", diags)
                for i, v in enumerate(value)
            ]
    elif isinstance(typ, dict):
        if not isinstance(value, dict):
            diags.append(f"{where}: expected an object, got {type(value).__name__}")
        else:
            return _walk(value, typ, path, path + ".", diags)
    else:
        accepted, name = _SCALARS[typ]
        if isinstance(value, bool) or not isinstance(value, accepted):
            diags.append(f"{where}: expected {name}, got {type(value).__name__}")
        elif typ is float and not abs(value) <= sys.float_info.max:  # JSON admits NaN, Infinity
            diags.append(f"{where}: expected a finite number, got {value}")
        elif spec.low is not None and value < spec.low:
            diags.append(f"{where}: must be >= {spec.low}")
        elif typ is int and value > MAX_STEPS:  # a count no run could allocate
            diags.append(f"{where}: must be <= {MAX_STEPS}")
    return value


# Rules between keys, given None for a key that is missing or broke the schema.
# They build the domain objects the run uses into the config's plan, so that
# those objects' own rules, such as a Dirichlet scheme's sizes, are
# reported against the key.  A broken value builds None: the plan is read only
# when there is no diagnostic.


def _build(where: str, diags: list[str], make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except (ValueError, MemoryError) as exc:
        diags.append(f"{where}: {exc}")
        return None


def _check_unique(named: list, diags: list[str]) -> None:
    """Report each (where, key) whose key repeats an earlier entry's: the
    repeat would rerun that entry's stream under the same check names."""
    first: dict = {}
    for where, key in named:
        if key in first:
            diags.append(f"{where}: repeats {first[key]}")
        first.setdefault(key, where)


def _model_from_spec(spec: dict):
    p = spec.get("p", 1)
    theta_star = np.asarray(spec.get("theta_star", np.zeros(p)), dtype=float)
    return make_quadratic_model(p, theta_star, float(spec.get("s", 1.0)))


# At m = n every weight scheme draws the constant 1/n, so these commands'
# checks would compare roundoff against a zero spread.
_M_BELOW_N = ("weights-moments", "weighting-gap")


def _check_schemes(params: dict, command: str, plan: dict, diags: list[str]) -> None:
    """Each weight scheme at each valid (n, m) the config runs at, into
    ``plan["schemes"]``, spec by spec."""
    if "pairs" in params:
        named = [(f"pairs[{i}]", pair) for i, pair in enumerate(params["pairs"] or [])]
    else:
        n, m = params["n"], params["m"]
        named = [(f"{command}.m", [n, m])] if n is not None and m is not None else []
    sizes = []
    for where, pair in named:
        if len(pair) != 2:
            diags.append(f"{where}: need [n, m], got {pair}")
        elif _build(where, diags, check_batch, *pair):
            sizes.append(pair)
            if command in _M_BELOW_N and pair[1] == pair[0]:
                diags.append(f"{where}: m = n makes every weight 1/n, leaving no spread to "
                             f"check; need m < n, got {pair}")
    if "scheme" in params:
        schemes = [("scheme", params["scheme"])]
    else:
        schemes = [(f"schemes[{i}]", spec) for i, spec in enumerate(params["schemes"] or [])]
    plan["schemes"], labels = [], []
    for where, spec in schemes:
        built = [_build(where, diags, WeightScheme, n=n, m=m, **spec)
                 for n, m in sizes] if spec is not None else []
        plan["schemes"] += built
        if built and built[0] is not None:
            labels.append((where, built[0].label))
    _check_unique([(where, tuple(pair)) for where, pair in named], diags)
    _check_unique(labels, diags)


def _check_model(params: dict, command: str, seed: int, plan: dict, diags: list[str]):
    """The model, or a logistic model's dataset, and the resolved start.  A
    given start must have the model's dimension, and converge and gd-ode must
    not start at the minimiser."""
    spec = params["model"]
    if spec is None:
        return None
    if spec["kind"] == "logistic":  # the run's own draw; _check_runs builds the model on it
        stream = derive_stream(seed, (command,)).child("dataset")
        made = _build("model", diags, generate_logistic_dataset, stream, spec["p"], spec["t"])
    else:
        made = plan["model"] = _build("model", diags, _model_from_spec, spec)
    if made is None or ("x0" in params and params["x0"] is None):
        return made
    point = params.get("x0")
    if point is not None and len(point) != made.dim:
        diags.append(f"{command}.x0: expected p={made.dim} numbers, got {point}")
    if point is None:  # ones, scaled to unit length for the logistic model
        point = np.ones(made.dim) / math.sqrt(made.dim if spec["kind"] == "logistic" else 1)
    start = plan["start"] = np.asarray(point, dtype=float)
    if not np.all(np.abs(start) <= DIVERGENCE_LIMIT):
        diags.append(f"{command}.x0: every entry must lie within +-{DIVERGENCE_LIMIT:g}, "
                     f"beyond which a state counts as diverged, got {point}")
    # a start at the minimiser leaves a zero curve or error, which has no logarithm to fit
    if (
        command in ("converge", "gd-ode") and spec["kind"] == "quadratic"
        and np.array_equal(start, made.minimizer)
    ):
        diags.append(f"{command}.x0: starts at the minimiser theta_star (x0 defaults to "
                     "ones), leaving no convergence to measure")
    return made


def _check_step_grid(params: dict, command: str, plan: dict, diags: list[str]) -> None:
    """At least 2 distinct step sizes, each dividing a positive horizon; the
    configs go into ``plan["configs"]`` in decreasing step size."""
    gammas, horizon = params["gammas"], params["horizon"]
    if gammas is not None and len(set(gammas)) < 2:
        diags.append(f"{command}.gammas: need at least 2 distinct step sizes for the slope fit")
    if gammas is not None:
        _check_unique([(f"gammas[{i}]", gamma) for i, gamma in enumerate(gammas)], diags)
    if horizon is not None and not horizon > 0:
        diags.append(f"{command}.horizon: must be positive")
    elif gammas is not None and horizon is not None:
        plan["configs"] = []
        for i, gamma in sorted(enumerate(gammas), key=lambda item: item[1], reverse=True):
            steps = horizon / gamma if gamma else 0.0
            # too many steps, even infinitely many, is RunConfig's to report
            whole = round(steps) if steps <= MAX_STEPS else steps
            if abs(steps - whole) > 1e-9:
                diags.append(f"gammas[{i}]: horizon must be a multiple of gamma")
            plan["configs"].append(
                _build(f"gammas[{i}]", diags, RunConfig, gamma, whole, plan.get("start"))
            )


def _check_wass_sizes(params: dict, diags: list[str]) -> None:
    """At most MAX_PROJECTED values in each ensemble's sliced W2 projection,
    which is allocated only after both ensembles have run."""
    projected = (params["reps"] or 0) * (params["n_directions"] or 0)
    if projected > MAX_PROJECTED:
        diags.append(f"wass-scaling.n_directions: reps * n_directions must be <= "
                     f"{MAX_PROJECTED}, got {projected} projected values")


def _check_runs(params: dict, made, plan: dict, diags: list[str]) -> None:
    """converge's runs, into ``plan["configs"]`` and their fit windows, as
    slices of the curve, into ``plan["segments"]``, both in run order, and
    the logistic model's run lengths and kappas: the kappas, each checked
    on its own, into ``plan["kappas"]`` in decreasing order, and one model
    over that grid into ``plan["model"]``, whose state stacks one start per
    kappa."""
    runs = params["runs"] or []
    kind = params["model"] and params["model"]["kind"]
    start = plan.get("start")
    if kind == "logistic" and start is not None:  # every kappa's block starts there
        start = np.tile(start, len(params.get("kappas") or [None]))
    plan["configs"], plan["segments"] = [], []
    for i, run in enumerate(runs):
        plan["configs"].append(_build(
            f"runs[{i}]", diags, RunConfig, run["gamma"], run["num_steps"], start
        ))
        fit = (run["num_steps"] + 1, run.get("fit_burn_in", 0), run.get("fit_window"))
        plan["segments"].append(_build(f"runs[{i}]", diags, fit_segment, *fit))
    if kind == "quadratic" and "kappas" in params:
        diags.append("converge.kappas: only valid for the logistic model")
    if kind != "logistic":
        return
    # block means compare consecutive windows of the num_steps + 1 iterates
    blocks = BOUNDS["converge"]["blocks"]
    for i, run in enumerate(runs):
        if run["num_steps"] + 1 < blocks:
            diags.append(f"runs[{i}].num_steps: needs num_steps + 1 >= {blocks}, the block count")
    if "kappas" not in params:
        diags.append("converge.kappas: required for the logistic model")
    elif made is not None and params["kappas"] is not None:
        count = len(diags)
        for i, kappa in enumerate(params["kappas"]):
            _build(f"kappas[{i}]", diags, ridge_penalties, kappa)
        _check_unique([(f"kappas[{i}]", kappa) for i, kappa in enumerate(params["kappas"])], diags)
        if len(diags) == count:
            kappas = plan["kappas"] = sorted(params["kappas"], reverse=True)
            plan["model"] = _build("converge.kappas", diags, make_logistic_model, made, kappas)


def _check_cross(params: dict, command: str, seed: int, diags: list[str]) -> dict:
    """The plan: what the cross-key rules built for the run."""
    plan: dict = {}
    if command != "gd-ode":  # the one command that draws no weights
        _check_schemes(params, command, plan, diags)
    made = _check_model(params, command, seed, plan, diags) if "model" in params else None
    if "gammas" in params:
        _check_step_grid(params, command, plan, diags)
    if command == "wass-scaling":
        _check_wass_sizes(params, diags)
    if command == "converge":
        _check_runs(params, made, plan, diags)
    return plan


def _json_object(pairs: list) -> dict:
    """One parsed JSON object; strict JSON names each key once, so a repeat raises."""
    for key, count in Counter(key for key, _ in pairs).items():
        if count > 1:
            raise ValueError(f"duplicate key {key!r}")
    return dict(pairs)


def validate_config(raw, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and strictly validate a config (JSON text or dict).

    Every violation is collected and raised as a :class:`ConfigError`
    naming the offending key.  ``params`` is the config resolved against
    its command's schema, without ``command`` and ``seed``.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw, object_pairs_hook=_json_object)
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep, a repeat
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a JSON object, got {type(raw).__name__}"])

    diags: list[str] = []
    command = raw.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError([f"command: expected one of {sorted(COMMANDS)}, got {command!r}"])

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        diags.append("seed: required (in the config or via --seed)")
    elif not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        diags.append(f"seed: expected a 64-bit unsigned integer, got {seed!r}")

    given = {key: value for key, value in raw.items() if key not in ("command", "seed")}
    resolved = _walk(given, {"out": Field(str)} | SCHEMAS[command], command, "", diags)
    plan = _check_cross(resolved, command, seed if not diags else 0, diags)
    if diags:
        raise ConfigError(diags)
    return ExperimentConfig(
        command=command, seed=int(seed), params=resolved, raw=dict(raw), plan=plan
    )


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=64)  # a run's tables hold a few row kinds
def _row_format(kinds: tuple) -> str:
    """The ``%`` format of a CSV row whose values have these types: a float
    (numpy's too) in round-trip ``%.17g``, anything else as ``str`` gives it."""
    return ",".join("%.17g" if issubclass(kind, (float, np.floating)) else "%s" for kind in kinds)


def histogram_rows(samples, bin_count: int) -> list[tuple[float, float, int]]:
    """(bin_left, bin_right, count) rows spanning [min, max] of the samples.

    Counts always sum to the sample count; a constant sample collapses to
    one zero-width bin.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    low, high = float(samples.min()), float(samples.max())
    if low == high:
        return [(low, high, samples.size)]
    edges = np.linspace(low, high, bin_count + 1)
    counts, _ = np.histogram(samples, bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bin_count)
    ]


# ----------------------------------------------------------------------
# command runners
# ----------------------------------------------------------------------


def _run_weights_moments(cfg: ExperimentConfig, root) -> tuple[list, dict]:
    reps = cfg.params["reps"]
    checks, rows = [], []
    for scheme in cfg.plan["schemes"]:
        label, n, m = scheme.label, scheme.n, scheme.m
        diag, offdiag = sigma_entries(n, m)
        first, second, m_sum_sq, _ = empirical_weight_moments(scheme, root.child(label), reps)
        _, cov_se = covariance_with_se(np.column_stack([first, second]))
        row = [label, n, m, reps]
        # the m*sum(w^2) identity is exact in expectation; its bound's tiny floor
        # absorbs roundoff for schemes where it holds draw-by-draw (SE = 0)
        for key, observed, se, target in [
            ("coord_mean", *mean_with_se(first), 1.0 / n),
            ("coord_var", np.var(first, ddof=1), cov_se[0, 0], diag),
            ("coord_cov", np.cov(first, second, ddof=1)[0, 1], cov_se[0, 1], offdiag),
            ("m_sum_sq", *mean_with_se(m_sum_sq), 1.0),
        ]:
            checks.append((key, f"{label}:{key}", observed, target, se))
            row += [observed, se, target]
        rows.append(row[:-1])  # m_sum_sq's target, 1, has no column
    header = ["scheme", "n", "m", "reps", "mean", "mean_se", "mean_target",
              "var", "var_se", "var_target", "cov", "cov_se", "cov_target",
              "m_sum_sq", "m_sum_sq_se"]
    return checks, {"weight_moments.csv": (header, rows)}


def _run_clt(cfg: ExperimentConfig, root) -> tuple[list, dict]:
    count, p = cfg.params["samples"], cfg.params["p"]
    model = make_uniform_clt_model(p)
    [scheme] = cfg.plan["schemes"]
    samples = clt_error_samples(model, scheme, np.zeros(p), count, root.child("samples"))
    target_var = 1.0 / 3.0  # Var Unif(-1, 1)
    checks, tables = [], {}
    for j in range(p):
        checks.append(("ks_coord", f"ks_coord{j + 1}", ks_normality(samples[:, j], target_var)))
        tables[f"hist_coord{j + 1}.csv"] = (
            ["bin_left", "bin_right", "count"],
            histogram_rows(samples[:, j], BOUNDS["clt"]["hist_bins"]),
        )
    cov, cov_se = covariance_with_se(samples)
    target = target_var * np.eye(p)
    worst = float(np.max(np.abs(cov - target) / cov_se))  # NaN, so FAIL, if any entry is
    checks.append(("covariance_max_sigmas", "covariance_max_sigmas", worst))
    cov_rows = [
        [i + 1, j + 1, cov[i, j], cov_se[i, j], target[i, j]]
        for i in range(p) for j in range(p)
    ]
    tables["error_covariance.csv"] = (["i", "j", "cov", "se", "target"], cov_rows)
    return checks, tables


def _run_weighting_gap(cfg: ExperimentConfig, root) -> tuple[list, dict]:
    reps = cfg.params["reps"]
    checks, rows = [], []
    for scheme in cfg.plan["schemes"]:  # each spec at each pair
        label, n, m = scheme.label, scheme.n, scheme.m
        gap = weighting_gap(scheme, reps, root.child(label, n, m))
        checks.append(("gap", f"{label}:n{n}:m{m}", gap.estimate, gap.analytic, gap.se))
        rows.append([label, n, m, reps, gap.estimate, gap.se, gap.analytic])
    header = ["scheme", "n", "m", "reps", "estimate", "se", "analytic"]
    return checks, {"weighting_gap.csv": (header, rows)}


def _run_wass_scaling(cfg: ExperimentConfig, root) -> tuple[list, dict]:
    params, plan = cfg.params, cfg.plan
    model, configs, reps = plan["model"], plan["configs"], params["reps"]
    [scheme] = plan["schemes"]
    gammas = [config.gamma for config in configs]
    # every gamma advances in lockstep; group i keeps the streams of gamma index i
    msgd = run_msgd(model, scheme, configs, [
        root.children(i, "msgd", stop=reps) for i in range(len(gammas))
    ])
    em = run_diffusion_em(model, configs, params["em_substeps"], [
        root.children(i, "em", stop=reps) for i in range(len(gammas))
    ], scheme.m)
    values = [
        sliced_w2(msgd_run[-1], em_run[-1], params["n_directions"], root.child(i, "directions"))
        for i, (msgd_run, em_run) in enumerate(zip(msgd.runs, em.runs))
    ]
    worst_ratio = max(values[i + 1] / values[i] for i in range(len(values) - 1))
    checks = [
        ("monotone_ratio", "monotone_ratio", worst_ratio, 1.0),
        ("loglog_slope", "loglog_slope", log_slope(np.log(gammas), values)),
    ]
    return checks, {"wass_scaling.csv": (["gamma", "w2sq"], list(zip(gammas, values)))}


def _quadratic_gap_recursion(gamma: float, m: int, trace: float, start: float, k: int) -> np.ndarray:
    """a_{j+1} = (1-gamma)^2 a_j + gamma^2 * trace / (2m), a_0 = start."""
    out = np.empty(k + 1)
    out[0] = start
    factor = (1.0 - gamma) ** 2
    bump = gamma**2 * trace / (2.0 * m)
    for j in range(k):
        out[j + 1] = factor * out[j] + bump
    return out


def _run_converge_quadratic(cfg, root) -> tuple[list, dict]:
    params, plan, bound = cfg.params, cfg.plan, BOUNDS["converge"]
    model, x0, reps, configs = plan["model"], plan["start"], params["reps"], plan["configs"]
    [scheme] = plan["schemes"]
    m = scheme.m
    trace = model.noise_trace(model.minimizer)

    def streams(kind):  # group i keeps the streams of run i
        return [root.child(i, kind).children("rep", stop=reps) for i in range(len(configs))]

    # every run advances in lockstep, one call per process
    processes = {
        "gaussian_sgd": run_gaussian_sgd(model, configs, streams("gaussian_sgd"), m).runs,
        "msgd": run_msgd(model, scheme, configs, streams("msgd")).runs,
    }
    checks, tables = [], {}
    for run_idx, (config, segment) in enumerate(zip(configs, plan["segments"])):
        gamma, steps = config.gamma, config.num_steps
        oracle = _quadratic_gap_recursion(
            gamma, m, trace, model.objective(x0) - model.objective(model.minimizer), steps
        )
        rho = contraction_bound(
            lam=model.strong_convexity, gamma=gamma, L=model.lipschitz_grad,
            L1=model.lipschitz_noise, p=model.dim, m=m,
        )
        level = plateau_bound(
            model.strong_convexity, gamma, model.lipschitz_grad, m, trace
        )
        for kind, runs in processes.items():
            curve = convergence_curve(model, runs[run_idx])
            # worst deviation from the recursion oracle in SE units; an SE
            # that overflowed bounds nothing
            dev = math.nan
            if np.all(np.isfinite(curve.g_gap_se)):
                scale = bound["recursion_sigmas"] * curve.g_gap_se + bound["recursion_floor"]
                dev = float(np.max(np.abs(curve.g_gap_mean - oracle) / scale))
            tail = curve.g_gap_mean[-max(steps // 4, 1):]
            checks += [
                ("recursion_max_dev", f"{kind}:recursion_max_dev", dev, 1.0),
                ("rho_hat", f"{kind}:rho_hat", contraction_fit(curve.g_gap_mean[segment]), rho),
                ("plateau", f"{kind}:plateau", float(tail.mean()), level),
            ]
            tables[f"converge_{kind}_run{run_idx}.csv"] = (
                ["k", "g_gap_mean", "g_gap_se", "sq_dist_mean", "sq_dist_se", "oracle"],
                list(zip(range(steps + 1), *(column.tolist() for column in (
                    curve.g_gap_mean, curve.g_gap_se, curve.sq_dist_mean, curve.sq_dist_se,
                    oracle)))),
            )
    return checks, tables


def _block_means(per_rep_curves: np.ndarray, blocks: int):
    """Block means over consecutive iteration windows, with SEs across reps,
    of (*batch, reps, length) curves: (*batch, blocks) arrays.

    Iterations within one replication are strongly correlated, so the SE
    must come from the spread of per-replication block means, not from
    combining per-iteration SEs.
    """
    length = per_rep_curves.shape[-1]
    edges = np.linspace(0, length, blocks + 1).astype(int)
    rep_blocks = np.stack([
        per_rep_curves[..., a:b].mean(axis=-1) for a, b in zip(edges[:-1], edges[1:])
    ], axis=-1)
    return mean_with_se(rep_blocks, axis=-2)


def _run_converge_logistic(cfg, root) -> tuple[list, dict]:
    params, plan, bound = cfg.params, cfg.plan, BOUNDS["converge"]
    reps, blocks, configs = params["reps"], bound["blocks"], plan["configs"]
    model, kappas = plan["model"], plan["kappas"]
    [scheme] = plan["schemes"]
    p = model.dim // len(kappas)
    # every run advances in lockstep, and every kappa's block steps on its
    # replication's one draw of data and weights per step
    grid = run_msgd(model, scheme, configs, [
        root.child(i).children("rep", stop=reps) for i in range(len(configs))
    ])
    checks, tables = [], {}
    for run_idx, (config, segment, run) in enumerate(zip(configs, plan["segments"], grid.runs)):
        steps = config.num_steps
        # every kappa's statistics at once, from the run's (steps + 1, reps, kappas, p) blocks
        curve = convergence_curve(model, run.reshape(steps + 1, reps, len(kappas), p), np.zeros(p))
        block_means, block_errs = _block_means(curve.sq_dist_reps, blocks)
        rhos, rho_ses = contraction_fit_jackknife(curve.sq_dist_reps[..., segment])
        for kappa_idx, (kappa, means, errs) in enumerate(
            zip(kappas, block_means.tolist(), block_errs.tolist())
        ):
            label = f"run{run_idx}:kappa{float(kappa)!r}"
            rise = max(
                means[j + 1] - means[j]
                - bound["block_decrease_sigmas"] * math.hypot(errs[j], errs[j + 1])
                for j in range(blocks - 1)
            )
            # flat up to noise plus a fraction of the plateau level itself
            slack = (bound["plateau_flat_sigmas"] * math.hypot(errs[-1], errs[-2])
                     + bound["plateau_flat_frac"] * means[-1])
            checks += [
                ("block_decrease", f"{label}:block_decrease", rise),
                ("tail_below_start", f"{label}:tail_below_start", means[-1],
                 bound["tail_below_start_frac"] * means[0]),
                ("plateau_flat", f"{label}:plateau_flat", abs(means[-1] - means[-2]) - slack),
            ]
            tables[f"mse_run{run_idx}_kappa{kappa_idx}.csv"] = (
                ["k", "mse_mean", "mse_se"],
                list(zip(range(steps + 1), curve.sq_dist_mean[kappa_idx].tolist(),
                         curve.sq_dist_se[kappa_idx].tolist())),
            )
        rho_hats = list(zip(kappas, rhos.tolist(), rho_ses.tolist()))
        checks += [
            ("rho_order", f"run{run_idx}:rho_order:kappa{float(k_hi)!r}<=kappa{float(k_lo)!r}",
             r_hi - r_lo, 0.0, math.hypot(s_hi, s_lo))
            for (k_hi, r_hi, s_hi), (k_lo, r_lo, s_lo) in zip(rho_hats, rho_hats[1:])
        ]
        tables[f"rho_hats_run{run_idx}.csv"] = (["kappa", "rho_hat", "rho_hat_se"], rho_hats)
    return checks, tables


def _run_converge(cfg: ExperimentConfig, root) -> tuple[list, dict]:
    if cfg.params["model"]["kind"] == "quadratic":
        return _run_converge_quadratic(cfg, root)
    return _run_converge_logistic(cfg, root)


def _run_gd_ode(cfg: ExperimentConfig, root) -> tuple[list, dict]:
    params, plan = cfg.params, cfg.plan
    model, configs = plan["model"], plan["configs"]
    horizon = params["horizon"]
    L = model.lipschitz_grad
    gammas = [config.gamma for config in configs]
    # every gamma advances in lockstep; the flow is recorded at each multiple of gamma
    gd = run_gd(model, configs)
    ode = run_ode(model, configs)
    # after the runs, which report a start too far out as a divergence instead
    grad0 = float(np.linalg.norm(model.grad_objective(plan["start"])))
    checks, rows = [], []
    for gamma, config, gd_run, ode_run in zip(gammas, configs, gd.runs, ode.runs):
        steps = config.num_steps
        errors = np.linalg.norm(gd_run - ode_run, axis=1)
        try:
            bound = grad0 * math.exp(L * horizon) * steps * gamma * gamma * (1 + L * gamma) ** steps
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):  # a bound that overflowed bounds nothing: NaN FAILs
            bound = math.nan
        max_error = float(errors.max())
        checks.append(("bound_gamma", f"bound_gamma{float(gamma)!r}", max_error, bound))
        rows.append([gamma, max_error, bound, float(errors[-1])])
    final_errors = [row[3] for row in rows]
    checks.append(("loglog_slope", "loglog_slope", log_slope(np.log(gammas), final_errors)))
    return checks, {"gd_ode.csv": (["gamma", "max_error", "bound", "final_error"], rows)}


_RUNNERS = {
    "weights-moments": _run_weights_moments,
    "clt": _run_clt,
    "weighting-gap": _run_weighting_gap,
    "wass-scaling": _run_wass_scaling,
    "converge": _run_converge,
    "gd-ode": _run_gd_ode,
}


def _reported_files(directory: Path) -> list[str]:
    """The bare file names the ``files`` of `directory`'s report.json lists, none
    for a missing or malformed report.  A name with a directory part, or of a
    directory (``..`` among them), names no file a run wrote there, and is left out."""
    try:
        files = json.loads((directory / "report.json").read_text(encoding="utf-8"))["files"]
    except (OSError, ValueError, RecursionError, KeyError, TypeError):  # none, or not a report
        return []
    if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
        return []
    return [name for name in files if "\0" not in name and Path(name).name == name
            and not (directory / name).is_dir()]


def run_experiment(config: ExperimentConfig, out_dir, threads: int = 1) -> ExperimentReport:
    """Execute one validated config: its runner measures, ``judge`` judges each
    statistic, and this writes every CSV table, under a config-echo comment
    header and each row in the one ``%`` format of its value types, and
    report.json, the only artifacts a run writes.

    The directory holds one run: the earlier report.json and every file it
    names go before the run, so a run that stops part way leaves no report,
    and report.json is written last.

    ``threads`` is accepted and ignored, for callers written when
    replications could run on a thread pool.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)  # an unwritable directory fails before any run
    for name in ["report.json", *_reported_files(directory)]:
        (directory / name).unlink(missing_ok=True)
    root = derive_stream(config.seed, (config.command,))
    statistics, tables = _RUNNERS[config.command](config, root)
    checks = [judge(config.command, *statistic) for statistic in statistics]
    report = ExperimentReport(
        command=config.command,
        seed=config.seed,
        config=config.raw,
        resolved=config.params,
        checks=checks,
        files=list(tables),
    )
    echo = [
        f"# seed={config.seed}",
        f"# config={json.dumps(config.raw, sort_keys=True, separators=(',', ':'))}",
    ]
    for name, (header, rows) in tables.items():
        lines = echo + [",".join(header)] + [
            _row_format(tuple(map(type, row))) % tuple(row) for row in rows
        ]
        (directory / name).unlink(missing_ok=True)  # rewriting in place can cost ~50 ms on ext4
        (directory / name).write_text("\n".join(lines) + "\n")
    payload = json.dumps(report.as_dict(), sort_keys=True, indent=2)
    (directory / "report.json").write_text(payload + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msgdlab", description="config-driven experiment runner"
    )
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--out", default=None,
        help="output directory (default: the config's 'out', else msgdlab-out)",
    )
    parser.add_argument(
        "--list-commands", action="store_true", help="list commands and exit"
    )
    args = parser.parse_args(argv)

    if args.list_commands:
        for name in sorted(COMMANDS):
            print(f"{name}: {COMMANDS[name]}")
        return 0
    if not args.config:
        parser.error("--config is required unless --list-commands is given")

    try:
        raw = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate_config(raw, seed_override=args.seed)
    except ConfigError as exc:
        for line in exc.diagnostics:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    out_dir = args.out or config.params.get("out") or "msgdlab-out"
    try:
        report = run_experiment(config, out_dir)
    except (DivergenceError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"{verdict} {check.name}: observed={check.observed:.6g} "
            f"target={check.target:.6g} tol={check.tolerance:.6g} ({check.comparison})"
        )
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
