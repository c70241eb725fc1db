"""Config-driven experiment runner with pass/fail verdicts.

Each command exercises one family of claims and writes CSV artifacts plus
a ``report.json`` into the output directory:

* ``weights-moments``  weight-scheme moment targets
* ``clt``              normality of the scaled weighted gradient error
* ``weighting-gap``    exact second-moment identity between weighted and
                       plain-average errors
* ``wass-scaling``     squared Wasserstein-2 distance to the diffusion as
                       the step size shrinks
* ``converge``         geometric convergence under strong convexity
* ``gd-ode``           gradient descent against its gradient-flow limit

Configs are strict JSON, checked against the command's schema in
``SCHEMAS``: unknown keys are rejected and every violation is reported with
the offending key.  Validation builds the domain objects the run uses (the
config's ``plan``), and each command runs what validation built, from the
one root stream ``run_experiment`` derives for it.  Given the same config
and seed, outputs are byte-identical: every replication draws from a stream
derived from its own index, and reductions happen in index order, whatever
chunk of replications a step draws and reduces together.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    RunConfig,
    run_diffusion_em,
    run_gaussian_sgd,
    run_gd,
    run_msgd,
    run_ode,
)
from .models import (
    LogisticDataset,
    generate_logistic_dataset,
    make_logistic_model,
    make_quadratic_model,
    make_uniform_clt_model,
)
from .numerics import derive_stream
from .stats import (
    clt_error_samples,
    contraction_bound,
    contraction_fit,
    contraction_fit_jackknife,
    convergence_curve,
    coordinate_avg_w2,
    covariance_with_se,
    fit_segment,
    ks_normality,
    plateau_bound,
    sliced_w2,
    weighting_gap,
)
from .weights import (
    SCHEME_KINDS,
    WeightScheme,
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


class ConfigError(ValueError):
    """Invalid experiment config; ``diagnostics`` lists every violation."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config.  ``params`` is the config resolved against its
    command's schema; ``plan`` holds the domain objects validation built
    for the run: the weight schemes as (label, scheme) pairs, the model, the
    resolved start, the run configs and the logistic datasets."""

    command: str
    seed: int
    params: dict
    raw: dict
    plan: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass
class CheckResult:
    """One named verdict.  ``comparison`` is "abs" (|observed - target| <=
    tolerance) or "le" (observed <= target + tolerance)."""

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
_LOGISTIC = {"p": Field(int, REQUIRED), "t": Field(int, REQUIRED)}
_RUN = {
    "gamma": Field(float, REQUIRED), "num_steps": Field(int, REQUIRED),
    "fit_burn_in": Field(int), "fit_window": Field(int),
}
_SIGMAS = {
    "mean_sigmas": Field(float, 4), "var_sigmas": Field(float, 4),
    "cov_sigmas": Field(float, 4), "sumsq_sigmas": Field(float, 3),
}
_EVERY_SCHEME = [{"kind": "minibatch"}, {"kind": "gaussian"}, {"kind": "dirichlet"}]
_PLANE = {"kind": "quadratic", "p": 2, "s": 1.0}
_LINE = {"kind": "quadratic", "p": 1, "s": 1.0, "theta_star": [0.0]}

# Each command's keys beside ``command``, ``seed`` and ``out`` (the default
# output directory, which the --out flag overrides).
SCHEMAS: dict[str, dict[str, Field]] = {
    "weights-moments": {
        "n": Field(int, REQUIRED), "m": Field(int, REQUIRED), "reps": Field(int, REQUIRED, 100),
        "schemes": Field([_SCHEME], _EVERY_SCHEME, 1), "thresholds": Field(_SIGMAS, {}),
    },
    "clt": {
        "n": Field(int, REQUIRED), "m": Field(int, REQUIRED),
        "samples": Field(int, REQUIRED, 100), "p": Field(int, 1, 1),
        "scheme": Field(_SCHEME, {"kind": "dirichlet"}), "bins": Field(int, 50, 1),
        "ks_threshold": Field(float, 0.03), "cov_sigmas": Field(float, 4),
    },
    "weighting-gap": {
        "pairs": Field([[int]], REQUIRED, 1), "reps": Field(int, REQUIRED, 1000),
        "schemes": Field([_SCHEME], _EVERY_SCHEME, 1),
        "model": Field(Kinds(quadratic=_QUADRATIC), _PLANE),
        "theta": Field([float]), "sigmas": Field(float, 3),
    },
    "wass-scaling": {
        "gammas": Field([float], REQUIRED), "reps": Field(int, REQUIRED, 1),
        "n": Field(int, 512), "m": Field(int, 64), "horizon": Field(float, 1.0),
        "scheme": Field(_SCHEME, {"kind": "gaussian"}),
        "model": Field(Kinds(quadratic=_QUADRATIC), _PLANE),
        "em_substeps": Field(int, 50, 1), "n_directions": Field(int, 128, 1),
        "x0": Field([float]), "slack": Field(float, 0.1),
        "slope_range": Field([float], [0.8, 2.2]),
    },
    "converge": {
        "model": Field(Kinds(quadratic=_QUADRATIC, logistic=_LOGISTIC), REQUIRED),
        "scheme": Field(_SCHEME, {"kind": "gaussian"}),
        "n": Field(int, REQUIRED), "m": Field(int, REQUIRED), "reps": Field(int, REQUIRED, 1),
        "runs": Field([_RUN], REQUIRED, 1), "kappas": Field([float], low=1),
        "x0": Field([float]), "rho_tolerance": Field(float, 0.02), "blocks": Field(int, 8),
    },
    "gd-ode": {
        "gammas": Field([float], REQUIRED), "x0": Field([float]), "horizon": Field(float, 1.0),
        "ode_substeps": Field(int, 20, 10), "slope_range": Field([float], [0.8, 1.2]),
        "model": Field(Kinds(quadratic=_QUADRATIC), _LINE),
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
        elif spec.low is not None and value < spec.low:
            diags.append(f"{where}: must be >= {spec.low}")
    return value


# Rules between keys, given None for a key that is missing or broke the schema.
# They build the domain objects the run uses into the config's plan, so that
# those objects' own rules, such as a Dirichlet scheme's 2 <= m < n, are
# reported against the key.  A broken value builds None: the plan is read only
# when there is no diagnostic.


def _build(where: str, diags: list[str], make, *args):
    try:
        return make(*args)
    except ValueError as exc:
        diags.append(f"{where}: {exc}")
        return None


def _scheme_from_spec(spec: dict, n: int, m: int) -> WeightScheme:
    return WeightScheme(kind=spec["kind"], n=n, m=m, base=spec.get("base", "normal"))


def _scheme_label(spec: dict) -> str:
    if spec["kind"] == "gaussian":
        return f"gaussian[{spec.get('base', 'normal')}]"
    return spec["kind"]


def _model_from_spec(spec: dict):
    p = spec.get("p", 1)
    theta_star = np.asarray(spec.get("theta_star", np.zeros(p)), dtype=float)
    return make_quadratic_model(p, theta_star, float(spec.get("s", 1.0)))


# At m = n every weight scheme draws the constant 1/n, so these commands'
# checks would compare roundoff against a zero spread.
_M_BELOW_N = ("weights-moments", "weighting-gap")


def _check_sizes(params: dict, command: str, plan: dict, diags: list[str]):
    """Each valid (n, m) the config runs at.  Each weight scheme is built at
    each, into ``plan["schemes"]`` as (label, scheme) pairs, spec by spec."""
    if "pairs" in params:
        named = [(f"pairs[{i}]", pair) for i, pair in enumerate(params["pairs"] or [])]
    else:
        n, m = params["n"], params["m"]
        named = [(f"{command}.m", [n, m])] if n is not None and m is not None else []
    sizes = []
    for where, pair in named:
        if len(pair) == 2 and 1 <= pair[1] <= pair[0]:
            sizes.append(tuple(pair))
            if command in _M_BELOW_N and pair[1] == pair[0]:
                diags.append(f"{where}: m = n makes every weight 1/n, leaving no spread to "
                             f"check; need m < n, got {pair}")
        else:
            diags.append(f"{where}: need [n, m] with 1 <= m <= n, got {pair}")
    if "scheme" in params:
        schemes = [("scheme", params["scheme"])]
    else:
        schemes = [(f"schemes[{i}]", spec) for i, spec in enumerate(params["schemes"] or [])]
    plan["schemes"] = [
        (_scheme_label(spec), _build(where, diags, _scheme_from_spec, spec, n, m))
        for where, spec in schemes if spec is not None for n, m in sizes
    ]
    return sizes


def _check_model(params: dict, command: str, seed: int, plan: dict, diags: list[str]):
    """The model, or a logistic model's dataset, and the resolved start (the
    point, for weighting-gap).  A given point must have the model's dimension,
    and converge and gd-ode must not start at the minimiser."""
    spec = params["model"]
    if spec is None:
        return None
    if spec["kind"] == "logistic":  # the run's own draw; _check_runs sets each kappa
        stream = derive_stream(seed, (command,)).child("dataset")
        made = _build("model", diags, generate_logistic_dataset, stream, spec["p"], spec["t"], 1.0)
    else:
        made = plan["model"] = _build("model", diags, _model_from_spec, spec)
    key = "theta" if command == "weighting-gap" else "x0"
    if made is None or (key in params and params[key] is None):
        return made
    point = params.get(key)
    if point is not None and len(point) != made.dim:
        diags.append(f"{command}.{key}: expected p={made.dim} numbers, got {point}")
    if point is None:  # ones, scaled to unit length for the logistic model
        point = np.ones(made.dim) / math.sqrt(made.dim if spec["kind"] == "logistic" else 1)
    start = plan["start"] = np.asarray(point, dtype=float)
    # a start at the minimiser leaves a zero curve or error, which has no logarithm to fit
    if (
        command in ("converge", "gd-ode") and spec["kind"] == "quadratic"
        and np.array_equal(start, made.minimizer)
    ):
        diags.append(f"{command}.x0: starts at the minimiser theta_star (x0 defaults to "
                     "ones), leaving no convergence to measure")
    return made


def _check_step_grid(params: dict, command: str, sizes, plan: dict, diags: list[str]) -> None:
    """At least 2 distinct step sizes, each dividing a positive horizon, and
    the slope range their log-log fit is checked against.  The configs go
    into ``plan["configs"]`` in decreasing step size."""
    gammas, horizon, bounds = params["gammas"], params["horizon"], params["slope_range"]
    if gammas is not None and len(set(gammas)) < 2:
        diags.append(f"{command}.gammas: need at least 2 distinct step sizes for the slope fit")
    if horizon is not None and not horizon > 0:
        diags.append(f"{command}.horizon: must be positive")
    elif gammas is not None and horizon is not None:
        plan["configs"] = []
        for i, gamma in sorted(enumerate(gammas), key=lambda item: item[1], reverse=True):
            steps = horizon / gamma if gamma else 0.0
            if abs(steps - round(steps)) > 1e-9:
                diags.append(f"gammas[{i}]: horizon must be a multiple of gamma")
            for n, m in sizes:
                plan["configs"].append(_build(
                    f"gammas[{i}]", diags, RunConfig, gamma, round(steps), m, n, plan.get("start")
                ))
    if bounds is not None and not (len(bounds) == 2 and bounds[0] < bounds[1]):
        diags.append(f"{command}.slope_range: expected [low, high] with low < high, got {bounds}")


def _check_runs(params: dict, sizes, made, plan: dict, diags: list[str]) -> None:
    """converge's runs, into ``plan["configs"]`` and their fit windows, as
    slices of the curve, into ``plan["segments"]``, both in run order, and
    the logistic model's blocks, reps and kappas: one dataset per kappa,
    into ``plan["datasets"]`` in decreasing kappa."""
    runs = params["runs"] or []
    plan["configs"], plan["segments"] = [], []
    for i, run in enumerate(runs):
        for n, m in sizes:
            plan["configs"].append(_build(
                f"runs[{i}]", diags, RunConfig, run["gamma"], run["num_steps"], m, n,
                plan.get("start"),
            ))
        fit = (run["num_steps"] + 1, run.get("fit_burn_in", 0), run.get("fit_window"))
        plan["segments"].append(_build(f"runs[{i}]", diags, fit_segment, *fit))
    kind = params["model"] and params["model"]["kind"]
    if kind == "quadratic" and "kappas" in params:
        diags.append("converge.kappas: only valid for the logistic model")
    if kind != "logistic":
        return
    # logistic block SEs are spreads across replications, so they need two
    if params["reps"] is not None and params["reps"] < 2:
        diags.append("converge.reps: must be >= 2")
    # block means compare consecutive windows of the num_steps + 1 iterates
    blocks = params["blocks"]
    if blocks is not None and blocks < 2:
        diags.append("converge.blocks: must be >= 2")
    for i, run in enumerate(runs if blocks is not None else []):
        if run["num_steps"] + 1 < blocks:
            diags.append(f"runs[{i}].num_steps: needs num_steps + 1 >= blocks")
    if "kappas" not in params:
        diags.append("converge.kappas: required for the logistic model")
    elif made is not None:
        kappas = sorted(enumerate(params["kappas"] or []), key=lambda item: item[1], reverse=True)
        plan["datasets"] = [
            _build(f"kappas[{i}]", diags, LogisticDataset, made.labels, made.covariates, kappa)
            for i, kappa in kappas
        ]


def _check_cross(params: dict, command: str, seed: int, diags: list[str]) -> dict:
    """The plan: what the cross-key rules built for the run."""
    plan: dict = {}
    # gd-ode runs gradient descent at m = n = 1
    sizes = [(1, 1)] if command == "gd-ode" else _check_sizes(params, command, plan, diags)
    x0 = params.get("x0")
    if x0 is not None and not np.all(np.abs(x0) <= DIVERGENCE_LIMIT):
        diags.append(f"{command}.x0: every entry must lie within +-{DIVERGENCE_LIMIT:g}, "
                     f"beyond which a run counts as diverged, got {x0}")
    made = _check_model(params, command, seed, plan, diags) if "model" in params else None
    if "gammas" in params:
        _check_step_grid(params, command, sizes, plan, diags)
    if command == "converge":
        _check_runs(params, sizes, made, plan, diags)
    return plan


def validate_config(raw, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and strictly validate a config (JSON text or dict).

    Every violation is collected and raised as a :class:`ConfigError`
    naming the offending key.  ``params`` is the config resolved against
    its command's schema, without ``command`` and ``seed``.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
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


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


class _OutputDir:
    """Writes CSVs (with a config-echo comment header) and report.json."""

    def __init__(self, directory, config: ExperimentConfig):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.header_lines = [
            f"# seed={config.seed}",
            f"# config={json.dumps(config.raw, sort_keys=True, separators=(',', ':'))}",
        ]
        self.files: list[str] = []

    def write_csv(self, name: str, header: list[str], rows) -> None:
        lines = list(self.header_lines)
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        (self.directory / name).write_text("\n".join(lines) + "\n")
        self.files.append(name)

    def write_report(self, report: ExperimentReport) -> None:
        report.files = self.files
        payload = json.dumps(report.as_dict(), sort_keys=True, indent=2)
        (self.directory / "report.json").write_text(payload + "\n")


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


def _run_weights_moments(cfg: ExperimentConfig, root, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    n, m, reps = params["n"], params["m"], params["reps"]
    thresholds = params["thresholds"]
    diag, offdiag = sigma_entries(n, m)
    checks: list[CheckResult] = []
    rows = []
    for label, scheme in cfg.plan["schemes"]:
        report = empirical_weight_moments(scheme, root.child(label), reps)
        checks.append(CheckResult(
            f"{label}:coord_mean", report.coord_mean[0], 1.0 / n,
            thresholds["mean_sigmas"] * report.coord_mean_se[0],
        ))
        checks.append(CheckResult(
            f"{label}:coord_var", report.var_first, diag,
            thresholds["var_sigmas"] * report.var_first_se,
        ))
        checks.append(CheckResult(
            f"{label}:coord_cov", report.cov_pair, offdiag,
            thresholds["cov_sigmas"] * report.cov_pair_se,
        ))
        # the m*sum(w^2) identity is exact in expectation; the tiny floor
        # absorbs roundoff for schemes where it holds draw-by-draw (SE = 0)
        checks.append(CheckResult(
            f"{label}:m_sum_sq", report.m_sum_sq_mean, 1.0,
            thresholds["sumsq_sigmas"] * report.m_sum_sq_se + 1e-12,
        ))
        rows.append([
            label, n, m, reps,
            report.coord_mean[0], report.coord_mean_se[0], 1.0 / n,
            report.var_first, report.var_first_se, diag,
            report.cov_pair, report.cov_pair_se, offdiag,
            report.m_sum_sq_mean, report.m_sum_sq_se,
        ])
    out.write_csv(
        "weight_moments.csv",
        ["scheme", "n", "m", "reps",
         "mean", "mean_se", "mean_target",
         "var", "var_se", "var_target",
         "cov", "cov_se", "cov_target",
         "m_sum_sq", "m_sum_sq_se"],
        rows,
    )
    return checks


def _run_clt(cfg: ExperimentConfig, root, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    count, p = params["samples"], params["p"]
    model = make_uniform_clt_model(p)
    [(_, scheme)] = cfg.plan["schemes"]
    samples = clt_error_samples(model, scheme, np.zeros(p), count, root.child("samples"))
    target_var = 1.0 / 3.0  # Var Unif(-1, 1)
    checks: list[CheckResult] = []
    for j in range(p):
        checks.append(CheckResult(
            f"ks_coord{j + 1}", ks_normality(samples[:, j], target_var), 0.0,
            params["ks_threshold"], comparison="le",
        ))
        out.write_csv(
            f"hist_coord{j + 1}.csv",
            ["bin_left", "bin_right", "count"],
            histogram_rows(samples[:, j], params["bins"]),
        )
    cov, cov_se = covariance_with_se(samples)
    target = target_var * np.eye(p)
    worst = 0.0
    for i in range(p):
        for j in range(p):
            sigmas = abs(cov[i, j] - target[i, j]) / cov_se[i, j]
            worst = max(worst, sigmas)
    checks.append(CheckResult(
        "covariance_max_sigmas", worst, 0.0, params["cov_sigmas"], comparison="le",
    ))
    cov_rows = [
        [i + 1, j + 1, cov[i, j], cov_se[i, j], target[i, j]]
        for i in range(p) for j in range(p)
    ]
    out.write_csv("error_covariance.csv", ["i", "j", "cov", "se", "target"], cov_rows)
    return checks


def _run_weighting_gap(cfg: ExperimentConfig, root, out: _OutputDir) -> list[CheckResult]:
    params, plan = cfg.params, cfg.plan
    checks: list[CheckResult] = []
    rows = []
    for label, scheme in plan["schemes"]:  # each spec at each pair
        n, m = scheme.n, scheme.m
        gap = weighting_gap(plan["model"], scheme, plan["start"], params["reps"],
                            root.child(label, n, m))
        checks.append(CheckResult(
            f"{label}:n{n}:m{m}", gap.estimate, gap.analytic,
            params["sigmas"] * gap.se,
        ))
        rows.append([label, n, m, params["reps"], gap.estimate, gap.se, gap.analytic])
    out.write_csv(
        "weighting_gap.csv",
        ["scheme", "n", "m", "reps", "estimate", "se", "analytic"],
        rows,
    )
    return checks


def _loglog_slope(gammas, values, bounds) -> CheckResult:
    """The slope of log(values) against log(gammas), checked to lie in `bounds`."""
    slope = float(np.polyfit(np.log(gammas), np.log(values), 1)[0])
    low, high = bounds
    return CheckResult("loglog_slope", slope, (low + high) / 2.0, (high - low) / 2.0)


def _finished(trajectory):
    """The trajectory, when none of its paths diverged; else the error of the
    first to diverge, naming its process, step size and iteration."""
    if trajectory.diverged:
        r, k = next(iter(trajectory.diverged.items()))  # recorded in step order
        process = trajectory.kind
        if trajectory.states.ndim == 3:  # an ensemble
            process += f" replication {r}"
        raise DivergenceError(process, k, trajectory.config.gamma)
    return trajectory


def _run_wass_scaling(cfg: ExperimentConfig, root, out: _OutputDir) -> list[CheckResult]:
    params, plan = cfg.params, cfg.plan
    model, configs, reps = plan["model"], plan["configs"], params["reps"]
    [(_, scheme)] = plan["schemes"]
    gammas = [config.gamma for config in configs]
    # every gamma advances in lockstep; group i keeps the streams of gamma index i
    msgd = run_msgd(model, scheme, configs, [
        root.children(i, "msgd", stop=reps) for i in range(len(gammas))
    ])
    for run in msgd.runs:
        _finished(run)
    em = run_diffusion_em(model, configs, params["em_substeps"], [
        root.children(i, "em", stop=reps) for i in range(len(gammas))
    ])
    values = []
    rows = []
    for i, (gamma, msgd_run, em_run) in enumerate(zip(gammas, msgd.runs, em.runs)):
        msgd_ensemble, em_ensemble = msgd_run.states[-1], _finished(em_run).states[-1]
        sliced = sliced_w2(
            msgd_ensemble, em_ensemble, params["n_directions"], root.child(i, "directions")
        )
        by_coord = coordinate_avg_w2(msgd_ensemble, em_ensemble)
        values.append(sliced)
        rows.append([gamma, sliced, "sliced", params["n_directions"], reps])
        rows.append([gamma, by_coord, "coordinate_average", 0, reps])
    out.write_csv(
        "wass_scaling.csv", ["gamma", "w2sq", "method", "n_directions", "reps"], rows
    )
    checks = []
    worst_ratio = max(values[i + 1] / values[i] for i in range(len(values) - 1))
    checks.append(CheckResult(
        "monotone_ratio", worst_ratio, 1.0, params["slack"], comparison="le",
    ))
    checks.append(_loglog_slope(gammas, values, params["slope_range"]))
    return checks


def _quadratic_gap_recursion(gamma: float, m: int, trace: float, start: float, k: int) -> np.ndarray:
    """a_{j+1} = (1-gamma)^2 a_j + gamma^2 * trace / (2m), a_0 = start."""
    out = np.empty(k + 1)
    out[0] = start
    factor = (1.0 - gamma) ** 2
    bump = gamma**2 * trace / (2.0 * m)
    for j in range(k):
        out[j + 1] = factor * out[j] + bump
    return out


def _run_converge_quadratic(cfg, root, out: _OutputDir) -> list[CheckResult]:
    params, plan = cfg.params, cfg.plan
    model, x0, reps = plan["model"], plan["start"], params["reps"]
    [(_, scheme)] = plan["schemes"]
    m = scheme.m
    trace = model.noise_trace(model.minimizer)
    checks: list[CheckResult] = []
    for run_idx, (config, segment) in enumerate(zip(plan["configs"], plan["segments"])):
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
        runners = {
            "gaussian_sgd": run_gaussian_sgd,
            "msgd": lambda mo, co, st: run_msgd(mo, scheme, co, st),
        }
        for kind, runner in runners.items():
            curve = convergence_curve(model, runner, config, reps, root.child(run_idx, kind))
            # worst deviation from the recursion oracle in SE units; an SE
            # that overflowed bounds nothing
            dev = math.nan
            if np.all(np.isfinite(curve.g_gap_se)):
                scale = 4.0 * curve.g_gap_se + 1e-15
                dev = float(np.max(np.abs(curve.g_gap_mean - oracle) / scale))
            checks.append(CheckResult(
                f"{kind}:recursion_max_dev", dev, 1.0, 0.0, comparison="le",
            ))
            try:
                rho_hat = contraction_fit(curve.g_gap_mean[segment])
            except ValueError:  # a curve that is not positive over the window has no rate
                rho_hat = math.nan
            checks.append(CheckResult(
                f"{kind}:rho_hat", rho_hat, rho, params["rho_tolerance"],
            ))
            tail = curve.g_gap_mean[-max(steps // 4, 1):]
            checks.append(CheckResult(
                f"{kind}:plateau", float(tail.mean()), level, 0.0, comparison="le",
            ))
            out.write_csv(
                f"converge_{kind}_run{run_idx}.csv",
                ["k", "g_gap_mean", "g_gap_se", "sq_dist_mean", "sq_dist_se", "oracle"],
                [
                    [k, curve.g_gap_mean[k], curve.g_gap_se[k],
                     curve.sq_dist_mean[k], curve.sq_dist_se[k], oracle[k]]
                    for k in range(steps + 1)
                ],
            )
    return checks


def _block_means(per_rep_curves: np.ndarray, blocks: int):
    """Block means over consecutive iteration windows, with SEs across reps.

    Iterations within one replication are strongly correlated, so the SE
    must come from the spread of per-replication block means, not from
    combining per-iteration SEs.
    """
    reps, length = per_rep_curves.shape
    edges = np.linspace(0, length, blocks + 1).astype(int)
    rep_blocks = np.column_stack([
        per_rep_curves[:, a:b].mean(axis=1) for a, b in zip(edges[:-1], edges[1:])
    ])
    means = rep_blocks.mean(axis=0)
    errs = rep_blocks.std(axis=0, ddof=1) / math.sqrt(reps)
    return means, errs


def _run_converge_logistic(cfg, root, out: _OutputDir) -> list[CheckResult]:
    params, plan = cfg.params, cfg.plan
    reps, blocks = params["reps"], params["blocks"]
    [(_, scheme)] = plan["schemes"]
    checks: list[CheckResult] = []
    for run_idx, (config, segment) in enumerate(zip(plan["configs"], plan["segments"])):
        steps = config.num_steps
        rho_hats = []
        for kappa_idx, dataset in enumerate(plan["datasets"]):
            kappa = dataset.kappa
            curve = convergence_curve(
                make_logistic_model(dataset), lambda mo, co, st: run_msgd(mo, scheme, co, st),
                config, reps, root.child(run_idx, kappa_idx), reference=np.zeros(dataset.dim),
            )
            mse, mse_se = curve.sq_dist_mean, curve.sq_dist_se
            label = f"run{run_idx}:kappa{kappa:g}"
            means, errs = _block_means(curve.sq_dist_reps, blocks)
            worst = max(
                means[j + 1] - means[j] - 2.0 * math.hypot(errs[j], errs[j + 1])
                for j in range(blocks - 1)
            )
            checks.append(CheckResult(
                f"{label}:block_decrease", worst, 0.0, 0.0, comparison="le",
            ))
            checks.append(CheckResult(
                f"{label}:tail_below_start", means[-1], 0.5 * means[0], 0.0, comparison="le",
            ))
            # flat up to noise plus 5% of the plateau level itself
            slack = 2.0 * math.hypot(errs[-1], errs[-2]) + 0.05 * means[-1]
            plateau_gap = abs(means[-1] - means[-2]) - slack
            checks.append(CheckResult(
                f"{label}:plateau_flat", plateau_gap, 0.0, 0.0, comparison="le",
            ))
            rho_hat, rho_se = contraction_fit_jackknife(curve.sq_dist_reps[:, segment])
            rho_hats.append((kappa, rho_hat, rho_se))
            out.write_csv(
                f"mse_run{run_idx}_kappa{kappa_idx}.csv",
                ["k", "mse_mean", "mse_se"],
                [[k, mse[k], mse_se[k]] for k in range(steps + 1)],
            )
        for (k_hi, r_hi, s_hi), (k_lo, r_lo, s_lo) in zip(rho_hats, rho_hats[1:]):
            margin = 2.0 * math.hypot(s_hi, s_lo)
            checks.append(CheckResult(
                f"run{run_idx}:rho_order:kappa{k_hi:g}<=kappa{k_lo:g}",
                r_hi - r_lo, 0.0, margin, comparison="le",
            ))
        out.write_csv(
            f"rho_hats_run{run_idx}.csv",
            ["kappa", "rho_hat", "rho_hat_se"],
            [[k, r, s] for k, r, s in rho_hats],
        )
    return checks


def _run_converge(cfg: ExperimentConfig, root, out: _OutputDir) -> list[CheckResult]:
    if cfg.params["model"]["kind"] == "quadratic":
        return _run_converge_quadratic(cfg, root, out)
    return _run_converge_logistic(cfg, root, out)


def _run_gd_ode(cfg: ExperimentConfig, root, out: _OutputDir) -> list[CheckResult]:
    params, plan = cfg.params, cfg.plan
    model, configs = plan["model"], plan["configs"]
    horizon = params["horizon"]
    L = model.lipschitz_grad
    gammas = [config.gamma for config in configs]
    # every gamma advances in lockstep; the ODE records its state at each multiple of gamma
    gd = run_gd(model, configs)
    ode = run_ode(model, configs, params["ode_substeps"])
    # after the runs, which report a start too far out as a divergence instead
    grad0 = float(np.linalg.norm(model.grad_objective(plan["start"])))
    rows = []
    final_errors = []
    checks: list[CheckResult] = []
    for gamma, config, gd_run, ode_run in zip(gammas, configs, gd.runs, ode.runs):
        steps = config.num_steps
        gd_run, ode_run = _finished(gd_run), _finished(ode_run)
        errors = np.array([
            np.linalg.norm(gd_run.states[k] - ode_run.states[k]) for k in range(steps + 1)
        ])
        bound = grad0 * math.exp(L * horizon) * steps * gamma * gamma * (1 + L * gamma) ** steps
        checks.append(CheckResult(
            f"bound_gamma{gamma:g}", float(errors.max()), bound, 0.0, comparison="le",
        ))
        final_errors.append(float(errors[-1]))
        rows.append([gamma, float(errors.max()), bound, float(errors[-1])])
    out.write_csv("gd_ode.csv", ["gamma", "max_error", "bound", "final_error"], rows)
    checks.append(_loglog_slope(gammas, final_errors, params["slope_range"]))
    return checks


_RUNNERS = {
    "weights-moments": _run_weights_moments,
    "clt": _run_clt,
    "weighting-gap": _run_weighting_gap,
    "wass-scaling": _run_wass_scaling,
    "converge": _run_converge,
    "gd-ode": _run_gd_ode,
}


def run_experiment(config: ExperimentConfig, out_dir, threads: int = 1) -> ExperimentReport:
    """Execute one validated config, writing CSV artifacts and report.json.

    ``threads`` is accepted and ignored, for callers written when
    replications could run on a thread pool.
    """
    out = _OutputDir(out_dir, config)
    root = derive_stream(config.seed, (config.command,))
    checks = _RUNNERS[config.command](config, root, out)
    report = ExperimentReport(
        command=config.command,
        seed=config.seed,
        config=config.raw,
        resolved=config.params,
        checks=checks,
    )
    out.write_report(report)
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
        raw = Path(args.config).read_text()
    except OSError as exc:
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
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
