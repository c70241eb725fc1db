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

Configs are strict JSON: unknown keys are rejected and every violation is
reported with the offending key.  Given the same config and seed, outputs
are byte-identical: every replication draws from a stream derived from its
own index, and reductions happen in index order, whatever chunk of
replications a step draws and reduces together.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import (
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
    ks_normality,
    plateau_bound,
    sliced_w2,
    weighting_gap,
)
from .weights import (
    GAUSSIAN_BASES,
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
    command: str
    seed: int
    params: dict
    raw: dict


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
# config validation
# ----------------------------------------------------------------------

_SCHEME_KEYS = {"kind": str, "base": str}
_MODEL_KEYS = {"kind": str, "p": int, "s": (int, float), "theta_star": list, "t": int}

_COMMAND_KEYS: dict[str, dict] = {
    "weights-moments": {
        "n": int, "m": int, "reps": int, "schemes": list, "thresholds": dict,
    },
    "clt": {
        "n": int, "m": int, "samples": int, "p": int, "scheme": dict,
        "bins": int, "ks_threshold": (int, float), "cov_sigmas": (int, float),
    },
    "weighting-gap": {
        "pairs": list, "reps": int, "schemes": list, "model": dict,
        "theta": list, "sigmas": (int, float),
    },
    "wass-scaling": {
        "gammas": list, "reps": int, "n": int, "m": int, "horizon": (int, float),
        "scheme": dict, "model": dict, "em_substeps": int, "n_directions": int,
        "x0": list, "slack": (int, float), "slope_range": list,
    },
    "converge": {
        "model": dict, "scheme": dict, "n": int, "m": int, "reps": int,
        "runs": list, "kappas": list, "x0": list,
        "rho_tolerance": (int, float), "blocks": int,
    },
    "gd-ode": {
        "gammas": list, "x0": list, "horizon": (int, float), "ode_substeps": int,
        "slope_range": list, "model": dict,
    },
}

_DEFAULTS: dict[str, dict] = {
    "weights-moments": {
        "schemes": [{"kind": "minibatch"}, {"kind": "gaussian"}, {"kind": "dirichlet"}],
        "thresholds": {"mean_sigmas": 4, "var_sigmas": 4, "cov_sigmas": 4, "sumsq_sigmas": 3},
    },
    "clt": {
        "p": 1,
        "scheme": {"kind": "dirichlet"},
        "bins": 50,
        "ks_threshold": 0.03,
        "cov_sigmas": 4,
    },
    "weighting-gap": {
        "schemes": [{"kind": "minibatch"}, {"kind": "gaussian"}, {"kind": "dirichlet"}],
        "model": {"kind": "quadratic", "p": 2, "s": 1.0},
        "sigmas": 3,
    },
    "wass-scaling": {
        "n": 512, "m": 64, "horizon": 1.0,
        "scheme": {"kind": "gaussian"},
        "model": {"kind": "quadratic", "p": 2, "s": 1.0},
        "em_substeps": 50, "n_directions": 128,
        "slack": 0.1, "slope_range": [0.8, 2.2],
    },
    "converge": {
        "scheme": {"kind": "gaussian"},
        "rho_tolerance": 0.02,
        "blocks": 8,
    },
    "gd-ode": {
        "horizon": 1.0, "ode_substeps": 20, "slope_range": [0.8, 1.2],
        "model": {"kind": "quadratic", "p": 1, "s": 1.0, "theta_star": [0.0]},
    },
}


def _check_keys(obj: dict, allowed: dict, where: str, diags: list[str]) -> None:
    for key, value in obj.items():
        if key not in allowed:
            diags.append(f"{where}: unknown key {key!r}")
            continue
        expected = allowed[key]
        if not isinstance(value, expected) or isinstance(value, bool):
            names = (
                expected.__name__
                if isinstance(expected, type)
                else "/".join(t.__name__ for t in expected)
            )
            diags.append(f"{where}.{key}: expected {names}, got {type(value).__name__}")


def _check_scheme(spec, where: str, diags: list[str], sizes=()) -> None:
    """A weight-scheme object, and the ``WeightScheme`` it makes at each
    valid (n, m) in `sizes`, whose own rules (such as Dirichlet's
    2 <= m < n) are reported against `where`."""
    if not isinstance(spec, dict):
        diags.append(f"{where}: expected an object, got {type(spec).__name__}")
        return
    _check_keys(spec, _SCHEME_KEYS, where, diags)
    kind = spec.get("kind")
    if kind not in SCHEME_KINDS:
        diags.append(f"{where}.kind: expected minibatch/gaussian/dirichlet, got {kind!r}")
        return
    if "base" in spec and spec["base"] not in GAUSSIAN_BASES:
        diags.append(f"{where}.base: expected normal/rademacher/uniform, got {spec['base']!r}")
        return
    for n, m in sizes:
        try:
            _scheme_from_spec(spec, n, m)
        except ValueError as exc:
            diags.append(f"{where}: {exc}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_gamma(value, where: str, diags: list[str]) -> None:
    if not _is_number(value) or not 0 < value < 1:
        diags.append(f"{where}: step size must satisfy 0 < gamma < 1, got {value!r}")


def _check_vector(value, dim, where: str, diags: list[str]) -> None:
    """A point of the model's space: a list of ``dim`` numbers."""
    if value is None or not isinstance(dim, int):
        return
    if not (isinstance(value, list) and len(value) == dim and all(map(_is_number, value))):
        diags.append(f"{where}: expected a list of p={dim} numbers, got {value!r}")


def _check_nonempty(resolved: dict, key: str, command: str, diags: list[str]) -> None:
    if isinstance(resolved.get(key), list) and not resolved[key]:
        diags.append(f"{command}.{key}: must not be empty")


def _check_slope_gammas(resolved: dict, command: str, diags: list[str]) -> None:
    """A log-log slope needs at least two distinct step sizes."""
    gammas = resolved["gammas"]
    if isinstance(gammas, list) and len({g for g in gammas if isinstance(g, (int, float))}) < 2:
        diags.append(f"{command}.gammas: need at least 2 distinct step sizes for the slope fit")


def _merge_defaults(command: str, raw: dict) -> dict:
    resolved = dict(_DEFAULTS.get(command, {}))
    for key, value in raw.items():
        if key in ("command", "seed"):
            continue
        resolved[key] = value
    return resolved


def validate_config(raw, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and strictly validate a config (JSON text or dict).

    Every violation is collected and raised as a :class:`ConfigError`
    naming the offending key.
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
    if command not in COMMANDS:
        raise ConfigError([f"command: expected one of {sorted(COMMANDS)}, got {command!r}"])

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        diags.append("seed: required (in the config or via --seed)")
    elif not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        diags.append(f"seed: expected a 64-bit unsigned integer, got {seed!r}")

    allowed = dict(_COMMAND_KEYS[command])
    allowed["command"] = str
    allowed["seed"] = int
    allowed["out"] = str  # default output directory; the --out flag wins
    _check_keys(raw, allowed, command, diags)

    resolved = _merge_defaults(command, raw)
    try:
        _validate_command(command, resolved, diags)
    except TypeError:
        # a wrong-typed value was already diagnosed by name above
        if not diags:
            raise
    if diags:
        raise ConfigError(diags)
    return ExperimentConfig(command=command, seed=int(seed), params=resolved, raw=dict(raw))


def _require(resolved: dict, keys: list[str], command: str, diags: list[str]) -> bool:
    missing = [key for key in keys if key not in resolved]
    for key in missing:
        diags.append(f"{command}.{key}: required")
    return not missing


def _validate_nm(resolved: dict, command: str, diags: list[str]) -> list[tuple[int, int]]:
    """[(n, m)] when both are integers with 1 <= m <= n, else [] (diagnosed
    when both are integers)."""
    n, m = resolved.get("n"), resolved.get("m")
    if not (isinstance(n, int) and isinstance(m, int)):
        return []
    if not 1 <= m <= n:
        diags.append(f"{command}: need 1 <= m <= n, got m={m}, n={n}")
        return []
    return [(n, m)]


def _validate_model(spec, where: str, diags: list[str], kinds=("quadratic", "logistic")) -> None:
    if not isinstance(spec, dict):
        diags.append(f"{where}: expected an object")
        return
    _check_keys(spec, _MODEL_KEYS, where, diags)
    kind = spec.get("kind")
    if kind not in kinds:
        diags.append(f"{where}.kind: expected one of {list(kinds)}, got {kind!r}")
        return
    if kind == "quadratic":
        if spec.get("s", 1.0) <= 0:
            diags.append(f"{where}.s: must be positive")
        if spec.get("p", 1) < 1:
            diags.append(f"{where}.p: must be >= 1")
        else:
            _check_vector(spec.get("theta_star"), spec.get("p", 1), f"{where}.theta_star", diags)
    if kind == "logistic":
        if "t" not in spec or "p" not in spec:
            diags.append(f"{where}: logistic model needs p and t")


def _model_dim(spec):
    """The model dimension p a config's points must have, when it is known."""
    if isinstance(spec, dict):
        return spec.get("p", 1 if spec.get("kind") == "quadratic" else None)
    return None


def _check_at_least(resolved: dict, key: str, low: int, command: str, diags: list[str]) -> None:
    if _is_number(resolved.get(key)) and resolved[key] < low:
        diags.append(f"{command}.{key}: must be >= {low}")


def _validate_step_grid(resolved: dict, command: str, diags: list[str]) -> None:
    """Step sizes that each divide a positive horizon, and the slope range
    their log-log fit is checked against."""
    _check_slope_gammas(resolved, command, diags)
    horizon = resolved["horizon"]
    if _is_number(horizon) and not horizon > 0:
        diags.append(f"{command}.horizon: must be positive")
    for i, gamma in enumerate(resolved["gammas"]):
        _check_gamma(gamma, f"gammas[{i}]", diags)
        if _is_number(gamma) and 0 < gamma < 1:
            steps = horizon / gamma
            if abs(steps - round(steps)) > 1e-9:
                diags.append(f"gammas[{i}]: horizon must be a multiple of gamma")
    bounds = resolved["slope_range"]
    if not (
        isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_number, bounds))
        and bounds[0] < bounds[1]
    ):
        diags.append(f"{command}.slope_range: expected [low, high] with low < high, got {bounds!r}")


def _validate_command(command: str, resolved: dict, diags: list[str]) -> None:
    if command == "weights-moments":
        sizes = []
        if _require(resolved, ["n", "m", "reps"], command, diags):
            sizes = _validate_nm(resolved, command, diags)
            if resolved["reps"] < 100:
                diags.append("weights-moments.reps: must be >= 100")
        sigma_keys = {
            "mean_sigmas": (int, float), "var_sigmas": (int, float),
            "cov_sigmas": (int, float), "sumsq_sigmas": (int, float),
        }
        if isinstance(resolved["thresholds"], dict):
            _check_keys(resolved["thresholds"], sigma_keys, "thresholds", diags)
            resolved["thresholds"] = (
                _DEFAULTS["weights-moments"]["thresholds"] | resolved["thresholds"]
            )
        _check_nonempty(resolved, "schemes", command, diags)
        for i, spec in enumerate(resolved.get("schemes", [])):
            _check_scheme(spec, f"schemes[{i}]", diags, sizes)

    elif command == "clt":
        sizes = []
        if _require(resolved, ["n", "m", "samples"], command, diags):
            sizes = _validate_nm(resolved, command, diags)
            if resolved["samples"] < 100:
                diags.append("clt.samples: must be >= 100")
        _check_scheme(resolved["scheme"], "scheme", diags, sizes)
        if resolved["bins"] < 1:
            diags.append("clt.bins: must be >= 1")
        _check_at_least(resolved, "p", 1, command, diags)

    elif command == "weighting-gap":
        sizes = []
        if _require(resolved, ["pairs", "reps"], command, diags):
            if resolved["reps"] < 1000:
                diags.append("weighting-gap.reps: must be >= 1000")
            _check_nonempty(resolved, "pairs", command, diags)
            for i, pair in enumerate(resolved["pairs"]):
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(isinstance(v, int) for v in pair)
                    or not 1 <= pair[1] <= pair[0]
                ):
                    diags.append(f"pairs[{i}]: expected [n, m] with 1 <= m <= n, got {pair!r}")
                else:
                    sizes.append(tuple(pair))
        _check_nonempty(resolved, "schemes", command, diags)
        for i, spec in enumerate(resolved.get("schemes", [])):
            _check_scheme(spec, f"schemes[{i}]", diags, sizes)
        _validate_model(resolved["model"], "model", diags, kinds=("quadratic",))
        _check_vector(resolved.get("theta"), _model_dim(resolved["model"]), "weighting-gap.theta", diags)

    elif command == "wass-scaling":
        if _require(resolved, ["gammas", "reps"], command, diags):
            _validate_step_grid(resolved, command, diags)
            _check_at_least(resolved, "reps", 1, command, diags)
        _check_at_least(resolved, "n_directions", 1, command, diags)
        _check_scheme(resolved["scheme"], "scheme", diags, _validate_nm(resolved, command, diags))
        _validate_model(resolved["model"], "model", diags, kinds=("quadratic",))
        _check_vector(resolved.get("x0"), _model_dim(resolved["model"]), "wass-scaling.x0", diags)
        if resolved["em_substeps"] < 1:
            diags.append("wass-scaling.em_substeps: must be >= 1")

    elif command == "converge":
        if not _require(resolved, ["model", "n", "m", "reps", "runs"], command, diags):
            return
        _validate_model(resolved["model"], "model", diags)
        _check_vector(resolved.get("x0"), _model_dim(resolved["model"]), "converge.x0", diags)
        _check_scheme(resolved["scheme"], "scheme", diags, _validate_nm(resolved, command, diags))
        model_kind = resolved["model"].get("kind") if isinstance(resolved["model"], dict) else None
        # logistic block SEs are spreads across replications, so they need two
        _check_at_least(resolved, "reps", 2 if model_kind == "logistic" else 1, command, diags)
        _check_nonempty(resolved, "runs", command, diags)
        for i, run in enumerate(resolved["runs"]):
            if not isinstance(run, dict):
                diags.append(f"runs[{i}]: expected an object")
                continue
            _check_keys(
                run,
                {"gamma": (int, float), "num_steps": int, "fit_burn_in": int, "fit_window": int},
                f"runs[{i}]",
                diags,
            )
            if "gamma" not in run or "num_steps" not in run:
                diags.append(f"runs[{i}]: needs gamma and num_steps")
            else:
                _check_gamma(run["gamma"], f"runs[{i}].gamma", diags)
        if model_kind == "logistic":
            # block means compare consecutive windows of the num_steps + 1 iterates
            if resolved["blocks"] < 2:
                diags.append("converge.blocks: must be >= 2")
            for i, run in enumerate(resolved["runs"]):
                steps = run.get("num_steps") if isinstance(run, dict) else None
                if isinstance(steps, int) and steps + 1 < resolved["blocks"]:
                    diags.append(f"runs[{i}].num_steps: needs num_steps + 1 >= blocks")
            if "kappas" not in resolved:
                diags.append("converge.kappas: required for the logistic model")
            else:
                _check_nonempty(resolved, "kappas", command, diags)
                for i, kappa in enumerate(resolved["kappas"]):
                    if not isinstance(kappa, (int, float)) or kappa <= 0:
                        diags.append(f"kappas[{i}]: must be a positive number")
        elif "kappas" in resolved:
            diags.append("converge.kappas: only valid for the logistic model")

    elif command == "gd-ode":
        if _require(resolved, ["gammas"], command, diags):
            _validate_step_grid(resolved, command, diags)
        _validate_model(resolved["model"], "model", diags, kinds=("quadratic",))
        _check_vector(resolved.get("x0"), _model_dim(resolved["model"]), "gd-ode.x0", diags)
        if resolved["ode_substeps"] < 10:
            diags.append("gd-ode.ode_substeps: must be >= 10 (inner step h <= gamma/10)")


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


def _scheme_from_spec(spec: dict, n: int, m: int) -> WeightScheme:
    return WeightScheme(kind=spec["kind"], n=n, m=m, base=spec.get("base", "normal"))


def _scheme_label(spec: dict) -> str:
    if spec["kind"] == "gaussian":
        return f"gaussian[{spec.get('base', 'normal')}]"
    return spec["kind"]


def _model_from_spec(spec: dict):
    if spec["kind"] == "quadratic":
        p = spec.get("p", 1)
        theta_star = np.asarray(spec.get("theta_star", np.zeros(p)), dtype=float)
        return make_quadratic_model(p, theta_star, float(spec.get("s", 1.0)))
    raise ValueError(f"unsupported model spec {spec!r}")


# ----------------------------------------------------------------------
# command runners
# ----------------------------------------------------------------------


def _run_weights_moments(cfg: ExperimentConfig, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    n, m, reps = params["n"], params["m"], params["reps"]
    thresholds = params["thresholds"]
    root = derive_stream(cfg.seed, ("weights-moments",))
    diag, offdiag = sigma_entries(n, m)
    checks: list[CheckResult] = []
    rows = []
    for spec in params["schemes"]:
        label = _scheme_label(spec)
        scheme = _scheme_from_spec(spec, n, m)
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
            report.m32_sum_cube_mean, report.m32_sum_cube_se,
        ])
    out.write_csv(
        "weight_moments.csv",
        ["scheme", "n", "m", "reps",
         "mean", "mean_se", "mean_target",
         "var", "var_se", "var_target",
         "cov", "cov_se", "cov_target",
         "m_sum_sq", "m_sum_sq_se", "m32_sum_cube", "m32_sum_cube_se"],
        rows,
    )
    return checks


def _run_clt(cfg: ExperimentConfig, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    n, m, count, p = params["n"], params["m"], params["samples"], params["p"]
    model = make_uniform_clt_model(p)
    scheme = _scheme_from_spec(params["scheme"], n, m)
    root = derive_stream(cfg.seed, ("clt",))
    sample_set = clt_error_samples(model, scheme, np.zeros(p), count, root.child("samples"))
    target_var = 1.0 / 3.0  # Var Unif(-1, 1)
    checks: list[CheckResult] = []
    for j in range(p):
        stat, _ = ks_normality(sample_set.samples[:, j], target_var)
        checks.append(CheckResult(
            f"ks_coord{j + 1}", stat, 0.0, params["ks_threshold"], comparison="le",
        ))
        out.write_csv(
            f"hist_coord{j + 1}.csv",
            ["bin_left", "bin_right", "count"],
            histogram_rows(sample_set.samples[:, j], params["bins"]),
        )
    cov, cov_se = covariance_with_se(sample_set.samples)
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


def _run_weighting_gap(cfg: ExperimentConfig, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    model = _model_from_spec(params["model"])
    theta = np.asarray(params.get("theta", np.ones(model.dim)), dtype=float)
    root = derive_stream(cfg.seed, ("weighting-gap",))
    checks: list[CheckResult] = []
    rows = []
    for spec in params["schemes"]:
        label = _scheme_label(spec)
        for n, m in params["pairs"]:
            scheme = _scheme_from_spec(spec, n, m)
            gap = weighting_gap(model, scheme, theta, params["reps"], root.child(label, n, m))
            checks.append(CheckResult(
                f"{label}:n{n}:m{m}", gap.estimate, gap.analytic,
                params["sigmas"] * gap.se,
            ))
            rows.append([label, n, m, gap.reps, gap.estimate, gap.se, gap.analytic])
    out.write_csv(
        "weighting_gap.csv",
        ["scheme", "n", "m", "reps", "estimate", "se", "analytic"],
        rows,
    )
    return checks


def _final_states(trajectory) -> np.ndarray:
    """The (R, p) ensemble at the horizon; a diverged replication is an error."""
    if trajectory.diverged:
        r, k = next(iter(trajectory.diverged.items()))  # recorded in step order
        raise DivergenceError(f"{trajectory.kind} replication {r}", k)
    return trajectory.states[-1]


def _run_wass_scaling(cfg: ExperimentConfig, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    model = _model_from_spec(params["model"])
    n, m = params["n"], params["m"]
    horizon = params["horizon"]
    reps = params["reps"]
    scheme = _scheme_from_spec(params["scheme"], n, m)
    x0 = np.asarray(params.get("x0", np.ones(model.dim)), dtype=float)
    root = derive_stream(cfg.seed, ("wass-scaling",))
    gammas = sorted(params["gammas"], reverse=True)
    values = []
    rows = []
    for i, gamma in enumerate(gammas):
        config = RunConfig(
            gamma=gamma, num_steps=int(round(horizon / gamma)), m=m, n=n, x0=x0
        )
        msgd_ensemble = _final_states(run_msgd(
            model, scheme, config, root.children(i, "msgd", stop=reps)
        ))
        em_ensemble = _final_states(run_diffusion_em(
            model, config, params["em_substeps"], root.children(i, "em", stop=reps)
        ))
        estimate = sliced_w2(
            msgd_ensemble, em_ensemble, params["n_directions"], root.child(i, "directions")
        )
        by_coord = coordinate_avg_w2(msgd_ensemble, em_ensemble)
        values.append(estimate.value)
        rows.append([gamma, estimate.value, estimate.method, params["n_directions"], reps])
        rows.append([gamma, by_coord.value, by_coord.method, 0, reps])
    out.write_csv(
        "wass_scaling.csv", ["gamma", "w2sq", "method", "n_directions", "reps"], rows
    )
    checks = []
    worst_ratio = max(
        values[i + 1] / values[i] for i in range(len(values) - 1)
    ) if len(values) > 1 else 0.0
    checks.append(CheckResult(
        "monotone_ratio", worst_ratio, 1.0, params["slack"], comparison="le",
    ))
    slope = float(np.polyfit(np.log(gammas), np.log(values), 1)[0])
    low, high = params["slope_range"]
    checks.append(CheckResult(
        "loglog_slope", slope, (low + high) / 2.0, (high - low) / 2.0,
    ))
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


def _run_converge_quadratic(cfg, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    model = _model_from_spec(params["model"])
    n, m, reps = params["n"], params["m"], params["reps"]
    scheme = _scheme_from_spec(params["scheme"], n, m)
    x0 = np.asarray(params.get("x0", np.ones(model.dim)), dtype=float)
    root = derive_stream(cfg.seed, ("converge",))
    trace = model.noise_trace(model.minimizer)
    checks: list[CheckResult] = []
    for run_idx, run in enumerate(params["runs"]):
        gamma, steps = run["gamma"], run["num_steps"]
        config = RunConfig(gamma=gamma, num_steps=steps, m=m, n=n, x0=x0)
        oracle = _quadratic_gap_recursion(
            gamma, m, trace, model.objective(x0) - model.objective(model.minimizer), steps
        )
        rho = contraction_bound(
            lam=model.strong_convexity, gamma=gamma, L=model.lipschitz_grad,
            L1=model.lipschitz_noise, p=model.dim, m=m,
        ).rho_bound
        level = plateau_bound(
            model.strong_convexity, gamma, model.lipschitz_grad, m, trace
        )
        runners = {
            "gaussian_sgd": run_gaussian_sgd,
            "msgd": lambda mo, co, st: run_msgd(mo, scheme, co, st),
        }
        for kind, runner in runners.items():
            curve = convergence_curve(model, runner, config, reps, root.child(run_idx, kind))
            # worst deviation from the recursion oracle in SE units
            dev = np.abs(curve.g_gap_mean - oracle) / (4.0 * curve.g_gap_se + 1e-15)
            checks.append(CheckResult(
                f"{kind}:recursion_max_dev", float(dev.max()), 1.0, 0.0, comparison="le",
            ))
            rho_hat = contraction_fit(
                curve.g_gap_mean, run.get("fit_burn_in", 0), run.get("fit_window"),
            )
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


def _run_converge_logistic(cfg, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    spec = params["model"]
    p, t = spec["p"], spec["t"]
    n, m, reps = params["n"], params["m"], params["reps"]
    kappas = sorted(params["kappas"], reverse=True)
    root = derive_stream(cfg.seed, ("converge",))
    base = generate_logistic_dataset(root.child("dataset"), p, t, kappa=kappas[0])
    x0 = np.asarray(params.get("x0", np.ones(p) / math.sqrt(p)), dtype=float)
    blocks = params["blocks"]
    checks: list[CheckResult] = []
    for run_idx, run in enumerate(params["runs"]):
        gamma, steps = run["gamma"], run["num_steps"]
        config = RunConfig(gamma=gamma, num_steps=steps, m=m, n=n, x0=x0)
        rho_hats = []
        for kappa_idx, kappa in enumerate(kappas):
            dataset = LogisticDataset(base.labels, base.covariates, kappa)
            model = make_logistic_model(dataset)
            scheme = _scheme_from_spec(params["scheme"], n, m)

            def runner(mo, co, st, scheme=scheme):
                return run_msgd(mo, scheme, co, st)

            curve = convergence_curve(
                model, runner, config, reps,
                root.child(run_idx, kappa_idx),
                reference=(np.zeros(p), 0.0),
                track_objective=False,
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
            rho_hat, rho_se = contraction_fit_jackknife(
                curve.sq_dist_reps, run.get("fit_burn_in", 0), run.get("fit_window"),
            )
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


def _run_converge(cfg: ExperimentConfig, out: _OutputDir) -> list[CheckResult]:
    if cfg.params["model"]["kind"] == "quadratic":
        return _run_converge_quadratic(cfg, out)
    return _run_converge_logistic(cfg, out)


def _run_gd_ode(cfg: ExperimentConfig, out: _OutputDir) -> list[CheckResult]:
    params = cfg.params
    model = _model_from_spec(params["model"])
    x0 = np.asarray(params.get("x0", np.ones(model.dim)), dtype=float)
    horizon = params["horizon"]
    L = model.lipschitz_grad
    grad0 = float(np.linalg.norm(model.grad_objective(x0)))
    gammas = sorted(params["gammas"], reverse=True)
    rows = []
    final_errors = []
    checks: list[CheckResult] = []
    for gamma in gammas:
        steps = int(round(horizon / gamma))
        config = RunConfig(gamma=gamma, num_steps=steps, m=1, n=1, x0=x0)
        gd = run_gd(model, config)
        ode = run_ode(model, x0, gamma / params["ode_substeps"], horizon)
        errors = np.array([
            np.linalg.norm(gd.states[k] - ode.state_at_time(k * gamma))
            for k in range(steps + 1)
        ])
        bound = grad0 * math.exp(L * horizon) * steps * gamma * gamma * (1 + L * gamma) ** steps
        checks.append(CheckResult(
            f"bound_gamma{gamma:g}", float(errors.max()), bound, 0.0, comparison="le",
        ))
        final_errors.append(float(errors[-1]))
        rows.append([gamma, float(errors.max()), bound, float(errors[-1])])
    out.write_csv("gd_ode.csv", ["gamma", "max_error", "bound", "final_error"], rows)
    slope = float(np.polyfit(np.log(gammas), np.log(final_errors), 1)[0])
    low, high = params["slope_range"]
    checks.append(CheckResult("loglog_slope", slope, (low + high) / 2.0, (high - low) / 2.0))
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
    checks = _RUNNERS[config.command](config, out)
    echo = {k: v for k, v in config.params.items()}
    report = ExperimentReport(
        command=config.command,
        seed=config.seed,
        config=config.raw,
        resolved=json.loads(json.dumps(echo, sort_keys=True, default=_json_default)),
        checks=checks,
    )
    out.write_report(report)
    return report


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)}")


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
    report = run_experiment(config, out_dir)
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
