"""Verdict benchmark for msgdlab.

    python3 verdictbench/run.py --workload sampling --seed 20260808 --seconds 30 --trace 0

Run from the repository root.  Workloads are defined in ``workloads.py``.
The loop is closed with one client: a config starts only after the previous
one has written its verdict.  Workers are fresh interpreters with one thread
(BLAS threads pinned to 1).

``--trace 0`` times the workload at its timing scale (``TIMING_SCALE``).
One worker runs rounds for ``--seconds``; a round runs every config once, and
the rounds cycle through ``TIMING_SETS`` seeds derived from ``--seed``.  Next
to each config run the worker times a fixed reference kernel that does not
call msgdlab (``worker.reference``), before and after, and each config time
is divided by the mean of the two.  A shared host changes the speed it
gives a process, by up to 2x on the 2-vCPU VM this was written on, in
phases of seconds to minutes; the reference slows with it, so the ratio
spreads a third to a fifth as much as raw seconds do across runs.
The end-to-end metrics:

* ``setup_s``: set-up time of a fresh interpreter importing msgdlab and
  validating the workload's configs, at reference speed: each of
  ``SETUP_PROBES`` probes (half before the timed worker, half after) divides
  its time to ready by the reference kernel's time in the same interpreter
  just after, and the median ratio is scaled by ``REF_NOMINAL_S``, the
  reference's time in the fast phases of the VM this was written on.  The
  measured median in seconds is printed as ``setup_raw_s``;
* ``wall_ref`` / ``cpu_ref``: one round's wall / CPU time in reference units,
  the sum over configs of the median over rounds of the config's time over
  the reference's (1 ref took 10 to 22 ms on one vCPU of a 2-vCPU Xeon VM);
* ``reps_per_ref``: Monte Carlo replications of one round per ``wall_ref``;
* ``peak_rss_mb``: the timed worker's ``ru_maxrss``;
* ``check_pass_frac``: passing checks over the checks expected, over the
  first round of every seed (a config that raises, or reports fewer checks
  than at the benchmark's baseline, counts every expected check as failed).

The same round times in seconds, and the reference's own time, are printed
after them and kept in the summary, not gated.

``--trace 1`` runs the workload once at its verdict scale (``WORKLOADS``) at
``--seed``, untraced and then traced in a second worker, and prints the
per-layer metrics of the traced pass (see ``tracer.py``), each module's
share of the traced self time, the verdict failure fraction, and the tracing
overhead (traced over untraced wall time, minus 1; the host's speed changes
move it by tens of percent either way).  The
two passes must write identical artifacts.

Every report is graded: a config fails its verdict when it raises, reports
fewer checks than at the baseline, or its ``overall_pass`` is false.
``attempted`` counts config runs, ``failed`` the runs of configs that raised
or wrote an incomplete report.  ``correct`` is false when any run failed, a
report's verdict contradicts its own checks, a listed artifact is missing, a
repeated round wrote other artifact bytes than the first round of its seed,
or the traced pass wrote other bytes than the untraced one.  Failing verdicts
are printed by check name; they are findings, not errors.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A summary with run metadata, every timing and
per-config artifact digests is written to ``.verdictbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import TARGETS  # noqa: E402
from worker import digest  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, TIMING_SCALE, WORKLOADS, build_inputs, timing_seeds,
)

SETUP_PROBES = 8  # half before the timed worker, half after
REF_NOMINAL_S = 0.012  # the reference kernel's time that setup_s is scaled to
TIMING_SETS = 8
RUN_BUDGET_S = 170.0
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

DYNAMICS = ("msgd", "gaussian_sgd", "diffusion_em", "gd", "ode")
STATS = (
    "clt_error_samples", "convergence_curve", "sliced_w2",
    "coordinate_avg_w2", "ks_normality", "contraction_fit",
    "contraction_fit_jackknife", "covariance_with_se",
)
MODULES = ("numerics", "weights", "models", "dynamics", "stats", "cli")
MODEL_CALLS = ("sample_data", "grad_loss", "grad_objective", "noise_factor", "objective")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _check_passes(check: dict):
    """Recompute one check's verdict from its numbers; None if unknown."""
    observed, target, tol = check.get("observed"), check.get("target"), check.get("tolerance")
    if not all(isinstance(v, (int, float)) for v in (observed, target, tol)):
        return None
    if check.get("comparison") == "le":
        return observed <= target + tol
    if check.get("comparison") == "abs":
        return abs(observed - target) <= tol
    return None


def _spawn(spec: dict, work: Path, tag: str, deadline: float):
    """Run one worker; returns (seconds until it was ready, its result or None
    for a set-up probe)."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s exhausted before {tag}")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        stdout=subprocess.PIPE, text=True, env=dict(os.environ, **WORKER_ENV),
    )
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start if line.strip() == "ready" else None
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready is None or code != 0:
        raise BenchError(f"worker {tag} exited with code {code} before finishing")
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return ready, result


def _grade(inputs: list[dict], out: Path, result: dict, period: int = 1) -> list[dict]:
    """Grade one input set's reports under ``out``; ``period`` is the number of
    input sets the worker cycled through, so round r repeats round r % period."""
    outcomes = {item["name"]: item for item in result["configs"]}
    graded = []
    for item in inputs:
        name, expected = item["name"], item["baseline_checks"]
        outcome = outcomes.get(name, {"error": "not run", "wall_s": [], "digests": []})
        entry = {
            "name": name, "error": outcome["error"],
            "seconds": statistics.median(outcome["wall_s"]) if outcome["wall_s"] else 0.0,
            "repeatable": all(d == outcome["digests"][r % period]
                              for r, d in enumerate(outcome["digests"])),
            "checks": 0, "passed_checks": 0, "expected_checks": expected,
            "failing": [], "consistent": True, "digest": None, "files": 0, "bytes": 0,
            "replications": item["replications"],
        }
        directory = out / name
        report_path = directory / "report.json"
        report = None
        if outcome["error"] is None and report_path.is_file():
            try:
                report = json.loads(report_path.read_text())
            except ValueError:
                entry["error"] = "unreadable report.json"
        if report is not None:
            checks = report.get("checks", [])
            passes = [bool(c.get("pass")) for c in checks]
            entry["checks"] = len(checks)
            entry["passed_checks"] = sum(passes)
            entry["expected_checks"] = max(expected, len(checks))
            entry["failing"] = [c.get("name") for c, ok in zip(checks, passes) if not ok]
            entry["overall_pass"] = bool(report.get("overall_pass"))
            recomputed = [_check_passes(c) for c in checks]
            entry["consistent"] = (
                not (entry["overall_pass"] and not all(passes))
                and all(r is None or r == ok for r, ok in zip(recomputed, passes))
                and all((directory / f).is_file() for f in report.get("files", []))
            )
            files = [p for p in directory.rglob("*") if p.is_file()]
            entry["files"] = len(files)
            entry["bytes"] = sum(p.stat().st_size for p in files)
            entry["digest"] = digest(directory)
        elif entry["error"] is None:
            entry["error"] = "no report.json written"
        entry["op_failed"] = entry["error"] is not None or entry["checks"] < expected
        entry["verdict_pass"] = not entry["op_failed"] and entry.get("overall_pass", False)
        graded.append(entry)
    return graded


def _run_pass(sets: list[list[dict]], src: Path, work: Path, tag: str, trace: bool,
              deadline: float, seconds: float = 0.0, min_rounds: int = 1) -> dict:
    """One worker: rounds cycling through the input ``sets`` for ``seconds``,
    at least ``min_rounds``; every set is graded."""
    out = work / tag
    spec = {
        "src": str(src), "out": str(out), "trace": trace,
        "seconds": seconds, "min_rounds": min_rounds,
        "sets": [[{"name": i["name"], "raw": i["raw"]} for i in inputs] for inputs in sets],
    }
    _, result = _spawn(spec, work, tag, deadline)
    graded = []
    for k, inputs in enumerate(sets):
        for g in _grade(inputs, out / str(k), result, len(sets)):
            g["runs"] = len(range(k, result["rounds"], len(sets)))  # rounds that ran set k
            graded.append(g)
    shutil.rmtree(out, ignore_errors=True)
    return {"result": result, "graded": graded}


def _layer_metrics(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    trace = traced["result"]["trace"]
    totals: dict[str, list[float]] = {}
    for span in trace["spans"]:
        record = totals.setdefault(span["label"], [0, 0.0, 0.0])
        record[0] += span["count"]
        record[1] += span["total_s"]
        record[2] += span["self_s"]
    counters = trace["counters"]
    absent_targets = set(trace["absent"])
    absent = sorted({
        label for label, module, attr in TARGETS if f"{module}.{attr}" in absent_targets
    })

    def count(label):
        return totals.get(label, [0, 0.0, 0.0])[0]

    def self_s(label):
        return totals.get(label, [0, 0.0, 0.0])[2]

    def per_call_us(label, calls):
        return totals.get(label, [0, 0.0, 0.0])[1] / calls * 1e6 if calls else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("numerics.derive.count", count("numerics.derive"), "count")
    put("numerics.derive.self_s", self_s("numerics.derive"), "s")
    put("numerics.gamma.count", count("numerics.gamma"), "count")
    put("numerics.gamma.self_s", self_s("numerics.gamma"), "s")
    for scheme in ("minibatch", "gaussian", "dirichlet"):
        label = f"weights.{scheme}"
        put(f"{label}.draws", count(label), "count")
        put(f"{label}.self_s", self_s(label), "s")
        put(f"{label}.draw_us", per_call_us(label, count(label)), "us")
    put("weights.dirichlet.retries", counters.get("weights.dirichlet.retries", 0), "count")
    put("weights.moments.self_s", self_s("weights.moments"), "s")
    for call in MODEL_CALLS:
        put(f"models.{call}.calls", count(f"models.{call}"), "count")
        put(f"models.{call}.self_s", self_s(f"models.{call}"), "s")
    put("models.sample_data.rows", counters.get("models.sample_data.rows", 0), "count")
    put("models.grad_loss.rows", counters.get("models.grad_loss.rows", 0), "count")
    put("models.build.self_s", self_s("models.build"), "s")
    for runner in DYNAMICS:
        label = f"dynamics.{runner}"
        steps = counters.get(f"{label}.steps", 0)
        put(f"{label}.runs", count(label), "count")
        put(f"{label}.steps", steps, "count")
        put(f"{label}.self_s", self_s(label), "s")
        put(f"{label}.step_us", per_call_us(label, steps), "us")
    put("dynamics.diverged", counters.get("dynamics.diverged", 0), "count")
    for name in STATS:
        put(f"stats.{name}.calls", count(f"stats.{name}"), "count")
        put(f"stats.{name}.self_s", self_s(f"stats.{name}"), "s")
    put("cli.validate.self_s", self_s("cli.validate"), "s")
    put("cli.run.self_s", self_s("cli.run"), "s")
    graded = traced["graded"]
    put("cli.artifact_files", sum(g["files"] for g in graded), "count")
    put("cli.artifact_bytes", sum(g["bytes"] for g in graded), "bytes")
    verdicts = [g["verdict_pass"] for g in graded]
    put("verdict.fail_frac", 1.0 - sum(verdicts) / len(verdicts), "ratio")
    total_self = sum(record[2] for record in totals.values())
    for module in MODULES:
        module_self = sum(r[2] for label, r in totals.items() if label.startswith(module + "."))
        put(f"share.{module}", module_self / total_self if total_self else 0.0, "ratio")
    put("trace.overhead_frac", _pass_wall(traced) / _pass_wall(untraced) - 1.0, "ratio")
    put("trace.spans", sum(count(label) for label in totals), "count")
    return metrics, absent


def _pass_wall(one: dict) -> float:
    """Wall seconds of a single-round pass."""
    return sum(c["wall_s"][0] for c in one["result"]["configs"])


def _per_round(configs: list[dict], key: str, ref: str = "") -> float:
    """Sum over configs of the median over rounds of ``key`` (divided, round by
    round, by ``ref``): one round's time with the host's speed changes
    between rounds damped out."""
    return sum(
        statistics.median(
            [t / r for t, r in zip(c[key], c[ref])] if ref else c[key]
        )
        for c in configs
    )


def _end_to_end(setup: list[tuple], timed: dict, sets: int) -> tuple[dict, dict]:
    """The gated metrics, and the raw times printed beside them.  ``setup``
    holds (seconds to ready, probe result) per set-up probe."""
    configs = timed["result"]["configs"]
    graded = timed["graded"]
    wall_ref = _per_round(configs, "wall_s", "ref_wall_s")
    reps = sum(g["replications"] for g in graded if not g["op_failed"]) / sets
    metrics = {
        "setup_s": {
            "value": statistics.median(t / r["ref_wall_s"] for t, r in setup) * REF_NOMINAL_S,
            "unit": "s",
        },
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "cpu_ref": {"value": _per_round(configs, "cpu_s", "ref_cpu_s"), "unit": "ref"},
        "reps_per_ref": {"value": reps / wall_ref, "unit": "1/ref"},
        "peak_rss_mb": {"value": timed["result"]["peak_rss_mb"], "unit": "MB"},
        "check_pass_frac": {
            "value": sum(g["passed_checks"] for g in graded)
            / sum(g["expected_checks"] for g in graded),
            "unit": "ratio",
        },
    }
    raw = {
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "round_wall_s": _per_round(configs, "wall_s"),
        "round_cpu_s": _per_round(configs, "cpu_s"),
        "ref_wall_s": statistics.median(r for c in configs for r in c["ref_wall_s"]),
    }
    return metrics, raw


def _metadata(root: Path, args, versions: dict) -> dict:
    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "git_sha": sha,
        "versions": versions,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": WORKER_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def run(args) -> dict:
    root = Path.cwd()
    src, configs = root / "src", root / "configs"
    if not (src / "msgdlab" / "cli.py").is_file() or not configs.is_dir():
        raise BenchError("run from the repository root: src/msgdlab and configs/ are missing")
    deadline = time.monotonic() + RUN_BUDGET_S
    state = root / ".verdictbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            inputs = build_inputs(args.workload, configs, args.seed)
            setup = []
            passes = [_run_pass([inputs], src, work, tag, tag == "traced", deadline)
                      for tag in ("untraced", "traced")]
            metrics, absent = _layer_metrics(*passes)
            raw = {"untraced_wall_s": _pass_wall(passes[0]),
                   "traced_wall_s": _pass_wall(passes[1])}
        else:
            sets = [build_inputs(args.workload, configs, seed, TIMING_SCALE)
                    for seed in timing_seeds(args.seed, TIMING_SETS)]
            probe = {"src": str(src), "setup_only": True,
                     "sets": [[{"name": i["name"], "raw": i["raw"]} for i in sets[0]]]}

            def probes(tag):
                return [_spawn(probe, work, f"setup-{tag}{k}", deadline)
                        for k in range(SETUP_PROBES // 2)]

            setup = probes("before")
            passes = [_run_pass(sets, src, work, "timed", False, deadline,
                                args.seconds, TIMING_SETS)]
            setup += probes("after")
            absent = []
            metrics, raw = _end_to_end(setup, passes[0], TIMING_SETS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = passes[0]["graded"]
    deterministic = all(
        [g["digest"] for g in p["graded"]] == [g["digest"] for g in first]
        and all(g["repeatable"] for g in p["graded"])
        for p in passes
    )
    summary = {
        "meta": _metadata(root, args, passes[0]["result"]["versions"]),
        "setup": setup,
        "passes": [
            {"rounds": p["result"]["rounds"], "peak_rss_mb": p["result"]["peak_rss_mb"],
             "times": {c["name"]: {k: c[k] for k in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")}
                       for c in p["result"]["configs"]},
             "configs": p["graded"]}
            for p in passes
        ],
        "deterministic": deterministic,
        "absent": absent,
        "metrics": metrics,
        "raw": raw,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (state / f"{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")

    rounds = passes[-1]["result"]["rounds"]
    for g in passes[-1]["graded"][:len(inputs if args.trace else sets[0])]:
        status = "PASS" if g["verdict_pass"] else "FAIL"
        detail = g["error"].strip().splitlines()[-1] if g["error"] else ", ".join(g["failing"])
        print(f"{status} {g['name']}: {g['passed_checks']}/{g['expected_checks']} checks, "
              f"median {g['seconds']:.3f} s over {rounds} rounds"
              f"{' - ' + detail if detail else ''}")
    if absent:
        print(f"absent layer hooks (reported as 0): {', '.join(absent)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in raw.items():
        print(f"{name} = {value:.6g} s (not gated)")
    print(f"meta: {json.dumps(summary['meta'], sort_keys=True)}")
    graded = [g for p in passes for g in p["graded"]]
    failed = sum(g["runs"] for g in graded if g["op_failed"])
    correct = failed == 0 and deterministic and all(g["consistent"] for g in graded)
    return {
        "correct": correct,
        "attempted": sum(g["runs"] for g in graded),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"verdictbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
