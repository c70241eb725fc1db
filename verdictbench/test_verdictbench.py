"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest verdictbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

SMALL = {"samples": 200, "reps": 4}


def _small_inputs() -> list[dict]:
    """Every workload's configs, shrunk so that one pass takes seconds."""
    inputs = []
    for workload in WORKLOADS:
        for item in build_inputs(workload, ROOT / "configs", 3):
            raw = item["raw"]
            for key, value in SMALL.items():
                if key in raw:
                    raw[key] = value
            if raw["command"] == "weights-moments":
                raw["reps"] = 100
            inputs.append(item)
    return inputs


def test_artifacts_repeat_and_tracing_leaves_them_unchanged(tmp_path):
    inputs = _small_inputs()
    deadline = time.monotonic() + 170
    passes = [
        run._run_pass([inputs], ROOT / "src", tmp_path, tag, trace, deadline, min_rounds=rounds)
        for tag, trace, rounds in (("a", False, 1), ("b", False, 2), ("traced", True, 1))
    ]
    digests = [[g["digest"] for g in p["graded"]] for p in passes]
    assert all(d is not None for d in digests[0])
    assert passes[1]["result"]["rounds"] == 2
    assert all(g["repeatable"] for g in passes[1]["graded"]), "a repeated round wrote other bytes"
    assert digests[0] == digests[1], "two untraced workers wrote different artifacts"
    assert digests[0] == digests[2], "tracing changed the artifacts"
    assert not any(g["op_failed"] for p in passes for g in p["graded"])
    spans = passes[2]["result"]["trace"]["spans"]
    assert {s["label"] for s in spans} >= {"cli.run", "weights.minibatch", "dynamics.msgd"}


def test_missing_hook_is_reported_absent_and_the_run_completes(tmp_path):
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
        import msgdlab.cli as cli
        import tracer
        tracer.TARGETS.append(("dynamics.batched", "msgdlab.dynamics", "run_batched"))
        t = tracer.install(tracer.Tracer())
        raw = json.load(open({str(ROOT / 'configs' / 'gd_ode.json')!r}))
        report = cli.run_experiment(cli.validate_config(raw), {str(tmp_path)!r})
        print(json.dumps({{"absent": t.export()["absent"], "pass": report.overall_pass}}))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"absent": ["msgdlab.dynamics.run_batched"], "pass": True}


def _write_report(directory: Path, passes: list[bool], overall: bool) -> None:
    directory.mkdir(parents=True)
    checks = [
        {"name": f"c{i}", "observed": 0.0 if ok else 2.0, "target": 0.0,
         "tolerance": 1.0, "comparison": "abs", "pass": ok}
        for i, ok in enumerate(passes)
    ]
    (directory / "report.json").write_text(
        json.dumps({"checks": checks, "files": [], "overall_pass": overall})
    )


def test_verdict_gate(tmp_path):
    inputs = [
        {"name": name, "baseline_checks": 2, "replications": 1}
        for name in ("ok", "fewer", "empty", "fails", "raises")
    ]
    _write_report(tmp_path / "ok", [True, True, True], True)
    _write_report(tmp_path / "fewer", [True], True)
    _write_report(tmp_path / "empty", [], True)
    _write_report(tmp_path / "fails", [True, False], False)
    result = {"configs": [
        {"name": name, "wall_s": [0.0], "digests": [None],
         "error": "Boom" if name == "raises" else None}
        for name in ("ok", "fewer", "empty", "fails", "raises")
    ]}
    graded = {g["name"]: g for g in run._grade(inputs, tmp_path, result)}
    assert [graded[n]["verdict_pass"] for n in graded] == [True, False, False, False, False]
    assert [graded[n]["op_failed"] for n in graded] == [False, True, True, False, True]
    assert graded["ok"]["expected_checks"] == 3
    assert graded["fails"]["failing"] == ["c1"]
    assert all(g["consistent"] for g in graded.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "verdictbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "verdictbench/run.py", "--workload", "logistic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
