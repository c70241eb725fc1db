"""The benchmark's tracer still fits the runners it wraps.

``verdictbench/tracer.py`` wraps the trajectory runners by name, counts
steps from ``result.states.shape[0]`` and, for Euler-Maruyama, multiplies
by the third positional argument (the substeps).  A fresh interpreter
installs it unchanged, runs the golden step-size grids, and checks that the
bytes are the golden ones and that each runner ran once per config with
the lockstep step count: the longest grid member's steps, not their sum.
The ODE, like EM, records one state per step of gamma, but the tracer
multiplies only EM's count by its substeps, so the ODE counts its recorded
steps.  The models the runs build are traced too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden_bytes import GOLDEN, directory_digest

REPO = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from pathlib import Path

import msgdlab.cli

sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install

tracer = install(Tracer())
out = Path(sys.argv[2])
for name in sys.argv[3:]:
    raw = json.loads(sys.stdin.readline())
    msgdlab.cli.run_experiment(msgdlab.cli.validate_config(raw), out / name)
spans = {}
for span in tracer.export()["spans"]:
    spans[span["label"]] = spans.get(span["label"], 0) + span["count"]
print(json.dumps({"counters": tracer.counters, "spans": spans, "absent": tracer.absent}))
"""


def test_tracer_counts_lockstep_steps_and_keeps_bytes(tmp_path):
    names = ["wass-scaling-grid", "gd-ode-grid"]
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(REPO / "verdictbench"), str(tmp_path), *names],
        input="".join(json.dumps(GOLDEN[name][0]) + "\n" for name in names),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True, check=True,
    )
    traced = json.loads(result.stdout)
    for name in names:
        assert directory_digest(tmp_path / name) == GOLDEN[name][1], name
    assert traced["absent"] == []
    # wass-scaling: gammas 0.25, 0.125, 0.0625 take 4, 8 and 16 steps of 6 substeps;
    # gd-ode: gammas 0.2, 0.1, 0.05 take 4, 8 and 16 steps, GD and the ODE alike
    assert {key: value for key, value in traced["counters"].items()
            if key.startswith("dynamics.")} == {
        "dynamics.msgd.steps": 16,
        "dynamics.diffusion_em.steps": 16 * 6,
        "dynamics.gd.steps": 16,
        "dynamics.ode.steps": 16,
    }
    for runner in ("msgd", "diffusion_em", "gd", "ode"):
        assert traced["spans"][f"dynamics.{runner}"] == 1, runner
    # the model factories' wrappers trace the models they build, so a LossModel
    # field the tracer cannot wrap fails here: GD's 16 steps and gd-ode's start
    # gradient norm, and Euler-Maruyama's one constant noise factor
    assert traced["spans"]["models.grad_objective"] == 17
    assert traced["spans"]["models.noise_factor"] == 1
