"""Compare what two msgdlab trees write for the same configs, byte for byte.

    python tools/artifact_diff.py PARENT_TREE

Runs the configs in ``configs/`` and the ``GOLDEN`` configs of
``tests/test_golden_bytes.py`` through ``python -m msgdlab``, once with
PARENT_TREE's ``src`` on ``PYTHONPATH`` and once with this checkout's, BLAS
on one thread, and compares exit codes, stdout, stderr, artifact names and
artifact bytes.  Prints ``configs: N differences: D`` and then every
difference; exits 0 when there is none.  Both trees run this checkout's
configs.  The canonical configs take about a minute per tree, so the tests
do not run this.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def golden_configs() -> dict[str, dict]:
    """The GOLDEN configs, read without importing the test module."""
    tree = ast.parse((REPO / "tests" / "test_golden_bytes.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "GOLDEN":
            return {name: raw for name, (raw, _) in ast.literal_eval(node.value).items()}
    raise SystemExit("tests/test_golden_bytes.py defines no GOLDEN")


def configs() -> dict[str, str]:
    """Config text by label: every canonical config, then every golden one."""
    named = {f"configs/{path.name}": path.read_text()
             for path in sorted((REPO / "configs").glob("*.json"))}
    named.update({f"golden/{name}": json.dumps(raw) for name, raw in golden_configs().items()})
    return named


def start(tree: Path, text: str, work: Path) -> subprocess.Popen:
    work.mkdir(parents=True)
    (work / "config.json").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    return subprocess.Popen(
        [sys.executable, "-m", "msgdlab", "--config", "config.json", "--out", "out"],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def outcome(proc: subprocess.Popen, work: Path) -> dict:
    stdout, stderr = proc.communicate()
    out = work / "out"
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr, "files": files}


def differences(label: str, old: dict, new: dict) -> list[str]:
    found = []
    if old["exit"] != new["exit"]:
        found.append(f"{label}: exit code {old['exit']} -> {new['exit']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            found.append(f"{label}: {stream} differs")
    for name in sorted(old["files"].keys() ^ new["files"].keys()):
        found.append(f"{label}: {name} only in {'parent' if name in old['files'] else 'this tree'}")
    for name in sorted(old["files"].keys() & new["files"].keys()):
        if old["files"][name] != new["files"][name]:
            found.append(f"{label}: {name} differs")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "msgdlab").is_dir():
        print("usage: python tools/artifact_diff.py PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    named = configs()
    found = []
    with tempfile.TemporaryDirectory() as temp:
        for i, (label, text) in enumerate(named.items()):
            works = [Path(temp) / str(i) / side for side in ("parent", "tree")]
            # the two trees run side by side, one process each
            procs = [start(tree, text, work) for tree, work in zip((parent, REPO), works)]
            old, new = (outcome(proc, work) for proc, work in zip(procs, works))
            found += differences(label, old, new)
    print(f"configs: {len(named)} differences: {len(found)}")
    for line in found:
        print(line)
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
