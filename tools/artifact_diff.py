"""Compare what two msgdlab trees write for the same configs, byte for byte.

    python tools/artifact_diff.py PARENT_TREE

Runs the configs in ``configs/`` and the ``GOLDEN`` configs of
``tests/test_golden_bytes.py`` through ``python -m msgdlab``, once with
PARENT_TREE's ``src`` on ``PYTHONPATH`` and once with this checkout's, BLAS
on one thread, and compares exit codes, stdout, stderr, artifact names and
artifact bytes.  First prints, for both trees, the line count of each
``src/msgdlab/*.py`` and their total, the number of settable config values
in that tree's ``cli.SCHEMAS`` and then each command's (``weighting-gap: 7
-> 4``), all counted by this checkout's ``settable``, and the number of
public names, the names that tree's ``src/msgdlab/__init__.py`` imports;
then each config's wall time in both trees (``configs/clt_minibatch_p1.json:
2.41 s -> 0.65 s``), from its start to its exit, the two trees' processes
running side by side; then ``configs: N differences: D`` and every
difference.  A CSV that
differs also gets the largest relative difference |a - b| / max(|a|, |b|)
over its numeric cells, so a change at roundoff (about 1e-15) reads apart
from a real one; a report.json that differs gets the top-level keys whose
values differ (such as ``resolved``, so a change to the config echo alone
reads apart from a change of values), the largest relative difference
over its checks' ``observed`` values, over their ``target`` values and over
their ``tolerance`` values, each on its own, and the name of every check whose
``pass`` flag changed, and ``overall_pass`` if the verdict did, so a roundoff
change reads apart from a verdict change.  Checks pair by position, and a
report.json that holds one check name twice, in either tree, is a difference
of its own.  Exits 0 when there is none.  Both trees run this
checkout's configs.  The canonical configs take about a minute per tree, so
the tests do not run this.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def settable(typ, kinds: type) -> int:
    """Settable config values of a declaration: a scalar or a list of scalars
    counts 1, an object counts its fields, a `kinds` (``cli.Kinds``) counts
    the fields of every kind, and ``out`` (not in SCHEMAS) is not counted."""
    if isinstance(typ, kinds):
        return sum(settable(kind, kinds) for kind in typ.values())
    if isinstance(typ, dict):
        return sum(settable(field.type, kinds) for field in typ.values())
    if isinstance(typ, list):
        return settable(typ[0], kinds)
    return 1


# Each command's settable values, as JSON, from the SCHEMAS of the msgdlab on
# PYTHONPATH and the ``settable`` of this file's directory.
COUNT_SETTABLE = """
import json, sys
sys.path.insert(0, {tools!r})
from artifact_diff import settable
from msgdlab.cli import SCHEMAS, Kinds
print(json.dumps({{command: settable(schema, Kinds) for command, schema in SCHEMAS.items()}}))
"""


def line_counts(tree: Path) -> dict[str, int]:
    """Lines of each ``src/msgdlab/*.py`` of `tree`, by file name."""
    return {path.name: len(path.read_text().splitlines())
            for path in sorted((tree / "src" / "msgdlab").glob("*.py"))}


def settable_values(tree: Path) -> dict[str, int]:
    """The settable config values of each of `tree`'s commands, counted with
    its own ``src``; none if that cannot run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    code = COUNT_SETTABLE.format(tools=str(Path(__file__).resolve().parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return json.loads(done.stdout) if done.returncode == 0 else {}


def public_names(tree: Path) -> int:
    """The names `tree`'s ``src/msgdlab/__init__.py`` imports, counted from its syntax tree."""
    module = ast.parse((tree / "src" / "msgdlab" / "__init__.py").read_text())
    return sum(len(node.names) for node in module.body
               if isinstance(node, (ast.Import, ast.ImportFrom)))


def size_report(parent: Path) -> list[str]:
    """Per-module lines, their total, settable values in all and by command,
    and public names, parent -> this tree."""
    old, new = line_counts(parent), line_counts(REPO)
    lines = [f"{name}: {old.get(name, 0)} -> {new.get(name, 0)}"
             for name in sorted(old.keys() | new.keys())]
    lines.append(f"src total: {sum(old.values())} -> {sum(new.values())}")
    old, new = settable_values(parent), settable_values(REPO)
    lines.append(f"settable config values: {sum(old.values()) if old else '?'} -> "
                 f"{sum(new.values()) if new else '?'}")
    lines += [f"{command}: {old.get(command, '?')} -> {new.get(command, '?')}"
              for command in sorted(old.keys() | new.keys())]
    lines.append(f"public names: {public_names(parent)} -> {public_names(REPO)}")
    return lines


def golden_configs() -> dict[str, dict]:
    """The GOLDEN configs, read without importing the test module."""
    tree = ast.parse((REPO / "tests" / "test_golden_bytes.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "GOLDEN":
            return {name: raw for name, (raw, *_) in ast.literal_eval(node.value).items()}
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


def outcome(proc: subprocess.Popen, work: Path, started: float) -> dict:
    stdout, stderr = proc.communicate()
    wall = time.perf_counter() - started
    out = work / "out"
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr, "files": files,
            "wall": wall}


def relative(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 for equal values and for two NaNs."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def csv_change(old: bytes, new: bytes) -> str:
    """How far two CSVs' numeric cells moved: the largest relative difference,
    or why the cells cannot be paired."""
    tables = [list(csv.reader(io.StringIO(data.decode()))) for data in (old, new)]
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return "its rows or columns differ"
    largest, numeric, text = 0.0, 0, 0
    for row_a, row_b in zip(*tables):
        for a, b in zip(row_a, row_b):
            try:
                x, y = float(a), float(b)
            except ValueError:
                text += a != b
                continue
            numeric += 1
            largest = max(largest, relative(x, y))
    return (f"largest relative difference {largest:.3g} over {numeric} numeric cells"
            + (f", text cells differing: {text}" if text else ""))


def report_change(old: bytes, new: bytes) -> str:
    """How two reports differ: the top-level keys whose values differ, then how
    far the verdicts moved, the largest relative difference over the checks'
    observed values, targets and tolerances, each, and every pass flag that
    changed."""
    reports = [json.loads(data) for data in (old, new)]
    # compared as canonical JSON text, where a NaN equals itself
    keys = sorted(key for key in reports[0].keys() | reports[1].keys()
                  if json.dumps(reports[0].get(key), sort_keys=True)
                  != json.dumps(reports[1].get(key), sort_keys=True))
    prefix = f"keys differing: {', '.join(keys)}; "
    # checks pair by position, so a flip in one of two same-named checks shows
    before, after = (r["checks"] for r in reports)
    if [check["name"] for check in before] != [check["name"] for check in after]:
        return prefix + "its check names or their order differ"
    pairs = list(zip(before, after))
    largest = {key: max((relative(a[key], b[key]) for a, b in pairs), default=0.0)
               for key in ("observed", "target", "tolerance")}
    flipped = [a["name"] for a, b in pairs if a["pass"] != b["pass"]]
    if reports[0]["overall_pass"] != reports[1]["overall_pass"]:
        flipped.append("overall_pass")
    return (prefix + "largest relative difference "
            + ", ".join(f"{value:.3g} over {key}" for key, value in largest.items())
            + f" of {len(before)} checks, "
            + (f"pass flag changed: {', '.join(flipped)}" if flipped else "no pass flag changed"))


def repeated_names(report: bytes) -> list[str]:
    """The check names a report.json holds more than once."""
    counts = Counter(check["name"] for check in json.loads(report)["checks"])
    return sorted(name for name, count in counts.items() if count > 1)


def differences(label: str, old: dict, new: dict) -> list[str]:
    found = []
    for side, run in (("parent", old), ("this tree", new)):
        report = run["files"].get("report.json")
        repeated = repeated_names(report) if report is not None else []
        if repeated:
            found.append(f"{label}: report.json of {side} repeats check names: {', '.join(repeated)}")
    if old["exit"] != new["exit"]:
        found.append(f"{label}: exit code {old['exit']} -> {new['exit']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            found.append(f"{label}: {stream} differs")
    for name in sorted(old["files"].keys() ^ new["files"].keys()):
        found.append(f"{label}: {name} only in {'parent' if name in old['files'] else 'this tree'}")
    for name in sorted(old["files"].keys() & new["files"].keys()):
        if old["files"][name] != new["files"][name]:
            change = ""
            if name.endswith(".csv"):
                change = f" ({csv_change(old['files'][name], new['files'][name])})"
            elif name == "report.json":
                change = f" ({report_change(old['files'][name], new['files'][name])})"
            found.append(f"{label}: {name} differs{change}")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "msgdlab").is_dir():
        print("usage: python tools/artifact_diff.py PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    for line in size_report(parent):
        print(line)
    named = configs()
    found = []
    with tempfile.TemporaryDirectory() as temp, ThreadPoolExecutor(2) as waiters:
        for i, (label, text) in enumerate(named.items()):
            works = [Path(temp) / str(i) / side for side in ("parent", "tree")]
            # the two trees run side by side, one process each, each awaited
            # on its own thread so that its wall time ends at its own exit
            started = time.perf_counter()
            procs = [start(tree, text, work) for tree, work in zip((parent, REPO), works)]
            old, new = waiters.map(outcome, procs, works, [started] * 2)
            print(f"{label}: {old['wall']:.2f} s -> {new['wall']:.2f} s", flush=True)
            found += differences(label, old, new)
    print(f"configs: {len(named)} differences: {len(found)}")
    for line in found:
        print(line)
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
