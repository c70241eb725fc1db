"""One benchmark run's configs in a fresh interpreter.

    python worker.py SPEC.json RESULT.json

SPEC names the package source directory, one or more input sets (each the
same configs, by name and raw config, at another seed), the output
directory, whether to trace, and how long to repeat.  The worker imports
msgdlab, validates the first set (this is the set-up the parent times, up to
the ``ready`` line on stdout).  With ``setup_only`` it then times the
reference kernel and exits; otherwise it runs rounds.  Round r runs every config of set ``r % len(sets)`` in order through
``validate_config`` + ``run_experiment`` with one thread.  Rounds repeat
until the next one would end after ``seconds``, and at least ``min_rounds``
run.  Each config's wall and CPU time is taken per round around the two
calls alone, and just before and just after them the wall and CPU time of a
fixed reference kernel (see ``reference``; the mean of the two is recorded),
so that the parent can divide out the speed the shared host gives the worker
at that moment.  The first round of each set keeps its artifacts under
``out/<set>/<config>`` for the parent to grade; later rounds are reduced to
their sha256 digest and deleted.  RESULT gets the per-round times and
digests, peak RSS and, when tracing, the aggregated spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


SETUP_REFERENCES = 3  # reference calls after a set-up probe; the fastest counts


def digest(directory: Path) -> str:
    """sha256 over the relative paths and bytes of every file in ``directory``."""
    sha = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        sha.update(path.relative_to(directory).as_posix().encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed kernel.

    The kernel is an interpreted in-place shuffle of a list of 100,000 ints:
    index arithmetic and scattered object accesses, as in msgdlab's inner
    loops, with no call into msgdlab.  It took 10 to 22 ms on one vCPU of a
    2-vCPU Xeon VM, as the host's load changed.  Timed next to each config run, it measures how fast the
    host runs this process at that moment.  Of the kernels tried (integer
    loop, small and large numpy array operations, this shuffle at 10,000,
    30,000 and 100,000 items), this one's time followed the configs' best
    through the host's slow and fast phases.  Its list adds about 3 MB to the
    worker's peak RSS.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    items = list(range(100_000))
    for i in range(99_999, 0, -1):
        j = (i * 7_919) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return time.perf_counter() - wall, time.process_time() - cpu


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import numpy
    import scipy

    import msgdlab.cli

    sets = spec["sets"]
    for item in sets[0]:
        try:
            msgdlab.cli.validate_config(item["raw"])
        except Exception:
            pass  # the round validates again and records the error for this config
    print("ready", flush=True)
    if spec.get("setup_only"):
        Path(result_path).write_text(json.dumps({"ref_wall_s": min(
            reference()[0] for _ in range(SETUP_REFERENCES))}))
        return 0

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, install

        tracer = install(Tracer())

    out_root = Path(spec["out"])
    outcomes = {item["name"]: {"name": item["name"], "wall_s": [], "cpu_s": [],
                               "ref_wall_s": [], "ref_cpu_s": [], "digests": [], "error": None}
                for item in sets[0]}
    began = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        kept = rounds < len(sets)
        for item in sets[rounds % len(sets)]:
            outcome = outcomes[item["name"]]
            directory = out_root / (str(rounds) if kept else "repeat") / item["name"]
            before = reference()
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                # looked up on the module so that traced wrappers are used
                config = msgdlab.cli.validate_config(item["raw"])
                msgdlab.cli.run_experiment(config, directory, threads=1)
            except Exception:
                outcome["error"] = outcome["error"] or traceback.format_exc(limit=3)
            outcome["wall_s"].append(time.perf_counter() - wall)
            outcome["cpu_s"].append(time.process_time() - cpu)
            after = reference()
            outcome["ref_wall_s"].append((before[0] + after[0]) / 2)
            outcome["ref_cpu_s"].append((before[1] + after[1]) / 2)
            outcome["digests"].append(digest(directory) if directory.is_dir() else None)
            if not kept:
                shutil.rmtree(directory, ignore_errors=True)
        rounds += 1
        now = time.perf_counter()
        if rounds >= spec.get("min_rounds", 1) and (
            now - began + (now - round_start) > spec.get("seconds", 0.0)
        ):
            break
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "configs": list(outcomes.values()),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "msgdlab": getattr(msgdlab, "__version__", "unknown"),
        },
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
