"""The cold start: importing the CLI and validating configs loads no scipy.special.

``scipy.special`` is about half of a fresh interpreter's import time, and
only ``clt``'s KS statistic needs it, so ``stats.ks_normality`` imports it
on its first call.  A fresh interpreter checks both halves of that: nothing
before the clt run loads it, and the clt run, which does, still writes the
golden bytes.
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

configs, clt, out = sys.argv[1:]
paths = sorted(Path(configs).glob("*.json"))
for path in paths:
    msgdlab.cli.validate_config(path.read_text())
before = "scipy.special" in sys.modules
msgdlab.cli.run_experiment(msgdlab.cli.validate_config(clt), out)
print(json.dumps([len(paths), before, "scipy.special" in sys.modules]))
"""


def test_validation_leaves_scipy_special_unloaded(tmp_path):
    raw, expected = GOLDEN["clt"]
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(REPO / "configs"), json.dumps(raw), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True, check=True,
    )
    validated, before, after = json.loads(result.stdout)
    assert validated == 10
    assert not before
    assert after  # clt's KS statistic loaded it
    assert directory_digest(tmp_path) == expected
