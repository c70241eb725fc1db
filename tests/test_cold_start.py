"""The whole runtime needs numpy alone: no command loads scipy.

``clt``'s KS statistic takes its normal CDF from ``math.erfc``, so neither
importing the CLI, nor validating a config, nor running any command imports
scipy.  One fresh interpreter validates every canonical config and runs every
golden-bytes config, then reports the scipy modules it loaded; each output
directory must hold a ``report.json``.  The bytes themselves are
``test_golden_bytes.py``'s to guard.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden_bytes import GOLDEN

REPO = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from pathlib import Path

import msgdlab.cli

configs, golden, out = sys.argv[1:]
paths = sorted(Path(configs).glob("*.json"))
for path in paths:
    msgdlab.cli.validate_config(path.read_text())
for name, raw in json.loads(golden).items():
    msgdlab.cli.run_experiment(msgdlab.cli.validate_config(raw), Path(out) / name)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps([len(paths), scipy]))
"""


def test_no_command_loads_scipy(tmp_path):
    golden = {name: raw for name, (raw, *_) in GOLDEN.items()}
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(REPO / "configs"), json.dumps(golden), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True, check=True,
    )
    validated, scipy = json.loads(result.stdout)
    assert validated == 10
    assert scipy == []
    for name in GOLDEN:
        assert (tmp_path / name / "report.json").is_file(), name
