"""The benchmark's own test: quick mode emits every declared metric.

Run with ``python3 -m pytest perfbench/test_quick.py`` from the
repository root; it takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_quick_mode_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--quick"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "quick": "ok", "problems": 0,
    }
