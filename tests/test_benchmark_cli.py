"""The benchmark CLI runs end to end in trace mode.

One short traced run of ``perfbench/run.py`` on the case-2 sparse workload,
in a subprocess: it must exit 0 and report every episode correct and none
failed.  The tracer wraps the planner and the executor by name and reads
the selected plan's ``lon``, so this catches a change that breaks it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "case2-sparse-gt",
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
