"""The benchmark CLI runs end to end in both modes.

One short run of ``perfbench/run.py`` on the case-2 sparse workload per
mode, in a subprocess: it must exit 0 and report every episode correct and
none failed.  The traced mode wraps the planner and the executor by name and
reads the selected plan's ``lon``; the gated mode checks its end-to-end
metric names against ``BENCHMARK.json`` and reads ``world.clock.dt`` in its
output checks.  So either catches a change that breaks what it reads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_traced_run_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "case2-sparse-gt",
         "--seconds", "0.1", "--trace", trace],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
