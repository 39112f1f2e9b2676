"""The simulation stack loads without scipy; only test oracles import it."""

import os
import subprocess
import sys
from pathlib import Path

from platoonreorg import episode

SRC = Path(episode.__file__).resolve().parent.parent


def test_stack_does_not_import_scipy():
    code = ("import sys\n"
            "import platoonreorg.episode, platoonreorg.scenarios, platoonreorg.ppo\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
