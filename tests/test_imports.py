"""The simulation stack loads without scipy, only test oracles import it, and
heuristic episodes run without ``numpy.random`` and call nothing in
``numpy.linalg``."""

import os
import subprocess
import sys
from pathlib import Path

from platoonreorg import episode

SRC = Path(episode.__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip()


def test_stack_does_not_import_scipy():
    code = ("import sys\n"
            "import platoonreorg.episode, platoonreorg.scenarios, platoonreorg.ppo\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert run_fresh(code) == "[]"


def test_heuristic_episodes_do_not_import_numpy_random():
    """Seeded worlds draw from the standard library, and only a network
    policy gets a numpy Generator, so a heuristic run never loads
    ``numpy.random``."""
    code = ("import sys\n"
            "from platoonreorg.episode import GrdfPolicy, run_episode\n"
            "from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec\n"
            "for spec in (case1_spec(), case2_spec()):\n"
            "    run_episode(build_scenario(spec, 0), GrdfPolicy(), 0, 2.0)\n"
            "print('numpy.random' in sys.modules)\n")
    assert run_fresh(code) == "False"


def test_heuristic_episodes_do_not_call_numpy_linalg():
    """The LQR gain is solved in float arithmetic and these episodes plan no
    lattice, so none of them pays for paging in LAPACK."""
    code = ("import numpy.linalg\n"
            "calls = []\n"
            "def recording(name, fn):\n"
            "    def stub(*args, **kwargs):\n"
            "        calls.append(name)\n"
            "        return fn(*args, **kwargs)\n"
            "    return stub\n"
            "for name in ('solve', 'eigvals', 'eig', 'inv', 'lstsq', 'det'):\n"
            "    setattr(numpy.linalg, name, recording(name, getattr(numpy.linalg, name)))\n"
            "from platoonreorg.episode import GrdfPolicy, run_episode\n"
            "from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec\n"
            "for spec in (case1_spec(), case2_spec()):\n"
            "    run_episode(build_scenario(spec, 0), GrdfPolicy(), 0, 2.0)\n"
            "print(calls)\n")
    assert run_fresh(code) == "[]"
