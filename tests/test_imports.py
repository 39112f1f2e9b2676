"""The simulation stack loads without scipy, only test oracles import it;
heuristic episodes run with numpy unimportable and leave OpenSSL unloaded,
since numpy belongs to the network policy in ``ppo`` alone, so they load no
``numpy.random`` and call nothing in ``numpy.linalg``; and the
planning-and-control layer loads no numpy and calls nothing in
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


def test_heuristic_episodes_run_without_numpy_or_openssl():
    """Seeded worlds draw from the standard library and only a network policy
    reaches ``ppo``, so heuristic episodes of both cases run with numpy
    unimportable, and nothing on their path loads OpenSSL's ``_hashlib``."""
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from platoonreorg.episode import GrdfPolicy, run_episode\n"
            "from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec\n"
            "for spec in (case1_spec(), case2_spec()):\n"
            "    run_episode(build_scenario(spec, 0), GrdfPolicy(), 0, 2.0)\n"
            "print('_hashlib' in sys.modules)\n")
    assert run_fresh(code) == "False"


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


RECORD_LINALG = ("import numpy.linalg\n"
                 "calls = []\n"
                 "def recording(name, fn):\n"
                 "    def stub(*args, **kwargs):\n"
                 "        calls.append(name)\n"
                 "        return fn(*args, **kwargs)\n"
                 "    return stub\n"
                 "for name in ('solve', 'eigvals', 'eig', 'inv', 'lstsq', 'det'):\n"
                 "    setattr(numpy.linalg, name, recording(name, getattr(numpy.linalg, name)))\n")


def test_heuristic_episodes_do_not_call_numpy_linalg():
    """The LQR gain is solved in float arithmetic, so none of these episodes
    pays for paging in LAPACK."""
    code = (RECORD_LINALG +
            "from platoonreorg.episode import GrdfPolicy, run_episode\n"
            "from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec\n"
            "for spec in (case1_spec(), case2_spec()):\n"
            "    run_episode(build_scenario(spec, 0), GrdfPolicy(), 0, 2.0)\n"
            "print(calls)\n")
    assert run_fresh(code) == "[]"


def test_planning_imports_no_numpy_and_calls_no_linalg():
    """The quintic's boundary system is solved in closed form and the LQR
    gain in float arithmetic: ``planner``, ``control`` and what they import
    load no numpy, and planning both lane changes, then running the LEFT
    plan through ``CavExecutor.command`` to its end, calls nothing in
    ``numpy.linalg``."""
    code = ("import sys\n"
            "from platoonreorg import config\n"
            "from platoonreorg.control import CavExecutor\n"
            "from platoonreorg.planner import LEFT, RIGHT, check_dynamics, generate_lattice\n"
            "from platoonreorg.world import RoadMap, VehicleState, step_kinematics\n"
            "loaded = 'numpy' in sys.modules\n" + RECORD_LINALG +
            "road = RoadMap()\n"
            "ego = VehicleState(id=0, kind='CAV', x=100.0, y=4.0, speed=25.0, lane=1,\n"
            "                   target_lane=1)\n"
            "plans = [generate_lattice(ego, side, road) for side in (LEFT, RIGHT)]\n"
            "assert all(check_dynamics(plan, road)[0] for plan in plans)\n"
            "ex = CavExecutor(cruise_speed=25.0)\n"
            "ex.schedule(0.0, plans[0])\n"
            "t = 0.0\n"
            "while ex.busy():\n"
            "    step_kinematics(ego, *ex.command(ego, None, t, road))\n"
            "    ego.lane = road.lane_of(ego.y)\n"
            "    t = round(t + config.DT, 9)\n"
            "print(loaded, calls, ego.lane, t)\n")
    assert run_fresh(code) == "False [] 2 2.9"
