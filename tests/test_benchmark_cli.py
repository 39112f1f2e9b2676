"""The benchmark CLI runs end to end in both modes.

One short run of ``perfbench/run.py`` on the case-2 sparse workload per
mode, in a subprocess: it must exit 0 and report every episode correct and
none failed.  The traced mode wraps the planner and the executor by name and
reads the selected plan's ``lon``; the gated mode checks its end-to-end
metric names against ``BENCHMARK.json`` and reads ``world.clock.dt`` in its
output checks.  So either catches a change that breaks what it reads.  The
tracer itself, loaded from ``perfbench/layers.py``, must see the planner
calls that the executors make.
"""

from __future__ import annotations

import importlib.util
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


def _load_layers():
    """``perfbench/layers.py``, loaded from its file and left unchanged."""
    name = "perfbench_layers"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "layers.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_tracer_sees_every_plan_the_executors_start():
    """The planner is called from the executor, not the episode loop; the
    tracer still counts one ``generate_lattice`` and one ``select_trajectory``
    per plan started, so the per-layer planner metrics do not fall to 0."""
    from test_episode import PLAN_NET_SEED, PLAN_ROW, PLAN_SEED, PLANS

    from platoonreorg.episode import GrdfPolicy, run_episode
    from platoonreorg.ppo import PolicyNetwork
    from platoonreorg.scenarios import build_scenario, case2_spec

    spec = case2_spec(density=3.0, episode_len=30.0)
    world = build_scenario(spec, PLAN_SEED)
    policy = GrdfPolicy(use_pdi=True,
                        network=PolicyNetwork(obs_dim=72, n_actions=4, seed=PLAN_NET_SEED))
    tracer = _load_layers().Tracer()
    with tracer.installed():
        result = run_episode(world, policy, PLAN_SEED, spec.episode_len, spec.success_window)
    assert result.metrics.row() == PLAN_ROW
    calls = [tracer.spans[f"planner.{name}"].calls
             for name in ("generate_lattice", "select_trajectory")]
    assert calls == [len(PLANS), len(PLANS)] == [9, 9]
