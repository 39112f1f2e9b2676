"""Seeded episodes run end to end through ``run_episode``.

Case 1 with GRDF, case 2 at a sparse traffic level with GRDF-GT and case 2
at a dense level with GRDF, seeds 0-1, each 20 s long so the case-2 brake at
10 s is covered.  Every run must return and hold the benchmark's output
invariants: frames x dt equals the duration, every metric and every final
vehicle field is finite, and no platoon member ends above the speed limit.
Its ``EpisodeMetrics.row()`` is compared exactly against
``golden/episodes.json``.

Regenerate the pins only for an intended behaviour change:
``PYTHONPATH=src python tests/test_episode.py > tests/golden/episodes.json``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from pathlib import Path

import pytest

from platoonreorg.episode import GrdfPolicy, run_episode
from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec

GOLDEN = Path(__file__).parent / "golden" / "episodes.json"
EPISODE_LEN = 20.0

CASES = {
    "case1-grdf": (lambda: case1_spec(episode_len=EPISODE_LEN), False),
    "case2-sparse-grdf-gt": (lambda: case2_spec(density=3.0, episode_len=EPISODE_LEN), True),
    "case2-dense-grdf": (lambda: case2_spec(density=14.0, episode_len=EPISODE_LEN), False),
}
SEEDS = (0, 1)


def run_case(name: str, seed: int):
    make_spec, use_pdi = CASES[name]
    spec = make_spec()
    world = build_scenario(spec, seed)
    result = run_episode(world, GrdfPolicy(use_pdi=use_pdi), seed, spec.episode_len,
                         spec.success_window)
    return world, result


def _finite(value) -> bool:
    return not isinstance(value, numbers.Real) or math.isfinite(value)


def invariant_failures(world, result) -> list[str]:
    metrics = result.metrics
    failures = []
    if not math.isclose(result.frames * world.clock.dt, metrics.duration, abs_tol=1e-6):
        failures.append(f"frames*dt {result.frames * world.clock.dt} != {metrics.duration}")
    failures += [f"row[{k}] = {v!r}" for k, v in metrics.row().items() if not _finite(v)]
    for state in world.platoon_states() + world.hdv_states():
        for f in dataclasses.fields(state):
            if not _finite(getattr(state, f.name)):
                failures.append(f"vehicle {state.id} {f.name} = {getattr(state, f.name)!r}")
    for member in world.members:
        if member.state.speed > world.road.speed_limit:
            failures.append(f"member {member.index} speed {member.state.speed}")
    return failures


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_episode_runs_and_matches_pin(name, seed, golden):
    world, result = run_case(name, seed)
    assert invariant_failures(world, result) == []
    assert result.metrics.row() == golden[f"{name}/seed{seed}"]


if __name__ == "__main__":
    print(json.dumps({f"{name}/seed{seed}": run_case(name, seed)[1].metrics.row()
                      for name in CASES for seed in SEEDS}, indent=1))
