"""Frame-0 behaviour of the scenario builder and the episode helpers.

Every value below comes from the frame-0 world that ``build_scenario`` makes
for case 1 and for case 2 at a sparse and a dense traffic level, seeds 0-2,
and is compared exactly against ``golden/scenarios.json``.  The pins cover
the HDV set, IDM accelerations, MOBIL/gap-acceptance lane decisions, the
platoon-layer risk/TTC summary, one vehicle-layer decision of the GRDF
stack, the merging-phase game with the disposition index (case 2), and the
planner's choice over each member's lane-change lattices.

Regenerate the pins only for an intended behaviour change:
``PYTHONPATH=src python tests/test_scenarios.py > tests/golden/scenarios.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from platoonreorg.coalition import MERGING, GameScene, form_coalitions, solve_tu_game
from platoonreorg.episode import GrdfPolicy, hdv_accel, hdv_decide_lane, platoon_lead_info
from platoonreorg.planner import LEFT, RIGHT, generate_lattice, select_trajectory
from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec

GOLDEN = Path(__file__).parent / "golden" / "scenarios.json"

SPECS = {
    "case1": case1_spec,
    "case2-sparse": lambda: case2_spec(density=3.0),
    "case2-dense": lambda: case2_spec(density=14.0),
}
SEEDS = (0, 1, 2)


def _world(name, seed):
    return build_scenario(SPECS[name](), seed)


def scene_pins(name: str, seed: int) -> dict:
    """Every pinned value for one (scenario, seed); each part on a fresh world."""
    world = _world(name, seed)
    pins = {
        "hdv_count": len(world.hdvs),
        "hdv_accel": [hdv_accel(d, world) for d in world.hdvs],
        "platoon_lead_info": list(platoon_lead_info(world)),
    }

    lanes = []
    for d in sorted(world.hdvs, key=lambda d: d.state.id):
        hdv_decide_lane(d, world, 0.0)
        lanes.append(d.state.target_lane if d.changing() else None)
    pins["hdv_lane_decisions"] = lanes

    world = _world(name, seed)
    policy = GrdfPolicy(use_pdi=False, keep_audit=True)
    policy.reset(world, np.random.default_rng((seed, 17)))
    policy.vehicle_decide(world, 0.0)
    pins["grdf_audit"] = policy.audit_rows()
    pins["grdf_members"] = [[m.executor.mode, m.state.target_lane] for m in world.members]

    world = _world(name, seed)
    states, background = world.platoon_states(), world.hdv_states()
    if name != "case1":
        decision = solve_tu_game(form_coalitions(states, background),
                                 GameScene(road=world.road, platoon=states,
                                           background=background),
                                 MERGING, use_pdi=True)
        pins["merging_game"] = [list(decision.joint_action), decision.value,
                                decision.pdi_value]

    picks = []
    for state in states:
        others = [v for v in world.all_states() if v.id != state.id]
        for direction, step in ((LEFT, 1), (RIGHT, -1)):
            if not 0 <= state.lane + step < world.road.lane_count:
                continue
            traj = select_trajectory(generate_lattice(state, direction, world.road),
                                     state, others, world.road)
            picks.append([state.id, direction, traj.duration, traj.target_lane,
                          traj.lon is None])
    pins["lattice_picks"] = picks
    return pins


def _all_pins():
    return {f"{name}/seed{seed}": scene_pins(name, seed) for name in SPECS for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_frame0_pins(name, seed, golden):
    want = golden[f"{name}/seed{seed}"]
    # JSON round trip turns tuples into lists and keeps floats exact
    got = json.loads(json.dumps(scene_pins(name, seed)))
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    print(json.dumps(_all_pins(), indent=1))
