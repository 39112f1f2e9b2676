"""Frame-0 behaviour of the scenario builder and the episode helpers.

Every value below comes from the frame-0 world that ``build_scenario`` makes
for case 1 and for case 2 at a sparse and a dense traffic level, seeds 0-2,
and is compared exactly against ``golden/scenarios.json``.  The pins cover
the HDV set, IDM accelerations, MOBIL lane decisions, the platoon-layer
risk/TTC summary, one vehicle-layer decision of the GRDF stack, the
merging-phase game with the disposition index (case 2), and the planner's
plan for each member's lane changes.

Regenerate the pins only for an intended behaviour change:
``PYTHONPATH=src python tests/test_scenarios.py > tests/golden/scenarios.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from platoonreorg import config
from platoonreorg.coalition import MERGING, GameScene, form_coalitions, solve_tu_game
from platoonreorg.episode import GrdfPolicy, hdv_accel, hdv_decide_lane
from platoonreorg.planner import LEFT, RIGHT, check_dynamics, generate_lattice
from platoonreorg.scenarios import (ScenarioError, ScenarioSpec, build_scenario, case1_spec,
                                    case2_spec)
from platoonreorg.traffic import ScriptedBrake
from platoonreorg.world import check_collision, lead_vehicle

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
    snapshot = world.all_states()
    n = len(world.members)
    scene = GameScene(road=world.road, platoon=snapshot[:n], background=snapshot[n:],
                      executors=[m.executor for m in world.members])
    pins = {
        "hdv_count": len(world.hdvs),
        "hdv_accel": [hdv_accel(d, world.road, snapshot) for d in world.hdvs],
        # the platoon layer's summary: leader TTC, lowest TTC, highest risk, at-risk member
        "platoon_lead_info": [scene.lead_ttcs[0], min(scene.lead_ttcs), max(scene.risks),
                              scene.at_risk],
    }

    lanes = []
    for d in sorted(world.hdvs, key=lambda d: d.state.id):
        hdv_decide_lane(d, world, snapshot)
        lanes.append(d.state.target_lane if d.changing() else None)
    pins["hdv_lane_decisions"] = lanes

    world = _world(name, seed)
    policy = GrdfPolicy(use_pdi=False, keep_audit=True)
    policy.reset(world, seed, SPECS[name]().episode_len)
    snapshot = world.all_states()
    policy.vehicle_decide(GameScene(road=world.road, platoon=snapshot[:n],
                                    background=snapshot[n:],
                                    executors=[m.executor for m in world.members]), 0.0)
    pins["grdf_audit"] = policy.audit_rows()
    pins["grdf_members"] = [["track" if m.executor.trajectory is not None else "follow",
                             m.state.target_lane] for m in world.members]

    world = _world(name, seed)
    snapshot = world.all_states()
    states, background = snapshot[:n], snapshot[n:]
    if name != "case1":
        decision = solve_tu_game(form_coalitions(states, background),
                                 GameScene(road=world.road, platoon=states,
                                           background=background,
                                           executors=[m.executor for m in world.members]),
                                 MERGING, use_pdi=True)
        pins["merging_game"] = [list(decision.joint_action), decision.value,
                                decision.pdi_value]

    picks = []
    for state in states:
        for direction, step in ((LEFT, 1), (RIGHT, -1)):
            if not 0 <= state.lane + step < world.road.lane_count:
                continue
            plan = generate_lattice(state, direction, world.road)
            picks.append([state.id, direction, plan.duration, plan.target_lane,
                          not check_dynamics(plan, world.road)[0]])
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


@pytest.mark.parametrize("density", [3.0, 14.0])
@pytest.mark.parametrize("seed", SEEDS)
def test_case2_brake_rides_on_the_platoons_leader(density, seed):
    """Exactly one driver carries the spec's brake event: at frame 0 it is
    the vehicle ahead of the platoon's head, ``event_lead_gap`` bumper to
    bumper."""
    spec = case2_spec(density=density)
    world = build_scenario(spec, seed)
    braking = [d for d in world.hdvs if d.brake is not None]
    assert len(braking) == 1
    assert braking[0].brake == ScriptedBrake(t_start=spec.event_time, decel=spec.event_decel,
                                             duration=spec.event_duration,
                                             cruise_after=spec.event_cruise_after)
    head = world.members[0].state
    leader = lead_vehicle(head, world.all_states())
    assert leader is braking[0].state
    assert leader.x - head.x - 0.5 * (leader.length + head.length) == spec.event_lead_gap


@pytest.mark.parametrize("gap", [45.0, 60.0, 100.0, 200.0])
def test_distant_case2_leader_starts_clear_of_the_traffic(gap):
    """Beyond the 60 m past the head that the platoon lane's keep-clear box
    covers at the default gap, the box reaches 25 m past the scripted
    leader, as it does at the default gap: no ambient driver starts in
    contact with the leader, nor in its lane within 25 m ahead of it."""
    spec = case2_spec(density=14.0, event_lead_gap=gap)
    for seed in range(50):
        world = build_scenario(spec, seed)
        leader = world.hdvs[-1].state
        assert leader.x - world.members[0].state.x == gap + leader.length
        assert [d.state.id for d in world.hdvs[:-1]
                if check_collision(d.state, leader)] == [], seed
        assert [d.state.id for d in world.hdvs[:-1]
                if d.state.lane == spec.platoon_lane
                and leader.x < d.state.x <= leader.x + 25.0] == [], seed


@pytest.mark.parametrize("seed", SEEDS)
def test_case1_has_no_brake(seed):
    assert all(d.brake is None for d in build_scenario(case1_spec(), seed).hdvs)


@pytest.mark.parametrize("seed", [1.5, True, "3", -1],
                         ids=["float", "bool", "str", "negative"])
def test_bad_seed_rejected(seed):
    """A seed is an int >= 0: ``random.Random(-s)`` would equal
    ``random.Random(s)``, and 1.5, True and "3" would run another seed."""
    with pytest.raises(ScenarioError, match="seed must be a non-negative int"):
        build_scenario(case1_spec(), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_case1_keep_clear_box_in_the_ramp_lane(seed):
    """With the platoon in lane 0 its spawn box, x in [80, 210] of lane 0,
    covers the first two ramp-queue slots (x = 180 and 208): no HDV starts
    in the box, and of the four ramp drivers only the last two remain."""
    world = build_scenario(case1_spec(platoon_lane=0), seed)
    assert [d.state.id for d in world.hdvs
            if d.state.lane == 0 and 80.0 <= d.state.x <= 210.0] == []
    assert [(d.state.id, d.state.x) for d in world.hdvs
            if d.state.y < 0.0] == [(1565, 236.0), (1566, 264.0)]


@pytest.mark.parametrize("lane", [-1, 3])
def test_platoon_lane_off_the_road_rejected(lane):
    with pytest.raises(ScenarioError):
        case2_spec(platoon_lane=lane)
    assert case2_spec(platoon_lane=lane % 3).platoon_lane == lane % 3



@pytest.mark.parametrize("spec", [case1_spec(), case2_spec(density=3.0),
                                  case2_spec(density=14.0)],
                         ids=["case1", "case2-density3", "case2-density14"])
def test_spec_json_round_trip(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_spec_json_unknown_key_rejected():
    text = json.dumps({**json.loads(case1_spec().to_json()), "densty": 3.0})
    with pytest.raises(ScenarioError, match="densty"):
        ScenarioSpec.from_json(text)


@pytest.mark.parametrize("text", ["3", '["density"]', "null"])
def test_spec_json_not_an_object_rejected(text):
    with pytest.raises(ScenarioError, match="object"):
        ScenarioSpec.from_json(text)


@pytest.mark.parametrize("spec", [case1_spec, case2_spec])
@pytest.mark.parametrize("overrides", [
    dict(density=-1.0),
    dict(density=float("nan")),
    dict(density=float("inf")),
    dict(style_mix={"timid": 2.0}),
    dict(style_mix={"timid": 0.5, "reckless": 0.5}),
    dict(style_mix={"timid": float("nan"), "normal": 1.0}),
    dict(style_mix={"normal": "1"}),
], ids=["negative-density", "nan-density", "inf-density", "mix-over-one", "unknown-style",
        "nan-weight", "text-weight"])
def test_bad_background_traffic_rejected(spec, overrides):
    """Checked at the spec by ``TrafficSpec``'s own rules; otherwise they
    fail only in ``build_scenario``, with ``TrafficSpec``'s ``ValueError``."""
    with pytest.raises(ScenarioError, match="background traffic"):
        spec(**overrides)
    assert spec(density=0.0, style_mix={"normal": 1.0}).density == 0.0


@pytest.mark.parametrize("window", [0.0, -60.0, float("nan")])
def test_non_positive_success_window_rejected(window):
    with pytest.raises(ScenarioError):
        case2_spec(success_window=window)


@pytest.mark.parametrize("overrides", [
    dict(congestion_density=-1.0),
    dict(congestion_density=float("nan")),
    dict(congestion_density=float("inf")),
    dict(congestion_from=2600.0, congestion_to=2600.0),
    dict(congestion_from=2600.0, congestion_to=220.0),
    dict(congestion_from=float("nan")),
    dict(congestion_to=float("inf")),
    dict(congestion_speed=0.0),
    dict(congestion_speed=float("nan")),
    dict(ramp_start=float("nan")),
    dict(ramp_end=float("inf")),
    dict(ramp_start=-10.0),
    dict(ramp_start=450.0),
    dict(ramp_start=500.0),
    dict(ramp_end=4500.0),
    dict(road_length=400.0),
], ids=["negative-density", "nan-density", "inf-density", "empty-block", "inverted-block",
        "nan-start", "inf-end", "zero-speed", "nan-speed", "nan-ramp-start", "inf-ramp-end",
        "negative-ramp-start", "empty-ramp", "inverted-ramp", "ramp-past-road-end",
        "road-shorter-than-ramp"])
def test_bad_congestion_block_rejected(overrides):
    """The congestion block and the ramp are case 1's; rejected at
    construction and from JSON, rather than as a ``WorldError`` in set-up."""
    with pytest.raises(ScenarioError):
        case1_spec(**overrides)
    text = json.dumps({**json.loads(case1_spec().to_json()), **overrides})
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_json(text)
    # case 2 spawns no congestion block and has no ramp, so their fields are not read
    assert case2_spec(**overrides).case == 2


@pytest.mark.parametrize("overrides", [
    dict(event_time=-1.0),
    dict(event_time=float("inf")),
    dict(event_decel=0.0),
    dict(event_decel=float("-inf")),
    dict(event_duration=0.0),
    dict(event_duration=float("nan")),
    dict(event_cruise_after=-1.0),
    dict(event_cruise_after=float("nan")),
    dict(event_lead_gap=-20.0),
    dict(event_lead_gap=0.0),
], ids=["negative-time", "inf-time", "zero-decel", "inf-decel", "zero-duration",
        "nan-duration", "negative-cruise", "nan-cruise", "negative-gap", "zero-gap"])
def test_bad_event_block_rejected(overrides):
    with pytest.raises(ScenarioError):
        case2_spec(**overrides)
    # case 1 schedules no brake event, so its fields are not read
    assert case1_spec(**overrides).case == 1


@pytest.mark.parametrize("spec", [case1_spec, case2_spec])
@pytest.mark.parametrize("overrides", [
    dict(lane_width=float("nan")),
    dict(lane_width=0.0),
    dict(road_length=float("inf")),
    dict(road_length=-100.0),
    dict(speed_limit=float("nan")),
    dict(speed_limit=0.0),
    dict(episode_len=float("nan")),
    dict(episode_len=float("inf")),
    dict(platoon_speed=float("nan")),
    dict(platoon_speed=-1.0),
    dict(platoon_speed=50.0),
    dict(speed_limit=20.0),
    dict(lane_count=2.5),
    dict(lane_count=1, platoon_lane=0),
    dict(platoon_size=2.5),
    dict(platoon_lane=1.0),
    dict(platoon_lane=True),
    dict(ramp_queue=1.5),
    dict(ramp_queue=-1),
], ids=["nan-lane-width", "zero-lane-width", "inf-road", "negative-road", "nan-limit",
        "zero-limit", "nan-episode", "inf-episode", "nan-platoon-speed",
        "negative-platoon-speed", "platoon-speed-over-limit", "limit-under-platoon-speed",
        "float-lane-count", "one-lane", "float-platoon-size", "float-platoon-lane",
        "bool-platoon-lane", "float-ramp-queue", "negative-ramp-queue"])
def test_bad_road_or_platoon_speed_rejected(spec, overrides):
    """Rejected at construction; otherwise they fail later, in set-up or
    mid-episode, or run the platoon above the road's limit.  A float count
    or lane would fail in set-up or reach the vehicle states."""
    with pytest.raises(ScenarioError):
        spec(**overrides)
    assert spec(platoon_speed=0.0).platoon_speed == 0.0
    assert spec(platoon_speed=config.SPEED_LIMIT).platoon_speed == config.SPEED_LIMIT


@pytest.mark.parametrize("spec", [case1_spec, case2_spec])
@pytest.mark.parametrize("headway", [3.0, 4.9, 5.0, 5.000000000000001, float("nan"),
                                     float("inf")])
def test_headway_within_a_car_length_rejected(spec, headway):
    """Members spawned a car length or less apart collide at once; an
    infinite headway puts every member after the head at x = nan.  One
    rounding step over 5 m still rounds the second member's x to 145.0, a
    car length behind the head at 150.0."""
    with pytest.raises(ScenarioError, match="headway"):
        spec(headway=headway)
    assert spec(headway=5.01).headway == 5.01


@pytest.mark.parametrize("gap", [5e-324, 1e-14])
def test_lead_gap_lost_to_rounding_rejected(gap):
    """A positive gap below the rounding step of the leader's x puts it
    bumper to bumper with the platoon's head."""
    with pytest.raises(ScenarioError, match="event_lead_gap"):
        case2_spec(event_lead_gap=gap)
    assert case2_spec(event_lead_gap=1e-9).event_lead_gap == 1e-9


if __name__ == "__main__":
    print(json.dumps(_all_pins(), indent=1))
