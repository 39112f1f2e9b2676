"""Seeded episodes run end to end through ``run_episode``.

Case 1 with GRDF, case 2 at a sparse traffic level with GRDF-GT and case 2
at a dense level with GRDF, seeds 0-1, each 20 s long so the case-2 brake at
10 s is covered.  Every run must return and hold the benchmark's output
invariants: frames x dt equals the duration, every metric and every final
vehicle field is finite, and no platoon member ends above the speed limit.
A limit monitor checks every member against the physical limits, and
every vehicle's heading and lateral acceleration, on every frame.  Its
``EpisodeMetrics.row()`` is compared exactly against
``golden/episodes.json``.  A property test draws short episodes over lane
and platoon counts, density, case and seed, and holds each to the same
invariants and monitor, unless its spec is rejected.  Case 2's leader
braking to a standstill in front of the platoon on 3 and 4 lanes, seeds
0-2, must be cleared by a lane change without a collision, each member
running the plan the game scored.  A case-1 network-policy episode whose one window becomes a
reorganization is pinned below.  A case-1 heuristic episode checks that
the reward, the metrics and the game phase read one reorganization clock,
and a case-2 network-policy episode that a split the game answers by
keeping every coalition in lane is label-only.  A case-2 network-policy episode pins every lane-change plan
the game hands the executors and the final member states, so the
game-to-executor path has an end-to-end guard; there and in a case-1
episode every plan an executor starts is the object the game scored.

Regenerate the pins only for an intended behaviour change:
``PYTHONPATH=src python tests/test_episode.py > tests/golden/episodes.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonreorg import coalition, config, distribution, episode, riskfield
from platoonreorg.coalition import (KEEP, MERGING, SPLITTING, STEADY, GameScene,
                                    form_coalitions, predict_outcomes)
from platoonreorg.control import CavExecutor
from platoonreorg.episode import GrdfPolicy, PlatoonMember, World, run_episode
from platoonreorg.ppo import PolicyNetwork
from platoonreorg.riskfield import risk_reward
from platoonreorg.scenarios import ScenarioError, build_scenario, case1_spec, case2_spec
from platoonreorg.traffic import HdvDriver, style_params
from platoonreorg.world import CAV, RoadMap, SimClock, VehicleState, lead_vehicle, step_kinematics

GOLDEN = Path(__file__).parent / "golden" / "episodes.json"
EPISODE_LEN = 20.0

CASES = {
    "case1-grdf": (lambda: case1_spec(episode_len=EPISODE_LEN), False),
    "case2-sparse-grdf-gt": (lambda: case2_spec(density=3.0, episode_len=EPISODE_LEN), True),
    "case2-dense-grdf": (lambda: case2_spec(density=14.0, episode_len=EPISODE_LEN), False),
}
SEEDS = (0, 1)


def _finite(value) -> bool:
    return not isinstance(value, numbers.Real) or math.isfinite(value)


# float rounding of the backward differences that ``step_kinematics`` takes
LIMIT_SLACK = 1e-9


def limit_breaks(world) -> list[str]:
    """Each physical limit a vehicle breaks on the current frame: a platoon
    member's speed above the road's limit, |accel| above ``ACCEL_LIMIT``,
    |jerk| above ``JERK_LIMIT``, or a field that is not finite; any
    vehicle's |heading| above ``HEADING_LIMIT`` or |lateral accel| above
    ``LAT_ACCEL_LIMIT``."""
    t = world.clock.t
    breaks = []
    for m in world.members:
        s = m.state
        for name, value, limit in (("speed", s.speed, world.road.speed_limit),
                                   ("accel", abs(s.accel), config.ACCEL_LIMIT),
                                   ("jerk", abs(s.jerk), config.JERK_LIMIT)):
            if value > limit + LIMIT_SLACK:
                breaks.append(f"t={t} member {m.index} {name} {value!r} > {limit}")
        breaks += [f"t={t} member {m.index} {f.name} = {getattr(s, f.name)!r}"
                   for f in dataclasses.fields(s) if not _finite(getattr(s, f.name))]
    for s in [m.state for m in world.members] + [d.state for d in world.hdvs]:
        for name, value, limit in (("heading", abs(s.heading), config.HEADING_LIMIT),
                                   ("ay", abs(s.ay), config.LAT_ACCEL_LIMIT)):
            if value > limit + LIMIT_SLACK:
                breaks.append(f"t={t} {s.kind} {s.id} {name} {value!r} > {limit}")
    return breaks


def monitor_limits(world) -> list[str]:
    """Run ``limit_breaks`` after every frame of the world's clock; the
    returned list collects the breaks as the episode runs."""
    breaks = []
    tick = world.clock.tick

    def checked():
        tick()
        breaks.extend(limit_breaks(world))

    world.clock.tick = checked
    return breaks


def run_case(name: str, seed: int):
    """(world, result, limit breaks) of one monitored golden episode."""
    make_spec, use_pdi = CASES[name]
    spec = make_spec()
    world = build_scenario(spec, seed)
    breaks = monitor_limits(world)
    result = run_episode(world, GrdfPolicy(use_pdi=use_pdi), seed, spec.episode_len,
                         spec.success_window)
    return world, result, breaks


def invariant_failures(world, result) -> list[str]:
    metrics = result.metrics
    failures = []
    if not math.isclose(result.frames * world.clock.dt, metrics.duration, abs_tol=1e-6):
        failures.append(f"frames*dt {result.frames * world.clock.dt} != {metrics.duration}")
    failures += [f"row[{k}] = {v!r}" for k, v in metrics.row().items() if not _finite(v)]
    for state in world.all_states():
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
    world, result, breaks = run_case(name, seed)
    assert invariant_failures(world, result) == []
    assert breaks == []
    assert result.metrics.row() == golden[f"{name}/seed{seed}"]


@st.composite
def episode_setups(draw):
    """(case, spec fields, use_pdi): lane and platoon counts, a platoon lane
    on the road and an ambient density over their usual ranges; case 2 also
    draws its brake's start within the first 2 s and PDI on or off."""
    lane_count = draw(st.integers(2, 5))
    fields = dict(lane_count=lane_count, platoon_size=draw(st.integers(2, 5)),
                  platoon_lane=draw(st.integers(0, lane_count - 1)),
                  density=draw(st.floats(0.0, 14.0)), episode_len=3.0)
    if draw(st.booleans()):
        return 1, fields, False
    fields["event_time"] = draw(st.floats(0.0, 2.0))
    return 2, fields, draw(st.booleans())


@given(setup=episode_setups(), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_any_episode_keeps_the_limits_or_is_rejected(setup, seed):
    """A 3 s episode of each drawn setup holds the output invariants and
    every member stays within the physical limits on every frame, or
    building its world raises ``ScenarioError``."""
    case, fields, use_pdi = setup
    try:
        spec = (case1_spec if case == 1 else case2_spec)(**fields)
        world = build_scenario(spec, seed)
    except ScenarioError:
        return
    breaks = monitor_limits(world)
    result = run_episode(world, GrdfPolicy(use_pdi=use_pdi), seed, spec.episode_len,
                         spec.success_window)
    assert invariant_failures(world, result) == []
    assert breaks == []


# Case 1, 30 s under an untrained network policy (8 observed objects x 9
# features in, 4 configurations out, network seed 0).  At 1 s the steady
# game moves the intact platoon left, its members starting 1 s apart.  The
# network splits into (0), (1) and (2) at 4 s, with the rear member still in
# lane 1, so the window is a reorganization at once.  It then flips between
# split and single targets every 1-4 s, so no single target holds long
# enough to close the window: no formation time.  At 25 s the splitting
# game sends all three right, back to lane 1.  The run covers ``Observer``
# and ``select_configuration`` inside the loop.
NETWORK_LEN = 30.0
NETWORK_SEED = 30
NETWORK_ROW = {"collision": 0, "avg_speed": 25.000008, "min_ttc": 9.162224,
               "avg_distance": 10.000012, "formation_success": 0, "formation_time": "",
               "reorganizations": 1, "label_only_splits": 0, "duration": 30.0}


def test_network_policy_episode_matches_pin():
    spec = case1_spec(episode_len=NETWORK_LEN)
    world = build_scenario(spec, NETWORK_SEED)
    breaks = monitor_limits(world)
    policy = GrdfPolicy(network=PolicyNetwork(obs_dim=72, n_actions=4, seed=0))
    result = run_episode(world, policy, NETWORK_SEED, spec.episode_len, spec.success_window)
    assert invariant_failures(world, result) == []
    assert breaks == []
    assert result.metrics.row() == NETWORK_ROW


def run_heuristic_case1(seed, collect_reward=None):
    """(policy, result) of case 1 over 20 s under the heuristic, with the game audited."""
    spec = case1_spec(episode_len=EPISODE_LEN)
    policy = GrdfPolicy(keep_audit=True)
    result = run_episode(build_scenario(spec, seed), policy, seed, spec.episode_len,
                         spec.success_window, collect_reward=collect_reward)
    return policy, result


def test_reward_metrics_and_game_phase_share_one_clock():
    """Case 1 seed 3 splits at 3.0 s, while its members are in a lane change
    the game began at 1.0 s, and the formation re-forms 7.1 s after the
    split: one reorganization, which the reward, the metrics and the game
    phase all read."""
    decisions = []

    def collect(scene, action, reorg, t):
        decisions.append((t, action.single_group, reorg.triggered, reorg.recent))

    policy, result = run_heuristic_case1(3, collect)
    metrics = result.metrics
    assert (metrics.reorganizations, metrics.label_only_splits) == (1, 0)
    assert metrics.row()["formation_time"] == 7.1
    # the reward is handed the same reorganization time the metrics report
    assert [d for *_, recent in decisions for d in recent] == [metrics.formation_time]
    start = next(t for t, _, triggered, _ in decisions if triggered)
    assert start == 3.0
    merge = next(t for t, single, _, _ in decisions if t > start and single)
    end = start + metrics.formation_time + config.FORMATION_HOLD
    # the game stays in the merging phase until the reorganization ends
    audit = policy.audit_rows()
    for row in audit:
        t = row["t"]
        want = (STEADY if t < start or t >= end else SPLITTING if t < merge else MERGING)
        assert row["phase"] == want, t
    assert max(r["t"] for r in audit if r["phase"] == MERGING) == 13.0


def test_a_split_the_game_answers_with_keep_is_label_only():
    """Case 2 at density 3 under a network policy (seed 2), episode seed 0,
    splits into (0, 1) and (2) at 16.0 s, and on all 14 splitting ticks the
    game keeps every coalition in lane: no vehicle makes a reorganization,
    so the split is label-only and nothing is timed."""
    spec = case2_spec(density=3.0, episode_len=30.0)
    policy = GrdfPolicy(network=PolicyNetwork(obs_dim=72, n_actions=4, seed=2), keep_audit=True)
    result = run_episode(build_scenario(spec, 0), policy, 0, spec.episode_len,
                         spec.success_window)
    splitting = [r for r in policy.audit_rows() if r["phase"] == SPLITTING]
    assert (splitting[0]["t"], splitting[0]["coalitions"]) == (16.0, [[0, 1], [2]])
    assert len(splitting) == 14
    assert all(a == KEEP for r in splitting for a in r["action"])
    row = result.metrics.row()
    assert (row["reorganizations"], row["label_only_splits"], row["formation_time"],
            row["formation_success"]) == (0, 1, "", 0)


def test_one_snapshot_per_frame(monkeypatch, golden):
    """Every frame reads the one snapshot built per episode: states advance
    in place, so the list never goes stale."""
    calls = 0
    all_states = World.all_states

    def counted(self):
        nonlocal calls
        calls += 1
        return all_states(self)

    monkeypatch.setattr(World, "all_states", counted)
    _, result, _ = run_case("case1-grdf", 0)
    assert result.metrics.row() == golden["case1-grdf/seed0"]
    assert calls == 1


def _count_platoon_decisions(monkeypatch):
    """Wrap ``GrdfPolicy.platoon_decide``; the returned list grows by one per call."""
    decisions = []
    platoon_decide = GrdfPolicy.platoon_decide

    def counted(self, scene, t):
        decisions.append(t)
        return platoon_decide(self, scene, t)

    monkeypatch.setattr(GrdfPolicy, "platoon_decide", counted)
    return decisions


def test_one_scene_per_decision_tick(monkeypatch, golden):
    """On every ``config.DECISION_PERIOD`` tick, and on no other frame, the
    platoon layer, its reward and the vehicle layer read one ``GameScene``,
    in that order."""
    calls = []
    platoon_decide, vehicle_decide = GrdfPolicy.platoon_decide, GrdfPolicy.vehicle_decide

    def platoon(self, scene, t):
        calls.append(("platoon", t, scene))
        return platoon_decide(self, scene, t)

    def vehicle(self, scene, t):
        calls.append(("vehicle", t, scene))
        return vehicle_decide(self, scene, t)

    def reward(scene, action, reorg, t):
        calls.append(("reward", t, scene))

    monkeypatch.setattr(GrdfPolicy, "platoon_decide", platoon)
    monkeypatch.setattr(GrdfPolicy, "vehicle_decide", vehicle)
    spec = CASES["case1-grdf"][0]()
    world = build_scenario(spec, 0)
    result = run_episode(world, GrdfPolicy(), 0, spec.episode_len, spec.success_window,
                         collect_reward=reward)
    assert result.metrics.row() == golden["case1-grdf/seed0"]
    period = round(config.DECISION_PERIOD / config.DT)
    ticks = [round(f * config.DT, 9) for f in range(0, result.frames, period)]
    assert [(name, t) for name, t, _ in calls] == [
        (name, t) for t in ticks for name in ("platoon", "reward", "vehicle")]
    for k in range(0, len(calls), 3):
        scene = calls[k][2]
        assert isinstance(scene, GameScene)
        assert all(c[2] is scene for c in calls[k:k + 3])
    assert len({id(c[2]) for c in calls}) == len(ticks)


@pytest.mark.parametrize("name,seed", [("case1-grdf", 0), ("case2-dense-grdf", 1)])
def test_one_leader_lookup_per_member_and_frame(monkeypatch, golden, name, seed):
    """The post-step leader serves ``min_ttc`` and the next command; only the
    heuristic's read of the tick's ``GameScene.lead_ttcs`` looks again, once
    per member."""
    cav_lookups = 0
    lead_vehicle = episode.lead_vehicle

    def counted_lookup(ego, others):
        nonlocal cav_lookups
        cav_lookups += getattr(ego, "kind", None) == CAV  # HDV lane probes are Points
        return lead_vehicle(ego, others)

    monkeypatch.setattr(episode, "lead_vehicle", counted_lookup)
    monkeypatch.setattr(coalition, "lead_vehicle", counted_lookup)
    decisions = _count_platoon_decisions(monkeypatch)
    world, result, _ = run_case(name, seed)
    assert result.metrics.row() == golden[f"{name}/seed{seed}"]
    n = len(world.members)
    assert decisions
    assert cav_lookups == n * (result.frames + 1) + n * len(decisions)


def test_each_hdv_decides_its_lane_once_per_second_on_its_own_frames(monkeypatch, golden):
    """Driver k of ``world.hdvs`` decides on the frames f with
    (f + k) % period == 0, one second of frames being one period, and the
    drivers due on one frame decide in list order."""
    calls = []
    decide = episode.hdv_decide_lane

    def recorded(driver, world, snapshot):
        calls.append((round(world.clock.t / config.DT), driver.state.id))
        decide(driver, world, snapshot)

    monkeypatch.setattr(episode, "hdv_decide_lane", recorded)
    world, result, _ = run_case("case1-grdf", 0)
    assert result.metrics.row() == golden["case1-grdf/seed0"]
    period = round(1.0 / config.DT)
    assert calls == [(f, d.state.id) for f in range(result.frames)
                     for k, d in enumerate(world.hdvs) if (f + k) % period == 0]


@pytest.mark.parametrize("name,seed", [("case1-grdf", 0), ("case2-dense-grdf", 1)])
def test_one_risk_field_per_member_and_platoon_decision(monkeypatch, golden, name, seed):
    """The platoon layer's reward reads each member's risk once per platoon
    decision, from the tick's scene; nothing else in the loop computes it,
    so without a reward nothing does."""
    risk_calls = 0
    risk_reward = riskfield.risk_reward

    def counted(*args):
        nonlocal risk_calls
        risk_calls += 1
        return risk_reward(*args)

    for module in (riskfield, coalition):
        monkeypatch.setattr(module, "risk_reward", counted)
    decisions = _count_platoon_decisions(monkeypatch)
    world, result, _ = run_case(name, seed)
    assert result.metrics.row() == golden[f"{name}/seed{seed}"]
    assert decisions
    assert risk_calls == 0

    make_spec, use_pdi = CASES[name]
    spec = make_spec()
    world = build_scenario(spec, seed)
    decisions.clear()
    result = run_episode(world, GrdfPolicy(use_pdi=use_pdi), seed, spec.episode_len,
                         spec.success_window,
                         collect_reward=lambda scene, action, reorg, t:
                         distribution.compute_reward(scene, reorg, False))
    assert result.metrics.row() == golden[f"{name}/seed{seed}"]
    assert risk_calls == len(world.members) * len(decisions)


def test_stalled_leader_raises_the_front_members_risk(monkeypatch):
    """Case 2's 3-lane stalled leader, seed 1: the front member reads no
    risk at 5 s, before the brake, and a positive one at 12 s, while it
    closes on the braking leader."""
    spec = case2_spec(density=3.0, event_cruise_after=0.0)
    world = build_scenario(spec, 1)
    front = {}
    platoon_decide = GrdfPolicy.platoon_decide

    def recorded(self, scene, t):
        front[t] = scene.risks[0]
        return platoon_decide(self, scene, t)

    monkeypatch.setattr(GrdfPolicy, "platoon_decide", recorded)
    run_episode(world, GrdfPolicy(use_pdi=True), 1, 13.0, spec.success_window)
    assert front[5.0] == 0.0
    assert front[12.0] > 0.0


@pytest.mark.parametrize("lane_count,seed",
                         [pytest.param(3, seed, id=str(seed)) for seed in range(3)]
                         + [pytest.param(4, seed, id=f"{seed}-4lanes") for seed in range(3)])
def test_stalled_leader_is_cleared_by_a_lane_change(monkeypatch, lane_count, seed):
    """Case 2's leader brakes to a standstill (``event_cruise_after=0``) in
    front of the platoon on 3 and on 4 lanes under GRDF-GT: over 120 s no
    member collides or breaks a limit, at least one member leaves its lane,
    and every plan an executor starts is the one the game scored."""
    spec = case2_spec(density=3.0, event_cruise_after=0.0, lane_count=lane_count)
    world = build_scenario(spec, seed)
    breaks = monitor_limits(world)
    starts = record_plan_starts(monkeypatch, world)
    lanes = {m.index: {m.state.lane} for m in world.members}
    tick = world.clock.tick

    def seen():
        tick()
        for m in world.members:
            lanes[m.index].add(m.state.lane)

    world.clock.tick = seen
    result = run_episode(world, GrdfPolicy(use_pdi=True), seed, spec.episode_len,
                         spec.success_window)
    assert not result.metrics.collision
    assert result.metrics.duration == spec.episode_len == 120.0
    assert invariant_failures(world, result) == []
    assert breaks == []
    assert any(len(seen_lanes) > 1 for seen_lanes in lanes.values())
    assert starts and all(start.scored for start in starts)


def test_dense_case2_changes_lane_past_the_braking_leader(monkeypatch):
    """Case 2 at density 14, seed 2: the scripted leader brakes in front of
    the platoon, and at 13.0 s the all-KEEP rollout overlaps it while the
    rollout of a move RIGHT does not.  The game schedules a lane change,
    and over 30 s the platoon averages more than 20 m/s instead of
    following the leader down."""
    spec = case2_spec(density=14.0, episode_len=30.0)
    world = build_scenario(spec, 2)
    scheduled = []
    schedule = CavExecutor.schedule

    def recorded(self, t0, plan):
        scheduled.append((t0, plan))
        schedule(self, t0, plan)

    monkeypatch.setattr(CavExecutor, "schedule", recorded)
    result = run_episode(world, GrdfPolicy(), 2, spec.episode_len, spec.success_window)
    assert scheduled
    assert result.metrics.row()["avg_speed"] > 20.0


def _lead_info_world(hdv_poses):
    """Members in lanes 0, 1 and 2 at x = 100, 60, 20, all at 25 m/s, among
    HDVs given as (x, lane, speed)."""
    road = RoadMap()
    idm, mobil = style_params("normal", road.speed_limit)
    members = [PlatoonMember(i, VehicleState(id=i, kind=CAV, x=x, y=road.lane_center(i),
                                             speed=25.0, lane=i, target_lane=i),
                             CavExecutor(cruise_speed=25.0))
               for i, x in enumerate((100.0, 60.0, 20.0))]
    hdvs = [HdvDriver(VehicleState(id=1000 + k, x=x, y=road.lane_center(lane), speed=v,
                                   lane=lane, target_lane=lane), idm, mobil)
            for k, (x, lane, v) in enumerate(hdv_poses)]
    return World(road=road, clock=SimClock(), members=members, hdvs=hdvs)


def lead_info(world):
    """(leader TTC, lowest member TTC, at-risk member) of the ``GameScene``
    the loop builds on the world's snapshot."""
    snapshot = world.all_states()
    n = len(world.members)
    scene = GameScene(road=world.road, platoon=snapshot[:n], background=snapshot[n:],
                      executors=[m.executor for m in world.members])
    return scene.lead_ttcs[0], min(scene.lead_ttcs), scene.at_risk


def test_lead_info_prefers_first_lowest_finite_ttc():
    """TTCs (1, 2, inf): member 0 is at risk, though an HDV closing from
    behind member 2 gives it the highest risk field."""
    world = _lead_info_world([(107.0, 0, 23.0), (69.0, 1, 23.0), (12.0, 2, 33.0)])
    background = [d.state for d in world.hdvs]
    risks = [risk_reward(m.state, background) for m in world.members]
    assert max(risks) == risks[2] > max(risks[:2])
    tau0, best_tau, idx = lead_info(world)
    assert (tau0, best_tau) == (pytest.approx(1.0), pytest.approx(1.0))
    assert idx == 0
    # equal lowest TTCs: the first wins
    world = _lead_info_world([(107.0, 0, 23.0), (67.0, 1, 23.0), (12.0, 2, 33.0)])
    assert lead_info(world)[2] == 0


# Case 2 at density 3, 30 s under GRDF-GT and an untrained network policy
# (network seed 1).  It starts lane-change plans without a collision: the
# splitting game moves all three members, each its own coalition, right at
# 11 s, so the planner, the executor's tracking and the end of a plan all
# run inside the loop.  The digest covers every field of each
# member's final state, whether its executor tracks a plan ("track") or not
# ("follow"), and its plan start, with floats in hex.
PLAN_NET_SEED = 1
PLAN_SEED = 2
PLAN_ROW = {"collision": 0, "avg_speed": 25.0, "min_ttc": 7.083543,
            "avg_distance": 10.0, "formation_success": 0, "formation_time": "",
            "reorganizations": 1, "label_only_splits": 0, "duration": 30.0}
PLANS = [(11.0, 0, 0, 2.8), (11.0, 1, 0, 2.8), (11.0, 2, 0, 2.8)]
PLAN_DIGEST = "1965d6f55299a228"

def member_digest(world) -> str:
    def hexed(value):
        return value.hex() if isinstance(value, float) else value

    fields = []
    for m in world.members:
        state = {f.name: hexed(getattr(m.state, f.name)) for f in dataclasses.fields(m.state)}
        ex = m.executor
        tracking = "track" if ex.trajectory is not None else "follow"
        fields.append([state, tracking, hexed(ex.traj_t0)])
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def test_lane_change_plans_run_end_to_end(monkeypatch):
    """The plans the game hands the executors, as (start, member, target
    lane, duration), recorded at ``CavExecutor.schedule``."""
    spec = case2_spec(density=3.0, episode_len=30.0)
    world = build_scenario(spec, PLAN_SEED)
    breaks = monitor_limits(world)
    member = {id(m.executor): m.index for m in world.members}
    plans = []
    schedule = CavExecutor.schedule

    def recorded(self, t0, plan):
        plans.append((t0, member[id(self)], plan.target_lane, plan.duration))
        schedule(self, t0, plan)

    monkeypatch.setattr(CavExecutor, "schedule", recorded)
    policy = GrdfPolicy(use_pdi=True,
                        network=PolicyNetwork(obs_dim=72, n_actions=4, seed=PLAN_NET_SEED))
    result = run_episode(world, policy, PLAN_SEED, spec.episode_len, spec.success_window)
    assert invariant_failures(world, result) == []
    assert breaks == []
    assert result.metrics.row() == PLAN_ROW
    assert plans == PLANS
    assert member_digest(world) == PLAN_DIGEST


class PlanStart(NamedTuple):
    t: float            # the command that starts the plan
    member: int
    delay: float        # from the decision tick that scheduled it
    scored: bool        # the object the game made for this member on that tick


def record_plan_starts(monkeypatch, world) -> list:
    """A list that fills, as the world's episode runs, with one
    ``PlanStart`` per plan an executor starts tracking."""
    made = {}           # id(plan) -> (plan, member, decision tick)
    tick = [None]
    member = {id(m.executor): m.index for m in world.members}
    starts = []
    vehicle_decide, lane_change = GrdfPolicy.vehicle_decide, GameScene.lane_change
    command = CavExecutor.command

    def decided(self, scene, t):
        tick[0] = t
        return vehicle_decide(self, scene, t)

    def planned(self, i, direction):
        plan = lane_change(self, i, direction)
        made[id(plan)] = (plan, i, tick[0])
        return plan

    def commanded(self, state, leader, t_now, road):
        before = self.trajectory is not None and self.traj_t0 <= t_now - config.DT / 2
        out = command(self, state, leader, t_now, road)
        plan = self.trajectory
        if plan is not None and not before and self.traj_t0 <= t_now + 1e-9:
            twin, i, t0 = made.get(id(plan), (None, None, None))
            scored = twin is plan and i == member[id(self)]
            starts.append(PlanStart(t_now, member[id(self)],
                                    round(t_now - t0, 9) if scored else math.nan, scored))
        return out

    monkeypatch.setattr(GrdfPolicy, "vehicle_decide", decided)
    monkeypatch.setattr(GameScene, "lane_change", planned)
    monkeypatch.setattr(CavExecutor, "command", commanded)
    return starts


@pytest.mark.parametrize("episode", ["plans", "case1-seed5"])
def test_every_started_plan_is_the_one_the_game_scored(monkeypatch, episode):
    """Each plan an executor starts is the very ``GameScene.lane_change``
    object of the decision tick that scheduled it, for the members that
    start ``STAGGER`` s or more after the tick too.  In case 1, seed 5, the
    intact platoon changes lane as one coalition at 1 s: its members start
    0, 1 and 2 s after the tick."""
    if episode == "plans":
        spec = case2_spec(density=3.0, episode_len=30.0)
        seed, policy = PLAN_SEED, GrdfPolicy(
            use_pdi=True, network=PolicyNetwork(obs_dim=72, n_actions=4, seed=PLAN_NET_SEED))
    else:
        spec, seed, policy = case1_spec(episode_len=EPISODE_LEN), 5, GrdfPolicy()
    world = build_scenario(spec, seed)
    starts = record_plan_starts(monkeypatch, world)
    result = run_episode(world, policy, seed, spec.episode_len, spec.success_window)
    assert all(start.scored for start in starts)
    if episode == "plans":
        assert result.metrics.row() == PLAN_ROW
        assert [(s.t, s.member, s.delay) for s in starts] == [(t, i, 0.0) for t, i, _, _ in PLANS]
    else:
        assert [(s.t, s.member, s.delay) for s in starts] == [
            (1.0, 0, 0.0), (2.0, 1, coalition.STAGGER), (3.0, 2, 2 * coalition.STAGGER)]


def keep_lane_tracks(world, t0):
    """The members' final poses in the game's all-KEEP rollout on the
    world's snapshot at t0, and their states once their executors have run
    over the game's horizon, with the background under ``world.predict``'s
    law (lane held or, in mid-change, the driver's plan tracked; an HDV's
    braking held until it stops, else constant speed) in both."""
    snapshot = world.all_states()
    n = len(world.members)
    states, background = snapshot[:n], snapshot[n:]
    scene = GameScene(road=world.road, platoon=states, background=background,
                      executors=[m.executor for m in world.members])
    partition = form_coalitions(states, background)
    horizon = config.DEFAULTS.game.horizon
    poses = predict_outcomes(scene, partition, [(KEEP,) * len(partition)], horizon)[0].poses
    t = t0
    for _ in range(round(horizon / config.DT)):
        commands = [m.executor.command(m.state, lead_vehicle(m.state, snapshot), t, world.road)
                    for m in world.members]
        for state, (speed, heading) in zip(states, commands):
            step_kinematics(state, speed, heading)
            state.lane = world.road.lane_of(state.y)
        for state in background:
            speed = max(state.speed + min(state.accel, 0.0) * config.DT, 0.0)
            step_kinematics(state, speed, world.drivers[state.id].lateral_update(speed))
        t = round(t + config.DT, 9)
    return poses, states


@pytest.mark.parametrize("make_spec,seed,t0", [(lambda: case2_spec(density=14.0), 1, 12.0),
                                             (lambda: case2_spec(density=14.0), 1, 11.0),
                                             (case1_spec, 0, 5.0)],
                         ids=["case2-dense-seed1-12s", "case2-dense-seed1-11s-braking",
                              "case1-seed0-5s"])
def test_rollout_predicts_the_executors_keep_lane_tracks(make_spec, seed, t0):
    """From the first whole second at or after t0 at which no member's
    executor is busy with a lane change, the game's all-KEEP rollout and
    the executors end within 0.5 m and 0.25 m/s of each other for every
    member (``keep_lane_tracks``): the rollout moves members with the law
    that runs, on its step.  At 11 s in case 2 the string brakes behind the
    scripted leader, and every follower answers its leader one step late in
    both."""
    for t0 in (t0 + k for k in range(10)):
        world = build_scenario(make_spec(), seed)
        run_episode(world, GrdfPolicy(), seed, t0)
        if not any(m.executor.busy() for m in world.members):
            break
    else:
        pytest.fail("an executor is busy at every whole second of the 10 s after t0")
    poses, states = keep_lane_tracks(world, t0)
    for pose, state in zip(poses, states, strict=True):
        assert abs(pose.x - state.x) <= 0.5
        assert abs(pose.speed - state.speed) <= 0.25


@pytest.mark.parametrize("make_spec,seed,t0", [(lambda: case2_spec(density=14.0), 1, 11.0),
                                             (case1_spec, 0, 2.0)],
                         ids=["case2-dense-seed1-11s", "case1-seed0-2s"])
def test_rollout_sees_the_front_members_leader_brake(make_spec, seed, t0):
    """At t0 the front member's leader is an HDV that brakes (case 2's
    scripted leader at -6 m/s², or a case-1 HDV at -2.2 m/s²) and no
    executor is busy: the rollout holds that braking, so the front member's
    predicted track ends within 5 m and 1 m/s of its executor's."""
    world = build_scenario(make_spec(), seed)
    run_episode(world, GrdfPolicy(), seed, t0)
    front = world.members[0].state
    assert lead_vehicle(front, world.all_states()).accel < -0.5
    assert not any(m.executor.busy() for m in world.members)
    poses, states = keep_lane_tracks(world, t0)
    assert abs(poses[0].x - states[0].x) <= 5.0
    assert abs(poses[0].speed - states[0].speed) <= 1.0


@pytest.mark.parametrize("network_seed", [None, 0], ids=["heuristic", "network"])
def test_both_layers_read_the_loops_snapshot(monkeypatch, network_seed):
    """On a tick where both layers decide, ``platoon_decide`` and
    ``vehicle_decide`` are handed the same ``GameScene``, built on the very
    list the loop built, so the two layers decide from one scene."""
    built, platoon_scenes, vehicle_scenes = [], {}, {}
    all_states = World.all_states
    platoon_decide, vehicle_decide = GrdfPolicy.platoon_decide, GrdfPolicy.vehicle_decide

    def recorded_build(self):
        built.append(all_states(self))
        return built[-1]

    def recorded_platoon(self, scene, t):
        platoon_scenes[t] = scene
        return platoon_decide(self, scene, t)

    def recorded_vehicle(self, scene, t):
        vehicle_scenes[t] = scene
        return vehicle_decide(self, scene, t)

    monkeypatch.setattr(World, "all_states", recorded_build)
    monkeypatch.setattr(GrdfPolicy, "platoon_decide", recorded_platoon)
    monkeypatch.setattr(GrdfPolicy, "vehicle_decide", recorded_vehicle)
    network = (None if network_seed is None
               else PolicyNetwork(obs_dim=72, n_actions=4, seed=network_seed))
    world = build_scenario(case2_spec(density=3.0), 0)
    run_episode(world, GrdfPolicy(network=network), 0, 12.0)
    assert len(built) == 1
    assert platoon_scenes and platoon_scenes.keys() <= vehicle_scenes.keys()
    assert all(scene is vehicle_scenes[t] for t, scene in platoon_scenes.items())
    for scene in vehicle_scenes.values():
        assert all(a is b for a, b in zip(scene.platoon + scene.background, built[0],
                                          strict=True))


def test_states_advance_in_place():
    world = build_scenario(case1_spec(), 0)
    states = world.all_states()
    run_episode(world, GrdfPolicy(), 0, 5.0)
    assert all(a is b for a, b in zip(world.all_states(), states, strict=True))


@pytest.mark.parametrize("obs_dim,n_actions", [(72, 3), (10, 4)])
def test_network_shape_checked_against_platoon(obs_dim, n_actions):
    """A 3-member platoon has 4 configurations and 8 x 9 observed features."""
    world = build_scenario(case1_spec(), 0)
    policy = GrdfPolicy(network=PolicyNetwork(obs_dim=obs_dim, n_actions=n_actions))
    with pytest.raises(ValueError, match=f"maps {obs_dim} inputs to {n_actions} actions; "
                                         "a 3-member platoon needs 72 to 4"):
        run_episode(world, policy, 0, 1.0)


@pytest.mark.parametrize("episode_len", [-5.0, -0.01, math.nan, math.inf])
def test_bad_episode_length_rejected(episode_len):
    world = build_scenario(case1_spec(), 0)
    with pytest.raises(ValueError):
        run_episode(world, GrdfPolicy(), 0, episode_len)


@pytest.mark.parametrize("window", [0.0, -60.0, math.nan])
def test_non_positive_success_window_rejected(window):
    world = build_scenario(case1_spec(), 0)
    with pytest.raises(ValueError):
        run_episode(world, GrdfPolicy(), 0, 1.0, window)


@pytest.mark.parametrize("network_seed", [None, 0], ids=["heuristic", "network"])
@pytest.mark.parametrize("seed", [1.5, True, "3", -1],
                         ids=["float", "bool", "str", "negative"])
def test_bad_seed_rejected(seed, network_seed):
    """The check runs before any Generator is built, so the heuristic
    policy, which gets none, rejects a bad seed too."""
    world = build_scenario(case1_spec(), 0)
    network = None if network_seed is None else PolicyNetwork(obs_dim=72, n_actions=4,
                                                              seed=network_seed)
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        run_episode(world, GrdfPolicy(network=network), seed, 1.0)


def test_episode_shorter_than_a_frame_returns_empty():
    world = build_scenario(case1_spec(), 0)
    result = run_episode(world, GrdfPolicy(), 0, 0.01)
    assert (result.frames, result.metrics.duration) == (0, 0.0)


if __name__ == "__main__":
    print(json.dumps({f"{name}/seed{seed}": run_case(name, seed)[1].metrics.row()
                      for name in CASES for seed in SEEDS}, indent=1))
