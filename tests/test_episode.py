"""Seeded episodes run end to end through ``run_episode``.

Case 1 with GRDF, case 2 at a sparse traffic level with GRDF-GT and case 2
at a dense level with GRDF, seeds 0-1, each 20 s long so the case-2 brake at
10 s is covered.  Every run must return and hold the benchmark's output
invariants: frames x dt equals the duration, every metric and every final
vehicle field is finite, and no platoon member ends above the speed limit.
A limit monitor checks every member on every frame against the physical
limits.  Its ``EpisodeMetrics.row()`` is compared exactly against
``golden/episodes.json``.  A property test draws short episodes over lane
and platoon counts, density, case and seed, and holds each to the same
invariants and monitor, unless its spec is rejected.  Case 2's leader
braking to a standstill in front of the platoon on 3 and 4 lanes, seeds
0-2, must be cleared by a lane change without a collision or a held
plan.  A case-1 network-policy episode that splits and re-merges is pinned
below; it also checks that the reward, the metrics and the game phase read
one reorganization clock.  A case-2 network-policy episode pins every
lane-change plan the executors start and the final member states, so the
planner-to-executor path has an end-to-end guard.

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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonreorg import coalition, config, control, episode, riskfield
from platoonreorg.coalition import (KEEP, MERGING, SPLITTING, STEADY, GameScene,
                                    form_coalitions, predict_outcome)
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
    """Each physical limit a platoon member breaks on the current frame:
    speed above the road's limit, |accel| above ``ACCEL_LIMIT``, |jerk|
    above ``JERK_LIMIT``, |lateral accel| above ``LAT_ACCEL_LIMIT``, or a
    field that is not finite."""
    t = world.clock.t
    breaks = []
    for m in world.members:
        s = m.state
        for name, value, limit in (("speed", s.speed, world.road.speed_limit),
                                   ("accel", abs(s.accel), config.ACCEL_LIMIT),
                                   ("jerk", abs(s.jerk), config.JERK_LIMIT),
                                   ("ay", abs(s.ay), config.LAT_ACCEL_LIMIT)):
            if value > limit + LIMIT_SLACK:
                breaks.append(f"t={t} member {m.index} {name} {value!r} > {limit}")
        breaks += [f"t={t} member {m.index} {f.name} = {getattr(s, f.name)!r}"
                   for f in dataclasses.fields(s) if not _finite(getattr(s, f.name))]
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
# features in, 4 configurations out, network seed 0).  The episode seed is the
# first that runs the 30 s without a collision and completes exactly one
# reorganization early enough for a later platoon decision to hand its time to
# the reward.  Under it the network splits into (0), (1) and (2) at 2 s and
# picks the single group again at 5 s; the formation is intact from 5.1 s,
# so the reorganization ends at 8.1 s and the 9 s decision hands its 3.1 s
# to the reward.  The run covers ``Observer``, ``select_configuration`` and
# one full reorganization inside the loop.
NETWORK_LEN = 30.0
NETWORK_SEED = 30
NETWORK_ROW = {"collision": 0, "avg_speed": 15.891398, "min_ttc": 3.136922,
               "avg_distance": 9.942796, "formation_success": 1, "formation_time": 3.1,
               "reorganizations": 1, "duration": 30.0}


def run_network_case(collect_reward=None):
    spec = case1_spec(episode_len=NETWORK_LEN)
    world = build_scenario(spec, NETWORK_SEED)
    breaks = monitor_limits(world)
    policy = GrdfPolicy(network=PolicyNetwork(obs_dim=72, n_actions=4, seed=0),
                        keep_audit=True)
    result = run_episode(world, policy, NETWORK_SEED, spec.episode_len, spec.success_window,
                         collect_reward=collect_reward)
    return world, policy, result, breaks


def test_network_policy_episode_matches_pin():
    world, _, result, breaks = run_network_case()
    assert invariant_failures(world, result) == []
    assert breaks == []
    assert result.metrics.row() == NETWORK_ROW


def test_reward_metrics_and_game_phase_share_one_clock():
    decisions = []

    def collect(world, action, reorg, t):
        decisions.append((t, action.single_group, reorg.triggered, reorg.recent))

    _, policy, result, _ = run_network_case(collect)
    metrics = result.metrics
    # the reward is handed the same reorganization time the metrics report
    assert [d for *_, recent in decisions for d in recent] == [metrics.formation_time]
    start = next(t for t, _, triggered, _ in decisions if triggered)
    merge = next(t for t, single, _, _ in decisions if t > start and single)
    end = start + metrics.formation_time + config.FORMATION_HOLD
    # the game stays in the merging phase until the reorganization ends
    audit = policy.audit_rows()
    for row in audit:
        t = row["t"]
        want = (STEADY if t < start or t >= end else SPLITTING if t < merge else MERGING)
        assert row["phase"] == want, t
    assert max(r["t"] for r in audit if r["phase"] == MERGING) == 8.0


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
    """The heuristic reads each member's risk once per platoon decision, from
    the tick's scene; nothing else in the loop computes it."""
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
    assert risk_calls == len(world.members) * len(decisions)


@pytest.mark.parametrize("lane_count,seed",
                         [pytest.param(3, seed, id=str(seed)) for seed in range(3)]
                         + [pytest.param(4, seed, id=f"{seed}-4lanes") for seed in range(3)])
def test_stalled_leader_is_cleared_by_a_lane_change(monkeypatch, lane_count, seed):
    """Case 2's leader brakes to a standstill (``event_cruise_after=0``) in
    front of the platoon on 3 and on 4 lanes under GRDF-GT: over 120 s no
    member collides or breaks a limit, at least one member leaves its lane,
    and every lane change the game starts passes the executor's dynamics
    check, so the ``hold_lane`` fallback never fires."""
    spec = case2_spec(density=3.0, event_cruise_after=0.0, lane_count=lane_count)
    world = build_scenario(spec, seed)
    breaks = monitor_limits(world)
    lanes = {m.index: {m.state.lane} for m in world.members}
    tick = world.clock.tick
    held = []
    select_trajectory = control.select_trajectory

    def seen():
        tick()
        for m in world.members:
            lanes[m.index].add(m.state.lane)

    def checked(candidate, ego, road):
        traj = select_trajectory(candidate, ego, road)
        if traj is not candidate:
            held.append((world.clock.t, ego.id))
        return traj

    world.clock.tick = seen
    monkeypatch.setattr(control, "select_trajectory", checked)
    result = run_episode(world, GrdfPolicy(use_pdi=True), seed, spec.episode_len,
                         spec.success_window)
    assert not result.metrics.collision
    assert result.metrics.duration == spec.episode_len == 120.0
    assert invariant_failures(world, result) == []
    assert breaks == []
    assert any(len(seen_lanes) > 1 for seen_lanes in lanes.values())
    assert held == []


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
    """(leader TTC, lowest member TTC, highest member risk, at-risk member) of
    the ``GameScene`` the loop builds on the world's snapshot."""
    snapshot = world.all_states()
    n = len(world.members)
    scene = GameScene(road=world.road, platoon=snapshot[:n], background=snapshot[n:],
                      executors=[m.executor for m in world.members])
    return scene.lead_ttcs[0], min(scene.lead_ttcs), max(scene.risks), scene.at_risk


def test_lead_info_prefers_first_lowest_finite_ttc():
    """TTCs (1, 2, inf) with the highest risk at member 2: member 0 is at risk.
    An HDV 1 m behind member 2 in its lane raises its risk, not its TTC."""
    world = _lead_info_world([(115.0, 0, 15.0), (85.0, 1, 15.0), (19.0, 2, 33.0)])
    background = [d.state for d in world.hdvs]
    risks = [risk_reward(m.state, background, config.DEFAULTS.risk) for m in world.members]
    assert max(risks) == risks[2] > max(risks[:2])
    tau0, best_tau, risk, idx = lead_info(world)
    assert (tau0, best_tau, risk) == (pytest.approx(1.0), pytest.approx(1.0), risks[2])
    assert idx == 0
    # equal lowest TTCs: the first wins
    world = _lead_info_world([(115.0, 0, 15.0), (75.0, 1, 15.0), (19.0, 2, 33.0)])
    assert lead_info(world)[3] == 0


def test_lead_info_falls_back_to_risk_without_finite_ttc():
    world = _lead_info_world([(115.0, 0, 30.0), (19.0, 2, 33.0)])
    tau0, best_tau, _, idx = lead_info(world)
    assert tau0 == best_tau == math.inf
    assert idx == 2


# Case 2 at density 3, 30 s under GRDF-GT and an untrained network policy
# (network seed 1).  Of network seeds 0-2 (outer) and episode seeds 0-2
# (inner), this is the first run that starts lane-change plans toward both
# sides without a collision: all three members move left at 11 s and right
# at 28 s, so the planner, the executor's tracking and the end of a plan
# all run inside the loop, and the episode ends mid-change.  The digest
# covers every field of each member's final state, whether its executor
# tracks a plan ("track") or not ("follow"), and its plan start, with
# floats in hex.
PLAN_NET_SEED = 1
PLAN_SEED = 2
PLAN_ROW = {"collision": 0, "avg_speed": 24.912358, "min_ttc": 10.160535,
            "avg_distance": 10.033967, "formation_success": 0, "formation_time": "",
            "reorganizations": 1, "duration": 30.0}
PLANS = [(11.0, 0, 2, 2.8), (11.0, 1, 2, 2.8), (11.0, 2, 2, 2.8),
         (28.0, 0, 1, 2.8), (28.0, 1, 1, 2.8), (28.0, 2, 1, 2.8)]
PLAN_DIGEST = "42c7e27931aa7f3d"

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
    spec = case2_spec(density=3.0, episode_len=30.0)
    world = build_scenario(spec, PLAN_SEED)
    breaks = monitor_limits(world)
    index = {m.state.id: m.index for m in world.members}
    plans = []
    select_trajectory = control.select_trajectory

    def recorded(candidate, ego, road):
        traj = select_trajectory(candidate, ego, road)
        plans.append((world.clock.t, index[ego.id], traj.target_lane, traj.duration))
        return traj

    monkeypatch.setattr(control, "select_trajectory", recorded)
    policy = GrdfPolicy(use_pdi=True,
                        network=PolicyNetwork(obs_dim=72, n_actions=4, seed=PLAN_NET_SEED))
    result = run_episode(world, policy, PLAN_SEED, spec.episode_len, spec.success_window)
    assert invariant_failures(world, result) == []
    assert breaks == []
    assert result.metrics.row() == PLAN_ROW
    assert plans == PLANS
    assert member_digest(world) == PLAN_DIGEST


def keep_lane_tracks(world, t0):
    """The game's all-KEEP rollout on the world's snapshot at t0, and the
    members' states once their executors have run over the game's horizon,
    with the background under ``world.predict``'s law (lane held, an HDV's
    braking held until it stops, else constant speed) in both."""
    snapshot = world.all_states()
    n = len(world.members)
    states, background = snapshot[:n], snapshot[n:]
    scene = GameScene(road=world.road, platoon=states, background=background,
                      executors=[m.executor for m in world.members])
    partition = form_coalitions(states, background)
    horizon = config.DEFAULTS.game.horizon
    tracks = predict_outcome(scene, partition, (KEEP,) * len(partition), horizon).platoon_tracks
    t = t0
    for _ in range(round(horizon / config.DT)):
        commands = [m.executor.command(m.state, lead_vehicle(m.state, snapshot), t, world.road)
                    for m in world.members]
        for state, (speed, heading) in zip(states, commands):
            step_kinematics(state, speed, heading)
            state.lane = world.road.lane_of(state.y)
        for state in background:
            braking = min(state.accel, 0.0)
            step_kinematics(state, max(state.speed + braking * config.DT, 0.0), state.heading)
        t = round(t + config.DT, 9)
    return tracks, states


@pytest.mark.parametrize("make_spec,seed,t0", [(lambda: case2_spec(density=14.0), 1, 12.0),
                                             (case1_spec, 0, 5.0)],
                         ids=["case2-dense-seed1-12s", "case1-seed0-5s"])
def test_rollout_predicts_the_executors_keep_lane_tracks(make_spec, seed, t0):
    """From the first whole second at or after t0 at which no member's
    executor is busy with a lane change, the game's all-KEEP rollout and
    the executors end within 5 m and 1 m/s of each other for every member
    (``keep_lane_tracks``): the rollout moves members with the law that
    runs, in coarser steps."""
    for t0 in (t0 + k for k in range(10)):
        world = build_scenario(make_spec(), seed)
        run_episode(world, GrdfPolicy(), seed, t0)
        if not any(m.executor.busy() for m in world.members):
            break
    else:
        pytest.fail("an executor is busy at every whole second of the 10 s after t0")
    tracks, states = keep_lane_tracks(world, t0)
    for track, state in zip(tracks, states, strict=True):
        assert abs(track[-1].x - state.x) <= 5.0
        assert abs(track[-1].speed - state.speed) <= 1.0


@pytest.mark.parametrize("make_spec,seed,t0", [(lambda: case2_spec(density=14.0), 1, 11.0),
                                             (case1_spec, 0, 3.0)],
                         ids=["case2-dense-seed1-11s", "case1-seed0-3s"])
def test_rollout_sees_the_front_members_leader_brake(make_spec, seed, t0):
    """At t0 the front member's leader is an HDV that brakes (case 2's
    scripted leader at -6 m/s², or a case-1 HDV at -0.7 m/s²) and no
    executor is busy: the rollout holds that braking, so the front member's
    predicted track ends within 5 m and 1 m/s of its executor's."""
    world = build_scenario(make_spec(), seed)
    run_episode(world, GrdfPolicy(), seed, t0)
    front = world.members[0].state
    assert lead_vehicle(front, world.all_states()).accel < -0.5
    assert not any(m.executor.busy() for m in world.members)
    tracks, states = keep_lane_tracks(world, t0)
    assert abs(tracks[0][-1].x - states[0].x) <= 5.0
    assert abs(tracks[0][-1].speed - states[0].speed) <= 1.0


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
