"""Episode execution: the deterministic frame loop over one scenario.

Every consumer reads one snapshot, the ``World.all_states()`` list
(members front to rear, then HDVs), built once per episode: every state is
advanced in place, so the list always shows the current world.  Every
``config.DECISION_PERIOD`` the loop builds one ``GameScene`` from it, and
the platoon layer (``GrdfPolicy.platoon_decide``), its reward and the
vehicle layer (``vehicle_decide``, the coalition game) read it in that
order; a scene is read only on the tick it was built for, since the states
under it advance in place.  All commands come from the same states, then all
states advance together, each through ``step_kinematics`` at its own
heading: an HDV's is 0, or its lane-change plan's (``lateral_update``).
HDV lane decisions are staggered across the frames of a second.  A
scripted brake (``HdvDriver.brake``, the case-2 leader's event) is played
on its own driver at the start of each frame, and that driver keeps its
lane.
Each platoon member's command comes from ``CavExecutor.command`` alone, fed
with the one vehicle ahead in the member's corridor.  That leader is looked
up once per frame, after the step, for ``min_ttc``; nothing moves before the
next frame's command reads it.  The vehicle layer hands each lane-change
plan it picks, the one the game scored, to the member's executor, which
starts, tracks and ends it inside ``command``; the loop only asks for
commands.

A window runs from the decision that splits a single-group target until
the single-group target has been intact for ``config.FORMATION_HOLD`` s.
Once the formation breaks or a member leaves its lane in it, the window is a
reorganization, timed to where that intact stretch began; otherwise it is a
label-only split.  The policy's ``ReorgRecord`` is the only clock: game
phase, reward and metrics read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import config
from .control import CavExecutor
from .distribution import HeuristicDistributionPolicy, ReorgRecord, enumerate_configurations
from .coalition import (GameScene, form_coalitions, formation_intact, lane_change_plan,
                        solve_tu_game)
from .planner import low_speed_path
from .traffic import (HdvDriver, LaneContext, Neighbor, free_accel, idm_acceleration,
                      mobil_decide, style_params)
from .world import (
    Point,
    RoadMap,
    SimClock,
    VehicleState,
    compute_ttc,
    lead_vehicle,
    rear_vehicle,
    step_kinematics,
    touches,
)


@dataclass
class PlatoonMember:
    index: int
    state: VehicleState
    executor: CavExecutor


@dataclass
class World:
    road: RoadMap
    clock: SimClock
    members: list                 # PlatoonMember, ordered front (0) to rear
    hdvs: list                    # HdvDriver
    spawn_shortfall: int = 0      # HDVs the spec requested but did not place
    drivers: dict = field(init=False, repr=False)   # HDV id -> its HdvDriver

    def __post_init__(self):
        self.drivers = {d.state.id: d for d in self.hdvs}

    def all_states(self):
        """The loop's snapshot: members front to rear, then HDVs."""
        return [m.state for m in self.members] + [d.state for d in self.hdvs]


@dataclass
class EpisodeMetrics:
    collision: bool = False
    collision_time: float | None = None
    avg_speed: float = 0.0
    min_ttc: float = math.inf
    avg_distance: float = 0.0
    formation_success: bool = False
    formation_time: float | None = None
    reorganizations: int = 0
    label_only_splits: int = 0
    duration: float = 0.0

    def row(self):
        return {
            "collision": int(self.collision),
            "avg_speed": round(self.avg_speed, 6),
            "min_ttc": round(self.min_ttc, 6) if math.isfinite(self.min_ttc) else "inf",
            "avg_distance": round(self.avg_distance, 6),
            "formation_success": int(self.formation_success),
            "formation_time": round(self.formation_time, 6)
            if self.formation_time is not None else "",
            "reorganizations": self.reorganizations,
            "label_only_splits": self.label_only_splits,
            "duration": round(self.duration, 6),
        }


# --- GRDF / GRDF-GT policy --------------------------------------------------------

class GrdfPolicy:
    """Dual-layer stack: configuration policy on top, coalition game below."""

    def __init__(self, use_pdi: bool = False, network=None, keep_audit: bool = False):
        self.use_pdi = use_pdi
        self.network = network
        self.keep_audit = keep_audit
        self._audit = []

    def reset(self, world: World, seed: int, episode_len: float):
        """Start an episode.  Only a ``network`` reads ``seed``, through its
        ``for_episode``, so a heuristic run never loads ``ppo``."""
        n = len(world.members)
        self.heuristic = HeuristicDistributionPolicy(n=n)
        self.net_decide = (None if self.network is None else
                           self.network.for_episode(enumerate_configurations(n), seed))
        self.reorg = ReorgRecord(episode_len, target=self.heuristic.single())
        self._audit.clear()

    def platoon_decide(self, scene: GameScene, t: float):
        if self.net_decide is not None:
            action = self.net_decide(scene)
        else:
            action = self.heuristic.decide(t, min(scene.lead_ttcs), scene.at_risk)
        self.reorg.on_decision(action, t)
        return action

    def vehicle_decide(self, scene: GameScene, t: float):
        """Run the coalition game unless a member's executor is busy with a
        lane change, and hand each change it picks, the plan the game
        scored, to its member's executor, to start at its start after t, as
        the game predicted it."""
        if any(ex.busy() for ex in scene.executors):
            return
        phase = self.reorg.phase
        partition = form_coalitions(scene.platoon, scene.background,
                                    target_groups=self.reorg.target.partition)
        decision = solve_tu_game(partition, scene, phase, use_pdi=self.use_pdi)
        if self.keep_audit:
            self._audit.append({
                "t": round(t, 3), "phase": phase,
                "coalitions": [list(c) for c in partition],
                "candidates": decision.candidates,
                "pruned_out": decision.pruned_out,
                "action": list(decision.joint_action),
                "values": [round(v, 6) for v in decision.breakdown],
                "pdi": round(decision.pdi_value, 6) if decision.pdi_value is not None else None,
            })
        plan = lane_change_plan(partition, decision.joint_action)
        for i, (ex, step) in enumerate(zip(scene.executors, plan, strict=True)):
            if step is not None:
                start, direction = step
                ex.schedule(t + start, scene.lane_change(i, direction))

    def audit_rows(self):
        return self._audit


# --- HDV decisions ----------------------------------------------------------------

class _RampEnd(NamedTuple):
    """The ramp's end, as its shoulder sees it: a standing zero-length obstacle."""

    x: float
    speed: float = 0.0
    length: float = 0.0


def _hdv_leader(pose, road: RoadMap, snapshot):
    """The nearest vehicle ahead of ``pose`` in its corridor.  On the ramp
    shoulder (below half a lane width, on a road with a ramp) the ramp end
    is the leader when it is nearer, so IDM stops a driver short of it and
    MOBIL's own gain in leaving grows as it comes near.  The shoulder sees
    the end half a low-speed lane change early, so a driver that merges
    from rest is off the shoulder by the ramp's end."""
    leader = lead_vehicle(pose, snapshot)
    ramp = road.ramp
    if ramp is not None and pose.y < -0.5 * road.lane_width:
        end = _RampEnd(ramp.end - 0.5 * low_speed_path(road.lane_width))
        if leader is None or leader.x - 0.5 * leader.length > end.x:
            return end
    return leader


def _bumper_gap(ahead, behind) -> float:
    return max(ahead.x - behind.x - 0.5 * (ahead.length + behind.length), 0.01)


def _lane_context(driver: HdvDriver, y: float, world: World, snapshot) -> LaneContext:
    """LaneContext for this driver moved to lateral offset ``y``.  The
    follower brings its own IDM parameters: its driver's, or the normal
    preset for a CAV."""
    state = driver.state
    # the driver itself sits at the probe's x, so the scans never return it
    probe = Point(state.x, y, state.speed)
    leader = _hdv_leader(probe, world.road, snapshot)
    follower = rear_vehicle(probe, snapshot)
    lead_n = None if leader is None else Neighbor(_bumper_gap(leader, state), leader.speed)
    if follower is None:
        return LaneContext(leader=lead_n)
    owner = world.drivers.get(follower.id)
    params = owner.idm if owner is not None else style_params("normal", world.road.speed_limit)[0]
    fol_n = Neighbor(_bumper_gap(state, follower), follower.speed, params)
    if leader is None:
        return LaneContext(follower=fol_n)
    return LaneContext(lead_n, fol_n, _bumper_gap(leader, follower), leader.speed)


def hdv_decide_lane(driver: HdvDriver, world: World, snapshot):
    """MOBIL toward each lane one lane width to the left, then to the right,
    of the driver; the first change MOBIL accepts begins.  From the ramp
    shoulder that is lane 0 alone.  A driver with a scripted brake (the
    case-2 leader) keeps its lane, so its brake event happens in front of
    the platoon."""
    state = driver.state
    if driver.changing() or driver.brake is not None:
        return
    road = world.road
    here = road.lane_index(state.y)   # -1 on the ramp shoulder
    current = _lane_context(driver, state.y, world, snapshot)
    for lane in (here + 1, here - 1):
        if not 0 <= lane < road.lane_count:
            continue
        target = _lane_context(driver, road.lane_center(lane), world, snapshot)
        if mobil_decide(state.speed, driver.idm, current, target, driver.mobil):
            driver.begin_lane_change(lane, road)
            return


def hdv_accel(driver: HdvDriver, road: RoadMap, snapshot) -> float:
    """IDM behind the driver's leader.  Mid-change that is the nearer of the
    vehicles ahead in its own corridor and in its target lane's, never the
    ramp end."""
    if driver.scripted_accel is not None:
        return driver.scripted_accel
    state = driver.state
    if state.plan is None:
        leader = _hdv_leader(state, road, snapshot)
    else:
        target = Point(state.x, road.lane_center(state.target_lane), state.speed)
        leader = min(filter(None, (lead_vehicle(state, snapshot), lead_vehicle(target, snapshot))),
                     key=lambda v: v.x, default=None)
    if leader is None:
        return free_accel(state.speed, driver.idm)
    return idm_acceleration(state.speed, _bumper_gap(leader, state),
                            state.speed - leader.speed, driver.idm)


# --- main loop ----------------------------------------------------------------------

@dataclass
class EpisodeResult:
    metrics: EpisodeMetrics
    frames: int = 0


def run_episode(world: World, policy: GrdfPolicy, seed: int,
                episode_len: float, success_window: float = 60.0,
                collect_reward=None) -> EpisodeResult:
    """Run one seeded episode to completion or first platoon collision.

    ``collect_reward(scene, action, policy.reorg, t)`` follows each platoon
    decision, which the record has already seen.  ``seed`` is an int >= 0;
    only a policy with a ``network`` reads it, to seed its observation noise.
    """
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    if not (math.isfinite(episode_len) and episode_len >= 0.0):
        raise ValueError(f"episode length must be finite and >= 0, got {episode_len!r}")
    if not success_window > 0.0:
        raise ValueError(f"success window must be positive, got {success_window!r}")
    policy.reset(world, seed, episode_len)
    reorg = policy.reorg

    clock = world.clock
    n_frames = int(round(episode_len / config.DT))
    hdv_period = int(round(1.0 / config.DT))
    n_members = len(world.members)

    metrics = EpisodeMetrics()
    speed_acc = 0.0
    dist_acc = 0.0
    samples = 0

    snapshot = world.all_states()
    states, background = snapshot[:n_members], snapshot[n_members:]
    executors = [m.executor for m in world.members]
    braking = [d for d in world.hdvs if d.brake is not None]
    leaders = [lead_vehicle(v, snapshot) for v in states]
    for frame in range(n_frames):
        t = clock.t

        for driver in braking:
            _apply_brake(driver, t)

        if clock.decision_due():
            scene = GameScene(road=world.road, platoon=states, background=background,
                              executors=executors)
            action = policy.platoon_decide(scene, t)
            if collect_reward is not None:
                collect_reward(scene, action, reorg, t)
            policy.vehicle_decide(scene, t)
        # HDV lane decisions run once per second each, staggered across frames
        for driver in world.hdvs[-frame % hdv_period::hdv_period]:
            hdv_decide_lane(driver, world, snapshot)

        # compute all commands from the same states, each with its leader
        commands = [m.executor.command(m.state, leader, t, world.road)
                    for m, leader in zip(world.members, leaders)]

        hdv_accels = [hdv_accel(d, world.road, snapshot) for d in world.hdvs]

        # advance everyone together, each at its own heading
        for s, (speed, heading) in zip(states, commands):
            step_kinematics(s, speed, heading)
        for driver, a in zip(world.hdvs, hdv_accels):
            speed = max(driver.state.speed + a * config.DT, 0.0)
            step_kinematics(driver.state, speed, driver.lateral_update(speed))
        for s in snapshot:
            s.lane = world.road.lane_of(s.y)
        clock.tick()
        t = clock.t

        # metrics and termination
        speed_acc += sum(v.speed for v in states) / len(states)
        gaps = [abs(a.x - b.x) for a, b in zip(states, states[1:])]
        if gaps:
            dist_acc += sum(gaps) / len(gaps)
        samples += 1

        leaders = [lead_vehicle(v, snapshot) for v in states]
        for v, ahead in zip(states, leaders):
            if ahead is not None:
                tau = compute_ttc(v, ahead)
                if tau < metrics.min_ttc:
                    metrics.min_ttc = tau

        collision = _platoon_collision(states, background)
        if collision:
            metrics.collision = True
            metrics.collision_time = t
            break

        if reorg.running:  # the formation scan is needed only while one runs
            reorg.on_frame(formation_intact(states, background), tuple(v.lane for v in states), t)

    metrics.duration = clock.t
    metrics.reorganizations = reorg.count
    metrics.label_only_splits = reorg.windows - reorg.count
    if reorg.durations:
        metrics.formation_time = reorg.durations[0]
        metrics.formation_success = metrics.formation_time <= success_window
    if samples:
        metrics.avg_speed = speed_acc / samples
        metrics.avg_distance = dist_acc / samples
    return EpisodeResult(metrics=metrics, frames=samples)


def _apply_brake(driver: HdvDriver, t: float):
    """Play the driver's ``brake`` at time t: its deceleration inside the
    event window, IDM toward the post-event cruise speed after it."""
    ev = driver.brake
    if ev.t_start <= t < ev.t_start + ev.duration:
        if driver.scripted_accel is None:
            # drop the desired speed for the post-event cruise as well
            driver.idm = driver.idm.with_desired_speed(max(ev.cruise_after, 0.1))
        driver.scripted_accel = ev.decel
    elif driver.scripted_accel is not None and t >= ev.t_start + ev.duration:
        driver.scripted_accel = None


def _platoon_collision(platoon, background) -> bool:
    """Does any member touch a member behind it or the background?"""
    return any(touches(a, platoon[i + 1:]) or touches(a, background)
               for i, a in enumerate(platoon))
