"""Episode execution: the deterministic frame loop over one scenario.

Per frame every vehicle's command is computed from the same snapshot, then
all states advance together.  The platoon layer runs at its slow cadence,
the vehicle layer (game or baseline rules) at the fast cadence, HDV lane
decisions staggered in between, physics every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import config
from .control import CavExecutor
from .distribution import (
    EpisodeStats,
    HeuristicDistributionPolicy,
    Observer,
    enumerate_configurations,
)
from .coalition import (
    SPLITTING,
    STEADY,
    GamePhaseMachine,
    GameScene,
    form_coalitions,
    formation_intact,
    solve_tu_game,
)
from .planner import KEEP, LEFT, generate_lattice, select_trajectory
from .riskfield import risk_reward
from .traffic import HdvDriver, LaneContext, Neighbor, idm_acceleration, mobil_decide
from .world import (
    CAV,
    RoadMap,
    SimClock,
    VehicleState,
    check_collision,
    compute_ttc,
    lead_vehicle,
    rear_vehicle,
    step_kinematics,
)


@dataclass
class PlatoonMember:
    index: int
    state: VehicleState
    executor: CavExecutor


@dataclass
class ScriptedBrake:
    """Case-2 style lead-vehicle deceleration event."""

    vehicle_id: int
    t_start: float
    decel: float = -6.0
    duration: float = 3.0
    cruise_after: float = 10.0


@dataclass
class World:
    road: RoadMap
    clock: SimClock
    members: list                 # PlatoonMember, ordered front (0) to rear
    hdvs: list                    # HdvDriver
    cruise_speed: float = 25.0
    scripted: ScriptedBrake | None = None

    def platoon_states(self):
        return [m.state for m in self.members]

    def hdv_states(self):
        return [d.state for d in self.hdvs]

    def all_states(self):
        return self.platoon_states() + self.hdv_states()


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
            "duration": round(self.duration, 6),
        }


class PolicyStack:
    """Interface every run policy implements."""

    name = "base"
    has_distribution = False

    def reset(self, world: World, rng: np.random.Generator):
        pass

    def platoon_decide(self, world: World, t: float):
        return None

    def vehicle_decide(self, world: World, t: float):
        raise NotImplementedError

    def audit_rows(self):
        return []


# --- shared platoon-side helpers -------------------------------------------------

def platoon_lead_info(world: World):
    """(leader TTC, lowest member TTC, max member risk, index of the most
    at-risk member)."""
    states = world.platoon_states()
    background = world.hdv_states()
    risk_params = replace(config.DEFAULTS.risk, v_max=max(world.road.speed_limit, 1.0))
    worst_risk = 0.0
    worst_idx = 0
    for i, v in enumerate(states):
        r = risk_reward(v, background, risk_params)
        if r > worst_risk:
            worst_risk = r
            worst_idx = i
    taus = []
    for v in states:
        ahead = lead_vehicle(v, background)
        taus.append(compute_ttc(v, ahead) if ahead is not None else math.inf)
    # a member with a foreign vehicle close ahead takes at-risk priority
    best_tau = taus[0]
    for i, tau in enumerate(taus):
        if tau < best_tau:
            best_tau, worst_idx = tau, i
    return taus[0], best_tau, worst_risk, worst_idx


def resolve_follow_target(member: PlatoonMember, world: World):
    """(leader, gap target): platoon members ahead are tracked at the tight
    formation distance, foreign vehicles at a speed-scaled safe headway."""
    leader = lead_vehicle(member.state, world.all_states())
    if leader is None:
        return None, None
    if leader.kind == CAV:
        return leader, member.executor.d_target
    return leader, 5.0 + 1.2 * member.state.speed


def emergency_guard(state: VehicleState, target, accel: float) -> float:
    """Cap the commanded accel when the corridor ahead closes dangerously."""
    if target is None:
        return accel
    tau = compute_ttc(state, target)
    if tau < 1.5 and target.x > state.x:
        return min(accel, -config.ACCEL_LIMIT)
    return accel


@dataclass
class PendingManeuver:
    due_t: float
    member_index: int
    direction: str


class ManeuverQueue:
    """Schedules staggered lane changes and fires them when due."""

    def __init__(self):
        self.pending = []

    def clear(self):
        self.pending.clear()

    def busy(self, world: World) -> bool:
        return bool(self.pending) or any(m.executor.mode == "track"
                                         for m in world.members)

    def schedule(self, t: float, coalition, direction: str, stagger: float = 1.0):
        for rank, idx in enumerate(coalition):
            self.pending.append(PendingManeuver(t + rank * stagger, idx, direction))

    def fire_due(self, world: World, t: float):
        remaining = []
        for pm in self.pending:
            if pm.due_t > t + 1e-9:
                remaining.append(pm)
                continue
            member = world.members[pm.member_index]
            state = member.state
            direction = pm.direction
            target = state.lane + (1 if direction == LEFT else -1)
            if not (0 <= target < world.road.lane_count):
                continue
            others = [v for v in world.all_states() if v.id != state.id]
            cands = generate_lattice(state, direction, world.road)
            traj = select_trajectory(cands, state, others, world.road)
            member.executor.start_trajectory(traj, t)
            state.target_lane = traj.target_lane
        self.pending = remaining


# --- GRDF / GRDF-GT policy --------------------------------------------------------

class GrdfPolicy(PolicyStack):
    """Dual-layer stack: configuration policy on top, coalition game below."""

    has_distribution = True

    def __init__(self, use_pdi: bool = False, network=None, sample_actions=False,
                 game_weights: config.GameConfig | None = None,
                 keep_audit: bool = False):
        self.use_pdi = use_pdi
        self.name = "grdf-gt" if use_pdi else "grdf"
        self.network = network
        self.sample_actions = sample_actions
        self.game_weights = game_weights or config.DEFAULTS.game
        self.keep_audit = keep_audit
        self._audit = []

    def reset(self, world: World, rng: np.random.Generator):
        n = len(world.members)
        self.actions = enumerate_configurations(n)
        self.heuristic = HeuristicDistributionPolicy(n=n)
        self.observer = Observer()
        self.machine = GamePhaseMachine()
        self.queue = ManeuverQueue()
        self.config_action = self.heuristic.single()
        self.rng = rng
        self._audit.clear()

    def platoon_decide(self, world: World, t: float):
        states = world.platoon_states()
        background = world.hdv_states()
        if self.network is not None:
            obs = self.observer.observe(states, background, self.rng,
                                        world.clock.decision_period_platoon)
            from .ppo import select_configuration

            mode = "sample" if self.sample_actions else "greedy"
            action, _, _ = select_configuration(obs.flatten(), self.network,
                                                self.actions, mode, self.rng)
        else:
            tau0, best_tau, risk, idx = platoon_lead_info(world)
            action = self.heuristic.decide(t, best_tau, risk, idx)
        self.config_action = action
        return action

    def vehicle_decide(self, world: World, t: float):
        self.queue.fire_due(world, t)
        if self.queue.busy(world):
            return
        states = world.platoon_states()
        background = world.hdv_states()
        intact = formation_intact(states, background)
        phase = self.machine.update(self.config_action.single_group, intact)
        partition = form_coalitions(states, background,
                                    target_groups=self.config_action.partition)
        scene = GameScene(road=world.road, platoon=states, background=background)
        game_phase = phase if phase != STEADY else SPLITTING
        decision = solve_tu_game(partition, scene, game_phase,
                                 w=self.game_weights, use_pdi=self.use_pdi)
        if self.keep_audit:
            self._audit.append({
                "t": round(t, 3), "phase": phase,
                "coalitions": [list(c) for c in partition.coalitions],
                "candidates": decision.candidates,
                "pruned_out": decision.pruned_out,
                "action": list(decision.joint_action),
                "values": [round(v, 6) for v in decision.breakdown],
                "pdi": round(decision.pdi_value, 6) if decision.pdi_value is not None else None,
            })
        for c, grp in enumerate(partition.coalitions):
            act = decision.joint_action[c]
            if act != KEEP:
                self.queue.schedule(t, grp, act)
        self.queue.fire_due(world, t)

    def audit_rows(self):
        return self._audit


# --- HDV decisions ----------------------------------------------------------------

def _neighbor_context(driver: HdvDriver, lane: int, world: World):
    """LaneContext for a hypothetical slot of this driver in ``lane``."""
    state = driver.state
    probe = state.copy()
    probe.y = world.road.lane_center(lane)
    others = world.all_states()  # the corridor scans skip the driver's own id
    leader = lead_vehicle(probe, others)
    follower = rear_vehicle(probe, others)
    lead_n = None
    fol_n = None
    fol_gap_to_leader = math.inf
    fol_leader_speed = math.inf
    if leader is not None:
        lead_n = Neighbor(gap=max(leader.x - state.x - 0.5 * (leader.length + state.length), 0.01),
                          speed=leader.speed, params=driver.idm)
    if follower is not None:
        fol_n = Neighbor(gap=max(state.x - follower.x - 0.5 * (follower.length + state.length), 0.01),
                         speed=follower.speed, params=driver.idm)
        if leader is not None:
            fol_gap_to_leader = max(leader.x - follower.x
                                    - 0.5 * (leader.length + follower.length), 0.01)
            fol_leader_speed = leader.speed
    return LaneContext(leader=lead_n, follower=fol_n,
                       follower_leader_gap=fol_gap_to_leader,
                       follower_leader_speed=fol_leader_speed)


def _gap_acceptance(driver: HdvDriver, lane: int, world: World,
                    lead_margin: float, follow_margin: float) -> bool:
    """Bare gap acceptance; the 0.01 m gap clamp is below every margin used."""
    ctx = _neighbor_context(driver, lane, world)
    return ((ctx.leader is None or ctx.leader.gap >= lead_margin)
            and (ctx.follower is None or ctx.follower.gap >= follow_margin))


def hdv_decide_lane(driver: HdvDriver, world: World, t: float):
    """MOBIL with scenario flavors: ramp vehicles force their merge before
    the ramp ends; congested-lane escapers fall back to bare gap acceptance
    once they are badly stuck."""
    state = driver.state
    if driver.changing():
        return

    # ramp vehicle: merge into lane 0 with growing urgency toward the ramp end
    if driver.merge_deadline_x is not None:
        if state.y < -0.5 * world.road.lane_width + 1e-6:
            room = driver.merge_deadline_x - state.x
            lead_m = 4.0 + 0.3 * state.speed if room > 120.0 else 2.0
            follow_m = 8.0 if room > 120.0 else 3.0
            if _gap_acceptance(driver, 0, world, lead_m, follow_m) or room < 60.0:
                driver.begin_lane_change(0, world.road)
            return
        driver.merge_deadline_x = None
        return

    current = _neighbor_context(driver, state.lane, world)
    stuck = (current.leader is not None
             and state.speed < 0.72 * driver.idm.desired_speed
             and current.leader.gap < 2.5 * state.speed + 10.0)

    candidates = []
    if state.lane + 1 < world.road.lane_count:
        candidates.append(state.lane + 1)
    if state.lane - 1 >= 0:
        candidates.append(state.lane - 1)
    for lane in candidates:
        target = _neighbor_context(driver, lane, world)
        if mobil_decide(state.speed, driver.idm, current, target, driver.mobil):
            driver.begin_lane_change(lane, world.road)
            return
    if driver.escape_bias and stuck:
        for lane in candidates:
            lead_m = 3.0 + 0.2 * state.speed
            follow_m = 5.0 + 0.6 * max(0.0, world.cruise_speed - state.speed)
            if _gap_acceptance(driver, lane, world, lead_m, follow_m):
                driver.begin_lane_change(lane, world.road)
                return


def hdv_accel(driver: HdvDriver, world: World) -> float:
    if driver.scripted_accel is not None:
        return driver.scripted_accel
    state = driver.state
    leader = lead_vehicle(state, world.all_states())
    if leader is None:
        return idm_acceleration(state.speed, 1e9, 0.0, driver.idm)
    gap = leader.x - state.x - 0.5 * (leader.length + state.length)
    return idm_acceleration(state.speed, max(gap, 0.01), state.speed - leader.speed,
                            driver.idm)


# --- main loop ----------------------------------------------------------------------

@dataclass
class EpisodeResult:
    metrics: EpisodeMetrics
    audit: list = field(default_factory=list)
    frames: int = 0


def run_episode(world: World, policy: PolicyStack, seed: int,
                episode_len: float, success_window: float = 60.0,
                collect_reward=None) -> EpisodeResult:
    """Run one seeded episode to completion or first platoon collision."""
    rng = np.random.default_rng((seed, 17))
    policy.reset(world, rng)

    clock = world.clock
    n_frames = int(round(episode_len / clock.dt))
    hdv_period = int(round(1.0 / clock.dt))

    metrics = EpisodeMetrics()
    speed_acc = 0.0
    dist_acc = 0.0
    samples = 0

    reorg_active = False
    reorg_start = 0.0
    intact_since = None
    debounce = 3.0

    stats = EpisodeStats(episode_len=episode_len)

    for frame in range(n_frames):
        t = clock.t
        states = world.platoon_states()
        background = world.hdv_states()

        if world.scripted is not None:
            _apply_scripted(world, t)

        if policy.has_distribution and clock.platoon_decision_due():
            action = policy.platoon_decide(world, t)
            intact_now = formation_intact(states, background)
            triggered, completed = stats.on_decision(action, intact_now, t)
            if triggered and not reorg_active:
                # reorganization clock starts at the split trigger
                reorg_active = True
                reorg_start = t
                intact_since = None
            if collect_reward is not None:
                collect_reward(world, action, stats, triggered, completed, t)

        if clock.vehicle_decision_due():
            policy.vehicle_decide(world, t)
        # HDV lane decisions run once per second each, staggered across frames
        for k, driver in enumerate(world.hdvs):
            if (frame + k) % hdv_period == 0:
                hdv_decide_lane(driver, world, t)

        # fire any staggered maneuvers scheduled by the policy
        if hasattr(policy, "queue"):
            policy.queue.fire_due(world, t)

        # compute all commands from the same snapshot
        commands = []
        for member in world.members:
            ex = member.executor
            if ex.tracking_done(t):
                ex.finish_trajectory()
                member.state.lane = world.road.lane_of(member.state.y)
                member.state.target_lane = member.state.lane
            target = None
            if ex.mode == "follow":
                target = resolve_follow_target(member, world)
            speed, heading = ex.command(member.state, target, t, world.road, clock.dt)
            guard_target = lead_vehicle(member.state, world.all_states())
            accel = (speed - member.state.speed) / clock.dt
            accel = emergency_guard(member.state, guard_target, accel)
            speed = max(member.state.speed + accel * clock.dt, 0.0)
            commands.append((speed, heading))

        hdv_accels = [hdv_accel(d, world) for d in world.hdvs]

        # advance everyone together
        for member, (speed, heading) in zip(world.members, commands):
            member.state = step_kinematics(member.state, speed, heading, clock.dt)
            member.state.lane = world.road.lane_of(member.state.y)
        for driver, a in zip(world.hdvs, hdv_accels):
            s = driver.state
            new_speed = max(s.speed + a * clock.dt, 0.0)
            driver.state = step_kinematics(s, new_speed, 0.0, clock.dt)
            driver.lateral_update(clock.dt, world.road)
            driver.state.lane = world.road.lane_of(driver.state.y)
        clock.tick()
        t = clock.t

        # metrics and termination
        states = world.platoon_states()
        background = world.hdv_states()
        speed_acc += sum(v.speed for v in states) / len(states)
        gaps = [abs(a.x - b.x) for a, b in zip(states, states[1:])]
        if gaps:
            dist_acc += sum(gaps) / len(gaps)
        samples += 1

        for v in states:
            ahead = lead_vehicle(v, world.all_states())
            if ahead is not None:
                tau = compute_ttc(v, ahead)
                if tau < metrics.min_ttc:
                    metrics.min_ttc = tau

        collision = _platoon_collision(states, background)
        if collision:
            metrics.collision = True
            metrics.collision_time = t
            break

        if reorg_active:
            cfg_action = getattr(policy, "config_action", None)
            config_single = cfg_action.single_group if cfg_action is not None else True
            intact = config_single and formation_intact(states, background)
            if intact:
                if intact_since is None:
                    intact_since = t
                if t - intact_since >= debounce:
                    duration = intact_since - reorg_start
                    if metrics.formation_time is None:
                        metrics.formation_time = duration
                        metrics.formation_success = duration <= success_window
                    reorg_active = False
                    intact_since = None
            else:
                intact_since = None

    metrics.duration = clock.t
    metrics.reorganizations = stats.reorg_count
    if samples:
        metrics.avg_speed = speed_acc / samples
        metrics.avg_distance = dist_acc / samples
    return EpisodeResult(metrics=metrics, audit=policy.audit_rows(), frames=samples)


def _apply_scripted(world: World, t: float):
    ev = world.scripted
    for driver in world.hdvs:
        if driver.state.id != ev.vehicle_id:
            continue
        if ev.t_start <= t < ev.t_start + ev.duration:
            if driver.scripted_accel is None:
                # drop the desired speed for the post-event cruise as well
                driver.idm = replace(driver.idm, desired_speed=max(ev.cruise_after, 0.1))
            driver.scripted_accel = ev.decel
        elif driver.scripted_accel is not None and t >= ev.t_start + ev.duration:
            driver.scripted_accel = None
        return


def _platoon_collision(platoon, background) -> bool:
    for i, a in enumerate(platoon):
        for b in platoon[i + 1:]:
            if check_collision(a, b):
                return True
        for b in background:
            if check_collision(a, b):
                return True
    return False
