"""Coalition-game vehicle layer.

Vehicles that drive in the same lane, within the compactness bounds, and
with no foreign vehicle interleaved form coalitions (sub-platoons) that act
as single players.  Each player picks a lateral action; the joint action
maximizing the summed coalition profits wins (transferable utility, so the
grand total is the objective).  In disposition-index mode the merging-phase
value additionally pays for how scattered the predicted platoon would be.

Prediction uses the laws and the geometry the lower layers act on: members
move under ``control.follow_accel`` with their own executors' constants, on
their ``config.DT`` step, behind the leader found by the one corridor scan,
``world.nearest_in_corridor``; laterally a changing member follows
``planner.generate_lattice``, planned once per tick
(``GameScene.lane_change``) and started at its ``lane_change_plan`` entry.
The feasibility filter and the rollout sample that plan, the rollout heads
each member's pose along it, and the member's executor is handed that same
object to run.  Every feasible joint action rolls forward together, one
step at a time, so each step's background is ``world.predict``ed once and
then dropped.  The rollout's overlap check, ``world.touches`` with
``OVERLAP_MARGIN``, is the game's one overlap test, and the solve ranks
joint actions by how many members it flags before their value.  A
``Prediction`` keeps each member's final ``Pose`` and speed sum, which the
profits read with the world's ``compute_ttc`` and ``RoadMap.lane_index``,
and with ``riskfield``'s one field, which the platoon layer's
``GameScene.risks`` reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from . import config
from .control import follow_accel
from .pdi import build_node_graph, compute_pdi
from .planner import KEEP, LEFT, RIGHT, TrajectoryCandidate, check_dynamics, generate_lattice
from .riskfield import risk_at_point, risk_reward
from .world import (Pose, VehicleState, compute_ttc, lead_vehicle, nearest_in_corridor,
                    predict, touches)

_ACTION_ORDER = {KEEP: 0, LEFT: 1, RIGHT: 2}

# game phases; ``distribution.ReorgRecord.phase`` says which one holds
SPLITTING = "splitting"
MERGING = "merging"
STEADY = "steady"


def _interleaved_foreign(a, b, background) -> bool:
    """Does the nearest foreign vehicle ahead of the rear member, in the
    front member's corridor, lie before the front member?"""
    ahead = nearest_in_corridor(min(a.x, b.x), a.y, background)
    return ahead is not None and ahead.x < max(a.x, b.x)


def coalition_conditions_hold(a, b, background) -> bool:
    """Can consecutive platoon members a (front) and b (rear) share a coalition?"""
    if abs(a.x - b.x) >= config.X_LIM:
        return False
    if abs(a.y - b.y) >= config.Y_LIM:
        return False
    if a.lane != b.lane:
        return False
    if _interleaved_foreign(a, b, background):
        return False
    return True


def form_coalitions(platoon, background, target_groups=None) -> tuple:
    """Maximal coalition partition of the platoon (front-to-back order): an
    ordered tuple of index tuples, each led by its frontmost member, the
    shape of ``PlatoonConfigAction.partition``.

    ``target_groups`` (an ordered partition from the distribution layer)
    caps the coarseness: members of different target groups never share a
    coalition even when physically compact.
    """
    if not platoon:
        raise ValueError("platoon must be non-empty")
    boundary_after = set()
    if target_groups is not None:
        for grp in target_groups:
            boundary_after.add(grp[-1])
    coalitions = []
    current = [0]
    for i in range(1, len(platoon)):
        same = coalition_conditions_hold(platoon[i - 1], platoon[i], background)
        if same and (i - 1) not in boundary_after:
            current.append(i)
        else:
            coalitions.append(tuple(current))
            current = [i]
    coalitions.append(tuple(current))
    return tuple(coalitions)


def formation_intact(platoon, background) -> bool:
    """Whole platoon satisfies the coalition conditions as one group."""
    return len(form_coalitions(platoon, background)) == 1


# --- prediction ----------------------------------------------------------------

@dataclass
class GameScene:
    """The scene of one decision tick: what the platoon layer, its reward and
    the game read.

    The episode loop builds one from its snapshot every
    ``config.DECISION_PERIOD``, and it is read only on that tick: states
    advance in place, so the values cached here would be stale on the next
    frame.  It keeps each member's lane-change plans and the platoon layer's
    TTCs and risks; the game's rollout predicts the background itself, one
    step at a time.  ``executors`` lends the rollout each member's
    follow-law constants, ``cruise_speed`` and ``K``, and receives the
    plans the vehicle layer picks, each to start at its
    ``lane_change_plan`` entry.
    """

    road: object
    platoon: list               # states ordered by platoon index
    background: list
    executors: list             # the members' ``CavExecutor``s, in platoon order
    _plans: dict = field(init=False, repr=False, default_factory=dict)

    def lane_change(self, i: int, direction: str) -> TrajectoryCandidate:
        """Member i's ``planner.generate_lattice`` toward ``direction``,
        planned from its state on this tick, once: the feasibility filter
        and every rollout sample this plan, and the member's executor runs
        it when the vehicle layer picks it."""
        plan = self._plans.get((i, direction))
        if plan is None:
            plan = self._plans[i, direction] = generate_lattice(self.platoon[i], direction,
                                                                self.road)
        return plan

    @cached_property
    def lead_ttcs(self):
        """Per member, the TTC toward the nearest foreign vehicle ahead in its
        corridor, or inf without one."""
        leaders = [lead_vehicle(v, self.background) for v in self.platoon]
        return [math.inf if ahead is None else compute_ttc(v, ahead)
                for v, ahead in zip(self.platoon, leaders)]

    @cached_property
    def risks(self):
        """Per member, the risk field of the background at it."""
        return [risk_reward(v, self.background) for v in self.platoon]

    @cached_property
    def at_risk(self) -> int:
        """The first member with the lowest TTC."""
        return self.lead_ttcs.index(min(self.lead_ttcs))


STAGGER = 1.0
# a member's box grows by this on every side when the rollout asks
# ``world.touches``, the game's one overlap test [m]
OVERLAP_MARGIN = 0.2


def lane_change_plan(partition, joint_action):
    """Per platoon member, None when it keeps its lane, else (start, direction):
    a changing coalition moves toward its action's side (``LEFT`` or
    ``RIGHT``) front first, its members starting ``STAGGER`` s apart."""
    plan = [None] * sum(len(grp) for grp in partition)
    for grp, action in zip(partition, joint_action):
        if action != KEEP:
            for rank, idx in enumerate(grp):
                plan[idx] = (rank * STAGGER, action)
    return plan


def _planned_y(scene: GameScene, i: int, step, t: float) -> tuple:
    """Lateral (y, vy) of member i t s after the decision, under its
    ``lane_change_plan`` entry: on its ``GameScene.lane_change`` from the
    entry's start, held before it and after the plan's end."""
    if step is None:
        return scene.platoon[i].y, 0.0
    start, direction = step
    return scene.lane_change(i, direction).state_at(t - start)[:2]


def _planned_pose(scene: GameScene, i: int, step, t: float, x, speed, accel) -> Pose:
    """Member i's ``Pose`` t s after the decision, at (x, speed, accel) along
    the road and at its ``_planned_y``, heading atan2(vy, speed)."""
    v = scene.platoon[i]
    y, vy = _planned_y(scene, i, step, t)
    return Pose(x, y, speed, accel, math.atan2(vy, speed), v.length, v.width, v.kind)


@dataclass
class Prediction:
    poses: list                 # per member: its ``Pose`` at the horizon
    speed_sums: list            # per member: its speeds at the decision and after each step, summed
    samples: int                # how many speeds each sum adds
    background: list            # the background's ``Pose``s at the horizon
    collided: list              # per member: True if any predicted overlap


def predict_outcomes(scene: GameScene, partition, joint_actions, horizon: float) -> list:
    """One ``Prediction`` per joint action, rolled forward together in
    ``config.DT`` steps: the background by ``world.predict``, once per step
    for every action; for members, their lane-change plans laterally
    (``_planned_pose``) and ``follow_accel`` along the road, behind the
    nearest pose ahead at the step's start.  The overlap test, ``touches``
    with ``OVERLAP_MARGIN``, reads the poses at the step's end.
    """
    if horizon <= 0:
        raise ValueError("prediction horizon must be positive")
    dt = config.DT
    n_steps = int(round(horizon / dt))
    plans = [lane_change_plan(partition, joint) for joint in joint_actions]
    poses = [[_planned_pose(scene, i, step, 0.0, v.x, v.speed, v.accel)
              for i, (v, step) in enumerate(zip(scene.platoon, plan))] for plan in plans]
    speed_sums = [[p.speed for p in members] for members in poses]
    collided = [[False] * len(scene.platoon) for _ in plans]
    background = [predict(v, 0.0) for v in scene.background]

    for k in range(1, n_steps + 1):
        t = k * dt
        ahead = [predict(v, t) for v in scene.background]
        for a, plan in enumerate(plans):
            # leaders come from the step's start: the platoon's poses (the
            # first entries), then the background
            now = poses[a] + background
            moved = []
            for i, (ex, step, pose) in enumerate(zip(scene.executors, plan, poses[a],
                                                     strict=True)):
                acc = follow_accel(pose, nearest_in_corridor(pose.x, pose.y, now), scene.road,
                                   ex.cruise_speed, ex.K, dt)
                speed = max(pose.speed + acc * dt, 0.0)
                moved.append(_planned_pose(scene, i, step, t, pose.x + speed * dt, speed,
                                           (speed - pose.speed) / dt))
            poses[a] = moved
            for i, p in enumerate(moved):
                speed_sums[a][i] += p.speed
                if (touches(p, ahead, OVERLAP_MARGIN)
                        or touches(p, moved[:i] + moved[i + 1:], OVERLAP_MARGIN)):
                    collided[a][i] = True
        background = ahead
    return [Prediction(p, s, n_steps + 1, background, c)
            for p, s, c in zip(poses, speed_sums, collided)]


# --- profit terms ----------------------------------------------------------------

def safety_profit(member_idx: int, prediction: Prediction,
                  w: config.GameConfig | None = None) -> float:
    """Risk-field value (negative) and TTC toward the predicted leader
    (capped, positive)."""
    w = w or config.DEFAULTS.game
    me = prediction.poses[member_idx]
    others = [p for j, p in enumerate(prediction.poses) if j != member_idx]
    others.extend(prediction.background)

    lead = nearest_in_corridor(me.x, me.y, others)
    tau = w.ttc_cap if lead is None else min(compute_ttc(me, lead), w.ttc_cap)
    return -risk_at_point(me, others) + w.k_tau * tau


def efficiency_profit(member_idx: int, prediction: Prediction, v_max: float) -> float:
    """Mean predicted longitudinal speed over the horizon, normalized."""
    return prediction.speed_sums[member_idx] / (prediction.samples * v_max)


def integration_profit(n_s: int, window_lanes, n_lanes: int) -> float:
    """Traffic-entropy dispersion of the lane occupancy around a coalition
    of ``n_s`` members: ``n_s`` times the entropy of the lane shares of the
    vehicles in the assessment window.

    Zero when they all sit in one lane, at most n_s·ln(n_lanes) when they
    spread evenly.  ``window_lanes`` holds the lane index of every vehicle
    (members included) inside the window; one off the road is not counted.
    """
    if n_s < 1:
        raise ValueError("coalition must have members")
    counts = [0] * n_lanes
    for lane in window_lanes:
        if 0 <= lane < n_lanes:
            counts[lane] += 1
    n = sum(counts)
    total = 0.0
    for p_j in counts:
        if p_j > 0:
            total += p_j / n * math.log(p_j / n)
    return -n_s * total


def tracking_profit(coalition, prediction: Prediction,
                    w: config.GameConfig | None = None) -> float:
    """Formation error over consecutive predicted pairs, as a negative value."""
    w = w or config.DEFAULTS.game
    if len(coalition) < 2:
        return 0.0
    total = 0.0
    for a, b in zip(coalition, coalition[1:]):
        pa, pb = prediction.poses[a], prediction.poses[b]
        total += (abs(pa.x - pb.x - config.D_TARGET) + w.k_y * abs(pa.y - pb.y)
                  + w.k_v * abs(pa.speed - pb.speed))
    return -total


def _window_lanes(coalition, prediction: Prediction, scene: GameScene,
                  window: float):
    centroid = sum(prediction.poses[i].x for i in coalition) / len(coalition)
    finals = prediction.poses + prediction.background
    return [scene.road.lane_index(p.y) for p in finals if abs(p.x - centroid) <= window]


def coalition_value(coalition, prediction: Prediction, scene: GameScene,
                    phase: str, w: config.GameConfig | None = None,
                    pdi_value: float | None = None,
                    includes_platoon_leader: bool = False,
                    lane_change_members: int = 0) -> float:
    """Summed member profits for one coalition under one joint action.

    Splitting uses safety/efficiency/integration; merging adds the tracking
    term and (in disposition-index mode) pays ``w_pdi`` per index unit, once,
    attached to the leader coalition so the grand total moves by exactly
    that amount.  Each changing member pays a small effort cost so
    near-ties stay in lane.
    """
    w = w or config.DEFAULTS.game
    value = 0.0
    for i in coalition:
        value += w.w_s * safety_profit(i, prediction, w)
        value += w.w_e * efficiency_profit(i, prediction, scene.road.speed_limit)
    value -= w.w_lane_change * lane_change_members
    window_lanes = _window_lanes(coalition, prediction, scene, w.entropy_window)
    value -= w.w_it * integration_profit(len(coalition), window_lanes, scene.road.lane_count)
    if phase == MERGING:
        value += w.w_er * tracking_profit(coalition, prediction, w)
        if pdi_value is not None and includes_platoon_leader:
            value -= w.w_pdi * pdi_value
    return value


# --- joint action enumeration and the solve ----------------------------------

def feasible_joint_actions(partition, scene: GameScene):
    """All coalition-level assignments that stay on the road and in which
    every changing member's ``GameScene.lane_change`` passes
    ``check_dynamics``."""
    per_coalition = []
    for grp in partition:
        lanes = {scene.platoon[i].lane for i in grp}
        options = [KEEP]
        for direction, on_road in ((LEFT, max(lanes) + 1 < scene.road.lane_count),
                                   (RIGHT, min(lanes) >= 1)):
            if on_road and all(check_dynamics(scene.lane_change(i, direction), scene.road)[0]
                               for i in grp):
                options.append(direction)
        per_coalition.append(options)
    return [tuple(a) for a in product(*per_coalition)]


def _tie_break_key(joint_action):
    changes = sum(1 for a in joint_action if a != KEEP)
    return (changes, tuple(_ACTION_ORDER[a] for a in joint_action))


def evaluate_joint_action(partition, scene: GameScene, joint_action, prediction: Prediction,
                          phase: str, w: config.GameConfig | None = None,
                          use_pdi: bool = False):
    """(total value, per-coalition breakdown, PDI) of one joint action from
    its ``Prediction``."""
    w = w or config.DEFAULTS.game
    pdi_value = None
    if use_pdi and phase == MERGING:
        pdi_value = _predicted_pdi(prediction, scene)
    total = 0.0
    breakdown = []
    for c, grp in enumerate(partition):
        changing = len(grp) if joint_action[c] != KEEP else 0
        val = coalition_value(grp, prediction, scene, phase, w,
                              pdi_value=pdi_value,
                              includes_platoon_leader=(0 in grp),
                              lane_change_members=changing)
        breakdown.append(val)
        total += val
    return total, breakdown, pdi_value


def _predicted_pdi(prediction: Prediction, scene: GameScene):
    road = scene.road
    plat = [VehicleState(id=i, kind="CAV", x=min(max(p.x, 0.0), road.length), y=p.y,
                         speed=max(p.speed, 0.0), lane=road.lane_of(p.y))
            for i, p in enumerate(prediction.poses)]
    bg = [p for p in prediction.background if road.contains(p.x)]
    return compute_pdi(build_node_graph(road, plat, bg)).value


@dataclass
class GameDecision:
    joint_action: tuple
    value: float
    breakdown: list
    pdi_value: float | None
    candidates: int             # feasible joint actions whose rollout overlaps nothing
    pruned_out: int             # feasible joint actions whose rollout overlaps


def solve_tu_game(partition, scene: GameScene, phase: str,
                  w: config.GameConfig | None = None,
                  use_pdi: bool = False) -> GameDecision:
    """Exhaustive search over the feasible joint actions, each scored from
    its rollout in ``predict_outcomes``: the fewest members whose rollout
    overlaps first, then the highest value.

    Deterministic tie-break: fewer lane changes first, then keep < left <
    right lexicographically.
    """
    w = w or config.DEFAULTS.game
    feasible = sorted(feasible_joint_actions(partition, scene), key=_tie_break_key)
    predictions = predict_outcomes(scene, partition, feasible, w.horizon)
    best = None
    for joint, prediction in zip(feasible, predictions):
        overlaps = sum(prediction.collided)
        if best is not None and overlaps > best[0]:
            continue
        total, breakdown, pdi_value = evaluate_joint_action(
            partition, scene, joint, prediction, phase, w, use_pdi)
        if best is None or overlaps < best[0] or total > best[1] + 1e-12:
            best = (overlaps, total, joint, breakdown, pdi_value)
    _, total, joint, breakdown, pdi_value = best
    overlapping = sum(any(p.collided) for p in predictions)
    return GameDecision(joint_action=joint, value=total, breakdown=breakdown,
                        pdi_value=pdi_value, candidates=len(feasible) - overlapping,
                        pruned_out=overlapping)
