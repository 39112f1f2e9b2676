"""Coalition-game vehicle layer.

Vehicles that drive in the same lane, within the compactness bounds, and
with no foreign vehicle interleaved form coalitions (sub-platoons) that act
as single players.  Each player picks a lateral action; the joint action
maximizing the summed coalition profits wins (transferable utility, so the
grand total is the objective).  In disposition-index mode the merging-phase
value additionally pays for how scattered the predicted platoon would be.

Prediction uses the laws and the geometry the lower layers act on: members
move under ``control.follow_accel`` with their own executors' constants,
behind the leader found by the one corridor scan,
``world.nearest_in_corridor``; laterally a changing member follows
``planner.lane_change``, planned once per tick (``GameScene.lane_change``)
and started at its ``lane_change_plan`` entry, as its executor runs it.
The feasibility filter, the pruning screen and the rollout sample that
plan.  The background moves by ``world.predict``, once per predicted time
and tick (``GameScene.background_at``).  The rollout's tracks hold its
``Pose``s, which the profits read with the world's ``compute_ttc`` and
``RoadMap.lane_index``, and the risk field under ``config.DEFAULTS.risk``,
as the platoon layer's ``GameScene.risks`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from . import config
from .control import follow_accel
from .pdi import build_node_graph, compute_pdi
from .planner import KEEP, LEFT, RIGHT, TrajectoryCandidate, check_dynamics, lane_change
from .riskfield import risk_at_point, risk_reward
from .world import (Pose, VehicleState, compute_ttc, lead_vehicle, nearest_in_corridor,
                    padded_overlap, predict)

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
    frame.  ``executors`` lends the rollout each member's follow-law
    constants, ``cruise_speed`` and ``K``, and receives the vehicle layer's
    schedule of lane changes.
    """

    road: object
    platoon: list               # states ordered by platoon index
    background: list
    executors: list             # the members' ``CavExecutor``s, in platoon order
    _predicted: dict = field(init=False, repr=False, default_factory=dict)
    _plans: dict = field(init=False, repr=False, default_factory=dict)

    def background_at(self, t: float) -> list:
        """The background ``world.predict``ed t s ahead, computed once per t:
        every joint action's rollout, the pruning screen and the profits share it."""
        poses = self._predicted.get(t)
        if poses is None:
            poses = self._predicted[t] = [predict(v, t) for v in self.background]
        return poses

    def lane_change(self, i: int, direction: str) -> TrajectoryCandidate:
        """Member i's ``planner.lane_change`` toward ``direction``, planned
        from its state on this tick, once: the feasibility filter, the
        pruning screen and every rollout sample this plan, the one the
        member's executor starts when the change falls due on this tick."""
        plan = self._plans.get((i, direction))
        if plan is None:
            plan = self._plans[i, direction] = lane_change(self.platoon[i], direction, self.road)
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
        """Per member, the risk field of the background at its position."""
        return [risk_reward(v, self.background, config.DEFAULTS.risk) for v in self.platoon]

    @cached_property
    def at_risk(self) -> int:
        """The first member with the lowest finite TTC; without one, the first
        with the highest risk."""
        best = min(self.lead_ttcs)
        if math.isfinite(best):
            return self.lead_ttcs.index(best)
        return self.risks.index(max(self.risks))


PREDICT_DT = 0.3
STAGGER = 1.0
# padding of the overlap screens, along and across the road [m]: predicted
# tracks in the rollout, and the short-horizon poses that prune joint actions
PREDICT_PAD = (0.5, 0.2)
PRUNE_PAD = (0.3, 0.2)


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


def _planned_y(scene: GameScene, i: int, step, t: float) -> float:
    """Lateral position of member i t s after the decision, under its
    ``lane_change_plan`` entry: on its ``GameScene.lane_change`` from the
    entry's start, held before it and after the plan's end."""
    if step is None:
        return scene.platoon[i].y
    start, direction = step
    return scene.lane_change(i, direction).state_at(t - start)[0]


@dataclass
class Prediction:
    platoon_tracks: list        # per member: its ``Pose`` at the decision and after each step
    background: list            # the background's ``Pose``s at the horizon
    collided: list              # per member: True if any predicted overlap


def predict_outcome(scene: GameScene, partition, joint_action, horizon: float):
    """Forward rollout in ``PREDICT_DT`` steps: the background by
    ``GameScene.background_at``; for members, their lane-change plans
    laterally (``_planned_y``) and ``follow_accel`` along the road, behind
    the nearest pose ahead at the step's start.  The overlap test reads the
    poses at the step's end.
    """
    if horizon <= 0:
        raise ValueError("prediction horizon must be positive")
    n_steps = int(round(horizon / PREDICT_DT))
    plan = lane_change_plan(partition, joint_action)
    poses = [Pose(v.x, v.y, v.speed, v.accel, 0.0, v.length, v.width, v.kind)
             for v in scene.platoon]
    tracks = [[p] for p in poses]
    collided = [False] * len(scene.platoon)
    background = scene.background_at(0.0)

    for k in range(1, n_steps + 1):
        t = k * PREDICT_DT
        # leaders come from the step's start: the platoon's poses (the first
        # entries), then the background
        now = poses + background
        background = scene.background_at(t)
        moved = []
        for i, (ex, step, pose) in enumerate(zip(scene.executors, plan, poses, strict=True)):
            a = follow_accel(pose, nearest_in_corridor(pose.x, pose.y, now), scene.road,
                             ex.cruise_speed, ex.K, PREDICT_DT)
            speed = max(pose.speed + a * PREDICT_DT, 0.0)
            moved.append(Pose(pose.x + speed * PREDICT_DT, _planned_y(scene, i, step, t),
                              speed, (speed - pose.speed) / PREDICT_DT, 0.0, pose.length,
                              pose.width, pose.kind))
        poses = moved
        for i, p in enumerate(poses):
            tracks[i].append(p)
            hl, hw = p.length / 2.0, p.width / 2.0
            if (padded_overlap(p.x, p.y, hl, hw, background, *PREDICT_PAD)
                    or padded_overlap(p.x, p.y, hl, hw, poses[:i] + poses[i + 1:], *PREDICT_PAD)):
                collided[i] = True
    return Prediction(tracks, scene.background_at(n_steps * PREDICT_DT), collided)


# --- profit terms ----------------------------------------------------------------

def safety_profit(member_idx: int, prediction: Prediction,
                  w: config.GameConfig | None = None) -> float:
    """Risk-field value (negative), TTC toward the predicted leader (capped,
    positive), and leader separation (capped, positive)."""
    w = w or config.DEFAULTS.game
    me = prediction.platoon_tracks[member_idx][-1]
    others = [trk[-1] for j, trk in enumerate(prediction.platoon_tracks) if j != member_idx]
    others.extend(prediction.background)

    p_ris = risk_at_point(me.x, me.y, others, config.DEFAULTS.risk)

    lead = nearest_in_corridor(me.x, me.y, others)
    if lead is None:
        tau = w.ttc_cap
        sep_sq = w.dist_cap ** 2
    else:
        tau = min(compute_ttc(me, lead), w.ttc_cap)
        sep_sq = min((me.x - lead.x) ** 2 + (me.y - lead.y) ** 2, w.dist_cap ** 2)
    return -p_ris + w.k_tau * tau + w.k_d * sep_sq


def efficiency_profit(member_idx: int, prediction: Prediction, v_max: float) -> float:
    """Mean predicted longitudinal speed over the horizon, normalized."""
    track = prediction.platoon_tracks[member_idx]
    return sum(p.speed for p in track) / (len(track) * v_max)


def integration_profit(coalition_lanes, window_lanes, n_lanes: int) -> float:
    """Traffic-entropy dispersion of the lane occupancy around the coalition.

    Zero when everything sits in one lane; grows with spread.  ``window_lanes``
    holds the lane index of every vehicle (members included) inside the
    assessment window.
    """
    n_s = len(coalition_lanes)
    if n_s < 1:
        raise ValueError("coalition must have members")
    counts = [0] * n_lanes
    for lane in window_lanes:
        if 0 <= lane < n_lanes:
            counts[lane] += 1
    total = 0.0
    for p_j in counts:
        if p_j > 0:
            frac = p_j / n_s
            total += frac * math.log(frac)
    return -n_s * total


def tracking_profit(coalition, prediction: Prediction,
                    w: config.GameConfig | None = None) -> float:
    """Formation error over consecutive predicted pairs, as a negative value."""
    w = w or config.DEFAULTS.game
    if len(coalition) < 2:
        return 0.0
    total = 0.0
    for a, b in zip(coalition, coalition[1:]):
        pa, pb = prediction.platoon_tracks[a][-1], prediction.platoon_tracks[b][-1]
        total += (abs(pa.x - pb.x - config.D_TARGET) + w.k_y * abs(pa.y - pb.y)
                  + w.k_v * abs(pa.speed - pb.speed))
    return -total


def _window_lanes(coalition, prediction: Prediction, scene: GameScene,
                  window: float):
    centroid = sum(prediction.platoon_tracks[i][-1].x for i in coalition) / len(coalition)
    finals = [trk[-1] for trk in prediction.platoon_tracks] + prediction.background
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
    that amount.  Predicted overlaps carry a flat penalty per member, and
    each changing member pays a small effort cost so near-ties stay in lane.
    """
    w = w or config.DEFAULTS.game
    value = 0.0
    for i in coalition:
        value += w.w_s * safety_profit(i, prediction, w)
        value += w.w_e * efficiency_profit(i, prediction, scene.road.speed_limit)
        if prediction.collided[i]:
            value -= w.collision_penalty
    value -= w.w_lane_change * lane_change_members
    member_lanes = [scene.road.lane_index(prediction.platoon_tracks[i][-1].y)
                    for i in coalition]
    window_lanes = _window_lanes(coalition, prediction, scene, w.entropy_window)
    value -= w.w_it * integration_profit(member_lanes, window_lanes,
                                         scene.road.lane_count)
    if phase == MERGING:
        value += w.w_er * tracking_profit(coalition, prediction, w)
        if pdi_value is not None and includes_platoon_leader:
            value -= w.w_pdi * pdi_value
    return value


# --- joint action enumeration, pruning, and the solve ---------------------------

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


def _pose_overlap_at(plan, scene: GameScene, dt: float) -> bool:
    """Does any member, ``world.predict``ed dt s ahead at its planned lateral
    position, overlap a member behind it or the background?"""
    poses = [predict(v, dt)._replace(y=_planned_y(scene, i, step, dt))
             for i, (v, step) in enumerate(zip(scene.platoon, plan))]
    background = scene.background_at(dt)
    for i, p in enumerate(poses):
        if padded_overlap(p.x, p.y, p.length / 2.0, p.width / 2.0,
                          poses[i + 1:] + background, *PRUNE_PAD):
            return True
    return False


def _one_step_overlap(partition, scene: GameScene, joint_action) -> bool:
    """Overlap at the short-horizon pose or at the lane-change commit pose,
    the end of the longest changing member's plan."""
    plan = lane_change_plan(partition, joint_action)
    if _pose_overlap_at(plan, scene, 1.0):
        return True
    commit = max((scene.lane_change(i, step[1]).duration
                  for i, step in enumerate(plan) if step is not None), default=None)
    return commit is not None and _pose_overlap_at(plan, scene, commit)


def prune_joint_actions(partition, scene: GameScene, feasible):
    """``feasible`` (from ``feasible_joint_actions``) minus the joint actions
    whose short-horizon pose overlaps.

    An empty result falls back to the all-keep assignment.
    """
    pruned = [a for a in feasible if not _one_step_overlap(partition, scene, a)]
    if not pruned:
        pruned = [tuple(KEEP for _ in partition)]
    return pruned


def _tie_break_key(joint_action):
    changes = sum(1 for a in joint_action if a != KEEP)
    return (changes, tuple(_ACTION_ORDER[a] for a in joint_action))


def evaluate_joint_action(partition, scene: GameScene, joint_action, phase: str,
                          w: config.GameConfig | None = None,
                          use_pdi: bool = False):
    """(total value, per-coalition breakdown) for one joint action."""
    w = w or config.DEFAULTS.game
    prediction = predict_outcome(scene, partition, joint_action, w.horizon)
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
            for i, p in enumerate(trk[-1] for trk in prediction.platoon_tracks)]
    bg = [p for p in prediction.background if road.contains(p.x)]
    return compute_pdi(build_node_graph(road, plat, bg)).value


@dataclass
class GameDecision:
    joint_action: tuple
    value: float
    breakdown: list
    pdi_value: float | None
    candidates: int
    pruned_out: int


def solve_tu_game(partition, scene: GameScene, phase: str,
                  w: config.GameConfig | None = None,
                  use_pdi: bool = False) -> GameDecision:
    """Exhaustive argmax over the pruned joint-action space.

    Deterministic tie-break: fewer lane changes first, then keep < left <
    right lexicographically.
    """
    w = w or config.DEFAULTS.game
    feasible = feasible_joint_actions(partition, scene)
    pruned = prune_joint_actions(partition, scene, feasible)
    best = None
    for joint in sorted(pruned, key=_tie_break_key):
        total, breakdown, pdi_value = evaluate_joint_action(
            partition, scene, joint, phase, w, use_pdi)
        if best is None or total > best[0] + 1e-12:
            best = (total, joint, breakdown, pdi_value)
    total, joint, breakdown, pdi_value = best
    return GameDecision(joint_action=joint, value=total, breakdown=breakdown,
                        pdi_value=pdi_value, candidates=len(pruned),
                        pruned_out=len(feasible) - len(pruned))

