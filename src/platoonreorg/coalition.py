"""Coalition-game vehicle layer.

Vehicles that drive in the same lane, within the compactness bounds, and
with no foreign vehicle interleaved form coalitions (sub-platoons) that act
as single players.  Each player picks a lateral action; the joint action
maximizing the summed coalition profits wins (transferable utility, so the
grand total is the objective).  In disposition-index mode the merging-phase
value additionally pays for how scattered the predicted platoon would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from . import config
from .pdi import build_node_graph, compute_pdi
from .planner import KEEP, LEFT, RIGHT, QuinticProfile
from .riskfield import risk_at_point
from .traffic import IdmParams, idm_acceleration
from .world import VehicleState, moving_box, padded_overlap

LATERAL_ACTIONS = (KEEP, LEFT, RIGHT)
_ACTION_ORDER = {KEEP: 0, LEFT: 1, RIGHT: 2}

SPLITTING = "splitting"
MERGING = "merging"
STEADY = "steady"


@dataclass
class CoalitionPartition:
    """Groups of platoon indices; the frontmost member leads each group."""

    coalitions: list            # list of tuples of platoon indices (ordered)

    @property
    def leaders(self):
        return [grp[0] for grp in self.coalitions]

    def coalition_of(self, idx):
        for c, grp in enumerate(self.coalitions):
            if idx in grp:
                return c
        raise KeyError(idx)

    def __len__(self):
        return len(self.coalitions)


def _interleaved_foreign(a, b, background) -> bool:
    lo, hi = min(a.x, b.x), max(a.x, b.x)
    for v in background:
        if lo < v.x < hi and abs(v.y - a.y) < config.CORRIDOR_HALF_WIDTH:
            return True
    return False


def coalition_conditions_hold(a, b, background,
                              x_lim: float = config.X_LIM,
                              y_lim: float = config.Y_LIM) -> bool:
    """Can consecutive platoon members a (front) and b (rear) share a coalition?"""
    if abs(a.x - b.x) >= x_lim:
        return False
    if abs(a.y - b.y) >= y_lim:
        return False
    if a.lane != b.lane:
        return False
    if _interleaved_foreign(a, b, background):
        return False
    return True


def form_coalitions(platoon, background, target_groups=None) -> CoalitionPartition:
    """Maximal coalition partition of the platoon (front-to-back order).

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
    return CoalitionPartition(coalitions=coalitions)


def formation_intact(platoon, background) -> bool:
    """Whole platoon satisfies the coalition conditions as one group."""
    return len(form_coalitions(platoon, background)) == 1


# --- prediction ----------------------------------------------------------------

@dataclass
class GameScene:
    """Inputs the game needs for one decision."""

    road: object
    platoon: list               # states ordered by platoon index
    background: list
    idm: IdmParams = field(default_factory=lambda: IdmParams(desired_speed=27.0, time_headway=1.0))

    @cached_property
    def background_boxes(self):
        """``padded_overlap`` boxes of the background, shared by every joint action."""
        return [moving_box(v) for v in self.background]


PREDICT_DT = 0.3
LANE_CHANGE_TIME = 3.0
STAGGER = 1.0
# padding of the overlap screens, along and across the road [m]: predicted
# tracks in the rollout, and the short-horizon poses that prune joint actions
PREDICT_PAD = (0.5, 0.2)
PRUNE_PAD = (0.3, 0.2)


@dataclass
class Prediction:
    times: list
    platoon_tracks: list        # per member: list of (x, y, v)
    background_tracks: list     # per background vehicle: list of (x, y, v)
    collided: list              # per member: True if any predicted overlap


def _predicted_leader(x: float, y: float, points, length: float = 0.0):
    """(gap, point) for the nearest predicted (x, y, v) point strictly ahead
    of x inside the corridor, with gap = point x - x - length; (inf, None)
    when the corridor ahead is clear.  Earlier points win equal gaps."""
    half_width = config.CORRIDOR_HALF_WIDTH
    gap, lead = math.inf, None
    for px, py, pv in points:
        if px > x and abs(py - y) < half_width:
            g = px - x - length
            if g < gap:
                gap, lead = g, (px, py, pv)
    return gap, lead


def predict_outcome(scene: GameScene, partition: CoalitionPartition,
                    joint_action, horizon: float):
    """Forward rollout: constant velocity for background vehicles, lateral
    polynomials for lane-changing members (front first, staggered starts),
    car-following-consistent speeds for everyone in the platoon.
    """
    if horizon <= 0:
        raise ValueError("prediction horizon must be positive")
    n_steps = int(round(horizon / PREDICT_DT))
    times = [k * PREDICT_DT for k in range(n_steps + 1)]

    bg_boxes = scene.background_boxes
    bg_tracks = [[(bx + bvx * t, by, v.speed) for t in times]
                 for (bx, by, bvx, _, _), v in zip(bg_boxes, scene.background)]
    halves = [(v.length / 2.0, v.width / 2.0) for v in scene.platoon]

    # lateral plans per member
    lat_plans = []
    for idx, v in enumerate(scene.platoon):
        c = partition.coalition_of(idx)
        action = joint_action[c]
        if action == KEEP:
            lat_plans.append(None)
            continue
        rank = partition.coalitions[c].index(idx)
        direction = 1 if action == LEFT else -1
        target_y = scene.road.lane_center(v.lane + direction)
        start = rank * STAGGER
        lat_plans.append((start, QuinticProfile(v.y, 0.0, 0.0, target_y, 0.0, 0.0,
                                                LANE_CHANGE_TIME)))

    xs = [v.x for v in scene.platoon]
    ys = [v.y for v in scene.platoon]
    vs = [v.speed for v in scene.platoon]
    tracks = [[(x, y, v)] for x, y, v in zip(xs, ys, vs)]
    collided = [False] * len(scene.platoon)

    for k in range(1, n_steps + 1):
        t = times[k]
        # leaders come from the platoon's previous poses, then the background
        now = [trk[-1] for trk in tracks] + [trk[k] for trk in bg_tracks]
        new_xs, new_ys, new_vs = [], [], []
        for i, v in enumerate(scene.platoon):
            plan = lat_plans[i]
            y = ys[i]
            if plan is not None:
                start, quintic = plan
                tau = t - start
                if tau > 0:
                    y = quintic.pos(min(tau, LANE_CHANGE_TIME))
            gap, lead = _predicted_leader(xs[i], ys[i], now, v.length)
            if lead is not None:
                a = idm_acceleration(vs[i], max(gap, 0.1), vs[i] - lead[2], scene.idm)
            else:
                a = idm_acceleration(vs[i], 1e9, 0.0, scene.idm)
            a = min(max(a, -config.ACCEL_LIMIT), config.LQR_ACCEL_MAX)
            speed = max(vs[i] + a * PREDICT_DT, 0.0)
            new_vs.append(speed)
            new_xs.append(xs[i] + speed * PREDICT_DT)
            new_ys.append(y)
        xs, ys, vs = new_xs, new_ys, new_vs
        plat_boxes = [(x, y, 0.0, hl, hw) for x, y, (hl, hw) in zip(xs, ys, halves)]
        for i, (hl, hw) in enumerate(halves):
            tracks[i].append((xs[i], ys[i], vs[i]))
            mates = plat_boxes[:i] + plat_boxes[i + 1:]
            if (padded_overlap(xs[i], ys[i], hl, hw, bg_boxes, t, *PREDICT_PAD)
                    or padded_overlap(xs[i], ys[i], hl, hw, mates, t, *PREDICT_PAD)):
                collided[i] = True
    return Prediction(times=times, platoon_tracks=tracks,
                      background_tracks=bg_tracks, collided=collided)


# --- profit terms ----------------------------------------------------------------

def safety_profit(member_idx: int, prediction: Prediction, scene: GameScene,
                  w: config.GameConfig | None = None,
                  risk_params: config.RiskFieldConfig | None = None) -> float:
    """Risk-field value (negative), TTC toward the predicted leader (capped,
    positive), and leader separation (capped, positive)."""
    w = w or config.DEFAULTS.game
    risk_params = risk_params or config.DEFAULTS.risk
    x, y, v = prediction.platoon_tracks[member_idx][-1]

    others = []
    for j, trk in enumerate(prediction.platoon_tracks):
        if j != member_idx:
            others.append(trk[-1])
    others.extend(trk[-1] for trk in prediction.background_tracks)

    class _P:  # light probe objects for the field evaluation
        __slots__ = ("x", "y", "speed")

        def __init__(self, x, y, speed):
            self.x, self.y, self.speed = x, y, speed

    p_ris = risk_at_point(x, y, [_P(*o) for o in others], risk_params)

    best, lead = _predicted_leader(x, y, others)
    if lead is None:
        tau = w.ttc_cap
        sep_sq = w.dist_cap ** 2
    else:
        gap = best - 5.0
        closing = v - lead[2]
        tau = min(gap / closing if (gap > 0 and closing > 0) else w.ttc_cap, w.ttc_cap)
        tau = max(tau, 0.0)
        sep_sq = min((x - lead[0]) ** 2 + (y - lead[1]) ** 2, w.dist_cap ** 2)
    return -p_ris + w.k_tau * tau + w.k_d * sep_sq


def efficiency_profit(member_idx: int, prediction: Prediction, v_max: float) -> float:
    """Mean predicted longitudinal speed over the horizon, normalized."""
    track = prediction.platoon_tracks[member_idx]
    return sum(p[2] for p in track) / (len(track) * v_max)


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
                    w: config.GameConfig | None = None,
                    d_target: float = config.D_TARGET) -> float:
    """Formation error over consecutive predicted pairs, as a negative value."""
    w = w or config.DEFAULTS.game
    if len(coalition) < 2:
        return 0.0
    total = 0.0
    for a, b in zip(coalition, coalition[1:]):
        xa, ya, va = prediction.platoon_tracks[a][-1]
        xb, yb, vb = prediction.platoon_tracks[b][-1]
        total += (abs(xa - xb - d_target) + w.k_y * abs(ya - yb)
                  + w.k_v * abs(va - vb))
    return -total


def _window_lanes(coalition, prediction: Prediction, scene: GameScene,
                  window: float):
    centroid = sum(prediction.platoon_tracks[i][-1][0] for i in coalition) / len(coalition)
    lanes = []
    width = scene.road.lane_width
    for trk in prediction.platoon_tracks:
        x, y, _ = trk[-1]
        if abs(x - centroid) <= window:
            lanes.append(int(round(y / width)))
    for trk in prediction.background_tracks:
        x, y, _ = trk[-1]
        if abs(x - centroid) <= window:
            lanes.append(int(round(y / width)))
    return lanes


def coalition_value(coalition, prediction: Prediction, scene: GameScene,
                    phase: str, w: config.GameConfig | None = None,
                    risk_params: config.RiskFieldConfig | None = None,
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
        value += w.w_s * safety_profit(i, prediction, scene, w, risk_params)
        value += w.w_e * efficiency_profit(i, prediction, scene.road.speed_limit)
        if prediction.collided[i]:
            value -= w.collision_penalty
    value -= w.w_lane_change * lane_change_members
    member_lanes = [int(round(prediction.platoon_tracks[i][-1][1] / scene.road.lane_width))
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

def feasible_joint_actions(partition: CoalitionPartition, scene: GameScene):
    """All coalition-level assignments that stay on the road."""
    per_coalition = []
    for grp in partition.coalitions:
        lanes = {scene.platoon[i].lane for i in grp}
        options = [KEEP]
        if max(lanes) + 1 < scene.road.lane_count:
            options.append(LEFT)
        if min(lanes) - 1 >= 0:
            options.append(RIGHT)
        per_coalition.append(options)
    return [tuple(a) for a in product(*per_coalition)]


def _pose_overlap_at(partition: CoalitionPartition, scene: GameScene,
                     joint_action, dt: float) -> bool:
    poses = []
    for idx, v in enumerate(scene.platoon):
        c = partition.coalition_of(idx)
        action = joint_action[c]
        rank = partition.coalitions[c].index(idx)
        x, y, vx, hl, hw = moving_box(v)
        if action != KEEP:
            tau = dt - rank * STAGGER
            frac = min(max(tau / LANE_CHANGE_TIME, 0.0), 1.0)
            direction = 1 if action == LEFT else -1
            y_target = scene.road.lane_center(v.lane + direction)
            quintic_frac = frac ** 3 * (10 - 15 * frac + 6 * frac * frac)
            y = v.y + (y_target - v.y) * quintic_frac
        poses.append((x, y, vx, hl, hw))
    for i, (x, y, vx, hl, hw) in enumerate(poses):
        others = poses[i + 1:] + scene.background_boxes
        if padded_overlap(x + vx * dt, y, hl, hw, others, dt, *PRUNE_PAD):
            return True
    return False


def _one_step_overlap(partition: CoalitionPartition, scene: GameScene,
                      joint_action) -> bool:
    """Overlap at the short-horizon pose or at the lane-change commit pose."""
    if _pose_overlap_at(partition, scene, joint_action, 1.0):
        return True
    if any(a != KEEP for a in joint_action):
        return _pose_overlap_at(partition, scene, joint_action, LANE_CHANGE_TIME)
    return False


def prune_joint_actions(partition: CoalitionPartition, scene: GameScene):
    """Feasible joint actions minus those whose short-horizon pose overlaps.

    An empty result falls back to the all-keep assignment.
    """
    feasible = feasible_joint_actions(partition, scene)
    pruned = [a for a in feasible if not _one_step_overlap(partition, scene, a)]
    if not pruned:
        pruned = [tuple(KEEP for _ in partition.coalitions)]
    return pruned


def _tie_break_key(joint_action):
    changes = sum(1 for a in joint_action if a != KEEP)
    return (changes, tuple(_ACTION_ORDER[a] for a in joint_action))


def evaluate_joint_action(partition: CoalitionPartition, scene: GameScene,
                          joint_action, phase: str,
                          w: config.GameConfig | None = None,
                          risk_params: config.RiskFieldConfig | None = None,
                          use_pdi: bool = False,
                          pdi_params: config.PdiConfig | None = None):
    """(total value, per-coalition breakdown) for one joint action."""
    w = w or config.DEFAULTS.game
    prediction = predict_outcome(scene, partition, joint_action, w.horizon)
    pdi_value = None
    if use_pdi and phase == MERGING:
        pdi_value = _predicted_pdi(prediction, scene, pdi_params)
    total = 0.0
    breakdown = []
    for c, grp in enumerate(partition.coalitions):
        changing = len(grp) if joint_action[c] != KEEP else 0
        val = coalition_value(grp, prediction, scene, phase, w, risk_params,
                              pdi_value=pdi_value,
                              includes_platoon_leader=(0 in grp),
                              lane_change_members=changing)
        breakdown.append(val)
        total += val
    return total, breakdown, pdi_value


def _predicted_pdi(prediction: Prediction, scene: GameScene,
                   pdi_params: config.PdiConfig | None):
    plat = []
    for i, trk in enumerate(prediction.platoon_tracks):
        x, y, v = trk[-1]
        x = min(max(x, 0.0), scene.road.length)
        plat.append(VehicleState(id=i, kind="CAV", x=x, y=y, speed=max(v, 0.0),
                                 lane=scene.road.lane_of(y)))
    bg = []
    for j, trk in enumerate(prediction.background_tracks):
        x, y, v = trk[-1]
        if 0.0 <= x <= scene.road.length:
            bg.append(VehicleState(id=1000 + j, kind="HDV", x=x, y=y, speed=max(v, 0.0)))
    graph = build_node_graph(scene.road, plat, bg, pdi_params)
    return compute_pdi(graph).value


@dataclass
class GameDecision:
    joint_action: tuple
    value: float
    breakdown: list
    pdi_value: float | None
    candidates: int
    pruned_out: int


def solve_tu_game(partition: CoalitionPartition, scene: GameScene, phase: str,
                  w: config.GameConfig | None = None,
                  risk_params: config.RiskFieldConfig | None = None,
                  use_pdi: bool = False,
                  pdi_params: config.PdiConfig | None = None) -> GameDecision:
    """Exhaustive argmax over the pruned joint-action space.

    Deterministic tie-break: fewer lane changes first, then keep < left <
    right lexicographically.
    """
    w = w or config.DEFAULTS.game
    feasible = feasible_joint_actions(partition, scene)
    pruned = prune_joint_actions(partition, scene)
    best = None
    for joint in sorted(pruned, key=_tie_break_key):
        total, breakdown, pdi_value = evaluate_joint_action(
            partition, scene, joint, phase, w, risk_params, use_pdi, pdi_params)
        if best is None or total > best[0] + 1e-12:
            best = (total, joint, breakdown, pdi_value)
    total, joint, breakdown, pdi_value = best
    return GameDecision(joint_action=joint, value=total, breakdown=breakdown,
                        pdi_value=pdi_value, candidates=len(pruned),
                        pruned_out=len(feasible) - len(pruned))


# --- phase machine ----------------------------------------------------------------

@dataclass
class GamePhaseMachine:
    phase: str = STEADY

    def update(self, target_single_group: bool, intact: bool) -> str:
        if self.phase == STEADY:
            if not target_single_group:
                self.phase = SPLITTING
        elif self.phase == SPLITTING:
            if target_single_group:
                self.phase = MERGING
        elif self.phase == MERGING:
            if intact:
                self.phase = STEADY
            elif not target_single_group:
                self.phase = SPLITTING
        return self.phase
