"""Human-driven background traffic: IDM car following, MOBIL lane changes,
style presets, and seeded traffic-flow generation.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from . import config
from .planner import PacedPlan, lane_change_time, low_speed_path, quintic
from .world import HDV, RoadMap, VehicleState

B_EMERGENCY = 9.0  # hardest braking any driver can produce [m/s^2]
ATTEMPTS = 25      # candidate x positions per spawned vehicle


@dataclass(frozen=True)
class IdmParams:
    desired_speed: float = 30.0   # v0 [m/s]
    time_headway: float = 1.5     # T [s]
    min_gap: float = 2.0          # s0 [m]
    max_accel: float = 1.5        # a [m/s^2]
    comfort_decel: float = 2.0    # b [m/s^2]
    exponent: float = 4.0         # delta

    def __post_init__(self):
        if not (self.desired_speed > 0 and self.time_headway > 0 and self.min_gap > 0
                and self.max_accel > 0 and self.comfort_decel > 0 and self.exponent >= 1):
            raise ValueError("IDM parameters must be positive with exponent >= 1")

    def with_desired_speed(self, v0: float) -> "IdmParams":
        """This preset with desired speed ``v0``, equal to the constructor's.

        The other fields were checked when this preset was built, so only
        ``v0`` is checked; the copy skips ``__init__``, which costs more than
        twice as much, for every driver that gets its own desired speed.
        """
        if not v0 > 0:
            raise ValueError(f"IDM desired speed must be positive, got {v0!r}")
        p = object.__new__(type(self))
        fields = p.__dict__
        fields.update(self.__dict__)
        fields["desired_speed"] = v0
        return p


@dataclass(frozen=True)
class MobilParams:
    politeness: float = 0.35
    accel_threshold: float = 0.2   # [m/s^2]
    safe_decel_limit: float = 3.0  # max braking imposed on the new follower [m/s^2]

    def __post_init__(self):
        if not (0.0 <= self.politeness <= 1.0):
            raise ValueError("politeness must be within [0, 1]")
        if not (self.accel_threshold > 0 and self.safe_decel_limit > 0):
            raise ValueError("MOBIL thresholds must be positive")


def desired_gap(v: float, dv: float, p: IdmParams) -> float:
    """IDM dynamic desired gap s*(v, dv); the dynamic part never goes negative."""
    dyn = v * p.time_headway + v * dv / (2.0 * math.sqrt(p.max_accel * p.comfort_decel))
    return p.min_gap + max(0.0, dyn)


def idm_acceleration(v: float, s: float, dv: float, p: IdmParams) -> float:
    """IDM acceleration for speed v, bumper gap s, closing speed dv (= v - v_lead).

    Nonpositive gaps mean the follower is already inside its leader; the
    output is emergency braking.
    """
    if s <= 0.0:
        return -B_EMERGENCY
    a = p.max_accel * (1.0 - (v / p.desired_speed) ** p.exponent
                       - (desired_gap(v, dv, p) / s) ** 2)
    return min(max(a, -B_EMERGENCY), p.max_accel)


def free_accel(v: float, p: IdmParams) -> float:
    return idm_acceleration(v, 1e9, 0.0, p)


@dataclass(frozen=True)
class Neighbor:
    """A follower or leader as seen from a candidate ego slot."""

    gap: float                  # bumper gap toward ego [m], may be +inf
    speed: float
    params: IdmParams | None = None   # a follower's own; ``mobil_decide`` reads no leader's


@dataclass(frozen=True)
class LaneContext:
    """What ego would face in a lane: its leader and its (new) follower."""

    leader: Neighbor | None = None
    follower: Neighbor | None = None
    follower_leader_gap: float = math.inf   # follower's gap to ``leader`` without ego between
    follower_leader_speed: float = math.inf  # ``leader``'s speed


def _accel(v: float, p: IdmParams, gap: float, lead_speed: float) -> float:
    """IDM acceleration at ``gap`` behind a leader at ``lead_speed``; an
    infinite gap means no leader."""
    if not math.isfinite(gap):
        return free_accel(v, p)
    return idm_acceleration(v, gap, v - lead_speed, p)


def _accel_toward(v: float, leader: Neighbor | None, p: IdmParams) -> float:
    return free_accel(v, p) if leader is None else _accel(v, p, leader.gap, leader.speed)


def mobil_decide(ego_speed: float, ego_params: IdmParams,
                 current: LaneContext, target: LaneContext,
                 p: MobilParams) -> bool:
    """MOBIL acceptance: safety veto on the new follower, then incentive.

    Missing neighbors count as infinitely distant.  Each follower is judged
    with its own ``Neighbor.params``; a follower's gap and leader speed
    without the ego are its context's ``follower_leader_gap`` and
    ``follower_leader_speed``, in the target lane before the change and in
    the current lane after it.
    """
    others_gain = 0.0
    f = target.follower
    if f is not None and math.isfinite(f.gap):
        a_after = _accel(f.speed, f.params, f.gap, ego_speed)
        # safety: braking the new follower would need behind ego
        if a_after < -p.safe_decel_limit:
            return False
        others_gain += a_after - _accel(f.speed, f.params, target.follower_leader_gap,
                                        target.follower_leader_speed)
    f = current.follower
    if f is not None and math.isfinite(f.gap):
        others_gain += (_accel(f.speed, f.params, current.follower_leader_gap,
                               current.follower_leader_speed)
                        - _accel(f.speed, f.params, f.gap, ego_speed))

    own_gain = (_accel_toward(ego_speed, target.leader, ego_params)
                - _accel_toward(ego_speed, current.leader, ego_params))
    return own_gain + p.politeness * others_gain > p.accel_threshold


# --- driving styles ----------------------------------------------------------

STYLES = ("timid", "normal", "aggressive")


@functools.cache
def style_params(style: str, speed_limit: float):
    """(IdmParams, MobilParams) presets for one driving style.

    Memoised: equal arguments share one frozen pair.
    """
    if style == "timid":
        idm = IdmParams(desired_speed=0.9 * speed_limit, time_headway=2.0)
        mobil = MobilParams(politeness=0.5, accel_threshold=0.2, safe_decel_limit=2.0)
    elif style == "normal":
        idm = IdmParams(desired_speed=1.0 * speed_limit, time_headway=1.5)
        mobil = MobilParams(politeness=0.35, accel_threshold=0.2, safe_decel_limit=3.0)
    elif style == "aggressive":
        idm = IdmParams(desired_speed=1.15 * speed_limit, time_headway=1.0)
        mobil = MobilParams(politeness=0.1, accel_threshold=0.1, safe_decel_limit=4.0)
    else:
        raise ValueError(f"unknown driving style {style!r}")
    return idm, mobil


@dataclass(frozen=True)
class TrafficSpec:
    density: float = 8.0                       # vehicles/km/lane
    style_mix: dict = field(default_factory=lambda: {"timid": 0.2, "normal": 0.5, "aggressive": 0.3})
    seed: int = 0
    speed_limit: float = config.SPEED_LIMIT
    x_min: float = 0.0                         # spawn corridor along the road
    x_max: float | None = None

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        if not (math.isfinite(self.density) and self.density >= 0):
            raise ValueError(f"density must be finite and >= 0, got {self.density!r}")
        unknown = set(self.style_mix) - set(STYLES)
        if unknown:
            raise ValueError(f"unknown driving styles {sorted(unknown)} in style mix")
        if not all(math.isfinite(w) and w >= 0.0 for w in self.style_mix.values()):
            raise ValueError(f"style mix weights must be finite and >= 0, got {self.style_mix}")
        total = sum(self.style_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("style mix probabilities must sum to 1")


@dataclass(frozen=True)
class ScriptedBrake:
    """A scripted deceleration event: ``decel`` from ``t_start`` for
    ``duration`` s, then IDM toward ``cruise_after``."""

    t_start: float
    decel: float
    duration: float
    cruise_after: float


@dataclass(slots=True)
class HdvDriver:
    """Background-vehicle agent: IDM longitudinally, MOBIL laterally.  A
    lane change is the planner's quintic, a ``PacedPlan`` held in
    ``state.plan`` while it runs, which the driver tracks exactly."""

    state: VehicleState
    idm: IdmParams
    mobil: MobilParams
    style: str = "normal"
    scripted_accel: float | None = field(default=None, init=False)  # event override, wins over IDM
    brake: ScriptedBrake | None = None      # event this driver plays; it then keeps its lane

    def changing(self) -> bool:
        return self.state.plan is not None

    def begin_lane_change(self, target_lane: int, road: RoadMap):
        """Plan the change from the driver's y, not from its lane, which the
        road clamps (a ramp-shoulder driver is in lane 0), to the center of
        ``target_lane``."""
        y0, y1 = self.state.y, road.lane_center(target_lane)
        T = lane_change_time(y1 - y0)
        self.state.plan = PacedPlan(quintic(y0, 0.0, 0.0, y1, 0.0, 0.0, T), T,
                                    low_speed_path(y1 - y0) / T, y1)
        self.state.target_lane = target_lane

    def lateral_update(self, speed: float) -> float:
        """One frame of the plan for a step that ends at ``speed``: the
        heading at which ``step_kinematics`` moves y by the plan's step,
        kept at rest, or 0 when no change runs.  The frame after the clock
        reaches the plan's duration ends the change at the target lane's
        center, heading 0."""
        state = self.state
        plan = state.plan
        if plan is None:
            return 0.0
        if plan.clock >= plan.duration:
            state.plan = None
            state.y = plan.y1   # where the plan ended, up to rounding
            return 0.0
        dt = config.DT
        dy = plan.step(state.y, state.speed * math.sin(state.heading) * dt, speed * dt)
        return math.asin(dy / (speed * dt)) if speed > 0.0 else state.heading


@dataclass
class SpawnResult:
    drivers: list
    requested: int


def in_keep_clear(x: float, lane: int, boxes) -> bool:
    """True when (x, lane) lies inside any (x_min, x_max, lane_min, lane_max) box."""
    return any(l0 <= lane <= l1 and x0 <= x <= x1 for (x0, x1, l0, l1) in boxes)


def spawn_traffic(spec: TrafficSpec, road: RoadMap, keep_clear=(),
                  id_start: int = 1000) -> SpawnResult:
    """Seeded random placement at the requested density.

    keep_clear entries are (x_min, x_max, lane_min, lane_max) exclusion boxes
    covering e.g. the platoon's spawn corridor.  Vehicles are placed lane by
    lane with at least the style's equilibrium headway between neighbors;
    when the corridor cannot hold the requested count the remainder is
    dropped, and ``requested - len(drivers)`` is the shortfall.

    The draws are part of the seeded contract: the same spec and road give
    the same traffic, and golden scenarios depend on the exact stream.  They
    come from ``random.Random(spec.seed).random()``, the one method whose
    output Python keeps reproducible across versions, each drawn when it is
    used and decoded here.  Each requested vehicle, placed or not, draws
    with ``u`` the next double:

    - lane ``int(u * lane_count)``;
    - style: the first whose normalised cumulative weight exceeds ``u``;
    - speed ``0.75 + (0.95 - 0.75) u`` of the style's desired speed;
    - then one candidate x ``x_min + (x_max - x_min) u`` per try, at most
      ``ATTEMPTS`` tries, until one fits.
    """
    x_max = spec.x_max if spec.x_max is not None else road.length
    if x_max <= spec.x_min:
        raise ValueError(f"spawn corridor [{spec.x_min}, {x_max}] is empty")
    corridor_km = (x_max - spec.x_min) / 1000.0
    requested = int(round(spec.density * road.lane_count * corridor_km))

    styles = sorted(spec.style_mix)
    presets = [style_params(s, spec.speed_limit) for s in styles]
    cdf = list(itertools.accumulate(float(spec.style_mix[s]) for s in styles))
    cdf = [c / cdf[-1] for c in cdf]
    lane_count = road.lane_count
    centres = [road.lane_center(lane) for lane in range(lane_count)]
    # each lane's keep-clear boxes as (x_min, x_max) pairs
    lane_spans = [[(b[0], b[1]) for b in keep_clear if b[2] <= lane <= b[3]]
                  for lane in range(lane_count)]
    x_min, span = spec.x_min, x_max - spec.x_min
    draw = random.Random(spec.seed).random
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    length = config.VEHICLE_LENGTH
    attempts = range(ATTEMPTS)
    drivers = []
    vid = id_start
    per_lane = [[] for _ in range(lane_count)]   # placed x values, sorted
    for _ in range(requested):
        lane = int(draw() * lane_count)
        s = bisect_right(cdf, draw())
        idm, mobil = presets[s]
        speed = (0.75 + (0.95 - 0.75) * draw()) * idm.desired_speed
        clearance = idm.min_gap + speed * idm.time_headway + length
        xs = per_lane[lane]
        n = len(xs)
        spans = lane_spans[lane]
        for _ in attempts:
            x = x_min + span * draw()
            # the nearest placed vehicle on either side decides the spacing
            # test, which rejects most candidates in dense traffic, so it
            # runs before the keep-clear test
            i = bisect_left(xs, x)
            if (i and x - xs[i - 1] < clearance) or (i < n and xs[i] - x < clearance):
                continue
            for x0, x1 in spans:
                if x0 <= x <= x1:
                    break   # inside a keep-clear box: next candidate
            else:
                xs.insert(i, x)
                st = VehicleState(vid, HDV, x, centres[lane], speed, lane, lane)
                drivers.append(HdvDriver(st, idm, mobil, styles[s]))
                vid += 1
                break
    return SpawnResult(drivers=drivers, requested=requested)
