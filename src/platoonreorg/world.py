"""Road geometry, vehicle state, kinematics, and collision/TTC primitives.

Axis convention: x runs along the road, y runs to the left of travel, lane
centers sit at ``lane * lane_width``.  Lane 0 is the rightmost lane (the ramp
merges into it).  Headings are measured from +x toward +y, so a left lane
change uses a positive heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import config


class WorldError(ValueError):
    """Invalid state or argument fed to a world-core primitive."""


@dataclass(frozen=True)
class RampSegment:
    start: float
    end: float

    def __post_init__(self):
        if not (self.end > self.start >= 0.0):
            raise WorldError(f"ramp segment [{self.start}, {self.end}] is empty or negative")


@dataclass(frozen=True)
class RoadMap:
    lane_count: int = 3
    lane_width: float = config.LANE_WIDTH
    length: float = 4000.0
    speed_limit: float = config.SPEED_LIMIT
    ramp: RampSegment | None = None

    def __post_init__(self):
        if self.lane_count < 2:
            raise WorldError("need at least 2 lanes")
        if self.lane_width <= 0 or self.length <= 0:
            raise WorldError("lane width and length must be positive")
        if self.ramp is not None and self.ramp.end > self.length:
            raise WorldError("ramp segment extends past the road end")

    def lane_center(self, lane: int) -> float:
        return lane * self.lane_width

    def lane_of(self, y: float) -> int:
        lane = int(round(y / self.lane_width))
        return min(max(lane, 0), self.lane_count - 1)

    def contains(self, x: float) -> bool:
        return 0.0 <= x <= self.length


CAV = "CAV"
HDV = "HDV"


@dataclass
class VehicleState:
    """Pose and derived kinematics of one vehicle.

    ``accel``/``jerk`` are longitudinal backward differences of ``speed``;
    the per-axis values (ax..jy) are backward differences of (vx, vy).
    """

    id: int
    kind: str = HDV
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0
    accel: float = 0.0
    jerk: float = 0.0
    length: float = config.VEHICLE_LENGTH
    width: float = config.VEHICLE_WIDTH
    lane: int = 0
    target_lane: int = 0
    vx: float = 0.0
    vy: float = 0.0
    ax: float = 0.0
    ay: float = 0.0
    jx: float = 0.0
    jy: float = 0.0

    def __post_init__(self):
        if self.length <= 0:
            raise WorldError("vehicle length must be positive")
        if self.speed < 0:
            raise WorldError("speed must be nonnegative")
        if self.vx == 0.0 and self.vy == 0.0 and self.speed > 0.0:
            self.vx = self.speed * math.cos(self.heading)
            self.vy = self.speed * math.sin(self.heading)

    def copy(self) -> "VehicleState":
        return replace(self)

    @property
    def front(self) -> float:
        return self.x + 0.5 * self.length

    @property
    def rear(self) -> float:
        return self.x - 0.5 * self.length


def step_kinematics(state: VehicleState, speed: float, heading: float, dt: float) -> VehicleState:
    """Advance one physics step at commanded speed/heading.

    Positions integrate u*cos(theta) along-lane and u*sin(theta) laterally;
    acceleration and jerk come from backward differences of consecutive
    speeds, never from the commands themselves.
    """
    if not (math.isfinite(speed) and math.isfinite(heading) and math.isfinite(dt)):
        raise WorldError("non-finite kinematics input")
    if dt <= 0:
        raise WorldError("dt must be positive")
    if speed < 0:
        raise WorldError("speed must be nonnegative")

    vx = speed * math.cos(heading)
    vy = speed * math.sin(heading)
    ax = (vx - state.vx) / dt
    ay = (vy - state.vy) / dt
    accel = (speed - state.speed) / dt
    new = state.copy()
    new.x = state.x + vx * dt
    new.y = state.y + vy * dt
    new.heading = heading
    new.speed = speed
    new.jerk = (accel - state.accel) / dt
    new.accel = accel
    new.jx = (ax - state.ax) / dt
    new.jy = (ay - state.ay) / dt
    new.ax = ax
    new.ay = ay
    new.vx = vx
    new.vy = vy
    return new


def compute_ttc(follower: VehicleState, leader: VehicleState) -> float:
    """Time-to-collision of follower onto leader along the lane.

    The bumper gap is unsigned, so the roles decide only the closing speed:
    an opening (or static) gap gives ``math.inf`` and already-overlapping
    vehicles give 0.0.
    """
    gap = abs(leader.x - follower.x) - 0.5 * (leader.length + follower.length)
    if gap <= 0.0:
        return 0.0
    closing = follower.speed * math.cos(follower.heading) - leader.speed * math.cos(leader.heading)
    if closing <= 0.0:
        return math.inf
    return gap / closing


def _rect_axes_corners(v: VehicleState):
    c, s = math.cos(v.heading), math.sin(v.heading)
    hl, hw = v.length / 2.0, v.width / 2.0
    ax_ = (c, s)
    ay_ = (-s, c)
    corners = []
    for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
        corners.append((v.x + dx * c - dy * s, v.y + dx * s + dy * c))
    return (ax_, ay_), corners


def check_collision(a: VehicleState, b: VehicleState) -> bool:
    """Oriented-rectangle overlap via the separating axis test (closed boundaries)."""
    # fast reject: bounding circles
    r = 0.5 * math.hypot(a.length, a.width) + 0.5 * math.hypot(b.length, b.width)
    if (a.x - b.x) ** 2 + (a.y - b.y) ** 2 > r * r:
        return False
    axes_a, corners_a = _rect_axes_corners(a)
    axes_b, corners_b = _rect_axes_corners(b)
    for ux, uy in (*axes_a, *axes_b):
        pa = [cx * ux + cy * uy for cx, cy in corners_a]
        pb = [cx * ux + cy * uy for cx, cy in corners_b]
        if max(pa) < min(pb) or max(pb) < min(pa):
            return False
    return True


@dataclass
class SimClock:
    t: float = 0.0
    dt: float = config.DT
    decision_period_vehicle: float = config.VEHICLE_DECISION_PERIOD
    decision_period_platoon: float = config.PLATOON_DECISION_PERIOD

    def __post_init__(self):
        if self.dt <= 0:
            raise WorldError("dt must be positive")
        for period in (self.decision_period_vehicle, self.decision_period_platoon):
            steps = period / self.dt
            if abs(steps - round(steps)) > 1e-9:
                raise WorldError("decision periods must be integer multiples of dt")

    @property
    def frame(self) -> int:
        return int(round(self.t / self.dt))

    def vehicle_decision_due(self) -> bool:
        return self.frame % int(round(self.decision_period_vehicle / self.dt)) == 0

    def platoon_decision_due(self) -> bool:
        return self.frame % int(round(self.decision_period_platoon / self.dt)) == 0

    def tick(self):
        self.t = round(self.t + self.dt, 9)


def _nearest_in_corridor(ego: VehicleState, others, direction: float):
    """Nearest vehicle other than ego whose along-road offset times
    ``direction`` is positive and whose lateral offset is inside the
    corridor half-width; the first of equal distances wins."""
    x, y, ego_id = ego.x, ego.y, ego.id
    half_width = config.CORRIDOR_HALF_WIDTH
    best = None
    best_dx = math.inf
    for v in others:
        dx = direction * (v.x - x)
        if 0.0 < dx < best_dx and abs(v.y - y) < half_width and v.id != ego_id:
            best_dx = dx
            best = v
    return best


def lead_vehicle(ego: VehicleState, others):
    """Nearest vehicle ahead of ego in its corridor, or None."""
    return _nearest_in_corridor(ego, others, 1.0)


def rear_vehicle(ego: VehicleState, others):
    """Nearest vehicle behind ego in its corridor, or None."""
    return _nearest_in_corridor(ego, others, -1.0)


def moving_box(v: VehicleState):
    """``v`` as a ``padded_overlap`` box moving at its along-road speed."""
    return (v.x, v.y, v.speed * math.cos(v.heading), v.length / 2.0, v.width / 2.0)


def padded_overlap(x: float, y: float, half_length: float, half_width: float,
                   boxes, t: float, pad_x: float, pad_y: float) -> bool:
    """Does the axis-aligned box centred at (x, y) overlap any of ``boxes``
    at time t?  Each box is (x, y, vx, half_length, half_width), moving at
    constant vx from x at t = 0; two boxes overlap when both centre offsets
    are strictly below their summed half-extents plus (pad_x, pad_y).
    ``check_collision`` is the exact contact test of rotated boxes.
    """
    for bx, by, bvx, bhl, bhw in boxes:
        if (abs(x - (bx + bvx * t)) < half_length + bhl + pad_x
                and abs(y - by) < half_width + bhw + pad_y):
            return True
    return False
