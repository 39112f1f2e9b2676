"""Road geometry, vehicle state, kinematics, and collision/TTC primitives.

Axis convention: x runs along the road, y runs to the left of travel, lane
centers sit at ``lane * lane_width``.  Lane 0 is the rightmost lane (the ramp
merges into it).  Headings are measured from +x toward +y, so a left lane
change uses a positive heading.  ``RoadMap.lane_index`` is the one map from
a lateral position to a lane; ``lane_of`` clamps it to the road.

One corridor scan, ``nearest_in_corridor``, answers "which vehicle is next
ahead of (or behind) this pose in its corridor" for the whole package: the
frame loop, the HDV lane probes, the coalition conditions and the game's
rollout all call it, on ``VehicleState``s, predicted ``Pose``s or bare
``Point`` probes.

One motion model, ``predict``, says where a vehicle that no layer here
commands will be: at constant speed in its lane, or, for an HDV that
brakes, braking on until it stops.  The game's rollout, its pruning screen
and its profits read their scenes from it, and ``padded_overlap`` screens
the poses it gives.  The lane-change planner reads no other vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        for name in ("lane_width", "length", "speed_limit"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise WorldError(f"{name} must be finite and > 0, got {value!r}")
        if self.ramp is not None and self.ramp.end > self.length:
            raise WorldError("ramp segment extends past the road end")

    def lane_center(self, lane: int) -> float:
        return lane * self.lane_width

    def lane_index(self, y: float) -> int:
        """The lane nearest y, unclamped: -1 on the ramp shoulder."""
        return round(y / self.lane_width)

    def lane_of(self, y: float) -> int:
        return min(max(self.lane_index(y), 0), self.lane_count - 1)

    def contains(self, x: float) -> bool:
        return 0.0 <= x <= self.length


class Point(NamedTuple):
    """A bare pose: a predicted track point or a lane probe."""

    x: float
    y: float
    speed: float


class Pose(NamedTuple):
    """A predicted vehicle, as ``follow_accel``, ``compute_ttc`` and
    ``padded_overlap`` read a ``VehicleState``."""

    x: float
    y: float
    speed: float
    accel: float
    heading: float
    length: float
    width: float
    kind: str


CAV = "CAV"
HDV = "HDV"


@dataclass(slots=True)
class VehicleState:
    """Pose and kinematics of one vehicle.

    It stores speed and heading, not velocity components: the speed along
    the road is ``speed·cos(heading)`` and the lateral speed
    ``speed·sin(heading)``.  ``accel``/``jerk`` are backward differences of
    ``speed``, and ``ay`` of the lateral speed, over one ``config.DT`` step.
    The fields a spawner sets (id..target_lane) come first, so spawners
    build a state positionally.
    """

    id: int
    kind: str = HDV
    x: float = 0.0
    y: float = 0.0
    speed: float = 0.0
    lane: int = 0
    target_lane: int = 0
    heading: float = 0.0
    accel: float = 0.0
    jerk: float = 0.0
    ay: float = 0.0
    length: float = config.VEHICLE_LENGTH
    width: float = config.VEHICLE_WIDTH

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.heading) and math.isfinite(self.speed)
                and 0 < self.length < math.inf and 0 < self.width < math.inf):
            raise WorldError(f"vehicle {self.id} pose must be finite and its size finite "
                             f"and > 0, got x={self.x!r}, y={self.y!r}, "
                             f"heading={self.heading!r}, speed={self.speed!r}, "
                             f"length={self.length!r}, width={self.width!r}")
        if self.speed < 0:
            raise WorldError("speed must be nonnegative")


def step_kinematics(state: VehicleState, speed: float, heading: float) -> None:
    """Advance ``state`` in place by one ``config.DT`` step at commanded
    speed/heading.

    Positions integrate u*cos(theta) along-lane and u*sin(theta) laterally;
    acceleration and jerk come from backward differences of consecutive
    speeds, never from the commands themselves.  Each difference reads the
    previous value before it is overwritten.
    """
    if not (math.isfinite(speed) and math.isfinite(heading)):
        raise WorldError("non-finite kinematics input")
    if speed < 0:
        raise WorldError("speed must be nonnegative")

    dt = config.DT
    vy = speed * math.sin(heading)
    accel = (speed - state.speed) / dt
    state.ay = (vy - state.speed * math.sin(state.heading)) / dt
    state.x += speed * math.cos(heading) * dt
    state.y += vy * dt
    state.heading = heading
    state.speed = speed
    state.jerk = (accel - state.accel) / dt
    state.accel = accel


def compute_ttc(follower: VehicleState, leader: VehicleState) -> float:
    """Time-to-collision of follower onto leader along the lane.

    The bumper gap is unsigned, so the roles decide only the closing speed:
    an opening (or static) gap, or one closing at no more than 1e-9 m/s,
    gives ``math.inf``, and already-overlapping vehicles give 0.0.
    """
    gap = abs(leader.x - follower.x) - 0.5 * (leader.length + follower.length)
    if gap <= 0.0:
        return 0.0
    closing = follower.speed * math.cos(follower.heading) - leader.speed * math.cos(leader.heading)
    if closing <= 1e-9:  # float noise between equal speeds is not closing
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
    """Episode time on the ``config.DT`` grid, with the decision cadence."""

    t: float = 0.0

    @property
    def dt(self) -> float:
        return config.DT

    def decision_due(self) -> bool:
        return round(self.t / config.DT) % round(config.DECISION_PERIOD / config.DT) == 0

    def tick(self):
        self.t = round(self.t + config.DT, 9)


def nearest_in_corridor(x: float, y: float, others, direction: float = 1.0):
    """Nearest of ``others`` whose along-road offset from x, times
    ``direction``, is positive and whose lateral offset from y is inside the
    corridor half-width, or None; the first of equal distances wins.  The
    offset test is strict, so a vehicle at x, the ego included, is never its
    own neighbour."""
    half_width = config.CORRIDOR_HALF_WIDTH
    best = None
    best_dx = math.inf
    for v in others:
        dx = direction * (v.x - x)
        if 0.0 < dx < best_dx and abs(v.y - y) < half_width:
            best_dx = dx
            best = v
    return best


def lead_vehicle(ego, others):
    """Nearest vehicle ahead of ego in its corridor, or None."""
    return nearest_in_corridor(ego.x, ego.y, others, 1.0)


def rear_vehicle(ego, others):
    """Nearest vehicle behind ego in its corridor, or None."""
    return nearest_in_corridor(ego.x, ego.y, others, -1.0)


def predict(v, t: float) -> Pose:
    """Where ``v`` is t s from now, when no layer here commands it: lane
    held, constant speed along the road, except that an HDV's braking (a
    negative ``accel``) is held until it stops, the constant-acceleration
    model (Lefèvre, Vasquez & Laugier 2014) for deceleration only."""
    a = v.accel if v.kind == HDV and v.accel < 0.0 else 0.0
    tau = t if a == 0.0 else min(t, v.speed / -a)
    speed = max(v.speed + a * tau, 0.0)
    return Pose(v.x + (v.speed + 0.5 * a * tau) * math.cos(v.heading) * tau, v.y, speed,
                a if speed > 0.0 else 0.0, v.heading, v.length, v.width, v.kind)


def padded_overlap(x: float, y: float, half_length: float, half_width: float,
                   others, pad_x: float, pad_y: float) -> bool:
    """Does the axis-aligned box centred at (x, y) overlap that of any of
    ``others`` (poses with a length and a width)?  Two boxes overlap when both
    centre offsets are strictly below their summed half-extents plus
    (pad_x, pad_y).  ``check_collision`` is the exact contact test of rotated
    boxes.
    """
    for o in others:
        if (abs(x - o.x) < half_length + o.length / 2.0 + pad_x
                and abs(y - o.y) < half_width + o.width / 2.0 + pad_y):
            return True
    return False
