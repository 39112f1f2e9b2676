"""Scenario construction for the two case studies, plus JSON (de)serialization.

Case 1 (lateral risk): three lanes with a ramp shoulder merging into the
rightmost lane, which runs congested beside the platoon's middle lane.  Every
HDV lane change, the ramp merge included, is a MOBIL decision; to a driver
on the shoulder the ramp end is a standing obstacle, so it slows toward the
end and merges once MOBIL finds lane 0 safe.

Case 2 (longitudinal risk): a scripted lead vehicle ahead of the platoon
brakes hard at a scheduled time and then crawls, forcing a reorganization.
The event is the leader's own ``HdvDriver.brake``; the episode loop plays
it on that driver, and no other driver carries one.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import random
from dataclasses import dataclass, field

from . import config
from .control import CavExecutor
from .episode import PlatoonMember, World
from .traffic import (HdvDriver, ScriptedBrake, SpawnResult, TrafficSpec, in_keep_clear,
                      spawn_traffic, style_params)
from .world import CAV, HDV, RampSegment, RoadMap, SimClock, VehicleState


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    case: int = 1
    lane_count: int = 3
    lane_width: float = config.LANE_WIDTH
    road_length: float = 4000.0
    speed_limit: float = config.SPEED_LIMIT
    ramp_start: float = 150.0
    ramp_end: float = 450.0
    platoon_size: int = 3
    headway: float = 10.0
    platoon_lane: int = 1
    platoon_head_x: float = 150.0
    platoon_speed: float = 25.0
    episode_len: float = 120.0
    success_window: float = 60.0
    # background traffic
    density: float = 6.0
    style_mix: dict = field(default_factory=lambda: {"timid": 0.2, "normal": 0.5,
                                                     "aggressive": 0.3})
    # case 1 congestion block
    congestion_density: float = 26.0
    congestion_speed: float = 16.0
    congestion_from: float = 220.0
    congestion_to: float = 2600.0
    ramp_queue: int = 4
    # case 2 event block
    event_time: float = 10.0
    event_decel: float = -6.0
    event_duration: float = 3.0
    event_cruise_after: float = 10.0
    event_lead_gap: float = 30.0

    def __post_init__(self):
        if self.case not in (1, 2):
            raise ScenarioError("case must be 1 or 2")
        # no later layer checks these: a float count fails in range() and a
        # float lane reaches every vehicle state
        for name in ("lane_count", "platoon_size", "platoon_lane", "ramp_queue"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ScenarioError(f"{name} must be an int, got {value!r}")
        if self.lane_count < 2:
            raise ScenarioError(f"need at least 2 lanes, got {self.lane_count}")
        if self.ramp_queue < 0:
            raise ScenarioError(f"ramp queue must be >= 0, got {self.ramp_queue}")
        if not (2 <= self.platoon_size <= 5):
            raise ScenarioError("platoon size must be within [2, 5]")
        if not (math.isfinite(self.headway) and self.headway > config.VEHICLE_LENGTH):
            raise ScenarioError(f"headway must be finite and exceed the "
                                f"{config.VEHICLE_LENGTH} m car length, got {self.headway!r}")
        # a headway a rounding step over the car length still puts two
        # members' x values a car length apart, bumpers touching
        head = self.platoon_head_x
        if math.isfinite(head) and not all(
                _apart(head - (i + 1) * self.headway, head - i * self.headway)
                for i in range(self.platoon_size - 1)):
            raise ScenarioError(f"headway {self.headway!r} leaves two members touching "
                                f"behind a head at x = {head!r}")
        for name in ("lane_width", "road_length", "speed_limit", "episode_len"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ScenarioError(f"{name} must be finite and > 0, got {value!r}")
        if not 0 <= self.platoon_speed <= self.speed_limit:
            raise ScenarioError(f"platoon_speed must lie in [0, {self.speed_limit}], "
                                f"got {self.platoon_speed!r}")
        if not self.success_window > 0:
            raise ScenarioError(f"success window must be positive, got {self.success_window!r}")
        if not (0 <= self.platoon_lane < self.lane_count):
            raise ScenarioError(f"platoon lane {self.platoon_lane} outside "
                                f"[0, {self.lane_count})")
        try:  # the ambient traffic's own rules for density and style mix
            TrafficSpec(density=self.density, style_mix=self.style_mix)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"background traffic: {exc}") from exc
        if self.case == 1:
            if not (math.isfinite(self.congestion_density) and self.congestion_density >= 0):
                raise ScenarioError("congestion density must be finite and >= 0, "
                                    f"got {self.congestion_density!r}")
            if not (math.isfinite(self.congestion_speed) and self.congestion_speed > 0):
                raise ScenarioError("congestion speed must be finite and > 0, "
                                    f"got {self.congestion_speed!r}")
            lo, hi = self.congestion_from, self.congestion_to
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ScenarioError(f"congestion block [{lo}, {hi}] must be finite "
                                    "and non-empty")
            lo, hi = self.ramp_start, self.ramp_end
            if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo < hi <= self.road_length):
                raise ScenarioError(f"ramp [{lo}, {hi}] must be finite, non-empty and "
                                    f"within the road [0, {self.road_length}]")
        else:
            for name, rule, ok in (("event_time", ">= 0", self.event_time >= 0),
                                   ("event_decel", "< 0", self.event_decel < 0),
                                   ("event_duration", "> 0", self.event_duration > 0),
                                   ("event_cruise_after", ">= 0", self.event_cruise_after >= 0),
                                   ("event_lead_gap", "> 0", self.event_lead_gap > 0)):
                value = getattr(self, name)
                if not (ok and math.isfinite(value)):
                    raise ScenarioError(f"{name} must be finite and {rule}, got {value!r}")
            if math.isfinite(self.platoon_head_x) and not _apart(self.platoon_head_x,
                                                                 _case2_leader_x(self)):
                raise ScenarioError(f"event_lead_gap {self.event_lead_gap!r} leaves the "
                                    "leader touching the platoon's head")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ScenarioError(f"ScenarioSpec JSON must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ScenarioError(f"unknown ScenarioSpec fields {unknown}")
        return cls(**data)


def _apart(rear_x: float, front_x: float) -> bool:
    """True when two cars with these x values in one lane start clear of
    each other: their centre offset, rounded as ``check_collision``
    computes it, exceeds a car length."""
    return front_x - rear_x > config.VEHICLE_LENGTH


def case1_spec(**overrides) -> ScenarioSpec:
    return ScenarioSpec(case=1, **overrides)


def case2_spec(**overrides) -> ScenarioSpec:
    merged = dict(density=7.0, congestion_density=0.0, ramp_queue=0)
    merged.update(overrides)
    return ScenarioSpec(case=2, **merged)


def _road(spec: ScenarioSpec) -> RoadMap:
    ramp = RampSegment(spec.ramp_start, spec.ramp_end) if spec.case == 1 else None
    return RoadMap(lane_count=spec.lane_count, lane_width=spec.lane_width,
                   length=spec.road_length, speed_limit=spec.speed_limit, ramp=ramp)


def _platoon(spec: ScenarioSpec, road: RoadMap):
    members = []
    y = road.lane_center(spec.platoon_lane)
    for i in range(spec.platoon_size):
        st = VehicleState(id=i, kind=CAV, x=spec.platoon_head_x - i * spec.headway,
                          y=y, speed=spec.platoon_speed, lane=spec.platoon_lane,
                          target_lane=spec.platoon_lane)
        ex = CavExecutor(cruise_speed=spec.platoon_speed)
        members.append(PlatoonMember(index=i, state=st, executor=ex))
    return members


def build_scenario(spec: ScenarioSpec, seed: int) -> World:
    """Deterministic initial world for (spec, seed); ``seed`` is an int >= 0."""
    if type(seed) is not int or seed < 0:
        raise ScenarioError(f"seed must be a non-negative int, got {seed!r}")
    road = _road(spec)
    if not road.contains(spec.platoon_head_x):
        raise ScenarioError("platoon spawn outside the road")
    members = _platoon(spec, road)
    # the platoon lane's box runs from behind the platoon to 60 m past its
    # head; in case 2 it reaches at least 25 m past the scripted leader (the
    # same end at the default gap), so the leader starts with room ahead
    box_end = spec.platoon_head_x + 60.0
    if spec.case == 2:
        box_end = max(box_end, _case2_leader_x(spec) + 25.0)
    lane = spec.platoon_lane
    keep_clear = [(spec.platoon_head_x - spec.platoon_size * spec.headway - 40.0,
                   box_end, lane, lane)]

    hdvs = []
    next_id = 1000

    # ambient traffic over the run corridor
    ambient = TrafficSpec(density=spec.density, style_mix=dict(spec.style_mix),
                          seed=seed, speed_limit=spec.speed_limit,
                          x_min=spec.platoon_head_x - 300.0,
                          x_max=min(spec.platoon_head_x + 3200.0, road.length))
    res = spawn_traffic(ambient, road, keep_clear=keep_clear, id_start=next_id)
    hdvs.extend(res.drivers)
    next_id += max(res.requested, 1)
    requested = res.requested

    if spec.case == 1:
        congestion = _case1_congestion(spec, road, seed, next_id, res.drivers)
        requested += congestion.requested + spec.ramp_queue
        ramp = _case1_ramp_queue(spec, road, next_id + 500)
        # keep the congestion and the ramp queue out of the platoon's spawn
        # box; spawn_traffic already kept the ambient drivers out of it
        hdvs.extend(d for d in congestion.drivers + ramp
                    if d.state.lane != lane or not in_keep_clear(d.state.x, lane, keep_clear))
    else:
        requested += 1
        hdvs.append(_case2_scripted_leader(spec, road, next_id))

    # every requested driver that is not placed is shortfall: the spawners'
    # own, the keep-clear drops and the ramp queue's cut at the ramp end
    return World(road=road, clock=SimClock(), members=members, hdvs=hdvs,
                 spawn_shortfall=requested - len(hdvs))


def _case1_congestion(spec: ScenarioSpec, road: RoadMap, seed: int,
                      id_start: int, ambient: list) -> SpawnResult:
    """Slow, dense rightmost lane beside the platoon.

    The draws come from ``random.Random(f"congestion/{seed}").random()``, a
    stream no int seed of the ambient traffic can equal, by the one method
    Python keeps reproducible across versions.  The first ``count`` doubles
    give the x values, sorted; each placed driver then draws three in turn
    for its style, desired speed and speed, each uniform written
    ``lo + (hi - lo) * u``.  A draw closer than 14 m to a placed driver or
    to an ``ambient`` driver in lane 0 is dropped and reported as shortfall.
    """
    drivers = []
    lo, span = spec.congestion_from, spec.congestion_to - spec.congestion_from
    count = int(round(spec.congestion_density * span / 1000.0))
    draw = random.Random(f"congestion/{seed}").random
    xs = sorted([lo + span * draw() for _ in range(count)])
    y = road.lane_center(0)
    taken = sorted(d.state.x for d in ambient if d.state.lane == 0)
    v_c = spec.congestion_speed
    aggressive = ("aggressive", *style_params("aggressive", spec.speed_limit))
    normal = ("normal", *style_params("normal", spec.speed_limit))
    for x in xs:
        i = bisect.bisect_left(taken, x)
        if (i and x - taken[i - 1] < 14.0) or (i < len(taken) and taken[i] - x < 14.0):
            continue
        taken.insert(i, x)
        style, base, mobil = aggressive if draw() < 0.55 else normal
        idm = base.with_desired_speed((0.85 + (1.1 - 0.85) * draw()) * v_c)
        st = VehicleState(id_start + len(drivers), HDV, x, y,
                          (0.8 + (1.0 - 0.8) * draw()) * v_c, 0, 0)
        drivers.append(HdvDriver(st, idm, mobil, style))
    return SpawnResult(drivers=drivers, requested=count)


def _case1_ramp_queue(spec: ScenarioSpec, road: RoadMap, id_start: int):
    """Vehicles on the ramp shoulder, one lane width right of lane 0."""
    drivers = []
    y_ramp = -road.lane_width
    idm, mobil = style_params("normal", spec.speed_limit)
    idm = idm.with_desired_speed(18.0)
    for k in range(spec.ramp_queue):
        x = spec.ramp_start + 30.0 + 28.0 * k
        if x >= spec.ramp_end - 20.0:
            break
        drivers.append(HdvDriver(VehicleState(id_start + k, HDV, x, y_ramp, 14.0, 0, 0),
                                 idm, mobil, "normal"))
    return drivers


def _case2_leader_x(spec: ScenarioSpec) -> float:
    """The scripted leader's x: ``event_lead_gap`` bumper to bumper ahead of
    the platoon's head."""
    return spec.platoon_head_x + spec.event_lead_gap + config.VEHICLE_LENGTH


def _case2_scripted_leader(spec: ScenarioSpec, road: RoadMap, vid: int) -> HdvDriver:
    """The lead vehicle ``event_lead_gap`` bumper to bumper ahead of the
    platoon's head, carrying the spec's brake event."""
    idm, mobil = style_params("normal", spec.speed_limit)
    st = VehicleState(id=vid, kind=HDV, x=_case2_leader_x(spec),
                      y=road.lane_center(spec.platoon_lane),
                      speed=spec.platoon_speed, lane=spec.platoon_lane,
                      target_lane=spec.platoon_lane)
    brake = ScriptedBrake(t_start=spec.event_time, decel=spec.event_decel,
                          duration=spec.event_duration, cruise_after=spec.event_cruise_after)
    return HdvDriver(state=st, idm=idm, mobil=mobil, style="normal", brake=brake)
