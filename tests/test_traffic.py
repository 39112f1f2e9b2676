import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonreorg import config
from platoonreorg.planner import lane_change_time, low_speed_path, quintic
from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec
from platoonreorg.traffic import (
    B_EMERGENCY,
    STYLES,
    HdvDriver,
    IdmParams,
    LaneContext,
    MobilParams,
    Neighbor,
    TrafficSpec,
    desired_gap,
    idm_acceleration,
    in_keep_clear,
    mobil_decide,
    spawn_traffic,
    style_params,
)
from platoonreorg.world import RoadMap, VehicleState, predict, step_kinematics

IDM = IdmParams(desired_speed=30.0, time_headway=1.5, min_gap=2.0,
                max_accel=1.5, comfort_decel=2.0, exponent=4.0)


def idm_equilibrium_gap(v, p, lo=1.0, hi=500.0):
    """Bisection on the IDM expression for the zero-acceleration gap."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if idm_acceleration(v, mid, 0.0, p) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestIdm:
    def test_free_road_equilibrium(self):
        a = idm_acceleration(30.0, 1e5, 0.0, IDM)
        assert a <= 0.0
        assert abs(a) < 1e-3

    def test_standing_start(self):
        a = idm_acceleration(0.0, 1e5, 0.0, IDM)
        assert a == pytest.approx(IDM.max_accel, abs=1e-6)

    def test_equilibrium_gap_bisection(self):
        gap = idm_equilibrium_gap(20.0, IDM)
        # closed form: (s0 + v T) / sqrt(1 - (v/v0)^4)
        closed = (2.0 + 20.0 * 1.5) / math.sqrt(1.0 - (20.0 / 30.0) ** 4)
        assert gap == pytest.approx(closed, abs=1e-6)
        assert idm_acceleration(20.0, gap, 0.0, IDM) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["desired_speed", "time_headway", "min_gap",
                                      "max_accel", "comfort_decel", "exponent"])
    def test_nan_parameter_rejected(self, name):
        with pytest.raises(ValueError):
            IdmParams(**{name: math.nan})

    @pytest.mark.parametrize("name,value", [
        *((name, value) for name in ("desired_speed", "time_headway", "min_gap",
                                     "max_accel", "comfort_decel") for value in (0.0, -1.0)),
        ("exponent", 0.5)])
    def test_out_of_range_parameter_rejected(self, name, value):
        with pytest.raises(ValueError):
            IdmParams(**{name: value})

    def test_boundary_parameters_accepted(self):
        assert IdmParams(exponent=1.0).exponent == 1.0

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("v0", [1e-9, 13.6, 18.0, math.inf])
    def test_with_desired_speed_equals_the_constructor(self, style, v0):
        base = style_params(style, 30.0)[0]
        got = base.with_desired_speed(v0)
        want = IdmParams(v0, base.time_headway, base.min_gap, base.max_accel,
                         base.comfort_decel, base.exponent)
        assert got == want and hash(got) == hash(want)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert type(got) is IdmParams and base == style_params(style, 30.0)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.desired_speed = 1.0

    @pytest.mark.parametrize("v0", [0.0, -1.0, math.nan, -math.inf])
    def test_with_desired_speed_rejects_a_bad_speed(self, v0):
        with pytest.raises(ValueError):
            IdmParams().with_desired_speed(v0)

    def test_zero_gap_is_emergency(self):
        assert idm_acceleration(20.0, 0.0, 0.0, IDM) == -B_EMERGENCY
        assert idm_acceleration(20.0, -1.0, 0.0, IDM) == -B_EMERGENCY

    @given(v=st.floats(0.0, 40.0), s=st.floats(0.5, 500.0), dv=st.floats(-15.0, 15.0))
    @settings(max_examples=300, deadline=None)
    def test_output_range(self, v, s, dv):
        a = idm_acceleration(v, s, dv, IDM)
        assert -B_EMERGENCY <= a <= IDM.max_accel

    @given(v=st.floats(0.0, 40.0), s=st.floats(1.0, 300.0), dv=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_gap(self, v, s, dv):
        assert idm_acceleration(v, s + 5.0, dv, IDM) >= idm_acceleration(v, s, dv, IDM) - 1e-12

    @given(v=st.floats(0.5, 38.0), s=st.floats(5.0, 300.0), dv=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_speed(self, v, s, dv):
        assert idm_acceleration(v + 1.0, s, dv, IDM) <= idm_acceleration(v, s, dv, IDM) + 1e-12


class TestMobil:
    def setup_method(self):
        self.mobil = MobilParams(politeness=0.35, accel_threshold=0.2, safe_decel_limit=3.0)

    @pytest.mark.parametrize("name", ["politeness", "accel_threshold", "safe_decel_limit"])
    def test_nan_parameter_rejected(self, name):
        with pytest.raises(ValueError):
            MobilParams(**{name: math.nan})

    def test_identical_lanes_keep(self):
        ctx = LaneContext(leader=Neighbor(gap=40.0, speed=25.0, params=IDM))
        assert not mobil_decide(25.0, IDM, ctx, ctx, self.mobil)

    def test_blocked_lane_escapes_to_empty(self):
        v = 20.0
        tight = idm_equilibrium_gap(v, IDM) * 0.45
        assert idm_acceleration(v, tight, 0.0, IDM) < -self.mobil.accel_threshold
        current = LaneContext(leader=Neighbor(gap=tight, speed=v, params=IDM))
        target = LaneContext()
        assert mobil_decide(v, IDM, current, target, self.mobil)

    def test_safety_veto_absolute(self):
        v = 25.0
        current = LaneContext(leader=Neighbor(gap=8.0, speed=10.0, params=IDM))
        # new follower arriving fast and close: required braking beyond limit
        target = LaneContext(follower=Neighbor(gap=2.0, speed=35.0, params=IDM))
        a_needed = idm_acceleration(35.0, 2.0, 10.0, IDM)
        assert a_needed < -self.mobil.safe_decel_limit
        assert not mobil_decide(v, IDM, current, target, self.mobil)

    def test_politeness_counts_the_egos_length(self):
        """Once the ego leaves, its old follower faces the ego's leader across
        both gaps and the ego's 5 m: the context's ``follower_leader_gap``,
        not ``f.gap + leader.gap``.  The incentive is computed by hand and
        the decision must flip exactly at it."""
        v = 20.0
        length = config.VEHICLE_LENGTH
        current = LaneContext(leader=Neighbor(gap=10.0, speed=15.0),
                              follower=Neighbor(gap=10.0, speed=v, params=IDM),
                              follower_leader_gap=10.0 + length + 10.0,
                              follower_leader_speed=15.0)
        own = idm_acceleration(v, 1e9, 0.0, IDM) - idm_acceleration(v, 10.0, 5.0, IDM)
        others = (idm_acceleration(v, 10.0 + length + 10.0, 5.0, IDM)
                  - idm_acceleration(v, 10.0, 0.0, IDM))
        assert others > 0.0
        gain = own + 0.35 * others
        for threshold, accept in ((gain - 1e-6, True), (gain + 1e-6, False)):
            p = MobilParams(politeness=0.35, accel_threshold=threshold, safe_decel_limit=3.0)
            assert mobil_decide(v, IDM, current, LaneContext(), p) is accept


class TestStyles:
    def test_presets(self):
        limit = 30.0
        idm_t, _ = style_params("timid", limit)
        idm_n, _ = style_params("normal", limit)
        idm_a, mobil_a = style_params("aggressive", limit)
        assert idm_t.desired_speed == pytest.approx(27.0)
        assert idm_n.desired_speed == pytest.approx(30.0)
        assert idm_a.desired_speed == pytest.approx(34.5)
        assert idm_t.time_headway > idm_n.time_headway > idm_a.time_headway
        _, mobil_n = style_params("normal", limit)
        assert mobil_a.accel_threshold == pytest.approx(mobil_n.accel_threshold / 2)

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            style_params("reckless", 30.0)

    def test_presets_are_shared_and_errors_are_not_cached(self):
        assert style_params("timid", 30.0) is style_params("timid", 30.0)
        assert style_params("timid", 30.0) is not style_params("timid", 25.0)
        for _ in range(2):
            with pytest.raises(ValueError):
                style_params("reckless", 30.0)


def spawn_by_linear_scan(spec, road, keep_clear=()):
    """Reference placement: every candidate is tested against every vehicle
    already in its lane.  Each requested vehicle draws from
    ``random.Random(spec.seed).random()`` a lane, a style (the first whose
    cumulative weight over the total exceeds the draw), a speed, and then one
    x per candidate it tries, at most 25.  Returns (x, lane, speed, style)
    per placed vehicle."""
    draw = random.Random(spec.seed).random
    x_max = spec.x_max if spec.x_max is not None else road.length
    requested = int(round(spec.density * road.lane_count * (x_max - spec.x_min) / 1000.0))
    styles = sorted(spec.style_mix)
    cumulative = list(itertools.accumulate(spec.style_mix[s] for s in styles))
    placed, per_lane = [], [[] for _ in range(road.lane_count)]
    for _ in range(requested):
        lane = int(draw() * road.lane_count)
        u = draw()
        style = next(s for s, c in zip(styles, cumulative) if c / cumulative[-1] > u)
        idm, _mobil = style_params(style, spec.speed_limit)
        speed = (0.75 + (0.95 - 0.75) * draw()) * idm.desired_speed
        min_headway = idm.min_gap + speed * idm.time_headway
        for _attempt in range(25):
            x = spec.x_min + (x_max - spec.x_min) * draw()
            if in_keep_clear(x, lane, keep_clear):
                continue
            if any(abs(x - ox) < min_headway + config.VEHICLE_LENGTH for ox in per_lane[lane]):
                continue
            per_lane[lane].append(x)
            placed.append((x, lane, speed, style))
            break
    return placed


class TestSpawn:
    def setup_method(self):
        self.road = RoadMap(lane_count=3, length=1000.0)

    def test_zero_density(self):
        res = spawn_traffic(TrafficSpec(density=0.0, seed=1), self.road)
        assert res.drivers == []
        assert res.requested == 0

    def test_count_rule(self):
        res = spawn_traffic(TrafficSpec(density=10.0, seed=3), self.road)
        assert res.requested == 30
        shortfall = res.requested - len(res.drivers)   # requested but not placed
        assert 0 <= shortfall < 30

    def test_determinism(self):
        spec = TrafficSpec(density=12.0, seed=42)
        a = spawn_traffic(spec, self.road)
        b = spawn_traffic(spec, self.road)
        assert len(a.drivers) == len(b.drivers)
        for da, db in zip(a.drivers, b.drivers):
            assert (da.state.x, da.state.y, da.state.speed) == (db.state.x, db.state.y, db.state.speed)
            assert da.style == db.style

    def test_keep_clear_respected(self):
        spec = TrafficSpec(density=25.0, seed=5)
        box = (400.0, 600.0, 1, 1)
        res = spawn_traffic(spec, self.road, keep_clear=[box])
        for d in res.drivers:
            if d.state.lane == 1:
                assert not (400.0 <= d.state.x <= 600.0)

    def test_min_spacing_by_style(self):
        """Each vehicle keeps its own headway plus a car length to every
        same-lane vehicle placed before it."""
        for density, seed in [(20.0, 9), (40.0, 0), (40.0, 1), (60.0, 2)]:
            res = spawn_traffic(TrafficSpec(density=density, seed=seed), self.road)
            assert len(res.drivers) > 0
            for a in res.drivers:
                for b in res.drivers:
                    if a.state.lane != b.state.lane or a.state.id >= b.state.id:
                        continue
                    clearance = (b.idm.min_gap + b.state.speed * b.idm.time_headway
                                 + config.VEHICLE_LENGTH)
                    assert abs(b.state.x - a.state.x) >= clearance, (seed, a.state.id, b.state.id)

    DEFAULT_MIX = TrafficSpec().style_mix

    @pytest.mark.parametrize("density,seed,keep_clear,mix,lanes", [
        (8.0, 0, (), DEFAULT_MIX, 3), (30.0, 4, (), DEFAULT_MIX, 3),
        (60.0, 7, [(300.0, 500.0, 0, 1)], DEFAULT_MIX, 3),
        (120.0, 11, [(0.0, 200.0, 2, 2)], DEFAULT_MIX, 3),
        (40.0, 3, (), {"normal": 0.4, "aggressive": 0.6}, 3),
        (40.0, 8, (), {"aggressive": 0.0, "normal": 0.7, "timid": 0.3}, 3),
        (40.0, 9, (), {"timid": 0.3, "normal": 0.3, "aggressive": 0.4 - 5e-10}, 3),
        (50.0, 12, [(200.0, 700.0, 1, 2)], DEFAULT_MIX, 4),
        (60.0, 13, [(100.0, 300.0, 0, 0)], DEFAULT_MIX, 2),
        (30.0, 14, [(400.0, 600.0, 2, 4)], DEFAULT_MIX, 5),
        (120.0, 15, (), {"timid": 0.5, "aggressive": 0.5}, 3),
    ], ids=["8.0-0-keep_clear0", "30.0-4-keep_clear1", "60.0-7-keep_clear2",
            "120.0-11-keep_clear3", "two-styles", "zero-weight-style", "sum-below-one",
            "box-over-two-of-four-lanes", "two-lanes", "five-lanes", "past-four-chunks"])
    def test_matches_linear_scan(self, density, seed, keep_clear, mix, lanes):
        road = RoadMap(lane_count=lanes, length=1000.0)
        spec = TrafficSpec(density=density, style_mix=dict(mix), seed=seed, x_min=50.0)
        res = spawn_traffic(spec, road, keep_clear=keep_clear)
        got = [(d.state.x, d.state.lane, d.state.speed, d.style) for d in res.drivers]
        assert got == spawn_by_linear_scan(spec, road, keep_clear)

    @pytest.mark.parametrize("mix", [
        {"timid": -0.5, "normal": 1.5},
        {"timid": math.nan, "normal": 1.0},
        {"timid": math.inf, "normal": 1.0},
        {"normal": 1.0, "x": 0.0},
    ], ids=["negative", "nan", "inf", "unknown-style"])
    def test_bad_style_mix_rejected(self, mix):
        with pytest.raises(ValueError):
            spawn_traffic(TrafficSpec(density=30.0, style_mix=mix), self.road)

    @pytest.mark.parametrize("density", [-1.0, math.nan, math.inf])
    def test_bad_density_rejected(self, density):
        with pytest.raises(ValueError, match="density"):
            TrafficSpec(density=density)

    @pytest.mark.parametrize("seed", [1.5, True, "3", -1],
                             ids=["float", "bool", "str", "negative"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrafficSpec(seed=seed)

    def test_inverted_corridor_rejected(self):
        with pytest.raises(ValueError):
            spawn_traffic(TrafficSpec(density=5.0, x_min=500.0, x_max=100.0), self.road)
        with pytest.raises(ValueError):
            spawn_traffic(TrafficSpec(density=5.0, x_min=1000.0), self.road)

    def test_in_keep_clear_bounds_are_inclusive(self):
        boxes = [(400.0, 600.0, 1, 2)]
        assert in_keep_clear(400.0, 1, boxes) and in_keep_clear(600.0, 2, boxes)
        assert not in_keep_clear(399.9, 1, boxes)
        assert not in_keep_clear(500.0, 0, boxes)
        assert not in_keep_clear(500.0, 1, ())


def _changing_driver(speed, target_lane, road):
    state = VehicleState(id=1, x=100.0, y=road.lane_center(1), speed=speed, lane=1,
                         target_lane=1)
    driver = HdvDriver(state=state, idm=IdmParams(), mobil=MobilParams())
    driver.begin_lane_change(target_lane, road)
    return driver


def _step(driver, speed):
    step_kinematics(driver.state, speed, driver.lateral_update(speed))


# the speed at which the 2.8 s, 4 m plan heads a vehicle at the limit
V_REF = low_speed_path(4.0) / lane_change_time(4.0)


@pytest.mark.parametrize("target_lane,speed", [(0, 20.0), (2, 20.0), (0, 4.0), (2, 4.0)],
                         ids=["0", "2", "0-below-v_ref", "2-below-v_ref"])
def test_lane_change_heads_the_box_along_its_lateral_motion(target_lane, speed):
    """An HDV's lane change is the planner's quintic of ``lane_change_time``:
    each frame, stepped at the heading ``lateral_update`` gives, y lies on
    the quintic at the plan's clock, which runs at min(1, speed/v_ref) of
    time, and the heading and lateral acceleration keep their limits.  The
    frame after the clock reaches the plan's duration ends the change at
    the lane centre, heading 0."""
    assert 7.0 < V_REF < 8.0
    road = RoadMap()
    driver = _changing_driver(speed, target_lane, road)
    state = driver.state
    y1 = road.lane_center(target_lane)
    T = lane_change_time(y1 - state.y)
    lat = quintic(state.y, 0.0, 0.0, y1, 0.0, 0.0, T)
    rate = min(1.0, speed / V_REF)
    frames = math.ceil(round(T / (config.DT * rate), 9))
    headings = []
    for k in range(1, frames + 1):
        _step(driver, speed)
        assert driver.changing()
        assert state.y == pytest.approx(lat.derivatives(min(k * config.DT * rate, T))[0],
                                        abs=1e-12)
        assert abs(state.ay) <= config.LAT_ACCEL_LIMIT
        headings.append(abs(state.heading))
    assert max(headings) <= config.HEADING_LIMIT
    # below v_ref the clock runs on distance, so the peak heading is the limit's
    assert max(headings) > (config.HEADING_LIMIT - 0.01 if speed < V_REF else 0.1)
    _step(driver, speed)
    assert not driver.changing()
    assert (state.y, state.heading) == (y1, 0.0)


@pytest.mark.parametrize("accel,v0,v1", [(1.5, 6.6, 10.0), (-3.0, 14.4, 4.0), (-6.0, 21.0, 4.0)],
                         ids=["speeding-up", "braking", "braking-hard"])
def test_lane_change_keeps_both_limits_across_v_ref(accel, v0, v1):
    """A driver whose speed runs from v0 through v_ref to v1 at ``accel``
    mid-change stays on the quintic, y at the plan's clock, with |heading|
    and |lateral accel| within their limits on every frame: where the paced
    clock would break the lateral limit, the clock moves by what the limit
    allows.  The change still ends in the target lane."""
    road = RoadMap()
    driver = _changing_driver(v0, 2, road)
    state, plan = driver.state, driver.state.plan
    speed = v0
    for _ in range(200):
        speed = min(max(speed + accel * config.DT, min(v0, v1)), max(v0, v1))
        _step(driver, speed)
        assert abs(state.heading) <= config.HEADING_LIMIT + 1e-12
        assert abs(state.ay) <= config.LAT_ACCEL_LIMIT + 1e-9
        if not driver.changing():
            break
        assert state.y == pytest.approx(plan.y_at(plan.clock), abs=1e-12)
    assert (driver.changing(), state.y) == (False, road.lane_center(2))


def test_lane_change_at_rest_stands_still():
    """At rest the plan's clock stands: the driver stays where the change
    began, heading 0, mid-change, and moves on once it moves."""
    road = RoadMap()
    driver = _changing_driver(0.0, 2, road)
    for _ in range(50):
        _step(driver, 0.0)
        assert driver.changing()
        assert (driver.state.x, driver.state.y, driver.state.heading) == (100.0, 4.0, 0.0)
    _step(driver, 1.0)
    assert driver.state.y > 4.0 and 0.0 < driver.state.heading <= config.HEADING_LIMIT


@pytest.mark.parametrize("speed", [20.0, 4.0], ids=["above-v_ref", "below-v_ref"])
@pytest.mark.parametrize("begun", [0, 12], ids=["at-start", "mid-change"])
def test_predict_samples_a_changing_hdvs_plan(speed, begun):
    """``world.predict`` of an HDV in mid-change, at held speed, gives the
    y the driver reaches when stepped, at every frame of the game's 3 s
    horizon, and a heading within 0.01 rad of the stepped one."""
    road = RoadMap()
    driver = _changing_driver(speed, 2, road)
    for _ in range(begun):
        _step(driver, speed)
    frames = round(config.DEFAULTS.game.horizon / config.DT)
    poses = [predict(driver.state, k * config.DT) for k in range(1, frames + 1)]
    assert poses[-1].y > driver.state.y + 1.0   # not held: the cut-in shows
    for pose in poses:
        _step(driver, speed)
        assert pose.y == pytest.approx(driver.state.y, abs=1e-9)
        assert pose.heading == pytest.approx(driver.state.heading, abs=0.01)


def test_misspelled_driver_field_write_fails():
    driver = HdvDriver(state=VehicleState(id=1), idm=IdmParams(), mobil=MobilParams())
    with pytest.raises(AttributeError):
        driver.acel = 1.0


class TestRawDraws:
    """Each spawner of a seeded world against a scalar oracle of its own
    standard-library stream.  Integer ids are ambient seeds: the ambient
    traffic of ``build_scenario(case2_spec(density=14.0), seed)`` is
    ``spawn_by_linear_scan`` drawing from ``random.Random(seed)``.  The
    ``(seed, "congestion")`` ids are case-1 congestion blocks, drawn from
    ``random.Random(f"congestion/{seed}")``: ``count`` sorted x values, then
    a style, a desired speed and a speed per driver placed, each x at least
    14 m from the last placed driver and from every ambient lane-0 driver.
    A change to either stream's order, key or decoding fails here."""

    @staticmethod
    def ambient(spec, world, seed):
        head = spec.platoon_head_x
        traffic = TrafficSpec(density=spec.density, style_mix=dict(spec.style_mix), seed=seed,
                              speed_limit=spec.speed_limit, x_min=head - 300.0,
                              x_max=min(head + 3200.0, world.road.length))
        box = (head - spec.platoon_size * spec.headway - 40.0, head + 60.0,
               spec.platoon_lane, spec.platoon_lane)
        return spawn_by_linear_scan(traffic, world.road, [box])

    @pytest.mark.parametrize("seed", list(range(200)) + [(s, "congestion") for s in range(20)])
    def test_matches_generator(self, seed):
        if isinstance(seed, int):
            spec = case2_spec(density=14.0)
            world = build_scenario(spec, seed)
            got = [(d.state.x, d.state.lane, d.state.speed, d.style) for d in world.hdvs]
            assert got[:-1] == self.ambient(spec, world, seed)   # the last is the leader
            return
        seed = seed[0]
        spec = case1_spec()
        world = build_scenario(spec, seed)
        ambient = self.ambient(spec, world, seed)
        lane0 = [x for x, lane, _, _ in ambient if lane == 0]
        draw = random.Random(f"congestion/{seed}").random
        lo, hi = spec.congestion_from, spec.congestion_to
        count = int(round(spec.congestion_density * (hi - lo) / 1000.0))
        want, last = [], -math.inf
        for x in sorted([lo + (hi - lo) * draw() for _ in range(count)]):
            if x - last < 14.0 or any(abs(x - a) < 14.0 for a in lane0):
                continue
            last = x
            style = "aggressive" if draw() < 0.55 else "normal"
            want.append((x, style, (0.85 + (1.1 - 0.85) * draw()) * spec.congestion_speed,
                         (0.8 + (1.0 - 0.8) * draw()) * spec.congestion_speed))
        ambient_x = {x for x, _, _, _ in ambient}
        got = [(d.state.x, d.style, d.idm.desired_speed, d.state.speed) for d in world.hdvs
               if d.state.y == world.road.lane_center(0) and d.state.x not in ambient_x]
        assert got == want
        # case 1 requests 63 ambient HDVs (6 /km, 3 lanes, 3.5 km); the ramp queue fits
        assert world.spawn_shortfall == count - len(want) + 63 - len(ambient)
