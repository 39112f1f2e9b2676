import math

import pytest

from platoonreorg import config
from platoonreorg.world import (
    Point,
    Pose,
    RampSegment,
    RoadMap,
    VehicleState,
    WorldError,
    check_collision,
    compute_ttc,
    lead_vehicle,
    nearest_in_corridor,
    padded_overlap,
    predict,
    rear_vehicle,
    step_kinematics,
)


def make_vehicle(vid=0, **kw):
    defaults = dict(id=vid, x=0.0, y=0.0, speed=20.0, lane=0, target_lane=0)
    defaults.update(kw)
    return VehicleState(**defaults)


class TestKinematics:
    def test_zero_heading_pure_longitudinal(self):
        v = make_vehicle(speed=20.0)
        step_kinematics(v, 20.0, 0.0)
        assert v.x == pytest.approx(2.0, abs=1e-12)
        assert v.y == 0.0

    def test_zero_speed_static(self):
        v = make_vehicle(speed=0.0, x=5.0, y=4.0)
        step_kinematics(v, 0.0, 0.3)
        assert v.x == 5.0
        assert v.y == 4.0

    def test_heading_split(self):
        v = make_vehicle(speed=10.0)
        step_kinematics(v, 10.0, 0.05)
        assert v.x == pytest.approx(10 * math.cos(0.05) * 0.1, abs=1e-12)
        assert v.y == pytest.approx(10 * math.sin(0.05) * 0.1, abs=1e-12)

    def test_finite_difference_accel_jerk(self):
        v = make_vehicle(speed=20.0)
        step_kinematics(v, 21.0, 0.0)
        assert v.accel == pytest.approx(10.0)
        step_kinematics(v, 21.0, 0.0)
        assert v.accel == pytest.approx(0.0)
        assert v.jerk == pytest.approx(-100.0)

    @pytest.mark.parametrize("speed0,heading0,speed1,heading1,ay", [
        (20.0, 0.1, 21.0, 0.12, (21.0 * math.sin(0.12) - 20.0 * math.sin(0.1)) / config.DT),
        (0.0, 0.3, 2.0, 0.05, 2.0 * math.sin(0.05) / config.DT)])
    def test_lateral_accel_from_constructed_state(self, speed0, heading0, speed1, heading1, ay):
        """A state's lateral speed is speed·sin(heading), from its first step on."""
        v = make_vehicle(speed=speed0, heading=heading0)
        step_kinematics(v, speed1, heading1)
        assert v.ay == ay

    def test_constant_speed_matches_closed_form(self):
        v = make_vehicle(speed=25.0)
        theta = 0.02
        for k in range(200):
            step_kinematics(v, 25.0, theta)
        t = 200 * 0.1
        assert abs(v.x - 25.0 * math.cos(theta) * t) < 1e-9
        assert abs(v.y - 25.0 * math.sin(theta) * t) < 1e-9

    def test_advances_in_place(self):
        v = make_vehicle(speed=20.0)
        assert step_kinematics(v, 22.0, 0.0) is None
        assert v.x == pytest.approx(2.2)
        assert (v.speed, v.accel) == (22.0, pytest.approx(20.0))

    def test_rejects_nonfinite(self):
        v = make_vehicle()
        with pytest.raises(WorldError):
            step_kinematics(v, math.nan, 0.0)
        with pytest.raises(WorldError):
            step_kinematics(v, 10.0, math.inf)


class TestTtc:
    def test_simple_ratio(self):
        follower = make_vehicle(0, x=0.0, speed=30.0)
        leader = make_vehicle(1, x=55.0, speed=20.0)
        # bumper gap = 55 - 5 = 50, closing 10
        assert compute_ttc(follower, leader) == pytest.approx(5.0)

    def test_opening_gap_infinite(self):
        follower = make_vehicle(0, x=0.0, speed=20.0)
        leader = make_vehicle(1, x=30.0, speed=25.0)
        assert compute_ttc(follower, leader) == math.inf

    def test_critical_value(self):
        follower = make_vehicle(0, x=0.0, speed=30.0)
        leader = make_vehicle(1, x=30.0, speed=20.0)
        # bumper gap 25, closing 10 -> the critical 2.5 s
        assert compute_ttc(follower, leader) == pytest.approx(2.5)

    def test_overlap_is_zero(self):
        follower = make_vehicle(0, x=0.0, speed=30.0)
        leader = make_vehicle(1, x=3.0, speed=10.0)
        assert compute_ttc(follower, leader) == 0.0

    def test_role_asymmetry(self):
        a = make_vehicle(0, x=0.0, speed=30.0)
        b = make_vehicle(1, x=55.0, speed=20.0)
        assert compute_ttc(a, b) == pytest.approx(5.0)
        assert compute_ttc(b, a) == math.inf

    def test_float_noise_is_not_closing(self):
        """A closing speed of one ulp between two members at 25 m/s is no
        closing: no TTC of about 1e15 s."""
        follower = make_vehicle(0, x=0.0, speed=25.0)
        leader = make_vehicle(1, x=20.0, speed=math.nextafter(25.0, 0))
        assert compute_ttc(follower, leader) == math.inf
        assert compute_ttc(follower, make_vehicle(1, x=20.0, speed=25.0 - 1e-6)) < math.inf


class TestCollision:
    def test_identical_poses(self):
        a = make_vehicle(0)
        b = make_vehicle(1)
        assert check_collision(a, b)

    def test_clear_gap(self):
        a = make_vehicle(0, x=0.0)
        b = make_vehicle(1, x=10.0)
        assert not check_collision(a, b)

    def test_touching_bumpers_counts(self):
        a = make_vehicle(0, x=0.0)
        b = make_vehicle(1, x=5.0)
        assert check_collision(a, b)

    def test_symmetry(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            a = make_vehicle(0, x=rng.uniform(0, 20), y=rng.uniform(-3, 3),
                             heading=rng.uniform(-0.2, 0.2))
            b = make_vehicle(1, x=rng.uniform(0, 20), y=rng.uniform(-3, 3),
                             heading=rng.uniform(-0.2, 0.2))
            assert check_collision(a, b) == check_collision(b, a)

    def test_adjacent_lanes_clear(self):
        a = make_vehicle(0, x=0.0, y=0.0)
        b = make_vehicle(1, x=0.0, y=4.0)
        assert not check_collision(a, b)


class TestCorridorSearch:
    def test_nearest_ahead_and_behind(self):
        ego = make_vehicle(0, x=100.0)
        others = [make_vehicle(1, x=130.0), make_vehicle(2, x=115.0),
                  make_vehicle(3, x=90.0), make_vehicle(4, x=60.0)]
        assert lead_vehicle(ego, others).id == 2
        assert rear_vehicle(ego, others).id == 3

    def test_corridor_half_width_excluded(self):
        ego = make_vehicle(0, x=100.0, y=4.0)
        edge = [make_vehicle(1, x=110.0, y=6.5), make_vehicle(2, x=90.0, y=1.5)]
        assert lead_vehicle(ego, edge) is None
        assert rear_vehicle(ego, edge) is None
        inside = [make_vehicle(1, x=110.0, y=6.49), make_vehicle(2, x=90.0, y=1.51)]
        assert lead_vehicle(ego, inside).id == 1
        assert rear_vehicle(ego, inside).id == 2

    def test_strictly_ahead_or_behind(self):
        ego = make_vehicle(0, x=100.0)
        alongside = [make_vehicle(1, x=100.0, y=1.0)]
        assert lead_vehicle(ego, alongside) is None
        assert rear_vehicle(ego, alongside) is None

    def test_ego_is_never_its_own_neighbour(self):
        """The strict offset test, not an id test, keeps the ego out: its own
        entry in the list, and a bare ``Point`` probe at its x, both skip it."""
        ego = make_vehicle(0, x=100.0)
        others = [ego, make_vehicle(1, x=120.0), make_vehicle(2, x=80.0)]
        assert lead_vehicle(ego, others).id == 1
        assert rear_vehicle(ego, others).id == 2
        assert lead_vehicle(ego, [ego]) is None and rear_vehicle(ego, [ego]) is None
        probe = Point(ego.x, ego.y + 1.0, ego.speed)
        assert nearest_in_corridor(probe.x, probe.y, others).id == 1
        assert nearest_in_corridor(probe.x, probe.y, others, -1.0).id == 2
        assert lead_vehicle(probe, [ego]) is None

    def test_first_of_equal_distances_wins(self):
        ego = make_vehicle(0, x=100.0)
        pair = [make_vehicle(5, x=110.0, y=1.0), make_vehicle(6, x=110.0, y=-1.0),
                make_vehicle(7, x=90.0, y=1.0), make_vehicle(8, x=90.0, y=-1.0)]
        assert lead_vehicle(ego, pair).id == 5
        assert rear_vehicle(ego, pair).id == 7
        assert lead_vehicle(ego, pair[::-1]).id == 6
        assert rear_vehicle(ego, pair[::-1]).id == 8


class TestPredict:
    def test_constant_along_road_velocity(self):
        v = make_vehicle(3, kind="CAV", x=100.0, y=4.0, speed=20.0, heading=0.1, accel=-3.0,
                         width=2.5)
        p = predict(v, 2.0)
        assert p == Pose(100.0 + 20.0 * math.cos(0.1) * 2.0, 4.0, 20.0, 0.0, 0.1, 5.0, 2.5, "CAV")
        assert predict(v, 0.0).x == 100.0

    def test_braking_hdv_stops_and_never_reverses(self):
        """An HDV at 12 m/s braking at -3 m/s² is predicted to brake on: it
        stops after 4 s and 24 m and stays there, never moving backwards."""
        v = make_vehicle(4, x=100.0, speed=12.0, accel=-3.0)
        poses = [predict(v, k * 0.1) for k in range(101)]
        assert poses[20] == Pose(118.0, 0.0, 6.0, -3.0, 0.0, 5.0, 2.0, "HDV")
        assert all(b.x >= a.x and b.speed <= a.speed for a, b in zip(poses, poses[1:]))
        for p in poses[41:]:
            assert (p.x, p.speed, p.accel) == (124.0, 0.0, 0.0)
        assert predict(make_vehicle(5, speed=0.0, accel=-3.0), 2.0)[:4] == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("accel", [0.0, 1.5])
    def test_non_negative_accel_keeps_constant_speed(self, accel):
        v = make_vehicle(6, x=50.0, speed=15.0, accel=accel)
        assert predict(v, 3.0) == Pose(95.0, 0.0, 15.0, 0.0, 0.0, 5.0, 2.0, "HDV")


class TestPaddedOverlap:
    # half-extents 2.5 x 1.0 on both boxes, padding 0.5 x 0.25: the centres
    # must be at least 5.5 m apart along the road or 2.25 m across it
    BOX = make_vehicle(9, x=10.0)

    def hits(self, x, y, boxes=None):
        return padded_overlap(x, y, 2.5, 1.0, [self.BOX] if boxes is None else boxes,
                              0.5, 0.25)

    def test_bounds_are_strict(self):
        assert self.hits(4.51, 0.0) and self.hits(15.49, 0.0)
        assert not self.hits(4.5, 0.0) and not self.hits(15.5, 0.0)
        assert self.hits(10.0, 2.24) and self.hits(10.0, -2.24)
        assert not self.hits(10.0, 2.25) and not self.hits(10.0, -2.25)

    def test_needs_both_axes(self):
        assert not self.hits(5.0, 3.0)
        assert not self.hits(0.0, 0.5)
        assert self.hits(5.0, 2.0)

    def test_summed_half_extents(self):
        long_box = make_vehicle(9, x=10.0, length=10.0)
        assert self.hits(2.01, 0.0, [long_box])
        assert not self.hits(2.0, 0.0, [long_box])

    def test_box_moves_with_its_speed(self):
        v = make_vehicle(1, x=0.0, speed=10.0)
        assert not self.hits(10.0, 0.0, [predict(v, 0.0)])
        assert self.hits(10.0, 0.0, [predict(v, 1.0)])

    def test_any_box(self):
        assert not self.hits(30.0, 0.0, [])
        assert self.hits(30.0, 0.0, [self.BOX, make_vehicle(2, x=28.0, y=1.0)])


class TestRoadAndClock:
    def test_lane_centers(self):
        road = RoadMap(lane_count=3)
        assert road.lane_center(0) == 0.0
        assert road.lane_center(2) == 8.0
        assert road.lane_of(4.3) == 1

    def test_ramp_validation(self):
        with pytest.raises(WorldError):
            RoadMap(lane_count=3, length=100.0, ramp=RampSegment(50.0, 150.0))

    def test_lane_count_minimum(self):
        with pytest.raises(WorldError):
            RoadMap(lane_count=1)

    @pytest.mark.parametrize("field", ["lane_width", "length", "speed_limit"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_road_dimension_rejected(self, field, value):
        with pytest.raises(WorldError, match=field):
            RoadMap(**{field: value})


class TestVehicleStateBoundary:
    @pytest.mark.parametrize("field", ["x", "y", "heading", "speed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_pose_rejected(self, field, value):
        with pytest.raises(WorldError, match="must be finite"):
            VehicleState(id=0, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("length", -1.0), ("length", 0.0), ("speed", -0.1),
        ("length", math.nan), ("length", math.inf),
        ("width", math.nan), ("width", math.inf), ("width", 0.0), ("width", -1.0)])
    def test_bad_size_or_speed_rejected(self, field, value):
        with pytest.raises(WorldError):
            VehicleState(id=0, **{field: value})

    def test_misspelled_field_write_fails(self):
        with pytest.raises(AttributeError):
            VehicleState(id=1).acel = 1.0
