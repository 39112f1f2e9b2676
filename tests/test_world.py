import math

import pytest

from platoonreorg.world import (
    RampSegment,
    RoadMap,
    SimClock,
    VehicleState,
    WorldError,
    check_collision,
    compute_ttc,
    step_kinematics,
)


def make_vehicle(vid=0, **kw):
    defaults = dict(id=vid, x=0.0, y=0.0, speed=20.0, lane=0, target_lane=0)
    defaults.update(kw)
    return VehicleState(**defaults)


class TestKinematics:
    def test_zero_heading_pure_longitudinal(self):
        v = make_vehicle(speed=20.0)
        out = step_kinematics(v, 20.0, 0.0, 0.1)
        assert out.x == pytest.approx(2.0, abs=1e-12)
        assert out.y == 0.0

    def test_zero_speed_static(self):
        v = make_vehicle(speed=0.0, x=5.0, y=4.0)
        out = step_kinematics(v, 0.0, 0.3, 0.1)
        assert out.x == 5.0
        assert out.y == 4.0

    def test_heading_split(self):
        v = make_vehicle(speed=10.0)
        out = step_kinematics(v, 10.0, 0.05, 0.1)
        assert out.x == pytest.approx(10 * math.cos(0.05) * 0.1, abs=1e-12)
        assert out.y == pytest.approx(10 * math.sin(0.05) * 0.1, abs=1e-12)

    def test_finite_difference_accel_jerk(self):
        v = make_vehicle(speed=20.0)
        out = step_kinematics(v, 21.0, 0.0, 0.1)
        assert out.accel == pytest.approx(10.0)
        out2 = step_kinematics(out, 21.0, 0.0, 0.1)
        assert out2.accel == pytest.approx(0.0)
        assert out2.jerk == pytest.approx(-100.0)

    def test_constant_speed_matches_closed_form(self):
        v = make_vehicle(speed=25.0)
        theta = 0.02
        for k in range(200):
            v = step_kinematics(v, 25.0, theta, 0.1)
        t = 200 * 0.1
        assert abs(v.x - 25.0 * math.cos(theta) * t) < 1e-9
        assert abs(v.y - 25.0 * math.sin(theta) * t) < 1e-9

    def test_rejects_nonfinite(self):
        v = make_vehicle()
        with pytest.raises(WorldError):
            step_kinematics(v, math.nan, 0.0, 0.1)
        with pytest.raises(WorldError):
            step_kinematics(v, 10.0, math.inf, 0.1)
        with pytest.raises(WorldError):
            step_kinematics(v, 10.0, 0.0, -0.1)


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

    def test_decision_periods_align(self):
        clock = SimClock()
        with pytest.raises(WorldError):
            SimClock(dt=0.1, decision_period_vehicle=0.25)
        due = []
        for _ in range(25):
            due.append(clock.vehicle_decision_due())
            clock.tick()
        assert due[0] and due[10] and due[20]
        assert not any(due[1:10])
