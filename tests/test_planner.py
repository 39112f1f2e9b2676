import math

import pytest

from platoonreorg import config
from platoonreorg.planner import (
    KEEP,
    LEFT,
    RIGHT,
    DynamicsLimits,
    PlanningError,
    QuarticProfile,
    QuinticProfile,
    TrajectoryCandidate,
    check_dynamics,
    emergency_profile,
    generate_lattice,
    select_trajectory,
)
from platoonreorg.world import RoadMap, VehicleState

ROAD = RoadMap(lane_count=3, length=4000.0)
LIMITS = DynamicsLimits.for_road(ROAD)


def cav(vid=0, x=100.0, lane=1, speed=25.0):
    return VehicleState(id=vid, kind="CAV", x=x, y=ROAD.lane_center(lane),
                        speed=speed, lane=lane, target_lane=lane)


class TestPolynomials:
    def test_quintic_boundary_conditions(self):
        q = QuinticProfile(4.0, 0.3, -0.1, 8.0, 0.0, 0.0, 3.0)
        assert q.pos(0.0) == pytest.approx(4.0, abs=1e-12)
        assert q.vel(0.0) == pytest.approx(0.3, abs=1e-12)
        assert q.acc(0.0) == pytest.approx(-0.1, abs=1e-12)
        assert q.pos(3.0) == pytest.approx(8.0, abs=1e-9)
        assert q.vel(3.0) == pytest.approx(0.0, abs=1e-9)
        assert q.acc(3.0) == pytest.approx(0.0, abs=1e-9)

    def test_quartic_boundary_conditions(self):
        q = QuarticProfile(100.0, 25.0, 0.5, 23.0, 0.0, 4.0)
        assert q.pos(0.0) == pytest.approx(100.0, abs=1e-12)
        assert q.vel(0.0) == pytest.approx(25.0, abs=1e-12)
        assert q.acc(0.0) == pytest.approx(0.5, abs=1e-12)
        assert q.vel(4.0) == pytest.approx(23.0, abs=1e-9)
        assert q.acc(4.0) == pytest.approx(0.0, abs=1e-9)


class TestLattice:
    def test_lane_change_candidate_count(self):
        cands = generate_lattice(cav(), LEFT, ROAD)
        assert len(cands) == 9  # 3 durations x 3 terminal speeds

    def test_terminal_lane_center(self):
        for cand in generate_lattice(cav(), LEFT, ROAD):
            t, x, y, vx, vy, ax, ay, jx, jy = cand.samples[-1]
            assert y == pytest.approx(ROAD.lane_center(2), abs=1e-9)
            assert vy == pytest.approx(0.0, abs=1e-9)
            assert ay == pytest.approx(0.0, abs=1e-9)

    def test_keep_lane_no_lateral(self):
        for cand in generate_lattice(cav(), KEEP, ROAD):
            assert all(abs(s[2] - ROAD.lane_center(1)) < 1e-12 for s in cand.samples)

    def test_off_road_decision_rejected(self):
        with pytest.raises(PlanningError):
            generate_lattice(cav(lane=0), RIGHT, ROAD)
        with pytest.raises(PlanningError):
            generate_lattice(cav(lane=2), LEFT, ROAD)


class TestChecker:
    def test_gentle_change_passes(self):
        state = cav(speed=25.0)
        q_lat = QuinticProfile(state.y, 0.0, 0.0, ROAD.lane_center(2), 0.0, 0.0, 4.0)
        q_lon = QuarticProfile(state.x, 25.0, 0.0, 25.0, 0.0, 4.0)
        cand = TrajectoryCandidate(duration=4.0, lon=q_lon, lat=q_lat, target_lane=2).sample()
        ok, reason = check_dynamics(cand, LIMITS)
        assert ok, reason
        # peak lateral accel of a rest-to-rest quintic: ~5.774 * dy / T^2
        peak = max(abs(s[6]) for s in cand.samples)
        assert peak == pytest.approx(5.7735 * 4.0 / 16.0, rel=0.01)

    def test_violent_change_fails_on_lateral(self):
        state = cav(speed=35.0)
        q_lat = QuinticProfile(state.y, 0.0, 0.0, ROAD.lane_center(2), 0.0, 0.0, 1.0)
        q_lon = QuarticProfile(state.x, 35.0, 0.0, 35.0, 0.0, 1.0)
        cand = TrajectoryCandidate(duration=1.0, lon=q_lon, lat=q_lat, target_lane=2).sample()
        ok, reason = check_dynamics(cand, LIMITS)
        assert not ok
        assert "lateral" in reason

    def test_stationary_keep_passes(self):
        state = cav(speed=0.0)
        cands = generate_lattice(state, KEEP, ROAD)
        assert any(check_dynamics(c, LIMITS)[0] for c in cands)

    def test_off_road_excursion_fails(self):
        state = cav(lane=2, speed=20.0)
        q_lat = QuinticProfile(state.y, 2.0, 0.0, state.y + 3.0, 0.0, 0.0, 4.0)
        q_lon = QuarticProfile(state.x, 20.0, 0.0, 20.0, 0.0, 4.0)
        cand = TrajectoryCandidate(duration=4.0, lon=q_lon, lat=q_lat, target_lane=2).sample()
        ok, reason = check_dynamics(cand, LIMITS)
        assert not ok and "off-road" in reason
        assert (LIMITS.y_min, LIMITS.y_max) == (-2.0, 10.0)


class TestSelection:
    def test_lowest_jerk_among_equals(self):
        ego = cav()
        cands = generate_lattice(ego, KEEP, ROAD)
        best = select_trajectory(cands, ego, [], ROAD)
        # zero terminal-speed offset has the least jerk; grid ties break to
        # the shortest duration
        t, x, y, vx, vy, *_ = best.samples[-1]
        assert vx == pytest.approx(25.0, abs=1e-6)
        assert best.duration == 2.0

    def test_obstacle_path_avoided(self):
        ego = cav(x=100.0, lane=1, speed=25.0)
        blocker = VehicleState(id=9, x=180.0, y=ROAD.lane_center(1), speed=0.0,
                               lane=1, target_lane=1)
        keep = generate_lattice(ego, KEEP, ROAD)
        left = generate_lattice(ego, LEFT, ROAD)
        best = select_trajectory(keep + left, ego, [blocker], ROAD)
        assert best.target_lane == 2

    def test_efficiency_only_prefers_fastest(self):
        from dataclasses import replace

        cfg = replace(config.DEFAULTS.planner, w_safety=0.0, w_comfort=0.0,
                      w_efficiency=1.0)
        ego = cav()
        cands = generate_lattice(ego, KEEP, ROAD, cfg)
        best = select_trajectory(cands, ego, [], ROAD, cfg=cfg)
        assert best.samples[-1][3] == pytest.approx(27.0, abs=1e-6)

    def test_lane_change_into_fourth_lane(self):
        road = RoadMap(lane_count=4, length=4000.0)
        ego = cav(lane=2)
        best = select_trajectory(generate_lattice(ego, LEFT, road), ego, [], road)
        assert best.lon is not None
        assert best.target_lane == 3
        assert best.samples[-1][2] == pytest.approx(road.lane_center(3), abs=1e-9)

    def test_fallback_emergency(self):
        ego = cav(speed=25.0)
        best = select_trajectory([], ego, [], ROAD)
        ok, reason = check_dynamics(best, LIMITS)
        assert ok, reason
        assert best.samples[-1][3] < 25.0  # braking profile


class TestEmergencyProfile:
    def test_within_limits_and_stops(self):
        ego = cav(speed=30.0)
        prof = emergency_profile(ego, ROAD, duration=6.0)
        ok, reason = check_dynamics(prof, LIMITS)
        assert ok, reason
        speeds = [s[3] for s in prof.samples]
        assert speeds[-1] < speeds[0]
        assert all(v >= 0.0 for v in speeds)
