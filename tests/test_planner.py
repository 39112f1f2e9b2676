import struct

import numpy as np
import pytest

from platoonreorg import config
from platoonreorg.planner import (
    KEEP,
    LEFT,
    RIGHT,
    PlanningError,
    Polynomial,
    TrajectoryCandidate,
    check_dynamics,
    generate_lattice,
    lane_change,
    lane_change_time,
    quintic,
    select_trajectory,
)
from platoonreorg.world import RoadMap, VehicleState

ROAD = RoadMap(lane_count=3, length=4000.0)


def lapack_quintic(p0, v0, a0, p1, v1, a1, T) -> list:
    """Oracle: the quintic's coefficients, t³..t⁵ from a LAPACK solve of
    their 3×3 boundary system."""
    c = [p0, v0, a0 / 2.0]
    A = np.array([
        [T ** 3, T ** 4, T ** 5],
        [3 * T ** 2, 4 * T ** 3, 5 * T ** 4],
        [6 * T, 12 * T ** 2, 20 * T ** 3],
    ])
    b = np.array([
        p1 - (c[0] + c[1] * T + c[2] * T ** 2),
        v1 - (c[1] + 2 * c[2] * T),
        a1 - 2 * c[2],
    ])
    return c + np.linalg.solve(A, b).tolist()


class QuinticProfile:
    """Oracle: a quintic's evaluators written out term by term."""

    def __init__(self, c):
        self.c = c

    def pos(self, t):
        c = self.c
        return c[0] + c[1] * t + c[2] * t ** 2 + c[3] * t ** 3 + c[4] * t ** 4 + c[5] * t ** 5

    def vel(self, t):
        c = self.c
        return c[1] + 2 * c[2] * t + 3 * c[3] * t ** 2 + 4 * c[4] * t ** 3 + 5 * c[5] * t ** 4

    def acc(self, t):
        c = self.c
        return 2 * c[2] + 6 * c[3] * t + 12 * c[4] * t ** 2 + 20 * c[5] * t ** 3


def doubles(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def evaluations(poly, times) -> bytes:
    """All three derivatives at every time, as the bytes of the doubles."""
    return doubles([d for t in times for d in poly.derivatives(t)])


def oracle_evaluations(profile, times) -> bytes:
    """The oracle's written-out evaluators in the same order."""
    return doubles([f(t) for t in times
                    for f in (profile.pos, profile.vel, profile.acc)])


def cav(vid=0, x=100.0, lane=1, speed=25.0, heading=0.0):
    return VehicleState(id=vid, kind="CAV", x=x, y=ROAD.lane_center(lane),
                        speed=speed, lane=lane, target_lane=lane, heading=heading)


class TestPolynomials:
    def test_quintic_boundary_conditions(self):
        q = quintic(4.0, 0.3, -0.1, 8.0, 0.0, 0.0, 3.0)
        assert q.derivatives(0.0)[0] == pytest.approx(4.0, abs=1e-12)
        assert q.derivatives(0.0)[1] == pytest.approx(0.3, abs=1e-12)
        assert q.derivatives(0.0)[2] == pytest.approx(-0.1, abs=1e-12)
        assert q.derivatives(3.0)[0] == pytest.approx(8.0, abs=1e-9)
        assert q.derivatives(3.0)[1] == pytest.approx(0.0, abs=1e-9)
        assert q.derivatives(3.0)[2] == pytest.approx(0.0, abs=1e-9)

    def test_bit_identical_to_the_term_by_term_profiles(self):
        """10k random boundary sets: every coefficient within 1e-12 of the
        LAPACK solve, relative to the largest solved one, and every evaluator
        bit-identical to the term-by-term evaluation of the same coefficients
        at four sample times of the 0.1 s grid (plan end included)."""
        rng = np.random.default_rng(2010)
        for _ in range(10_000):
            p0, p1, v0, v1, a0, a1 = (float(u) for u in rng.uniform(-40.0, 40.0, 6))
            T = lane_change_time(ROAD.lane_width) if rng.random() < 0.5 \
                else float(rng.uniform(0.5, 6.0))
            n = int(round(T / config.DT))
            times = [k * config.DT for k in rng.integers(0, n + 1, 3)] + [n * config.DT]
            new = quintic(p0, v0, a0, p1, v1, a1, T)
            want = lapack_quintic(p0, v0, a0, p1, v1, a1, T)
            assert doubles(new.c[:3]) == doubles(want[:3])
            scale = max(abs(c) for c in want[3:])
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(new.c[3:], want[3:]))
            assert evaluations(new, times) == oracle_evaluations(QuinticProfile(new.c), times)

    def test_lower_degrees_leave_out_the_missing_derivatives(self):
        line = Polynomial([100.0, 25.0])
        assert line.derivatives(2.0) == [150.0, 25.0]


class TestLattice:
    def test_lane_change_candidate_count(self):
        """One plan of ``lane_change_time``, on the straight line x0 + vx0 t
        that the hold_lane fallback lacks."""
        cand = generate_lattice(cav(x=100.0, speed=25.0), LEFT, ROAD)
        assert isinstance(cand, TrajectoryCandidate)
        assert cand.duration == lane_change_time(ROAD.lane_width) == 2.8
        assert cand.lon.c == [100.0, 25.0]

    def test_terminal_lane_center(self):
        for side, lane in ((LEFT, 2), (RIGHT, 0)):
            cand = generate_lattice(cav(), side, ROAD)
            y, vy, ay = cand.lat.derivatives(cand.duration)
            assert (cand.duration, cand.target_lane) == (2.8, lane)
            assert y == pytest.approx(ROAD.lane_center(lane), abs=1e-9)
            assert vy == pytest.approx(0.0, abs=1e-9)
            assert ay == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("dy", [0.5, 2.0, 3.3, 4.0, 5.9, -4.0, 7.5])
    def test_duration_is_the_shortest_within_the_lateral_limit(self, dy):
        """``lane_change_time`` is on the ``DT`` grid; its rest-to-rest
        quintic keeps ``LAT_ACCEL_LIMIT`` at every step and one ``DT``
        shorter does not."""
        T = lane_change_time(dy)
        assert T == round(round(T / config.DT) * config.DT, 9)
        assert check_dynamics(lateral(6.0, 0.0, 6.0 + dy, T), WIDE) == (True, "")
        ok, reason = check_dynamics(lateral(6.0, 0.0, 6.0 + dy, round(T - config.DT, 9)), WIDE)
        assert not ok and "lateral" in reason

    def test_generate_lattice_is_the_one_lane_change(self):
        """The executor's entry point and the game's ``lane_change`` build
        the same plan."""
        ego = cav(x=80.0, speed=22.0, heading=0.01)
        ego.y, ego.ay = 4.3, 0.2
        for side in (LEFT, RIGHT):
            a, b = generate_lattice(ego, side, ROAD), lane_change(ego, side, ROAD)
            assert (a.duration, a.lon.c, a.lat.c, a.target_lane) == (
                b.duration, b.lon.c, b.lat.c, b.target_lane)
        assert generate_lattice(ego, RIGHT, ROAD).duration == lane_change_time(4.3) == 2.9

    def test_keep_has_no_lattice(self):
        """Lane keeping is the executor's follow law, not a plan."""
        with pytest.raises(PlanningError):
            generate_lattice(cav(), KEEP, ROAD)

    def test_off_road_decision_rejected(self):
        with pytest.raises(PlanningError):
            generate_lattice(cav(lane=0), RIGHT, ROAD)
        with pytest.raises(PlanningError):
            generate_lattice(cav(lane=2), LEFT, ROAD)


# a road wide enough that no lateral profile of the tests above leaves it
WIDE = RoadMap(lane_count=5, length=4000.0)


def lateral(y0, vy0, y1, T, lane=2):
    return TrajectoryCandidate(duration=T, lon=Polynomial([100.0, 25.0]),
                               lat=quintic(y0, vy0, 0.0, y1, 0.0, 0.0, T),
                               target_lane=lane)


class TestChecker:
    def test_gentle_change_passes(self):
        cand = lateral(ROAD.lane_center(1), 0.0, ROAD.lane_center(2), 4.0)
        ok, reason = check_dynamics(cand, ROAD)
        assert ok, reason
        # peak lateral accel of a rest-to-rest quintic: ~5.774 * dy / T^2
        peak = max(abs(cand.lat.derivatives(k * config.DT)[2]) for k in range(41))
        assert peak == pytest.approx(5.7735 * 4.0 / 16.0, rel=0.01)

    def test_violent_change_fails_on_lateral(self):
        cand = lateral(ROAD.lane_center(1), 0.0, ROAD.lane_center(2), 1.0)
        ok, reason = check_dynamics(cand, ROAD)
        assert not ok
        assert "lateral" in reason

    def test_off_road_excursion_fails(self):
        y = ROAD.lane_center(2)
        ok, reason = check_dynamics(lateral(y, 2.0, y + 3.0, 4.0), ROAD)
        assert not ok and "off-road" in reason

    @pytest.mark.parametrize("lanes,y,ok", [
        (3, -2.0, True), (3, 10.0, True), (3, -2.0 - 1e-9, False), (3, 10.0 + 1e-9, False),
        (4, 14.0, True), (4, 14.0 + 1e-9, False),
    ])
    def test_road_extent_is_read_from_the_road(self, lanes, y, ok):
        """The extent runs from -lane_width/2 to (lane_count - 1/2) lane widths,
        both edges included."""
        cand = TrajectoryCandidate(duration=0.0, lon=None, lat=Polynomial([y, 0.0, 0.0]))
        assert check_dynamics(cand, RoadMap(lane_count=lanes))[0] is ok


class TestSelection:
    """``select_trajectory`` has no caller in the package; the benchmark's
    layer timers look it up by name."""

    def test_lane_change_into_fourth_lane(self):
        road = RoadMap(lane_count=4, length=4000.0)
        ego = cav(lane=2)
        best = select_trajectory(generate_lattice(ego, LEFT, road), ego, road)
        assert best.lon is not None
        assert best.target_lane == 3
        assert best.lat.derivatives(best.duration)[0] == pytest.approx(road.lane_center(3),
                                                                       abs=1e-9)

    def test_fallback_emergency(self):
        """A candidate outside the lateral limit gives ``hold_lane``: no
        duration, no profile, the ego's own lane.  The generated plan itself
        can fail: a member heading -0.3 rad at 25 m/s starts its LEFT plan at
        a lateral speed of -7.4 m/s, and turning that round within 2.8 s
        needs 4.06 m/s² of lateral acceleration by t = 0.1 s."""
        ego = cav(speed=25.0)
        sharp = lateral(ROAD.lane_center(1), 0.0, ROAD.lane_center(2), 1.0)
        skewed = cav(speed=25.0, heading=-0.3)
        plan = generate_lattice(skewed, LEFT, ROAD)
        assert check_dynamics(plan, ROAD) == (False, "lateral accel 4.06 at t=0.1")
        for member, cand in ((ego, sharp), (skewed, plan)):
            best = select_trajectory(cand, member, ROAD)
            assert (best.duration, best.lon, best.lat, best.target_lane) == (0.0, None, None, 1)
