import math

import numpy as np
import pytest

from platoonreorg import config
from platoonreorg.control import (
    CavExecutor,
    PidState,
    lqr_longitudinal,
    pid_steering,
    solve_lqr_gain,
)
from platoonreorg.world import RoadMap, VehicleState, step_kinematics

ROAD = RoadMap(lane_count=3, length=4000.0)


class TestLqr:
    def test_zero_error_zero_command(self):
        K = solve_lqr_gain(config.DEFAULTS.control)
        assert lqr_longitudinal(0.0, 0.0, K) == 0.0

    def test_stabilizing(self):
        K = solve_lqr_gain(config.DEFAULTS.control)
        dt = config.DT
        A = np.array([[1.0, dt], [0.0, 1.0]])
        B = np.array([[0.5 * dt * dt], [dt]])
        closed = A - B @ np.array([K])
        assert max(abs(np.linalg.eigvals(closed))) < 1.0

    def test_gap_error_settles(self):
        """5 m initial gap error decays below 0.25 m within 15 s (closed loop)."""
        K = solve_lqr_gain(config.DEFAULTS.control)
        e_p, e_v = -5.0, 0.0  # 5 m short of the reference point
        dt = config.DT
        for _ in range(int(15.0 / dt)):
            u = lqr_longitudinal(e_p, e_v, K)
            e_p += e_v * dt + 0.5 * u * dt * dt
            e_v += u * dt
        assert abs(e_p) < 0.25
        assert abs(e_v) < 0.25

    def test_command_clamped(self):
        K = solve_lqr_gain(config.DEFAULTS.control)
        assert lqr_longitudinal(50.0, 10.0, K) == config.LQR_ACCEL_MIN
        assert lqr_longitudinal(-50.0, -10.0, K) == config.LQR_ACCEL_MAX

    def test_bad_gains_rejected(self):
        with pytest.raises(ValueError):
            config.ControlConfig(lqr_r=0.0)


class TestPid:
    def test_aligned_zero(self):
        pid = PidState()
        assert pid_steering(0.0, 0.0, pid, config.DEFAULTS.control) == 0.0

    def test_step_offset_settles(self):
        """1 m lateral step at 25 m/s decays below 0.05 m within 8 s."""
        gains = config.DEFAULTS.control
        pid = PidState()
        v = VehicleState(id=0, kind="CAV", x=0.0, y=1.0, speed=25.0, lane=0,
                         target_lane=0)
        dt = config.DT
        for _ in range(int(8.0 / dt)):
            rate = pid_steering(0.0 - v.y, v.heading, pid, gains, dt)
            v = step_kinematics(v, 25.0, v.heading + rate * dt, dt)
        assert abs(v.y) < 0.05

    def test_windup_capped(self):
        gains = config.DEFAULTS.control
        pid = PidState()
        rates = []
        for _ in range(10000):
            rates.append(pid_steering(3.0, 0.0, pid, gains))
        assert max(abs(r) for r in rates) <= config.STEER_RATE_LIMIT
        assert abs(pid.integral) <= pid.integral_limit


class TestExecutor:
    def test_follow_mode_holds_gap(self):
        ex = CavExecutor(cruise_speed=25.0)
        leader = VehicleState(id=1, kind="CAV", x=200.0, y=4.0, speed=25.0,
                              lane=1, target_lane=1)
        ego = VehicleState(id=0, kind="CAV", x=185.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        dt = config.DT
        t = 0.0
        for _ in range(int(30.0 / dt)):
            # command from the same frame snapshot, then step everyone
            speed, heading = ex.command(ego, leader, t, ROAD, dt)
            leader = step_kinematics(leader, 25.0, 0.0, dt)
            ego = step_kinematics(ego, speed, heading, dt)
            t += dt
        assert leader.x - ego.x == pytest.approx(config.D_TARGET, abs=0.3)

    def test_cruise_without_leader(self):
        ex = CavExecutor(cruise_speed=27.0)
        ego = VehicleState(id=0, kind="CAV", x=0.0, y=4.0, speed=20.0,
                           lane=1, target_lane=1)
        dt = config.DT
        t = 0.0
        for _ in range(int(25.0 / dt)):
            speed, heading = ex.command(ego, None, t, ROAD, dt)
            ego = step_kinematics(ego, speed, heading, dt)
            t += dt
        assert ego.speed == pytest.approx(27.0, abs=0.3)

    @pytest.mark.parametrize("mode", ["follow", "track"])
    def test_commands_are_python_floats(self, mode):
        from platoonreorg.planner import LEFT, generate_lattice, select_trajectory

        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        leader = VehicleState(id=1, kind="CAV", x=112.0, y=4.0, speed=24.0,
                              lane=1, target_lane=1)
        if mode == "track":
            ex.start_trajectory(select_trajectory(generate_lattice(ego, LEFT, ROAD),
                                                  ego, [], ROAD), 0.0)
        speed, heading = ex.command(ego, leader, 0.5, ROAD)
        assert ex.mode == mode
        assert type(speed) is float and type(heading) is float

    def test_trajectory_tracking_reaches_target_lane(self):
        from platoonreorg.planner import LEFT, generate_lattice, select_trajectory

        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        cands = generate_lattice(ego, LEFT, ROAD)
        traj = select_trajectory(cands, ego, [], ROAD)
        ex.start_trajectory(traj, 0.0)
        dt = config.DT
        t = 0.0
        while not ex.tracking_done(t):
            speed, heading = ex.command(ego, None, t, ROAD, dt)
            ego = step_kinematics(ego, speed, heading, dt)
            t += dt
        assert ego.y == pytest.approx(ROAD.lane_center(2), abs=0.35)
