import math
from collections import namedtuple

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from platoonreorg import config
from platoonreorg.control import (
    FOLLOW,
    TRACK,
    CavExecutor,
    ControlError,
    PidState,
    lqr_longitudinal,
    pid_steering,
    schur_stable,
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

    def test_gain_is_one_shared_tuple_per_gain_set(self):
        g = config.DEFAULTS.control
        K = solve_lqr_gain(g)
        assert isinstance(K, tuple) and len(K) == 2
        assert all(type(k) is float for k in K)
        assert solve_lqr_gain(g) == K
        assert solve_lqr_gain(config.ControlConfig(lqr_q_gap=4.0)) != K
        assert CavExecutor(cruise_speed=25.0, gains=g).K == K

    def test_bad_gains_rejected(self):
        with pytest.raises(ValueError):
            config.ControlConfig(lqr_r=0.0)

    @pytest.mark.parametrize("gains", [
        {}, {"lqr_q_gap": 4.0}, {"lqr_q_gap": 1e7}, {"lqr_q_gap": 1e9},
        {"lqr_r": 1e-6}, {"lqr_r": 100.0},
    ])
    def test_gain_matches_the_are_oracle(self, gains):
        """The gain from scipy's direct solve of the discrete algebraic Riccati
        equation.  At ``lqr_q_gap=1e7`` an entry of P is about 1e7, whose ulp
        is far above a purely absolute 1e-12 stopping step."""
        g = config.ControlConfig(**gains)
        dt = config.DT
        A = np.array([[1.0, dt], [0.0, 1.0]])
        B = np.array([[0.5 * dt * dt], [dt]])
        R = np.array([[g.lqr_r]])
        P = solve_discrete_are(A, B, np.diag([g.lqr_q_gap, g.lqr_q_speed]), R)
        K_ref = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A).ravel()
        assert solve_lqr_gain(g) == pytest.approx(K_ref.tolist(), rel=1e-9)

    def test_unobservable_gap_is_not_stabilizing(self):
        """Without a gap weight the position error is free, and the converged
        gain leaves the closed loop a unit eigenvalue.  ``ControlConfig``
        refuses the weight; a stand-in with the three LQR fields still
        reaches the solver's check."""
        with pytest.raises(ValueError, match="lqr_q_gap"):
            config.ControlConfig(lqr_q_gap=0.0)
        LqrGains = namedtuple("LqrGains", "lqr_q_gap lqr_q_speed lqr_r")
        with pytest.raises(ControlError, match="not stabilizing"):
            solve_lqr_gain(LqrGains(lqr_q_gap=0.0, lqr_q_speed=0.5, lqr_r=1.0))

    def test_schur_test_matches_the_eigenvalues(self):
        mats = np.random.default_rng(0).uniform(-1.5, 1.5, size=(10000, 2, 2))
        radius = np.abs(np.linalg.eigvals(mats)).max(axis=1)
        clear = np.abs(radius - 1.0) > 1e-9  # every draw of this seed
        stable = np.array([schur_stable(a + d, a * d - b * c)
                           for (a, b), (c, d) in mats.tolist()])
        assert clear.all()
        assert (stable == (radius < 1.0)).all()
        assert 0.2 < stable.mean() < 0.8


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
            rate = pid_steering(0.0 - v.y, v.heading, pid, gains)
            step_kinematics(v, 25.0, v.heading + rate * dt)
        assert abs(v.y) < 0.05

    def test_windup_capped(self):
        gains = config.DEFAULTS.control
        pid = PidState()
        rates = []
        for _ in range(10000):
            rates.append(pid_steering(3.0, 0.0, pid, gains))
        assert max(abs(r) for r in rates) <= config.STEER_RATE_LIMIT
        assert abs(pid.integral) <= config.PID_INTEGRAL_LIMIT


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
            speed, heading = ex.command(ego, leader, t, ROAD)
            step_kinematics(leader, 25.0, 0.0)
            step_kinematics(ego, speed, heading)
            t += dt
        assert leader.x - ego.x == pytest.approx(config.D_TARGET, abs=0.3)

    def test_cruise_without_leader(self):
        ex = CavExecutor(cruise_speed=27.0)
        ego = VehicleState(id=0, kind="CAV", x=0.0, y=4.0, speed=20.0,
                           lane=1, target_lane=1)
        dt = config.DT
        t = 0.0
        for _ in range(int(25.0 / dt)):
            speed, heading = ex.command(ego, None, t, ROAD)
            step_kinematics(ego, speed, heading)
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
        while t < traj.duration:
            speed, heading = ex.command(ego, None, t, ROAD)
            step_kinematics(ego, speed, heading)
            t += dt
        assert ex.mode == TRACK
        assert ego.y == pytest.approx(ROAD.lane_center(2), abs=0.35)

    def test_command_ends_an_elapsed_plan(self):
        """The first command at or after the plan's end follows again, toward
        the lane the vehicle is in."""
        from platoonreorg.planner import LEFT, generate_lattice, select_trajectory

        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        traj = select_trajectory(generate_lattice(ego, LEFT, ROAD), ego, [], ROAD)
        ex.start_trajectory(traj, 1.0)
        ego.target_lane = traj.target_lane
        ex.command(ego, None, 1.0 + traj.duration - config.DT, ROAD)
        assert (ex.mode, ex.trajectory, ego.target_lane) == (TRACK, traj, 2)
        assert ex.pid.integral != 0.0
        ex.command(ego, None, 1.0 + traj.duration, ROAD)
        assert (ex.mode, ex.trajectory, ego.target_lane) == (FOLLOW, None, 1)
        assert ex.pid.integral == 0.0  # reset; ego sits on its lane's center

    def test_follow_mode_ignores_a_far_faster_foreign_leader(self):
        """A foreign vehicle 680 m ahead and faster than cruise is not chased."""
        ex = CavExecutor(cruise_speed=25.0)
        leader = VehicleState(id=1, kind="HDV", x=780.0, y=4.0, speed=30.0,
                              lane=1, target_lane=1)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=22.0,
                           lane=1, target_lane=1)
        dt = config.DT
        t = 0.0
        for _ in range(int(30.0 / dt)):
            speed, heading = ex.command(ego, leader, t, ROAD)
            assert speed <= ex.cruise_speed
            step_kinematics(leader, 30.0, 0.0)
            step_kinematics(ego, speed, heading)
            t += dt
        assert ego.speed == pytest.approx(25.0, abs=0.3)

    @pytest.mark.parametrize("mode", ["follow", "track"])
    def test_short_ttc_forces_full_braking(self, mode):
        from platoonreorg.planner import LEFT, generate_lattice, select_trajectory

        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=20.0,
                           lane=1, target_lane=1)
        # platoon member 9 m ahead, 3 m/s slower: 4 m bumper gap, TTC 1.33 s
        leader = VehicleState(id=1, kind="CAV", x=109.0, y=4.0, speed=17.0,
                              lane=1, target_lane=1)
        if mode == "track":
            ex.start_trajectory(select_trajectory(generate_lattice(ego, LEFT, ROAD),
                                                  ego, [], ROAD), 0.0)
        speed, _ = ex.command(ego, leader, 0.0, ROAD)
        assert ex.mode == mode
        assert (speed - ego.speed) / config.DT == pytest.approx(-config.ACCEL_LIMIT)

    def test_tracks_the_emergency_profile(self):
        """The sampled braking fallback (no longitudinal profile) is trackable."""
        from platoonreorg.planner import emergency_profile

        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        traj = emergency_profile(ego)
        assert traj.lon is None
        ex = CavExecutor(cruise_speed=25.0)
        ex.start_trajectory(traj, 0.0)
        dt = config.DT
        t = 0.0
        speeds = [ego.speed]
        while t < traj.duration:
            speed, heading = ex.command(ego, None, t, ROAD)
            step_kinematics(ego, speed, heading)
            speeds.append(ego.speed)
            t = round(t + dt, 9)
        assert all(math.isfinite(v) for v in speeds)
        assert all(b <= a for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] < 25.0 - 5.0
