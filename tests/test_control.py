import math
from collections import namedtuple

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from platoonreorg import config
from platoonreorg.control import (
    CavExecutor,
    ControlError,
    follow_accel,
    lqr_longitudinal,
    schur_stable,
    solve_lqr_gain,
)
from platoonreorg.planner import LEFT, lane_change, lane_change_time
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
        """The LQR laws are unclamped; ``follow_accel`` clamps their command
        to [-ACCEL_LIMIT, LQR_ACCEL_MAX], its jerk window allowing."""
        K = solve_lqr_gain(config.DEFAULTS.control)
        assert lqr_longitudinal(50.0, 10.0, K) < -config.ACCEL_LIMIT
        assert lqr_longitudinal(-50.0, -10.0, K) > config.LQR_ACCEL_MAX
        ahead = VehicleState(id=1, kind="CAV", x=130.0, y=4.0, speed=35.0, lane=1, target_lane=1)
        slow = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=10.0, accel=1.5, lane=1,
                            target_lane=1)
        assert follow_accel(slow, ahead, ROAD, 33.0, K) == config.LQR_ACCEL_MAX
        fast = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=35.0, accel=-3.5, lane=1,
                            target_lane=1)
        assert follow_accel(fast, None, ROAD, 10.0, K) == -config.ACCEL_LIMIT

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
            config.ControlConfig(lqr_q_speed=-1.0)

    @pytest.mark.parametrize("gains", [
        {}, {"lqr_q_gap": 4.0}, {"lqr_q_gap": 1e7}, {"lqr_q_gap": 1e9},
        {"lqr_q_gap": 1e6, "lqr_q_speed": 5e5}, {"lqr_q_gap": 0.01, "lqr_q_speed": 0.005},
    ])
    def test_gain_matches_the_are_oracle(self, gains):
        """The gain from scipy's direct solve of the discrete algebraic Riccati
        equation, with the input weight R = 1.  At ``lqr_q_gap=1e7`` an entry
        of P is about 1e7, whose ulp is far above a purely absolute 1e-12
        stopping step; the last two cases scale the default Q by 1e6 and by
        0.01, the Q/R ratios of R = 1e-6 and R = 100."""
        g = config.ControlConfig(**gains)
        dt = config.DT
        A = np.array([[1.0, dt], [0.0, 1.0]])
        B = np.array([[0.5 * dt * dt], [dt]])
        R = np.array([[1.0]])
        P = solve_discrete_are(A, B, np.diag([g.lqr_q_gap, g.lqr_q_speed]), R)
        K_ref = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A).ravel()
        assert solve_lqr_gain(g) == pytest.approx(K_ref.tolist(), rel=1e-9)

    def test_unobservable_gap_is_not_stabilizing(self):
        """Without a gap weight the position error is free, and the converged
        gain leaves the closed loop a unit eigenvalue.  ``ControlConfig``
        refuses the weight; a stand-in with the two LQR fields still reaches
        the solver's check."""
        with pytest.raises(ValueError, match="lqr_q_gap"):
            config.ControlConfig(lqr_q_gap=0.0)
        LqrGains = namedtuple("LqrGains", "lqr_q_gap lqr_q_speed")
        with pytest.raises(ControlError, match="not stabilizing"):
            solve_lqr_gain(LqrGains(lqr_q_gap=0.0, lqr_q_speed=0.5))

    def test_schur_test_matches_the_eigenvalues(self):
        mats = np.random.default_rng(0).uniform(-1.5, 1.5, size=(10000, 2, 2))
        radius = np.abs(np.linalg.eigvals(mats)).max(axis=1)
        clear = np.abs(radius - 1.0) > 1e-9  # every draw of this seed
        stable = np.array([schur_stable(a + d, a * d - b * c)
                           for (a, b), (c, d) in mats.tolist()])
        assert clear.all()
        assert (stable == (radius < 1.0)).all()
        assert 0.2 < stable.mean() < 0.8


def drive_lane_keeping(ex, ego, seconds):
    """Command and step the ego with no leader for ``seconds``; the per-step
    (|lateral accel|, y)."""
    seen = []
    t = 0.0
    for _ in range(round(seconds / config.DT)):
        speed, heading = ex.command(ego, None, t, ROAD)
        step_kinematics(ego, speed, heading)
        seen.append((abs(ego.ay), ego.y))
        t = round(t + config.DT, 9)
    return seen


class TestLateralLaw:
    def test_aligned_zero(self):
        """On its lane's center, aligned and not moving sideways, the ego
        keeps heading 0."""
        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=0.0, y=4.0, speed=25.0, lane=1,
                           target_lane=1)
        assert ex.command(ego, None, 0.0, ROAD)[1] == 0.0

    @pytest.mark.parametrize("speed", [10.0, 25.0, 33.0])
    def test_step_offset_settles(self, speed):
        """A 1 m lateral step decays below 0.05 m within 4 s without passing
        the lane's center, at any speed: the law is written in y."""
        ex = CavExecutor(cruise_speed=speed)
        ego = VehicleState(id=0, kind="CAV", x=0.0, y=5.0, speed=speed, lane=1,
                           target_lane=1)
        assert min(y for _, y in drive_lane_keeping(ex, ego, 4.0)) >= 4.0
        assert ego.y - 4.0 < 0.05

    @pytest.mark.parametrize("speed", [10.0, 25.0, 33.0])
    @pytest.mark.parametrize("duration", [2.8, 4.0])
    def test_tracks_a_quick_plan(self, duration, speed):
        """A 4 m rest-to-rest quintic of ``duration`` s, 2.8 s being the
        planner's own: the ego never passes the target lane's center by
        0.1 m, is within 0.05 m of it from 1 s after the plan's end on, and
        keeps every limit on the way."""
        from platoonreorg.planner import Polynomial, TrajectoryCandidate, quintic

        ex = CavExecutor(cruise_speed=speed)
        ego = VehicleState(id=0, kind="CAV", x=0.0, y=4.0, speed=speed, lane=1,
                           target_lane=2)
        ex.trajectory = TrajectoryCandidate(duration=duration, lon=Polynomial([0.0, speed]),
                                            lat=quintic(4.0, 0.0, 0.0, 8.0, 0.0, 0.0, duration),
                                            target_lane=2)
        errors, breaks = [], []
        t = 0.0
        while t < duration + 4.0:
            heading = ego.heading
            speed_cmd, heading_cmd = ex.command(ego, None, t, ROAD)
            step_kinematics(ego, speed_cmd, heading_cmd)
            ego.lane = ROAD.lane_of(ego.y)
            t = round(t + config.DT, 9)
            errors.append((t, ego.y - ROAD.lane_center(2)))
            for name, value, limit in (
                    ("accel", abs(ego.accel), config.ACCEL_LIMIT),
                    ("jerk", abs(ego.jerk), config.JERK_LIMIT),
                    ("ay", abs(ego.ay), config.LAT_ACCEL_LIMIT),
                    ("rate", abs(heading_cmd - heading) / config.DT, config.STEER_RATE_LIMIT)):
                if value > limit + 1e-9:
                    breaks.append((t, name, value))
        assert ex.trajectory is None and ego.lane == 2
        assert max(e for _, e in errors) < 0.1
        assert max(abs(e) for t, e in errors if t >= duration + 1.0 - 1e-9) < 0.05
        assert breaks == []


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

    @pytest.mark.parametrize("tracking", [False, True], ids=["follow", "track"])
    def test_commands_are_python_floats(self, tracking):
        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        leader = VehicleState(id=1, kind="CAV", x=112.0, y=4.0, speed=24.0,
                              lane=1, target_lane=1)
        if tracking:
            ex.schedule(0.5, lane_change(ego, LEFT, ROAD))
        speed, heading = ex.command(ego, leader, 0.5, ROAD)
        assert (ex.trajectory is not None) == tracking
        assert type(speed) is float and type(heading) is float

    def test_trajectory_tracking_reaches_target_lane(self):
        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        ex.schedule(0.0, lane_change(ego, LEFT, ROAD))
        dt = config.DT
        t = 0.0
        while t < lane_change_time(ROAD.lane_width):
            speed, heading = ex.command(ego, None, t, ROAD)
            step_kinematics(ego, speed, heading)
            t += dt
        assert ex.trajectory.duration == lane_change_time(ROAD.lane_width) == 2.8
        assert ego.y == pytest.approx(ROAD.lane_center(2), abs=0.35)

    def test_command_ends_an_elapsed_plan(self):
        """The first command at or after the plan's end follows again, toward
        the lane the vehicle is in."""
        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        traj = lane_change(ego, LEFT, ROAD)
        ex.schedule(1.0, traj)
        ex.command(ego, None, 1.0, ROAD)
        ex.command(ego, None, 1.0 + traj.duration - config.DT, ROAD)
        assert (ex.trajectory, ego.target_lane) == (traj, 2)
        ex.command(ego, None, 1.0 + traj.duration, ROAD)
        assert (ex.trajectory, ego.target_lane) == (None, 1)

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

    @pytest.mark.parametrize("tracking", [False, True], ids=["follow", "track"])
    def test_short_ttc_forces_full_braking(self, tracking):
        """Full braking is reached through the jerk stage: -JERK_LIMIT·DT per
        frame from rest, so -ACCEL_LIMIT within 5 frames."""
        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=20.0,
                           lane=1, target_lane=1)
        # platoon member 9 m ahead, 3 m/s slower: 4 m bumper gap, TTC 1.33 s
        leader = VehicleState(id=1, kind="CAV", x=109.0, y=4.0, speed=17.0,
                              lane=1, target_lane=1)
        if tracking:
            ex.schedule(0.0, lane_change(ego, LEFT, ROAD))
        accels = []
        t = 0.0
        for _ in range(5):
            speed, heading = ex.command(ego, leader, t, ROAD)
            assert (ex.trajectory is not None) == tracking
            step_kinematics(ego, speed, heading)
            step_kinematics(leader, leader.speed, 0.0)
            accels.append(ego.accel)
            t = round(t + config.DT, 9)
        step = config.JERK_LIMIT * config.DT
        assert accels == pytest.approx([-step * k for k in range(1, 6)])
        assert accels[-1] == pytest.approx(-config.ACCEL_LIMIT)

    def test_steering_keeps_the_lateral_accel_limit(self):
        """A 3 m offset at 30 m/s asks the lateral law for ω²·3 = 4.32 m/s²,
        beyond LAT_ACCEL_LIMIT: the lateral speed moves at most
        LAT_ACCEL_LIMIT·DT per step, and the ego still settles in its lane."""
        ex = CavExecutor(cruise_speed=30.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=7.0, speed=30.0,
                           lane=1, target_lane=1)
        assert ex.gains.lat_omega ** 2 * 3.0 > config.LAT_ACCEL_LIMIT
        seen = drive_lane_keeping(ex, ego, 10.0)
        assert max(ay for ay, _ in seen) == pytest.approx(config.LAT_ACCEL_LIMIT)
        assert ego.y == pytest.approx(4.0, abs=0.05)


class TestLaneChangeLifecycle:
    """The executor runs the plan it is handed: it starts at the first
    command at or after its start time, and the executor is busy from the
    schedule until the plan ends."""

    @staticmethod
    def drive(ex, ego, t, until):
        """Command and step the ego from t while t < until; per command, the
        (t, tracking, busy) after it, tracking meaning that the plan has
        started.  Times advance as the episode clock does."""
        seen = []
        while t < until - 1e-9:
            speed, heading = ex.command(ego, None, t, ROAD)
            tracking = ex.trajectory is not None and ex.traj_t0 <= t + 1e-9
            seen.append((t, tracking, ex.busy()))
            step_kinematics(ego, speed, heading)
            ego.lane = ROAD.lane_of(ego.y)
            t = round(t + config.DT, 9)
        return seen

    @pytest.mark.parametrize("start", [1.0, 0.1 + 0.2], ids=["exact", "float-sum"])
    def test_change_fires_at_the_first_command_at_or_after_its_due_time(self, start):
        """Before its start the ego keeps its lane's center; from it on the
        executor tracks the very plan it was handed, toward its lane."""
        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        plan = lane_change(ego, LEFT, ROAD)
        ex.schedule(start, plan)
        due = round(start, 9)
        before = self.drive(ex, ego, 0.0, due)
        assert (ego.y, ego.target_lane) == (4.0, 1)
        seen = before + self.drive(ex, ego, due, due + 1.0)
        assert [t for t, tracking, _ in seen if tracking][0] == due
        assert ex.trajectory is plan
        assert (ego.target_lane, ex.trajectory.target_lane) == (2, 2)

    def test_busy_from_schedule_until_the_plan_ends(self):
        ex = CavExecutor(cruise_speed=25.0)
        ego = VehicleState(id=0, kind="CAV", x=100.0, y=4.0, speed=25.0,
                           lane=1, target_lane=1)
        assert not ex.busy()
        ex.schedule(0.5, lane_change(ego, LEFT, ROAD))
        assert ex.busy()
        end = 0.5 + lane_change_time(ROAD.lane_width)
        seen = self.drive(ex, ego, 0.0, end + 1.0)
        assert all(busy for t, _, busy in seen if t < end)
        assert not any(busy for t, _, busy in seen if t >= end)
        assert (ex.trajectory, ego.lane, ego.target_lane) == (None, 2, 2)


def cav_at(vid, x, speed=25.0, accel=0.0):
    state = VehicleState(id=vid, kind="CAV", x=x, y=4.0, speed=speed, lane=1, target_lane=1)
    state.accel = accel
    return state


class TestFollowLaw:
    K = solve_lqr_gain(config.DEFAULTS.control)

    def test_feeds_a_cav_leaders_accel_forward(self):
        """At the target gap and speed, a follower takes on its CAV leader's
        acceleration; behind a foreign vehicle at its headway it does not."""
        ego = cav_at(0, 100.0)
        cav_leader = cav_at(1, 100.0 + config.D_TARGET, accel=-0.5)
        assert follow_accel(ego, cav_leader, ROAD, 25.0, self.K) == pytest.approx(-0.5)
        hdv_leader = VehicleState(id=2, x=100.0 + 5.0 + 1.2 * 25.0, y=4.0, speed=25.0,
                                  accel=-0.5, lane=1, target_lane=1)
        assert follow_accel(ego, hdv_leader, ROAD, 25.0, self.K) == 0.0

    @pytest.mark.parametrize("accel,brake,want", [(0.0, True, -0.8), (-1.0, True, -1.8),
                                                  (-3.9, True, -4.0), (3.0, False, 2.0)])
    def test_jerk_stage_then_clamp(self, accel, brake, want):
        """The command moves at most JERK_LIMIT·dt from the current
        acceleration, then is clamped to [-ACCEL_LIMIT, LQR_ACCEL_MAX]: toward
        full braking 1 m behind a stopped CAV, or toward the speed law's
        LQR_ACCEL_MAX on a clear road well below cruise."""
        ego = cav_at(0, 100.0, accel=accel)
        leader = cav_at(1, 106.0, speed=0.0) if brake else None
        assert follow_accel(ego, leader, ROAD, 33.0, self.K) == pytest.approx(want)

    @pytest.mark.parametrize("kind", ["CAV", "HDV"])
    def test_stops_without_a_jerk_spike(self, kind):
        """At 2 m/s, braking at -4 m/s², 1 m behind a stopped car: the
        braking eases off before the car comes to rest, so no frame, the
        last one before rest included, jerks beyond JERK_LIMIT."""
        ex = CavExecutor(cruise_speed=25.0)
        ego = cav_at(0, 100.0, speed=2.0, accel=-4.0)
        stopped = VehicleState(id=1, kind=kind, x=106.0, y=4.0, speed=0.0, lane=1,
                               target_lane=1)
        speeds, jerks = [], []
        t = 0.0
        for _ in range(20):
            speed, heading = ex.command(ego, stopped, t, ROAD)
            step_kinematics(ego, speed, heading)
            speeds.append(ego.speed)
            jerks.append(abs(ego.jerk))
            t = round(t + config.DT, 9)
        assert speeds[6] == 0.0 < min(speeds[:6])
        assert max(jerks) <= config.JERK_LIMIT + 1e-9

    def test_string_stable_behind_a_braking_cav(self):
        """Four followers at the target gap behind a CAV that brakes at
        -4 m/s² for 2 s: no follower's peak spacing error exceeds the first
        follower's, and no bumper gap closes."""
        head = cav_at(0, 200.0)
        followers = [cav_at(i, 200.0 - i * config.D_TARGET) for i in range(1, 5)]
        executors = [CavExecutor(cruise_speed=25.0) for _ in followers]
        chain = [head] + followers
        peak = [0.0] * len(followers)
        min_gap = math.inf
        dt = config.DT
        t = 0.0
        for _ in range(int(20.0 / dt)):
            commands = [ex.command(v, ahead, t, ROAD)
                        for ex, v, ahead in zip(executors, followers, chain)]
            step_kinematics(head, head.speed - (4.0 * dt if t < 2.0 - 1e-9 else 0.0), 0.0)
            for v, (speed, heading) in zip(followers, commands):
                step_kinematics(v, speed, heading)
            for i, (ahead, v) in enumerate(zip(chain, followers)):
                peak[i] = max(peak[i], abs(ahead.x - v.x - config.D_TARGET))
                min_gap = min(min_gap, ahead.x - v.x - 0.5 * (ahead.length + v.length))
            t = round(t + dt, 9)
        assert head.speed == pytest.approx(17.0)
        assert max(peak[1:]) <= peak[0]
        assert min_gap > 0.0
