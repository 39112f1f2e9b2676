"""Low-level tracking: LQR gap/speed regulation and PID steering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .planner import TrajectoryCandidate


class ControlError(RuntimeError):
    pass


def solve_lqr_gain(gains: config.ControlConfig, dt: float = config.DT):
    """Discrete Riccati iteration for the double-integrator error model.

    State is [position error, speed error]; the input is ego acceleration.
    """
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    Q = np.diag([gains.lqr_q_gap, gains.lqr_q_speed])
    R = np.array([[gains.lqr_r]])
    P = Q.copy()
    for _ in range(20000):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ K)
        if np.max(np.abs(P_next - P)) < 1e-12:
            closed = A - B @ K
            if max(abs(np.linalg.eigvals(closed))) >= 1.0:
                raise ControlError("LQR gain is not stabilizing")
            return K.ravel()
        P = P_next
    raise ControlError("Riccati iteration did not converge")


def lqr_longitudinal(pos_err: float, speed_err: float, K,
                     a_min: float = config.LQR_ACCEL_MIN,
                     a_max: float = config.LQR_ACCEL_MAX) -> float:
    """Acceleration command for [position error, speed error], clamped."""
    u = -(K[0] * pos_err + K[1] * speed_err)
    return min(max(u, a_min), a_max)


@dataclass
class PidState:
    integral: float = 0.0
    integral_limit: float = 5.0


def pid_steering(lateral_err: float, heading: float, pid: PidState,
                 gains: config.ControlConfig, dt: float = config.DT,
                 heading_ref: float = 0.0,
                 rate_limit: float = config.STEER_RATE_LIMIT) -> float:
    """Heading-rate command from lateral error with heading damping."""
    pid.integral += lateral_err * dt
    pid.integral = min(max(pid.integral, -pid.integral_limit), pid.integral_limit)
    rate = (gains.pid_kp * lateral_err + gains.pid_ki * pid.integral
            - gains.pid_kd * (heading - heading_ref))
    return min(max(rate, -rate_limit), rate_limit)


FOLLOW = "follow"
TRACK = "track"


@dataclass
class CavExecutor:
    """Per-CAV execution state: either gap-following or trajectory tracking."""

    gains: config.ControlConfig = config.DEFAULTS.control
    K: tuple = None
    pid: PidState = field(default_factory=PidState)
    mode: str = FOLLOW
    trajectory: TrajectoryCandidate | None = None
    traj_t0: float = 0.0
    cruise_speed: float = 25.0
    d_target: float = config.D_TARGET

    def __post_init__(self):
        if self.K is None:
            self.K = tuple(solve_lqr_gain(self.gains).tolist())

    def start_trajectory(self, traj: TrajectoryCandidate, t_now: float):
        self.trajectory = traj
        self.traj_t0 = t_now
        self.mode = TRACK
        self.pid.integral = 0.0

    def tracking_done(self, t_now: float) -> bool:
        return self.mode == TRACK and (t_now - self.traj_t0) >= self.trajectory.duration

    def finish_trajectory(self):
        self.mode = FOLLOW
        self.trajectory = None
        self.pid.integral = 0.0

    def command(self, state, leader, t_now: float, road, dt: float = config.DT,
                d_ref: float | None = None):
        """(next_speed, next_heading) for one physics step.

        follow mode: LQR on the gap/speed error toward the leader (or cruise
        speed when the lane ahead is clear), lane-center steering.  ``d_ref``
        overrides the gap target (foreign leaders get a speed-based headway).
        track mode: LQR on the trajectory reference, PID toward its path.
        """
        if self.mode == TRACK and self.trajectory is not None:
            tau = t_now - self.traj_t0
            x_ref, y_ref, vx_ref, vy_ref = self.trajectory.state_at(tau)
            accel = lqr_longitudinal(state.x - x_ref, state.vx - vx_ref, self.K)
            heading_ref = math.atan2(vy_ref, max(vx_ref, 1.0))
            rate = pid_steering(y_ref - state.y, state.heading, self.pid,
                                self.gains, dt, heading_ref=heading_ref)
        else:
            if leader is not None:
                gap_target = d_ref if d_ref is not None else self.d_target
                gap_err = state.x - (leader.x - gap_target)
                accel = lqr_longitudinal(gap_err, state.speed - leader.speed, self.K)
                if leader.speed >= self.cruise_speed and gap_err < -5.0:
                    # leader faster and far: resume cruise instead of chasing
                    accel = max(accel, lqr_longitudinal(
                        0.0, state.speed - self.cruise_speed, self.K))
            else:
                accel = lqr_longitudinal(0.0, state.speed - self.cruise_speed, self.K)
            y_ref = road.lane_center(state.target_lane)
            rate = pid_steering(y_ref - state.y, state.heading, self.pid, self.gains, dt)

        speed = max(state.speed + accel * dt, 0.0)
        heading = state.heading + rate * dt
        heading = min(max(heading, -0.35), 0.35)
        return speed, heading
