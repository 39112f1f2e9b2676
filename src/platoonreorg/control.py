"""Low-level tracking: one LQR gap/speed law per CAV and PID steering.

``CavExecutor.command`` is the only longitudinal law of a platoon member:
the episode loop hands it the vehicle ahead in the member's corridor, and
it returns the next speed and heading, with the time-to-collision brake
applied in both follow and track mode.  A plan starts with
``start_trajectory`` and ends inside ``command``, at the first command after
its duration has elapsed; lane keeping is the follow law, never a plan.

The LQR gain is solved once per ``ControlConfig`` and memoised, so every
executor built with the same gains shares one immutable gain tuple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .planner import TrajectoryCandidate
from .world import CAV, compute_ttc


class ControlError(RuntimeError):
    pass


@functools.cache
def solve_lqr_gain(gains: config.ControlConfig) -> tuple:
    """Discrete Riccati iteration for the double-integrator error model.

    State is [position error, speed error] over one ``config.DT`` step; the
    input is ego acceleration.  Returns the gain as a tuple of floats.
    """
    A = np.array([[1.0, config.DT], [0.0, 1.0]])
    B = np.array([[0.5 * config.DT * config.DT], [config.DT]])
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
            return tuple(K.ravel().tolist())
        P = P_next
    raise ControlError("Riccati iteration did not converge")


def lqr_longitudinal(pos_err: float, speed_err: float, K) -> float:
    """Acceleration command for [position error, speed error], clamped."""
    u = -(K[0] * pos_err + K[1] * speed_err)
    return min(max(u, config.LQR_ACCEL_MIN), config.LQR_ACCEL_MAX)


@dataclass
class PidState:
    integral: float = 0.0


def pid_steering(lateral_err: float, heading: float, pid: PidState,
                 gains: config.ControlConfig, heading_ref: float = 0.0) -> float:
    """Heading-rate command from lateral error with heading damping."""
    pid.integral += lateral_err * config.DT
    pid.integral = min(max(pid.integral, -config.PID_INTEGRAL_LIMIT), config.PID_INTEGRAL_LIMIT)
    rate = (gains.pid_kp * lateral_err + gains.pid_ki * pid.integral
            - gains.pid_kd * (heading - heading_ref))
    return min(max(rate, -config.STEER_RATE_LIMIT), config.STEER_RATE_LIMIT)


FOLLOW = "follow"
TRACK = "track"


@dataclass
class CavExecutor:
    """Per-CAV execution state: either gap-following or trajectory tracking."""

    cruise_speed: float
    gains: config.ControlConfig = config.DEFAULTS.control
    K: tuple = field(init=False)
    pid: PidState = field(default_factory=PidState)
    mode: str = FOLLOW
    trajectory: TrajectoryCandidate | None = None
    traj_t0: float = 0.0

    def __post_init__(self):
        self.K = solve_lqr_gain(self.gains)

    def start_trajectory(self, traj: TrajectoryCandidate, t_now: float):
        self.trajectory = traj
        self.traj_t0 = t_now
        self.mode = TRACK
        self.pid.integral = 0.0

    def command(self, state, leader, t_now: float, road):
        """(next_speed, next_heading) for one ``config.DT`` physics step: the
        one longitudinal law of a CAV.

        ``leader`` is the nearest vehicle ahead in the ego's corridor, or None.
        follow mode: the lower of two LQR laws, lane-center steering.  The
        speed law tracks the road's limit behind a platoon member, so a
        follower can close up to ``config.D_TARGET``, and ``cruise_speed``
        behind a foreign vehicle or on a clear road.  The gap law tracks
        ``config.D_TARGET`` behind a CAV and a ``5 + 1.2 v`` headway behind a
        foreign vehicle.
        track mode: LQR on the trajectory reference, PID toward its path.
        Once the plan's duration has elapsed the executor ends it before
        commanding: back to follow mode, with ``state.target_lane`` set to
        the lane the vehicle is in.
        In both modes a leader closer than 1.5 s time-to-collision forces
        full braking.
        """
        if self.mode == TRACK and t_now - self.traj_t0 >= self.trajectory.duration:
            self.mode = FOLLOW
            self.trajectory = None
            self.pid.integral = 0.0
            state.target_lane = state.lane
        if self.mode == TRACK:
            tau = t_now - self.traj_t0
            x_ref, y_ref, vx_ref, vy_ref = self.trajectory.state_at(tau)
            accel = lqr_longitudinal(state.x - x_ref, state.vx - vx_ref, self.K)
            heading_ref = math.atan2(vy_ref, max(vx_ref, 1.0))
            rate = pid_steering(y_ref - state.y, state.heading, self.pid,
                                self.gains, heading_ref=heading_ref)
        else:
            platoon_ahead = leader is not None and leader.kind == CAV
            set_speed = road.speed_limit if platoon_ahead else self.cruise_speed
            accel = lqr_longitudinal(0.0, state.speed - set_speed, self.K)
            if leader is not None:
                gap = config.D_TARGET if platoon_ahead else 5.0 + 1.2 * state.speed
                accel = min(accel, lqr_longitudinal(state.x - (leader.x - gap),
                                                    state.speed - leader.speed, self.K))
            y_ref = road.lane_center(state.target_lane)
            rate = pid_steering(y_ref - state.y, state.heading, self.pid, self.gains)
        if leader is not None and compute_ttc(state, leader) < 1.5:
            accel = -config.ACCEL_LIMIT

        speed = max(state.speed + accel * config.DT, 0.0)
        heading = state.heading + rate * config.DT
        heading = min(max(heading, -0.35), 0.35)
        return speed, heading
