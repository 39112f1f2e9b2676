"""Low-level tracking: one LQR gap/speed law per CAV and PID steering.

``CavExecutor.command`` is the only longitudinal law of a platoon member:
the episode loop hands it the vehicle ahead in the member's corridor, and
it returns the next speed and heading, with the time-to-collision brake
applied in both follow and track mode.  A plan starts with
``start_trajectory`` and ends inside ``command``, at the first command after
its duration has elapsed; lane keeping is the follow law, never a plan.

The LQR gain is solved once per ``ControlConfig``, in plain float arithmetic,
and memoised, so every executor built with the same gains shares one tuple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import config
from .planner import TrajectoryCandidate
from .world import CAV, compute_ttc


class ControlError(RuntimeError):
    pass


@functools.cache
def solve_lqr_gain(gains: config.ControlConfig) -> tuple:
    """Discrete Riccati iteration for the double-integrator error model.

    State is [position error, speed error] over one step h = ``config.DT``
    (A = [[1, h], [0, 1]], B = [h²/2, h]); the input is ego acceleration.  P is
    symmetric, so three floats carry it, and R + BᵀPB is 1×1.  The iteration
    stops once no entry of P moves by more than max(1e-12, 1e-14·max|P|).
    """
    h, b0 = config.DT, 0.5 * config.DT * config.DT
    q00, q11, r = gains.lqr_q_gap, gains.lqr_q_speed, gains.lqr_r
    p00, p01, p11 = q00, 0.0, q11
    for _ in range(20000):
        bp0, bp1 = b0 * p00 + h * p01, b0 * p01 + h * p11  # BᵀP
        s = r + bp0 * b0 + bp1 * h
        k0, k1 = bp0 / s, (bp0 * h + bp1) / s
        c00, c01, c10, c11 = 1.0 - b0 * k0, h - b0 * k1, -h * k0, 1.0 - h * k1  # A - BK
        n00 = q00 + p00 * c00 + p01 * c10  # P' = Q + AᵀP(A - BK)
        n01 = p00 * c01 + p01 * c11
        n11 = q11 + (h * p00 + p01) * c01 + (h * p01 + p11) * c11
        step = max(abs(n00 - p00), abs(n01 - p01), abs(n11 - p11))
        p00, p01, p11 = n00, n01, n11
        if step < max(1e-12, 1e-14 * max(abs(p00), abs(p01), abs(p11))):
            if not schur_stable(c00 + c11, c00 * c11 - c01 * c10):
                raise ControlError("LQR gain is not stabilizing")
            return (k0, k1)
    raise ControlError("Riccati iteration did not converge")


def schur_stable(trace: float, det: float) -> bool:
    """Whether both eigenvalues of a real 2×2 matrix lie inside the unit circle:
    the Jury (Schur–Cohn) test on z² − trace·z + det (E. I. Jury, 1964)."""
    return abs(det) < 1.0 and abs(trace) < 1.0 + det


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
