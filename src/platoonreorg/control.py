"""Low-level control: one longitudinal and one lateral law for every CAV.

``follow_accel`` is the only longitudinal law of a platoon member (Ploeg et
al. 2011's CACC structure over an LQR spacing law): the executor calls it
whether or not it tracks a lane-change plan, and the coalition game's
rollout moves members with it, so the game predicts the law that runs.
``CavExecutor.command`` feeds it the vehicle ahead in the member's corridor
and steers by lateral acceleration, along a lane-change plan while it
tracks one, toward its lane's center otherwise.

The executor owns its member's lane change from the vehicle layer's
``schedule`` to the plan's end.  The plan it is handed is the one the game
made, checked and rolled out (``GameScene.lane_change``); the executor makes
and checks none.  The first command at or after the plan's start begins
tracking it, and the first command once its duration has elapsed ends it.
``busy`` covers both, so the game waits for it.

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
    (A = [[1, h], [0, 1]], B = [h²/2, h]); the input is ego acceleration,
    weighted R = 1, the unit of ``gains``' state weights Q.  P is symmetric,
    so three floats carry it, and R + BᵀPB is 1×1.  The iteration
    stops once no entry of P moves by more than max(1e-12, 1e-14·max|P|).
    """
    h, b0 = config.DT, 0.5 * config.DT * config.DT
    q00, q11 = gains.lqr_q_gap, gains.lqr_q_speed
    p00, p01, p11 = q00, 0.0, q11
    for _ in range(20000):
        bp0, bp1 = b0 * p00 + h * p01, b0 * p01 + h * p11  # BᵀP
        s = 1.0 + bp0 * b0 + bp1 * h
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


def lqr_longitudinal(pos_err: float, speed_err: float, K, feedforward: float = 0.0) -> float:
    """Acceleration command for [position error, speed error] plus a
    feedforward acceleration, unclamped: ``follow_accel`` clamps its result."""
    return feedforward - (K[0] * pos_err + K[1] * speed_err)


def follow_accel(state, leader, road, cruise_speed: float, K, dt: float = config.DT) -> float:
    """The longitudinal law of a CAV: its acceleration over the next ``dt`` s.

    ``state`` and ``leader`` (the nearest vehicle ahead in the ego's corridor,
    or None) read as ``VehicleState``s.  The lower of two LQR laws wins:
    - the speed law tracks the road's limit behind a platoon member, so a
      follower can close up to ``config.D_TARGET``, and ``cruise_speed``
      behind a foreign vehicle or on a clear road;
    - the gap law tracks ``config.D_TARGET`` behind a CAV, feeding its
      leader's ``accel`` forward (the V2V term of CACC), and a ``5 + 1.2 v``
      headway behind a foreign vehicle.
    A leader closer than 1.5 s time-to-collision asks for full braking.  Last,
    the command moves at most ``config.JERK_LIMIT · dt`` from ``state.accel``,
    brakes no harder than a stop within that jerk step allows, and is clamped
    to ``[-config.ACCEL_LIMIT, config.LQR_ACCEL_MAX]``.
    """
    platoon_ahead = leader is not None and leader.kind == CAV
    set_speed = road.speed_limit if platoon_ahead else cruise_speed
    accel = lqr_longitudinal(0.0, state.speed - set_speed, K)
    if leader is not None:
        gap = config.D_TARGET if platoon_ahead else 5.0 + 1.2 * state.speed
        accel = min(accel, lqr_longitudinal(state.x - (leader.x - gap),
                                            state.speed - leader.speed, K,
                                            leader.accel if platoon_ahead else 0.0))
        if compute_ttc(state, leader) < 1.5:
            accel = -config.ACCEL_LIMIT
    step = config.JERK_LIMIT * dt
    accel = min(max(accel, state.accel - step), state.accel + step)
    # braking that eases off by ``step`` a frame to rest sheds step·dt·n(n+1)/2
    # in n frames; braking beyond that ramp (linear between n) stops with a jerk
    u = state.speed / (step * dt)
    n = math.floor((math.sqrt(8.0 * u + 1.0) - 1.0) / 2.0)
    accel = max(accel, -step * (u / (n + 1) + n / 2))
    return min(max(accel, -config.ACCEL_LIMIT), config.LQR_ACCEL_MAX)


@dataclass
class CavExecutor:
    """Per-CAV execution state: the lane-change plan it tracks, if any
    (``trajectory``, started at ``traj_t0``, which may lie ahead)."""

    cruise_speed: float
    gains: config.ControlConfig = config.DEFAULTS.control
    K: tuple = field(init=False)
    trajectory: TrajectoryCandidate | None = field(default=None, init=False)
    traj_t0: float = field(default=0.0, init=False)

    def __post_init__(self):
        self.K = solve_lqr_gain(self.gains)

    def schedule(self, t0: float, plan: TrajectoryCandidate):
        """Track ``plan`` from the first command at or after ``t0``."""
        self.trajectory, self.traj_t0 = plan, t0

    def busy(self) -> bool:
        """Whether a lane-change plan is scheduled or being tracked."""
        return self.trajectory is not None

    def command(self, state, leader, t_now: float, road):
        """(next_speed, next_heading) for one ``config.DT`` physics step.

        ``leader`` is the nearest vehicle ahead in the ego's corridor, or None.
        The acceleration is always ``follow_accel``, TTC brake and jerk stage
        included.  Steering asks for the lateral acceleration
        ``ay_ref + ω²·(y_ref − y) + 2ζω·(vy_ref − vy)`` toward the plan's
        lateral state from the plan's start on, which sets
        ``state.target_lane`` to the plan's, else toward the center of
        ``state.target_lane`` at rest, through the heading rate that gives it
        at the ego's speed; the lateral speed then moves at most
        ``config.LAT_ACCEL_LIMIT · DT`` per step.
        Once the plan's duration has elapsed the executor ends it before
        commanding, with ``state.target_lane`` set to the lane the vehicle
        is in.
        """
        traj = self.trajectory
        if traj is not None and t_now - self.traj_t0 >= traj.duration:
            traj = self.trajectory = None
            state.target_lane = state.lane
        if traj is not None and self.traj_t0 <= t_now + 1e-9:
            state.target_lane = traj.target_lane
            y_ref, vy_ref, ay_ref = traj.state_at(t_now - self.traj_t0)
        else:
            y_ref, vy_ref, ay_ref = road.lane_center(state.target_lane), 0.0, 0.0
        g = self.gains
        vy = state.speed * math.sin(state.heading)
        ay = (ay_ref + g.lat_omega ** 2 * (y_ref - state.y)
              + 2.0 * g.lat_zeta * g.lat_omega * (vy_ref - vy))
        rate = ay / (max(state.speed, 1.0) * math.cos(state.heading))
        rate = min(max(rate, -config.STEER_RATE_LIMIT), config.STEER_RATE_LIMIT)
        accel = follow_accel(state, leader, road, self.cruise_speed, self.K)

        speed = max(state.speed + accel * config.DT, 0.0)
        heading = state.heading + rate * config.DT
        if speed > 0.0:
            # lateral stage: the lateral speed moves at most LAT_ACCEL_LIMIT·DT
            reach = config.LAT_ACCEL_LIMIT * config.DT
            lo, hi = (math.asin(min(max((vy + d) / speed, -1.0), 1.0))
                      for d in (-reach, reach))
            heading = min(max(heading, lo), hi)
        heading = min(max(heading, -config.HEADING_LIMIT), config.HEADING_LIMIT)
        return speed, heading
