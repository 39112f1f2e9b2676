"""Lattice trajectory generation, feasibility checking, and selection.

Lane changes use a quintic lateral profile (terminal lane center, zero
lateral speed/accel) paired with a quartic longitudinal profile (terminal
speed/accel pinned, terminal position free).  Keep-lane decisions emit
longitudinal-only candidates on the same duration/terminal-speed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .riskfield import risk_contribution
from .world import moving_box, padded_overlap

KEEP = "keep"
LEFT = "left"
RIGHT = "right"


class PlanningError(ValueError):
    pass


class QuinticProfile:
    """Position polynomial with all six boundary conditions pinned."""

    def __init__(self, p0, v0, a0, p1, v1, a1, T):
        self.c = [p0, v0, a0 / 2.0, 0.0, 0.0, 0.0]
        A = np.array([
            [T ** 3, T ** 4, T ** 5],
            [3 * T ** 2, 4 * T ** 3, 5 * T ** 4],
            [6 * T, 12 * T ** 2, 20 * T ** 3],
        ])
        b = np.array([
            p1 - (self.c[0] + self.c[1] * T + self.c[2] * T ** 2),
            v1 - (self.c[1] + 2 * self.c[2] * T),
            a1 - 2 * self.c[2],
        ])
        self.c[3:] = np.linalg.solve(A, b).tolist()

    def pos(self, t):
        c = self.c
        return c[0] + c[1] * t + c[2] * t ** 2 + c[3] * t ** 3 + c[4] * t ** 4 + c[5] * t ** 5

    def vel(self, t):
        c = self.c
        return c[1] + 2 * c[2] * t + 3 * c[3] * t ** 2 + 4 * c[4] * t ** 3 + 5 * c[5] * t ** 4

    def acc(self, t):
        c = self.c
        return 2 * c[2] + 6 * c[3] * t + 12 * c[4] * t ** 2 + 20 * c[5] * t ** 3

    def jerk(self, t):
        c = self.c
        return 6 * c[3] + 24 * c[4] * t + 60 * c[5] * t ** 2


class QuarticProfile:
    """Position polynomial with terminal speed/accel pinned, position free."""

    def __init__(self, p0, v0, a0, v1, a1, T):
        self.c = [p0, v0, a0 / 2.0, 0.0, 0.0]
        A = np.array([
            [3 * T ** 2, 4 * T ** 3],
            [6 * T, 12 * T ** 2],
        ])
        b = np.array([
            v1 - (self.c[1] + 2 * self.c[2] * T),
            a1 - 2 * self.c[2],
        ])
        self.c[3:] = np.linalg.solve(A, b).tolist()

    def pos(self, t):
        c = self.c
        return c[0] + c[1] * t + c[2] * t ** 2 + c[3] * t ** 3 + c[4] * t ** 4

    def vel(self, t):
        c = self.c
        return c[1] + 2 * c[2] * t + 3 * c[3] * t ** 2 + 4 * c[4] * t ** 3

    def acc(self, t):
        c = self.c
        return 2 * c[2] + 6 * c[3] * t + 12 * c[4] * t ** 2

    def jerk(self, t):
        c = self.c
        return 6 * c[3] + 24 * c[4] * t


@dataclass
class TrajectoryCandidate:
    duration: float
    lon: QuarticProfile | None      # None for the emergency_profile fallback
    lat: QuinticProfile | None      # None for pure longitudinal motion
    lat_y: float = 0.0              # constant lateral position when lat is None
    samples: list = field(default_factory=list)  # (t, x, y, vx, vy, ax, ay, jx, jy)
    target_lane: int = 0

    def sample(self, dt=config.DT):
        self.samples = []
        n = int(round(self.duration / dt))
        for k in range(n + 1):
            t = k * dt
            x = self.lon.pos(t)
            vx = self.lon.vel(t)
            ax = self.lon.acc(t)
            jx = self.lon.jerk(t)
            if self.lat is None:
                y, vy, ay, jy = self.lat_y, 0.0, 0.0, 0.0
            else:
                y, vy, ay, jy = (self.lat.pos(t), self.lat.vel(t),
                                 self.lat.acc(t), self.lat.jerk(t))
            self.samples.append((t, x, y, vx, vy, ax, ay, jx, jy))
        return self

    def state_at(self, t):
        """Reference (x, y, vx, vy) at an arbitrary time inside the horizon.

        Without a longitudinal profile (``emergency_profile``) the reference
        is the precomputed sample nearest to ``t``.
        """
        t = min(max(t, 0.0), self.duration)
        if self.lon is None:
            _, x, y, vx, vy, *_ = self.samples[int(round(t / config.DT))]
            return x, y, vx, vy
        x, vx = self.lon.pos(t), self.lon.vel(t)
        if self.lat is None:
            return x, self.lat_y, vx, 0.0
        return x, self.lat.pos(t), vx, self.lat.vel(t)

    def extended_state(self, t):
        """Like state_at but continues at constant speed past the end, so
        candidates of different durations can be scored on a common horizon."""
        if t <= self.duration:
            return self.state_at(t)
        x, y, vx, vy = self.state_at(self.duration)
        return x + vx * (t - self.duration), y, vx, 0.0


@dataclass(frozen=True)
class DynamicsLimits:
    y_min: float
    y_max: float
    accel: float = config.ACCEL_LIMIT
    jerk: float = config.JERK_LIMIT
    lat_accel: float = config.LAT_ACCEL_LIMIT

    @classmethod
    def for_road(cls, road) -> "DynamicsLimits":
        """Default limits with the road's lateral extent: the outer edges of
        lane 0 and of the last lane."""
        return cls(y_min=-0.5 * road.lane_width,
                   y_max=(road.lane_count - 0.5) * road.lane_width)


def generate_lattice(state, decision: str, road, cfg=None) -> list:
    """Candidate trajectories for one lateral decision.

    Lane changes span the duration x terminal-speed grid; keep-lane uses the
    same grid with no lateral profile.
    """
    cfg = cfg or config.DEFAULTS.planner
    lane = state.lane
    if decision == LEFT:
        target = lane + 1
    elif decision == RIGHT:
        target = lane - 1
    else:
        target = lane
    if not (0 <= target < road.lane_count):
        raise PlanningError(f"decision {decision} leaves the road from lane {lane}")

    vx0 = state.speed * math.cos(state.heading)
    vy0 = state.speed * math.sin(state.heading)
    out = []
    for T in cfg.durations:
        for dv in cfg.speed_offsets:
            v_end = min(max(vx0 + dv, 0.0), road.speed_limit)
            lon = QuarticProfile(state.x, vx0, state.ax, v_end, 0.0, T)
            if decision == KEEP:
                cand = TrajectoryCandidate(duration=T, lon=lon, lat=None,
                                           lat_y=state.y, target_lane=target)
            else:
                lat = QuinticProfile(state.y, vy0, state.ay,
                                     road.lane_center(target), 0.0, 0.0, T)
                cand = TrajectoryCandidate(duration=T, lon=lon, lat=lat,
                                           target_lane=target)
            out.append(cand.sample())
    return out


def emergency_profile(state, road, duration: float = 4.0) -> TrajectoryCandidate:
    """Jerk-limited straight braking fallback; respects all checker limits."""
    dt = config.DT
    a = state.ax
    v = state.speed * math.cos(state.heading)
    x = state.x
    cand = TrajectoryCandidate(duration=duration, lon=None, lat=None,
                               lat_y=state.y, target_lane=state.lane)
    samples = []
    t = 0.0
    n = int(round(duration / dt))
    prev_a = a
    for k in range(n + 1):
        samples.append((t, x, state.y, v, 0.0, a, 0.0, (a - prev_a) / dt if k else 0.0, 0.0))
        prev_a = a
        a = max(a - 0.9 * config.JERK_LIMIT * dt, -0.9 * config.ACCEL_LIMIT)
        if v + a * dt < 0.0:
            a = -v / dt
        v = max(v + a * dt, 0.0)
        x += v * dt
        t += dt
    cand.samples = samples
    return cand


def check_dynamics(candidate: TrajectoryCandidate, limits: DynamicsLimits):
    """(passed, reason) against accel/jerk/lateral-accel/road-extent limits."""
    if not candidate.samples:
        candidate.sample()
    for (t, x, y, vx, vy, ax, ay, jx, jy) in candidate.samples:
        if abs(ax) > limits.accel:
            return False, f"accel {ax:.2f} at t={t:.1f}"
        if abs(ay) > limits.lat_accel:
            return False, f"lateral accel {ay:.2f} at t={t:.1f}"
        if abs(jx) > limits.jerk:
            return False, f"jerk {jx:.2f} at t={t:.1f}"
        if not (limits.y_min <= y <= limits.y_max):
            return False, f"off-road y={y:.2f} at t={t:.1f}"
    return True, ""


ASSESS_HORIZON = 4.5  # common scoring horizon for candidates of any duration [s]
ASSESS_STEP = 0.3
OVERLAP_PAD = (0.5, 0.5)  # padding of the predicted-overlap screen, along and across [m]


def _predicted_overlap(candidate: TrajectoryCandidate, ego, others) -> bool:
    boxes = [moving_box(o) for o in others]
    half_len = ego.length / 2.0
    half_wid = ego.width / 2.0
    t = 0.0
    while t <= ASSESS_HORIZON:
        x, y, _, _ = candidate.extended_state(t)
        if padded_overlap(x, y, half_len, half_wid, boxes, t, *OVERLAP_PAD):
            return True
        t += ASSESS_STEP
    return False


def select_trajectory(candidates, ego, others, road, cfg=None):
    """Best passing candidate by weighted safety/efficiency/comfort cost.

    Candidates that collide with constant-velocity predictions of the scene
    are only eligible when nothing else passes; ties break toward shorter
    durations.  Falls back to the emergency braking profile when no
    candidate passes the dynamics check.
    """
    cfg = cfg or config.DEFAULTS.planner
    risk_params = config.DEFAULTS.risk
    limits = DynamicsLimits.for_road(road)
    passing = []
    for cand in candidates:
        ok, _ = check_dynamics(cand, limits)
        if ok:
            passing.append(cand)
    if not passing:
        return emergency_profile(ego, road)

    clear = [c for c in passing if not _predicted_overlap(c, ego, others)]
    pool = clear if clear else passing

    def cost(cand: TrajectoryCandidate):
        # risk and efficiency over the common horizon (constant-velocity
        # continuation past the plan end); comfort over the plan itself
        peak_risk = 0.0
        speed_sum = 0.0
        n = 0
        t = 0.0
        while t <= ASSESS_HORIZON:
            x, y, vx, vy = cand.extended_state(t)
            for o in others:
                ox = o.x + o.speed * math.cos(o.heading) * t
                r = risk_contribution(ox - x, o.y - y, o.speed, risk_params)
                if r > peak_risk:
                    peak_risk = r
            speed_sum += math.hypot(vx, vy)
            n += 1
            t += ASSESS_STEP
        jerk_sq = 0.0
        stride = max(1, len(cand.samples) // 10)
        picks = cand.samples[::stride]
        for (_t, _x, _y, _vx, _vy, _ax, _ay, jx, jy) in picks:
            jerk_sq += jx * jx + jy * jy
        mean_speed = speed_sum / n
        mean_jerk_sq = jerk_sq / len(picks)
        v_max = road.speed_limit
        return (cfg.w_safety * peak_risk
                + cfg.w_efficiency * (v_max - mean_speed) / v_max
                + cfg.w_comfort * mean_jerk_sq)

    pool.sort(key=lambda c: (cost(c), c.duration))
    return pool[0]
