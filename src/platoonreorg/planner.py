"""Lattice trajectory generation, feasibility checking, and selection.

Only lane changes are planned: a quintic lateral profile (terminal lane
center, zero lateral speed/accel) paired with a quartic longitudinal profile
(terminal speed/accel pinned, terminal position free), both of one
``Polynomial`` type.  Lane keeping has no lattice; it is the executor's
follow law, and the executor ends each plan when its duration has elapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .riskfield import risk_at_point
from .world import Point, moving_box, padded_overlap

KEEP = "keep"
LEFT = "left"
RIGHT = "right"


class PlanningError(ValueError):
    pass


class Polynomial:
    """p(t) = c[0] + c[1] t + ... + c[n] t^n, n <= 5, and its first three derivatives.

    Each derivative keeps its own coefficients, k!/(k-d)! c[k] for the d-th,
    and sums its terms from the constant one up; a derivative of a higher
    order than the degree has none and is left out.
    """

    def __init__(self, c):
        self.c = c
        self._terms = [[math.perm(k, d) * c[k] for k in range(d, len(c))]
                       for d in range(min(len(c), 4))]

    def derivatives(self, t):
        """[p, dp, ddp, dddp] at t, all from one list of the powers ``t ** k``."""
        powers = [1.0, t, t ** 2, t ** 3, t ** 4, t ** 5]
        out = []
        for terms in self._terms:
            value = terms[0]
            for k in range(1, len(terms)):
                value += terms[k] * powers[k]
            out.append(value)
        return out


def _boundary_solve(p0, v0, a0, T, terminal) -> Polynomial:
    """The polynomial with p(0) = p0, p'(0) = v0, p''(0) = a0 and the d-th
    derivative equal to ``value`` at T for each (d, value) of ``terminal``;
    the terminal conditions fix the coefficients of t^3 and up."""
    head = Polynomial([p0, v0, a0 / 2.0])
    powers = range(3, 3 + len(terminal))
    A = np.array([[math.perm(k, d) * T ** (k - d) for k in powers] for d, _ in terminal])
    b = np.array([value - head.derivatives(T)[d] for d, value in terminal])
    return Polynomial(head.c + np.linalg.solve(A, b).tolist())


def quintic(p0, v0, a0, p1, v1, a1, T) -> Polynomial:
    """Position polynomial with all six boundary conditions pinned."""
    return _boundary_solve(p0, v0, a0, T, ((0, p1), (1, v1), (2, a1)))


def quartic(p0, v0, a0, v1, a1, T) -> Polynomial:
    """Position polynomial with terminal speed/accel pinned, position free."""
    return _boundary_solve(p0, v0, a0, T, ((1, v1), (2, a1)))


@dataclass
class TrajectoryCandidate:
    duration: float
    lon: Polynomial | None          # None for the emergency_profile fallback
    lat: Polynomial | None          # None for the emergency_profile fallback
    samples: list = field(default_factory=list)  # (t, x, y, vx, vy, ax, ay, jx, jy)
    target_lane: int = 0

    def sample(self):
        dt = config.DT
        self.samples = []
        n = int(round(self.duration / dt))
        for k in range(n + 1):
            t = k * dt
            x, vx, ax, jx = self.lon.derivatives(t)
            y, vy, ay, jy = self.lat.derivatives(t)
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
        x, vx, _, _ = self.lon.derivatives(t)
        y, vy, _, _ = self.lat.derivatives(t)
        return x, y, vx, vy

    def extended_state(self, t):
        """Like state_at but continues at constant speed past the end, so
        candidates of different durations can be scored on a common horizon."""
        if t <= self.duration:
            return self.state_at(t)
        x, y, vx, vy = self.state_at(self.duration)
        return x + vx * (t - self.duration), y, vx, 0.0


def generate_lattice(state, decision: str, road, cfg=None) -> list:
    """Candidate lane changes for a LEFT or RIGHT decision, one per point of
    the duration x terminal-speed grid.  Lane keeping has no lattice: it is
    the executor's follow law."""
    cfg = cfg or config.DEFAULTS.planner
    if decision not in (LEFT, RIGHT):
        raise PlanningError(f"no lattice for decision {decision!r}: only lane changes are planned")
    target = state.lane + (1 if decision == LEFT else -1)
    if not (0 <= target < road.lane_count):
        raise PlanningError(f"decision {decision} leaves the road from lane {state.lane}")

    vx0 = state.speed * math.cos(state.heading)
    vy0 = state.speed * math.sin(state.heading)
    out = []
    for T in cfg.durations:
        for dv in cfg.speed_offsets:
            v_end = min(max(vx0 + dv, 0.0), road.speed_limit)
            lon = quartic(state.x, vx0, state.ax, v_end, 0.0, T)
            lat = quintic(state.y, vy0, state.ay, road.lane_center(target), 0.0, 0.0, T)
            out.append(TrajectoryCandidate(duration=T, lon=lon, lat=lat,
                                           target_lane=target).sample())
    return out


EMERGENCY_DURATION = 4.0  # length of the braking fallback [s]


def emergency_profile(state) -> TrajectoryCandidate:
    """Jerk-limited straight braking fallback; respects all checker limits."""
    dt = config.DT
    a = state.ax
    v = state.speed * math.cos(state.heading)
    x = state.x
    samples = []
    t = 0.0
    prev_a = a
    for k in range(int(round(EMERGENCY_DURATION / dt)) + 1):
        samples.append((t, x, state.y, v, 0.0, a, 0.0, (a - prev_a) / dt if k else 0.0, 0.0))
        prev_a = a
        a = max(a - 0.9 * config.JERK_LIMIT * dt, -0.9 * config.ACCEL_LIMIT)
        if v + a * dt < 0.0:
            a = -v / dt
        v = max(v + a * dt, 0.0)
        x += v * dt
        t += dt
    return TrajectoryCandidate(duration=EMERGENCY_DURATION, lon=None, lat=None,
                               samples=samples, target_lane=state.lane)


def check_dynamics(candidate: TrajectoryCandidate, road):
    """(passed, reason) of a sampled candidate against the ``config`` accel,
    jerk and lateral-accel limits and the road's lateral extent, from the
    outer edge of lane 0 to that of the last lane."""
    y_min = -0.5 * road.lane_width
    y_max = (road.lane_count - 0.5) * road.lane_width
    for (t, x, y, vx, vy, ax, ay, jx, jy) in candidate.samples:
        if abs(ax) > config.ACCEL_LIMIT:
            return False, f"accel {ax:.2f} at t={t:.1f}"
        if abs(ay) > config.LAT_ACCEL_LIMIT:
            return False, f"lateral accel {ay:.2f} at t={t:.1f}"
        if abs(jx) > config.JERK_LIMIT:
            return False, f"jerk {jx:.2f} at t={t:.1f}"
        if not (y_min <= y <= y_max):
            return False, f"off-road y={y:.2f} at t={t:.1f}"
    return True, ""


ASSESS_HORIZON = 4.5  # common scoring horizon for candidates of any duration [s]
ASSESS_STEP = 0.3
OVERLAP_PAD = (0.5, 0.5)  # padding of the predicted-overlap screen, along and across [m]


def _assess_times() -> tuple:
    times = []
    t = 0.0
    while t <= ASSESS_HORIZON:
        times.append(t)
        t += ASSESS_STEP
    return tuple(times)


ASSESS_TIMES = _assess_times()  # 0, 0.3, ... by accumulation, up to the horizon


def select_trajectory(candidates, ego, others, road, cfg=None):
    """Best passing candidate by weighted safety/efficiency/comfort cost.

    The scene is predicted once, at constant velocity: the others' boxes for
    the overlap screen and their poses at each of ``ASSESS_TIMES`` for the
    risk field.  Each candidate's poses at those times serve both.
    Candidates that overlap the scene are only eligible when nothing else
    passes; ties break toward shorter durations.  Falls back to the
    emergency braking profile when no candidate passes the dynamics check.
    """
    cfg = cfg or config.DEFAULTS.planner
    risk_params = config.DEFAULTS.risk
    passing = [c for c in candidates if check_dynamics(c, road)[0]]
    if not passing:
        return emergency_profile(ego)

    boxes = [moving_box(o) for o in others]
    scene = [[Point(o.x + o.speed * math.cos(o.heading) * t, o.y, o.speed) for o in others]
             for t in ASSESS_TIMES]
    half_len = ego.length / 2.0
    half_wid = ego.width / 2.0

    def overlaps(poses):
        return any(padded_overlap(x, y, half_len, half_wid, boxes, t, *OVERLAP_PAD)
                   for t, (x, y, _, _) in zip(ASSESS_TIMES, poses))

    def cost(cand: TrajectoryCandidate, poses):
        # risk and efficiency over the common horizon (constant-velocity
        # continuation past the plan end); comfort over the plan itself
        peak_risk = max(risk_at_point(x, y, points, risk_params)
                        for (x, y, _, _), points in zip(poses, scene))
        speed_sum = 0.0
        for _, _, vx, vy in poses:
            speed_sum += math.hypot(vx, vy)
        jerk_sq = 0.0
        stride = max(1, len(cand.samples) // 10)
        picks = cand.samples[::stride]
        for (_t, _x, _y, _vx, _vy, _ax, _ay, jx, jy) in picks:
            jerk_sq += jx * jx + jy * jy
        mean_speed = speed_sum / len(poses)
        mean_jerk_sq = jerk_sq / len(picks)
        v_max = road.speed_limit
        return (cfg.w_safety * peak_risk
                + cfg.w_efficiency * (v_max - mean_speed) / v_max
                + cfg.w_comfort * mean_jerk_sq)

    assessed = [(c, [c.extended_state(t) for t in ASSESS_TIMES]) for c in passing]
    pool = [(c, poses) for c, poses in assessed if not overlaps(poses)] or assessed
    return min(pool, key=lambda pair: (cost(*pair), pair[0].duration))[0]
