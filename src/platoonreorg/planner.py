"""Lane-change planning: a lateral lattice, its feasibility check and selection.

Only lane changes are planned, and only laterally, as in the decoupled
Frenét lattice of Werling et al. 2010: one quintic per duration toward the
target lane's center, with zero lateral speed and acceleration at its end.
The longitudinal motion is the executor's follow law, so each candidate
shares one straight line ``x0 + vx0 t`` that selection scores poses on.
Lane keeping has no lattice; it is the follow law, and the executor ends
each plan when its duration has elapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import config
from .riskfield import risk_at_point
from .world import padded_overlap, predict

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


def quintic(p0, v0, a0, p1, v1, a1, T) -> Polynomial:
    """Position polynomial with all six boundary conditions pinned.

    The head p0 + v0 t + a0/2 t² meets the start; the coefficients of t³..t⁵
    close the gaps (dp, dv, da) the head leaves at T, from the closed-form
    inverse of their 3×3 system.
    """
    c = [p0, v0, a0 / 2.0]
    dp = p1 - (c[0] + c[1] * T + c[2] * T ** 2)
    dv = v1 - (c[1] + 2 * c[2] * T)
    da = a1 - 2 * c[2]
    return Polynomial(c + [(10 * dp - 4 * dv * T + 0.5 * da * T ** 2) / T ** 3,
                           (-15 * dp + 7 * dv * T - da * T ** 2) / T ** 4,
                           (6 * dp - 3 * dv * T + 0.5 * da * T ** 2) / T ** 5])


@dataclass
class TrajectoryCandidate:
    duration: float
    lon: Polynomial | None          # x0 + vx0 t, scored on; None for the hold_lane fallback
    lat: Polynomial | None          # None for the hold_lane fallback
    samples: list = field(default_factory=list)  # (t, y, vy, ay, jy)
    target_lane: int = 0

    def sample(self):
        n = int(round(self.duration / config.DT))
        self.samples = [(k * config.DT, *self.lat.derivatives(k * config.DT))
                        for k in range(n + 1)]
        return self

    def state_at(self, t):
        """Lateral reference (y, vy) at a time inside the plan, clamped to it."""
        y, vy, _, _ = self.lat.derivatives(min(max(t, 0.0), self.duration))
        return y, vy

    def pose_at(self, t):
        """(x, y) on the scoring line, holding the target lane past the plan's
        end, so candidates of different durations can be scored on a common
        horizon."""
        return self.lon.derivatives(t)[0], self.state_at(t)[0]


def generate_lattice(state, decision: str, road, cfg=None) -> list:
    """Candidate lane changes for a LEFT or RIGHT decision, one per duration.
    Lane keeping has no lattice: it is the executor's follow law."""
    cfg = cfg or config.DEFAULTS.planner
    if decision not in (LEFT, RIGHT):
        raise PlanningError(f"no lattice for decision {decision!r}: only lane changes are planned")
    target = state.lane + (1 if decision == LEFT else -1)
    if not (0 <= target < road.lane_count):
        raise PlanningError(f"decision {decision} leaves the road from lane {state.lane}")

    lon = Polynomial([state.x, state.speed * math.cos(state.heading)])
    vy0 = state.speed * math.sin(state.heading)
    return [TrajectoryCandidate(duration=T, lon=lon, target_lane=target,
                                lat=quintic(state.y, vy0, state.ay, road.lane_center(target),
                                            0.0, 0.0, T)).sample()
            for T in cfg.durations]


def hold_lane(state) -> TrajectoryCandidate:
    """The fallback when no lane change passes: a plan of no duration in the
    ego's lane, which the executor ends at once, so the follow law keeps the
    lane and does any braking."""
    return TrajectoryCandidate(duration=0.0, lon=None, lat=None, target_lane=state.lane)


def check_dynamics(candidate: TrajectoryCandidate, road):
    """(passed, reason) of a sampled candidate against the ``config``
    lateral-accel limit and the road's lateral extent, from the outer edge of
    lane 0 to that of the last lane.  The longitudinal limits are the follow
    law's."""
    y_min = -0.5 * road.lane_width
    y_max = (road.lane_count - 0.5) * road.lane_width
    for (t, y, vy, ay, jy) in candidate.samples:
        if abs(ay) > config.LAT_ACCEL_LIMIT:
            return False, f"lateral accel {ay:.2f} at t={t:.1f}"
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
    """Best passing candidate by weighted safety/comfort cost.

    The scene is predicted once: the others' ``world.predict`` poses at each
    of ``ASSESS_TIMES`` serve both the overlap screen and the risk field, as
    each candidate's poses at those times do.
    Candidates that overlap the scene are only eligible when nothing else
    passes; ties break toward shorter durations.  Falls back to
    ``hold_lane`` when no candidate passes the dynamics check.
    """
    cfg = cfg or config.DEFAULTS.planner
    risk_params = config.DEFAULTS.risk
    passing = [c for c in candidates if check_dynamics(c, road)[0]]
    if not passing:
        return hold_lane(ego)

    scene = [[predict(o, t) for o in others] for t in ASSESS_TIMES]
    half_len = ego.length / 2.0
    half_wid = ego.width / 2.0

    def overlaps(poses):
        return any(padded_overlap(x, y, half_len, half_wid, points, *OVERLAP_PAD)
                   for (x, y), points in zip(poses, scene))

    def cost(cand: TrajectoryCandidate, poses):
        # risk over the common horizon; comfort over the plan itself
        peak_risk = max(risk_at_point(x, y, points, risk_params)
                        for (x, y), points in zip(poses, scene))
        jerk_sq = 0.0
        stride = max(1, len(cand.samples) // 10)
        picks = cand.samples[::stride]
        for (_t, _y, _vy, _ay, jy) in picks:
            jerk_sq += jy * jy
        return cfg.w_safety * peak_risk + cfg.w_comfort * jerk_sq / len(picks)

    assessed = [(c, [c.pose_at(t) for t in ASSESS_TIMES]) for c in passing]
    pool = [(c, poses) for c, poses in assessed if not overlaps(poses)] or assessed
    return min(pool, key=lambda pair: (cost(*pair), pair[0].duration))[0]
