"""Lane-change planning: the one lateral plan and its feasibility check.

The coalition game decides which member changes lane and when; the game
scores and the executor runs the same plan, as in the decoupled Frenét
planner of Werling et al. 2010.  Only lane changes are planned, and only
laterally: ``lane_change`` is one quintic toward the target lane's center,
with zero lateral speed and acceleration at its end, over
``lane_change_time``, the shortest duration that keeps a rest-to-rest
change within ``config.LAT_ACCEL_LIMIT``.  A background driver tracks the
same quintic exactly, as a ``PacedPlan``, which ``world.predict`` samples.
The dynamics check evaluates the quintic at each ``config.DT`` step: the game
offers no change that fails it, and at the executor a plan that fails it
becomes ``hold_lane``.  No other vehicle is read: the longitudinal motion
is the executor's follow law, which brakes for whatever is ahead.  Lane
keeping has no plan; it is the follow law, and the executor ends each plan
when its duration has elapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import config

KEEP = "keep"
LEFT = "left"
RIGHT = "right"


class PlanningError(ValueError):
    pass


class Polynomial:
    """p(t) = c[0] + c[1] t + ... + c[n] t^n, n <= 5, and its first two derivatives.

    Each derivative keeps its own coefficients, k!/(k-d)! c[k] for the d-th,
    and sums its terms from the constant one up; a derivative of a higher
    order than the degree has none and is left out.
    """

    def __init__(self, c):
        self.c = c
        self._terms = [[math.perm(k, d) * c[k] for k in range(d, len(c))]
                       for d in range(min(len(c), 3))]

    def derivatives(self, t):
        """[p, dp, ddp] at t, all from one list of the powers ``t ** k``."""
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
    lon: Polynomial | None          # x0 + vx0 t; None marks hold_lane to perfbench
    lat: Polynomial | None          # None for the hold_lane fallback
    target_lane: int = 0

    def state_at(self, t):
        """Lateral reference (y, vy, ay) at a time inside the plan, clamped to it."""
        return tuple(self.lat.derivatives(min(max(t, 0.0), self.duration)))


def lane_change_time(dy: float) -> float:
    """The shortest duration on the ``config.DT`` grid, at least one step,
    over which a rest-to-rest quintic moves dy m sideways within
    ``config.LAT_ACCEL_LIMIT``: its peak lateral acceleration is
    (10/√3)·|dy|/T², so 2.8 s for a 4 m lane."""
    steps = math.sqrt(10.0 / math.sqrt(3.0) * abs(dy) / config.LAT_ACCEL_LIMIT) / config.DT
    return round(max(math.ceil(round(steps, 9)), 1) * config.DT, 9)


def low_speed_path(dy: float) -> float:
    """v_ref·T of a ``PacedPlan`` over dy: 1.875·|dy|/sin(``config.HEADING_LIMIT``)."""
    return 1.875 * abs(dy) / math.sin(config.HEADING_LIMIT)


@dataclass(slots=True)
class PacedPlan:
    """A background vehicle's lane change: the rest-to-rest quintic of
    ``lane_change_time`` to ``y1`` on a clock that advances min(t, d/v_ref)
    over t s and d m of travel: by time at or above ``v_ref``, where the
    peak lateral speed 1.875·|dy|/T heads the vehicle at
    ``config.HEADING_LIMIT``, by distance below (Werling et al. 2010)."""

    lat: Polynomial
    duration: float
    v_ref: float
    y1: float
    clock: float = 0.0

    def y_at(self, clock: float) -> float:
        return self.lat.derivatives(clock)[0]

    def clock_after(self, t: float, distance: float) -> float:
        return min(self.clock + min(t, distance / self.v_ref), self.duration)

    def step(self, y: float, last: float, distance: float) -> float:
        """The lateral step from y, the plan's at ``clock``, over one
        ``config.DT`` frame and ``distance`` m after a step of ``last``: the
        paced clock's, moved at most ``LAT_ACCEL_LIMIT``·DT² from ``last``,
        then at most sin(``HEADING_LIMIT``)·distance, the executors' two
        stages.  Where one binds, the clock moves to where the plan makes
        that step, never back nor faster than time."""
        paced = self.clock_after(config.DT, distance)
        sign = math.copysign(1.0, self.y1 - self.lat.c[0])   # the side the plan moves to
        want = sign * (self.y_at(paced) - y)
        reach = config.LAT_ACCEL_LIMIT * config.DT ** 2
        lo, hi = self.clock, min(self.clock + config.DT, self.duration)
        step = max(min(max(want, sign * last - reach), sign * last + reach,
                       distance * math.sin(config.HEADING_LIMIT), sign * (self.y_at(hi) - y)), 0.0)
        if step == want:
            self.clock = paced
        else:   # bisect the monotone plan for the clock of that step
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if sign * (self.y_at(mid) - y) < step else (lo, mid)
            self.clock = lo
        return self.y_at(self.clock) - y


def lane_change(state, decision: str, road) -> TrajectoryCandidate:
    """The lane change for a LEFT or RIGHT decision: one quintic of
    ``lane_change_time`` toward the target lane's center, from the ego's
    lateral position, speed and acceleration.  Lane keeping has no plan: it
    is the executor's follow law."""
    if decision not in (LEFT, RIGHT):
        raise PlanningError(f"no plan for decision {decision!r}: only lane changes are planned")
    target = state.lane + (1 if decision == LEFT else -1)
    if not (0 <= target < road.lane_count):
        raise PlanningError(f"decision {decision} leaves the road from lane {state.lane}")

    y1 = road.lane_center(target)
    T = lane_change_time(y1 - state.y)
    lon = Polynomial([state.x, state.speed * math.cos(state.heading)])
    vy0 = state.speed * math.sin(state.heading)
    return TrajectoryCandidate(duration=T, lon=lon, target_lane=target,
                               lat=quintic(state.y, vy0, state.ay, y1, 0.0, 0.0, T))


def generate_lattice(state, decision: str, road) -> TrajectoryCandidate:
    """``lane_change``, as the executor calls it when a change falls due.
    The name is the one the benchmark's layer timers trace; the game calls
    ``lane_change`` itself, so the timers count the executors' plans only."""
    return lane_change(state, decision, road)


def hold_lane(state) -> TrajectoryCandidate:
    """The fallback when the lane change fails its check: a plan of no
    duration in the ego's lane, which the executor ends at once, so the
    follow law keeps the lane and does any braking."""
    return TrajectoryCandidate(duration=0.0, lon=None, lat=None, target_lane=state.lane)


def check_dynamics(candidate: TrajectoryCandidate, road):
    """(passed, reason) of a candidate's lateral profile, evaluated at every
    ``config.DT`` step from its start to its end, against the ``config``
    lateral-accel limit and the road's lateral extent, from the outer edge of
    lane 0 to that of the last lane.  ``hold_lane`` has no profile and
    passes.  The longitudinal limits are the follow law's."""
    if candidate.lat is None:
        return True, ""
    y_min = -0.5 * road.lane_width
    y_max = (road.lane_count - 0.5) * road.lane_width
    for k in range(round(candidate.duration / config.DT) + 1):
        t = k * config.DT
        y, _, ay = candidate.lat.derivatives(t)
        if abs(ay) > config.LAT_ACCEL_LIMIT:
            return False, f"lateral accel {ay:.2f} at t={t:.1f}"
        if not (y_min <= y <= y_max):
            return False, f"off-road y={y:.2f} at t={t:.1f}"
    return True, ""


def select_trajectory(candidate: TrajectoryCandidate, ego, road) -> TrajectoryCandidate:
    """The candidate if it passes ``check_dynamics``, else ``hold_lane(ego)``.
    The name is the one the benchmark's layer timers trace."""
    return candidate if check_dynamics(candidate, road)[0] else hold_lane(ego)
