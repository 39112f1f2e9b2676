"""Platoon-layer decision machinery: configuration action space, noisy
observations, reward shaping, and the rule-based fallback policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import config
from .riskfield import risk_reward
from .world import compute_ttc, lead_vehicle


@dataclass(frozen=True)
class PlatoonConfigAction:
    """Ordered partition of platoon indices into contiguous sub-platoons."""

    partition: tuple

    def __post_init__(self):
        flat = [i for grp in self.partition for i in grp]
        if not flat or flat != list(range(flat[0], flat[0] + len(flat))):
            raise ValueError(f"groups must be contiguous and ordered: {self.partition}")
        if flat[0] != 0:
            raise ValueError("partition must start at vehicle 0")

    @property
    def n_groups(self) -> int:
        return len(self.partition)

    @property
    def single_group(self) -> bool:
        return len(self.partition) == 1

    def group_of(self, idx: int) -> int:
        for g, grp in enumerate(self.partition):
            if idx in grp:
                return g
        raise KeyError(idx)

    def __str__(self):
        return "".join("(" + ",".join(str(i) for i in grp) + ")" for grp in self.partition)


def enumerate_configurations(n: int):
    """All contiguous ordered partitions of an n-vehicle platoon.

    Listed coarsest first (fewest groups), then by split positions, so the
    all-in-one configuration is always action 0.  A partition corresponds to
    a subset of the n-1 internal cut positions, giving 2^(n-1) actions.
    """
    if not (2 <= n <= 5):
        raise ValueError("platoon size must be between 2 and 5")
    actions = []
    for mask in range(2 ** (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if mask & (1 << i)]
        bounds = [0] + cuts + [n]
        groups = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
        actions.append(PlatoonConfigAction(partition=groups))
    actions.sort(key=lambda a: (a.n_groups, tuple(grp[0] for grp in a.partition[1:])))
    return actions


# --- observations -------------------------------------------------------------

N_FEATURES = 9  # x, y, vx, vy, ax, ay, jx, jy, ttc

SENTINEL_ROW = (500.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, config.TTC_SENTINEL)

# rough feature scales for flattening into a network input
_SCALES = np.array([100.0, 10.0, 40.0, 40.0, 5.0, 5.0, 10.0, 10.0, config.TTC_SENTINEL])


@dataclass
class Observation:
    rows: list  # K tuples of N_FEATURES floats, ego-relative

    def flatten(self) -> np.ndarray:
        arr = np.array(self.rows, dtype=np.float64)
        arr[:, 8] = np.minimum(arr[:, 8], config.TTC_SENTINEL)
        return (arr / _SCALES).ravel()


def pair_ttc(a, b) -> float:
    """Physical TTC of a pair: the rear one is the follower."""
    follower, leader = (a, b) if a.x <= b.x else (b, a)
    return compute_ttc(follower, leader)


@dataclass
class Observer:
    """Builds fixed-size noisy observations around the platoon leader.

    Acceleration and jerk rows are finite differences of the *noised*
    speeds across successive observations, so they inherit sensor noise.
    """

    k: int = 8
    sigma_pos: float = 0.1
    sigma_vel: float = 0.1
    _prev_v: dict = field(default_factory=dict)
    _prev_a: dict = field(default_factory=dict)

    def reset(self):
        self._prev_v.clear()
        self._prev_a.clear()

    def observe(self, platoon, background, rng, dt: float) -> Observation:
        ego = platoon[0]
        objects = list(platoon[1:])
        others = sorted(background, key=lambda v: (v.x - ego.x) ** 2 + (v.y - ego.y) ** 2)
        objects.extend(others[: max(self.k - len(objects), 0)])
        objects = objects[: self.k]

        rows = []
        seen = set()
        for obj in objects:
            seen.add(obj.id)
            nx = obj.x - ego.x + (rng.normal(0.0, self.sigma_pos) if self.sigma_pos else 0.0)
            ny = obj.y - ego.y + (rng.normal(0.0, self.sigma_pos) if self.sigma_pos else 0.0)
            nvx = obj.vx - ego.vx + (rng.normal(0.0, self.sigma_vel) if self.sigma_vel else 0.0)
            nvy = obj.vy - ego.vy + (rng.normal(0.0, self.sigma_vel) if self.sigma_vel else 0.0)
            pvx, pvy = self._prev_v.get(obj.id, (nvx, nvy))
            ax = (nvx - pvx) / dt
            ay = (nvy - pvy) / dt
            pax, pay = self._prev_a.get(obj.id, (ax, ay))
            jx = (ax - pax) / dt
            jy = (ay - pay) / dt
            self._prev_v[obj.id] = (nvx, nvy)
            self._prev_a[obj.id] = (ax, ay)
            rows.append((nx, ny, nvx, nvy, ax, ay, jx, jy, pair_ttc(ego, obj)))
        for stale in [k for k in self._prev_v if k not in seen]:
            self._prev_v.pop(stale, None)
            self._prev_a.pop(stale, None)
        while len(rows) < self.k:
            rows.append(SENTINEL_ROW)
        return Observation(rows=rows)


# --- reward -------------------------------------------------------------------

@dataclass
class EpisodeStats:
    """Reorganization bookkeeping across one episode's platoon decisions."""

    episode_len: float
    n_step: int = 0
    n_trigger: int = 0
    reorganizing: bool = False
    reorg_started: float = 0.0
    reorg_count: int = 0
    completed_durations: list = field(default_factory=list)
    _was_single: bool = True

    def on_decision(self, action: PlatoonConfigAction, formation_intact: bool,
                    t: float):
        """Returns (triggered, completed_duration or None)."""
        self.n_step += 1
        triggered = self._was_single and not action.single_group
        completed = None
        if triggered:
            self.n_trigger += 1
            if not self.reorganizing:
                self.reorganizing = True
                self.reorg_started = t
                self.reorg_count += 1
        elif self.reorganizing and action.single_group and formation_intact:
            duration = t - self.reorg_started
            self.completed_durations.append(duration)
            self.reorganizing = False
            completed = duration
        self._was_single = action.single_group
        return triggered, completed


def compute_reward(platoon_prev, platoon_next, background_next,
                   action: PlatoonConfigAction, stats: EpisodeStats,
                   triggered: bool, completed_duration,
                   collision: bool, v_max: float,
                   w: config.RewardConfig | None = None,
                   risk_params: config.RiskFieldConfig | None = None):
    """Platoon-layer step reward with per-component breakdown.

    Safety couples the collision flag with the risk-field penalty; tracking
    and reorganization-frequency terms enter as costs (negative); the
    trigger incentive pays out only on decisions that start a split.
    """
    w = w or config.DEFAULTS.reward
    risk_params = risk_params or replace(config.DEFAULTS.risk, v_max=max(v_max, 1.0))
    n = len(platoon_next)

    r_col = 0.0 if collision else 1.0
    r_ris = max((risk_reward(v, background_next, risk_params) for v in platoon_next),
                default=0.0)
    r_safety = w.w_col * r_col - w.w_ris * r_ris

    r_eff = sum(v.speed for v in platoon_next) / (n * v_max)

    track = 0.0
    for a, b in zip(platoon_next, platoon_next[1:]):
        track += (w.w_x * abs(a.x - b.x - w.d_target)
                  + w.w_y * abs(a.y - b.y)
                  + w.w_v * abs(a.speed - b.speed))
    r_drive = -track / max(n - 1, 1)

    r_rf = stats.n_trigger / max(stats.n_step, 1)
    r_re = (completed_duration / stats.episode_len) if completed_duration else 0.0
    if triggered:
        leader = platoon_next[0]
        ahead = lead_vehicle(leader, background_next)
        tau0 = compute_ttc(leader, ahead) if ahead is not None else math.inf
        tau0 = max(tau0, 0.5)
        r_ri = (w.k_t * min(w.ttc_critical / tau0, 5.0)
                + w.k_v * sum(v.speed for v in platoon_next) / (n * v_max))
    else:
        r_ri = 0.0
    r_reorg = -w.w_rf * r_rf - w.w_re * r_re + w.w_ri * r_ri

    total = w.w_s * r_safety + w.w_e * r_eff + w.w_d * r_drive + w.w_r * r_reorg
    breakdown = {
        "r_col": r_col, "r_ris": r_ris, "R_s": r_safety, "R_e": r_eff,
        "R_d": r_drive, "r_rf": r_rf, "r_re": r_re, "r_ri": r_ri,
        "R_r": r_reorg, "total": total,
    }
    return total, breakdown


def reward_bound(n: int, w: config.RewardConfig | None = None) -> float:
    """Documented |R| bound per step under the default normalizations."""
    w = w or config.DEFAULTS.reward
    r_s = w.w_col + w.w_ris
    r_d = w.w_x * 100.0 + w.w_y * 12.0 + w.w_v * 40.0   # generous error caps
    r_r = w.w_rf + w.w_re + w.w_ri * (0.5 * 5.0 + 0.5)
    return w.w_s * r_s + w.w_e * 1.0 + w.w_d * r_d + w.w_r * r_r


# --- rule-based fallback ------------------------------------------------------

@dataclass
class HeuristicDistributionPolicy:
    """Training-free configuration policy.

    Splits to isolate the at-risk vehicle when the leader TTC dips under the
    critical value or the risk field exceeds 0.5; merges back only after the
    risk has stayed clear for a hold time.
    """

    n: int
    hold_time: float = 5.0
    ttc_threshold: float = config.TTC_CRITICAL
    risk_threshold: float = 0.5
    _active: PlatoonConfigAction | None = None
    _clear_since: float | None = None

    def reset(self):
        self._active = None
        self._clear_since = None

    def single(self) -> PlatoonConfigAction:
        return PlatoonConfigAction(partition=(tuple(range(self.n)),))

    def split_isolating(self, idx: int) -> PlatoonConfigAction:
        idx = min(max(idx, 0), self.n - 1)
        groups = []
        if idx > 0:
            groups.append(tuple(range(0, idx)))
        groups.append((idx,))
        if idx < self.n - 1:
            groups.append(tuple(range(idx + 1, self.n)))
        return PlatoonConfigAction(partition=tuple(groups))

    def decide(self, t: float, tau0: float, r_ris: float,
               at_risk_index: int = 0) -> PlatoonConfigAction:
        risky = tau0 < self.ttc_threshold or r_ris > self.risk_threshold
        if risky:
            self._clear_since = None
            self._active = self.split_isolating(at_risk_index)
            return self._active
        if self._active is None:
            return self.single()
        if self._clear_since is None:
            self._clear_since = t
        if t - self._clear_since >= self.hold_time:
            self._active = None
            self._clear_since = None
            return self.single()
        return self._active
