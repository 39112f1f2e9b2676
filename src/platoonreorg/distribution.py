"""Platoon-layer decision machinery: configuration action space, the
reorganization record, reward shaping, and the rule-based fallback policy.
The network policy's observations live in ``ppo``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import config
from .coalition import MERGING, SPLITTING, STEADY, GameScene


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


# --- reorganization record and reward ----------------------------------------

@dataclass
class ReorgRecord:
    """The platoon's target configuration and its one reorganization window.

    A decision that switches the target from one group to several is a
    trigger; it opens a window unless one is open.  The window closes once
    the target is a single group and the formation has stayed intact for
    ``config.FORMATION_HOLD`` s.  It is a reorganization (``count``) from its
    first frame with the formation broken or a member off the lane it held
    on the window's first frame, and then its duration runs from the trigger
    to the start of that intact stretch.  The other windows, open or closed,
    are label-only splits: ``windows - count``.
    """

    episode_len: float
    target: PlatoonConfigAction   # the latest platoon decision
    decisions: int = field(default=0, init=False)
    triggers: int = field(default=0, init=False)
    windows: int = field(default=0, init=False)
    count: int = field(default=0, init=False)      # windows the vehicles moved in
    durations: list = field(default_factory=list, init=False)
    triggered: bool = field(default=False, init=False)  # the latest decision was a trigger
    recent: tuple = field(default=(), init=False)  # durations ended since the previous decision
    running: bool = field(default=False, init=False)
    start: float = field(default=0.0, init=False)
    lanes: tuple | None = field(default=None, init=False)  # on the window's first frame
    moved: bool = field(default=False, init=False)
    intact_since: float | None = field(default=None, init=False)
    _reported: int = field(default=0, init=False)  # durations handed out through ``recent``

    def on_decision(self, action: PlatoonConfigAction, t: float) -> bool:
        """Record one platoon decision; returns whether it is a trigger."""
        self.decisions += 1
        self.recent = tuple(self.durations[self._reported:])
        self._reported = len(self.durations)
        self.triggered = self.target.single_group and not action.single_group
        self.target = action
        if self.triggered:
            self.triggers += 1
            if not self.running:
                self.running, self.start, self.lanes, self.moved = True, t, None, False
                self.windows += 1
        return self.triggered

    def on_frame(self, intact: bool, lanes: tuple, t: float):
        """Advance an open window to time ``t``; ``intact`` is the formation
        scan and ``lanes`` the members' lanes."""
        if not self.running:
            return
        if self.lanes is None:
            self.lanes = lanes
        if not self.moved and (not intact or lanes != self.lanes):
            self.moved = True
            self.count += 1
        if not (intact and self.target.single_group):
            self.intact_since = None
            return
        if self.intact_since is None:
            self.intact_since = t
        if t - self.intact_since >= config.FORMATION_HOLD:
            if self.moved:
                self.durations.append(self.intact_since - self.start)
            self.running, self.intact_since = False, None

    @property
    def phase(self) -> str:
        """STEADY while none runs, else SPLITTING toward several groups, MERGING toward one."""
        if not self.running:
            return STEADY
        return MERGING if self.target.single_group else SPLITTING


def compute_reward(scene: GameScene, reorg: ReorgRecord, collision: bool):
    """Platoon-layer step reward with per-component breakdown, read from the
    decision tick's scene.

    Safety couples the collision flag with the risk-field penalty; tracking
    and reorganization-frequency terms enter as costs (negative); the
    trigger incentive pays out only on decisions that start a split.  The
    reorganization terms read ``reorg`` right after its ``on_decision``.
    """
    w = config.DEFAULTS.reward
    platoon = scene.platoon
    n = len(platoon)

    r_col = 0.0 if collision else 1.0
    r_ris = max(scene.risks)
    r_safety = w.w_col * r_col - w.w_ris * r_ris

    r_eff = sum(v.speed for v in platoon) / (n * scene.road.speed_limit)

    track = 0.0
    for a, b in zip(platoon, platoon[1:]):
        track += (w.w_x * abs(a.x - b.x - config.D_TARGET)
                  + w.w_y * abs(a.y - b.y)
                  + w.w_v * abs(a.speed - b.speed))
    r_drive = -track / max(n - 1, 1)

    r_rf = reorg.triggers / max(reorg.decisions, 1)
    r_re = sum(reorg.recent) / reorg.episode_len
    if reorg.triggered:
        tau0 = max(scene.lead_ttcs[0], 0.5)
        r_ri = w.k_t * min(config.TTC_CRITICAL / tau0, 5.0) + w.k_v * r_eff
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


def reward_bound(w: config.RewardConfig | None = None) -> float:
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

    Splits to isolate the at-risk vehicle when the lowest TTC dips under
    ``config.TTC_CRITICAL``, its one trigger; merges back only after the TTC
    has stayed clear for ``config.MERGE_HOLD`` s.
    """

    n: int
    _active: PlatoonConfigAction | None = field(default=None, init=False)
    _clear_since: float | None = field(default=None, init=False)

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

    def decide(self, t: float, min_ttc: float, at_risk_index: int = 0) -> PlatoonConfigAction:
        if min_ttc < config.TTC_CRITICAL:
            self._clear_since = None
            self._active = self.split_isolating(at_risk_index)
            return self._active
        if self._active is None:
            return self.single()
        if self._clear_since is None:
            self._clear_since = t
        if t - self._clear_since >= config.MERGE_HOLD:
            self._active = None
            self._clear_since = None
            return self.single()
        return self._active
