"""Central defaults and config serialization.

Every tunable that is not pinned by the problem statement lives here so that
experiment logs can record the exact parameter set (see ``config_hash``).
Each concept has exactly one validated defaults class below; modules take
that class as their parameter type and fall back to its ``DEFAULTS`` entry.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

# --- simulation clock -------------------------------------------------------
DT = 0.1                      # physics step [s]
DECISION_PERIOD = 1.0         # both decision layers decide once per period [s]

# --- road / vehicle geometry -------------------------------------------------
LANE_WIDTH = 4.0              # lane centers at lane_index * LANE_WIDTH [m]
VEHICLE_LENGTH = 5.0
VEHICLE_WIDTH = 2.0
SPEED_LIMIT = 33.3            # desk-scale highway limit [m/s]
CORRIDOR_HALF_WIDTH = 2.5     # |dy| below which a vehicle shares ego's corridor [m]

# --- platoon formation -------------------------------------------------------
D_TARGET = 10.0               # rear-axle-to-rear-axle follow distance [m]
X_LIM = 30.0                  # coalition longitudinal compactness bound [m]
Y_LIM = 1.5                   # coalition lateral compactness bound [m]
FORMATION_HOLD = 3.0          # intact time that ends a reorganization [s]

# --- CAV actuation limits (also the dynamics-checker limits) ------------------
ACCEL_LIMIT = 4.0             # |a| bound [m/s^2]
JERK_LIMIT = 8.0              # |jerk| bound [m/s^3]
LAT_ACCEL_LIMIT = 3.0         # |a_lat| bound [m/s^2]
LQR_ACCEL_MAX = 2.0
STEER_RATE_LIMIT = 0.3        # |heading rate| bound of the lateral law [rad/s]
HEADING_LIMIT = 0.35          # |heading| bound of every vehicle [rad]

TTC_CRITICAL = 2.5            # critical time-to-collision: the heuristic splits below it [s]
MERGE_HOLD = 5.0              # clear time before the heuristic merges back [s]
TTC_SENTINEL = 100.0          # numeric stand-in for an infinite TTC in vectors


@dataclass(frozen=True)
class PdiConfig:
    """Disposition-index graph constants."""

    k_lane: float = 10.0       # lane-change penalty per lane crossed
    d_norm: float = 20.0       # distance normalizer (= max node spacing)
    d_node_min: float = 10.0
    d_node_max: float = 20.0
    node_spacing: float = 15.0  # preferred free-node tiling spacing
    infeasible_factor: float = 10.0  # sentinel = factor * summed-ED upper bound

    def __post_init__(self):
        if self.k_lane <= 0 or self.d_norm <= 0:
            raise ValueError("k_lane and d_norm must be positive")
        if not (self.d_node_min <= self.node_spacing < self.d_node_max):
            raise ValueError("node spacing must lie in [d_node_min, d_node_max)")


@dataclass(frozen=True)
class RewardConfig:
    """Platoon-layer reward weights (top level + per-term sub-weights)."""

    w_s: float = 1.0
    w_e: float = 0.5
    w_d: float = 0.3
    w_r: float = 0.2
    w_col: float = 10.0
    w_ris: float = 1.0
    w_x: float = 0.02          # per m of spacing error
    w_y: float = 0.1           # per m of lateral error
    w_v: float = 0.05          # per m/s of speed error
    w_rf: float = 1.0
    w_re: float = 0.5
    w_ri: float = 0.5
    k_t: float = 0.5
    k_v: float = 0.5

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in dataclasses.astuple(self)):
            raise ValueError("reward weights must be finite and non-negative")


@dataclass(frozen=True)
class GameConfig:
    """Coalition-game weights and prediction settings.  The weights are
    relative to the safety profit, the game value's unit."""

    w_e: float = 0.6
    w_it: float = 0.2
    k_tau: float = 0.1
    w_pdi: float = 0.05
    w_lane_change: float = 0.3  # effort/exposure cost per changing member
    horizon: float = 3.0        # prediction horizon T_p [s]
    ttc_cap: float = 10.0       # TTC contribution cap [s]
    entropy_window: float = 50.0    # +/- window for lane-occupancy counts [m]

    def __post_init__(self):
        weights = (self.w_e, self.w_it, self.k_tau, self.w_pdi, self.w_lane_change)
        if not all(0.0 <= w < math.inf for w in weights):
            raise ValueError("game weights must be finite and non-negative")
        scales = (self.horizon, self.ttc_cap, self.entropy_window)
        if not all(0.0 < v < math.inf for v in scales):
            raise ValueError("horizon, ttc_cap and entropy_window must be finite and positive")


@dataclass(frozen=True)
class ControlConfig:
    """LQR state weights of the follow law; natural frequency and damping of
    the lateral law.  The LQR input weight R is the unit of the state
    weights: R = 1, since the gain depends only on Q/R."""

    lqr_q_gap: float = 1.0
    lqr_q_speed: float = 0.5
    lat_omega: float = 1.2      # [rad/s]
    lat_zeta: float = 0.9

    def __post_init__(self):
        # an unweighted gap is undetectable, and the LQR gain would not stabilize
        positive = (self.lqr_q_gap, self.lat_omega, self.lat_zeta)
        if not (all(0.0 < g < math.inf for g in positive) and 0.0 <= self.lqr_q_speed < math.inf):
            raise ValueError("control gains must be finite, lqr_q_speed non-negative and "
                             "lqr_q_gap, lat_omega and lat_zeta positive")


@dataclass(frozen=True)
class PpoConfig:
    """Optimizer hyperparameters for the configuration policy."""

    learning_rate: float = 3e-4
    gamma: float = 0.85
    batch_size: int = 64
    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    gae_lambda: float = 0.95
    epochs: int = 4
    hidden_size: int = 256

    def __post_init__(self):
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.gamma <= 1.0
                and 0.0 <= self.gae_lambda <= 1.0 and 0.0 < self.clip_epsilon < math.inf):
            raise ValueError("need learning_rate > 0, 0 < gamma <= 1, "
                             "0 <= gae_lambda <= 1 and clip_epsilon > 0, all finite")
        counts = (self.batch_size, self.epochs, self.hidden_size)
        if not all(type(c) is int and c >= 1 for c in counts):
            raise ValueError("batch_size, epochs and hidden_size must be ints >= 1")


@dataclass(frozen=True)
class Defaults:
    pdi: PdiConfig = field(default_factory=PdiConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    game: GameConfig = field(default_factory=GameConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)


DEFAULTS = Defaults()


def config_hash(obj) -> str:
    """Stable short hash of any JSON-serializable config payload."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    import hashlib  # here, not at the top: its _hashlib (OpenSSL) adds ~3.5 MiB to a process
    return hashlib.sha256(blob).hexdigest()[:16]
