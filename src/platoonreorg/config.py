"""Central defaults and config serialization.

Every tunable that is not pinned by the problem statement lives here so that
experiment logs can record the exact parameter set (see ``config_hash``).
Each concept has exactly one validated defaults class below; modules take
that class as their parameter type and fall back to its ``DEFAULTS`` entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

# --- simulation clock -------------------------------------------------------
DT = 0.1                      # physics step [s]
VEHICLE_DECISION_PERIOD = 1.0  # vehicle-layer (game) cadence [s]
PLATOON_DECISION_PERIOD = 5.0  # platoon-layer (configuration) cadence [s]

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

# --- CAV actuation limits (also the dynamics-checker limits) ------------------
ACCEL_LIMIT = 4.0             # |a| bound [m/s^2]
JERK_LIMIT = 8.0              # |jerk| bound [m/s^3]
LAT_ACCEL_LIMIT = 3.0         # |a_lat| bound [m/s^2]
LQR_ACCEL_MIN = -4.0
LQR_ACCEL_MAX = 2.0
STEER_RATE_LIMIT = 0.3        # |heading rate| bound [rad/s]

TTC_CRITICAL = 2.5            # critical time-to-collision [s]
TTC_SENTINEL = 100.0          # numeric stand-in for an infinite TTC in vectors


@dataclass(frozen=True)
class RiskFieldConfig:
    """Driving-risk potential field constants (normalized max-over-vehicles form)."""

    grm: float = 100.0         # field strength
    k1: float = 1.0            # distance exponent
    k2: float = 0.05           # speed sensitivity [s/m]
    d_min: float = 2.0         # clamp floor / normalization distance [m]
    d_support: float = 100.0   # clamp radius; beyond it risk stays at the floor value [m]
    v_max: float = 40.0        # normalization speed [m/s]
    lateral_scale: float = 3.0  # elliptic scaling of lateral offsets

    def __post_init__(self):
        vals = (self.grm, self.k1, self.k2, self.d_min, self.d_support, self.v_max)
        if any(v <= 0 for v in vals):
            raise ValueError("risk-field parameters must be positive")
        if self.grm / self.d_support ** self.k1 < 1.0:
            # base < 1 would flip the speed monotonicity on the support edge
            raise ValueError("need grm / d^k1 >= 1 for all d <= d_support")


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
    ttc_critical: float = TTC_CRITICAL
    d_target: float = D_TARGET


@dataclass(frozen=True)
class GameConfig:
    """Coalition-game weights and prediction settings."""

    w_s: float = 1.0
    w_e: float = 0.6
    w_it: float = 0.2
    w_er: float = 0.4
    k_tau: float = 0.1
    k_d: float = 2e-5           # separation bonus stays tie-break sized
    k_y: float = 0.5
    k_v: float = 0.2
    w_pdi: float = 0.05
    w_lane_change: float = 0.3  # effort/exposure cost per changing member
    horizon: float = 3.0        # prediction horizon T_p [s]
    ttc_cap: float = 10.0       # TTC contribution cap [s]
    dist_cap: float = 50.0      # leader-separation contribution cap [m]
    collision_penalty: float = 1e6  # charged when a predicted pose overlaps
    entropy_window: float = 50.0    # +/- window for lane-occupancy counts [m]


@dataclass(frozen=True)
class PlannerConfig:
    """Lattice generation grid and trajectory scoring weights."""

    durations: tuple = (2.0, 3.0, 4.0)
    speed_offsets: tuple = (-2.0, 0.0, 2.0)
    w_safety: float = 1.0
    w_efficiency: float = 0.5
    w_comfort: float = 0.1


@dataclass(frozen=True)
class ControlConfig:
    """LQR / PID tracking gains."""

    lqr_q_gap: float = 1.0
    lqr_q_speed: float = 0.5
    lqr_r: float = 1.0
    pid_kp: float = 0.3
    pid_ki: float = 0.01
    pid_kd: float = 0.8

    def __post_init__(self):
        if self.lqr_q_gap < 0 or self.lqr_q_speed < 0 or self.lqr_r <= 0:
            raise ValueError("Q must be PSD and R positive")
        if min(self.pid_kp, self.pid_ki, self.pid_kd) < 0:
            raise ValueError("PID gains must be nonnegative")


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


@dataclass(frozen=True)
class Defaults:
    risk: RiskFieldConfig = field(default_factory=RiskFieldConfig)
    pdi: PdiConfig = field(default_factory=PdiConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    game: GameConfig = field(default_factory=GameConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)


DEFAULTS = Defaults()


def config_hash(obj) -> str:
    """Stable short hash of any JSON-serializable config payload."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
