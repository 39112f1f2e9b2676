"""Driving-risk potential field.

The field value seen from a probe position is the max over surrounding
vehicles of a distance/speed law normalized to 1.0 at the closest, fastest
configuration, so outputs always land in [0, 1].  Same-lane proximity is
weighted up by scaling lateral offsets before the distance clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import config


@dataclass(frozen=True)
class RiskFieldParams:
    grm: float = config.DEFAULTS.risk.grm
    k1: float = config.DEFAULTS.risk.k1
    k2: float = config.DEFAULTS.risk.k2
    d_min: float = config.DEFAULTS.risk.d_min
    d_support: float = config.DEFAULTS.risk.d_support
    v_max: float = config.DEFAULTS.risk.v_max
    lateral_scale: float = config.DEFAULTS.risk.lateral_scale

    def __post_init__(self):
        vals = (self.grm, self.k1, self.k2, self.d_min, self.d_support, self.v_max)
        if any(v <= 0 for v in vals):
            raise ValueError("risk-field parameters must be positive")
        if self.grm / self.d_support ** self.k1 < 1.0:
            # base < 1 would flip the speed monotonicity on the support edge
            raise ValueError("need grm / d^k1 >= 1 for all d <= d_support")


def _effective_distance(dx: float, dy: float, p: RiskFieldParams) -> float:
    d = math.hypot(dx, p.lateral_scale * dy)
    return min(max(d, p.d_min), p.d_support)


def risk_contribution(dx: float, dy: float, v_other: float, p: RiskFieldParams) -> float:
    """Normalized field intensity one vehicle contributes at offset (dx, dy)."""
    if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(v_other)):
        raise ValueError("non-finite risk-field input")
    d = _effective_distance(dx, dy, p)
    v = min(max(v_other, 0.0), p.v_max)
    intensity = (p.grm / d ** p.k1) ** (p.k2 * v)
    norm = (p.grm / p.d_min ** p.k1) ** (p.k2 * p.v_max)
    return min(intensity / norm, 1.0)


def risk_reward(ego, others, p: RiskFieldParams | None = None) -> float:
    """Max field intensity over surrounding vehicles at ego's position, in [0, 1]."""
    p = p or RiskFieldParams()
    value = 0.0
    for other in others:
        if other.id == ego.id:
            continue
        c = risk_contribution(other.x - ego.x, other.y - ego.y, other.speed, p)
        if c > value:
            value = c
    return value


def risk_at_point(x: float, y: float, vehicles, p: RiskFieldParams) -> float:
    """Field value at a bare (x, y) probe (zero-size, no own motion)."""
    value = 0.0
    for v in vehicles:
        c = risk_contribution(v.x - x, v.y - y, v.speed, p)
        if c > value:
            value = c
    return value
