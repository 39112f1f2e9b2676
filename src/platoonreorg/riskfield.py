"""Driving-risk potential field.

The field value seen from a probe position is the max over surrounding
vehicles of a distance/speed law normalized to 1.0 at the closest, fastest
configuration, so outputs always land in [0, 1].  Same-lane proximity is
weighted up by scaling lateral offsets before the distance clamp.
"""

from __future__ import annotations

import math

from . import config


def _effective_distance(dx: float, dy: float, p: config.RiskFieldConfig) -> float:
    d = math.hypot(dx, p.lateral_scale * dy)
    return min(max(d, p.d_min), p.d_support)


def risk_contribution(dx: float, dy: float, v_other: float, p: config.RiskFieldConfig) -> float:
    """Normalized field intensity one vehicle contributes at offset (dx, dy)."""
    if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(v_other)):
        raise ValueError("non-finite risk-field input")
    d = _effective_distance(dx, dy, p)
    v = min(max(v_other, 0.0), p.v_max)
    intensity = (p.grm / d ** p.k1) ** (p.k2 * v)
    norm = (p.grm / p.d_min ** p.k1) ** (p.k2 * p.v_max)
    return min(intensity / norm, 1.0)


def risk_reward(ego, others, p: config.RiskFieldConfig | None = None) -> float:
    """Max field intensity over surrounding vehicles at ego's position, in [0, 1]."""
    p = p or config.DEFAULTS.risk
    value = 0.0
    for other in others:
        if other.id == ego.id:
            continue
        c = risk_contribution(other.x - ego.x, other.y - ego.y, other.speed, p)
        if c > value:
            value = c
    return value


def risk_at_point(x: float, y: float, vehicles, p: config.RiskFieldConfig) -> float:
    """Field value at a bare (x, y) probe (zero-size, no own motion)."""
    value = 0.0
    for v in vehicles:
        c = risk_contribution(v.x - x, v.y - y, v.speed, p)
        if c > value:
            value = c
    return value
