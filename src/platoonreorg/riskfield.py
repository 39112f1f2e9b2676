"""Driving-risk potential field.

The field value seen from a probe position is the max over surrounding
vehicles of a distance/speed law normalized to 1.0 at the closest, fastest
configuration, so outputs always land in [0, 1].  Same-lane proximity is
weighted up by scaling lateral offsets before the distance clamp.

The normalization (divide, then cap at 1) is monotone in the raw intensity,
so the max over vehicles takes the raw intensities and normalizes once; the
result equals the max of the per-vehicle normalized intensities bit for bit.
One parameter set, ``config.DEFAULTS.risk``, serves every reader: the
platoon layer's ``GameScene.risks`` and the game's safety profit alike.
"""

from __future__ import annotations

import math

from . import config


def _effective_distance(dx: float, dy: float, p: config.RiskFieldConfig) -> float:
    d = math.hypot(dx, p.lateral_scale * dy)
    return min(max(d, p.d_min), p.d_support)


def _intensity(dx: float, dy: float, v_other: float, p: config.RiskFieldConfig) -> float:
    if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(v_other)):
        raise ValueError("non-finite risk-field input")
    d = _effective_distance(dx, dy, p)
    v = min(max(v_other, 0.0), p.v_max)
    return (p.grm / d ** p.k1) ** (p.k2 * v)


def _normalized(intensity: float, p: config.RiskFieldConfig) -> float:
    norm = (p.grm / p.d_min ** p.k1) ** (p.k2 * p.v_max)
    return min(intensity / norm, 1.0)


def risk_reward(ego, others, p: config.RiskFieldConfig | None = None) -> float:
    """Max field intensity over surrounding vehicles at ego's position, in [0, 1]."""
    return risk_at_point(ego.x, ego.y, (o for o in others if o.id != ego.id),
                         p or config.DEFAULTS.risk)


def risk_at_point(x: float, y: float, vehicles, p: config.RiskFieldConfig) -> float:
    """Field value at a bare (x, y) probe (zero-size, no own motion)."""
    value = 0.0
    for v in vehicles:
        c = _intensity(v.x - x, v.y - y, v.speed, p)
        if c > value:
            value = c
    return _normalized(value, p)
