"""Driving-risk field.

A vehicle's value, seen from a probe box, is the constant deceleration
that keeps the two boxes apart under their current velocities, as a
fraction of its limit, capped at 1.0; it grows with the closing speed along
the approach, as the driving safety field's kinetic term does (Wang, Wu &
Li 2015).  With ``gx``/``gy`` the bumper gaps along and across the road and
``cx``/``cy`` the speeds at which they close:

- along the road, when ``gx > 0`` closes and ``gy`` is closed by the time
  ``gx`` is, the value is ``cx²/(2·ACCEL_LIMIT·gx)``;
- across the road, when the boxes are side by side (``gx ≤ 0``), it is
  ``cy²/(2·LAT_ACCEL_LIMIT·gy)``;
- otherwise it is 0 with no contact course, and 1 in contact.

So 1.0 is the braking-distance limit, and the field has no settable value.
The field at the probe is the max over the vehicles.  Both decision layers
read it: the platoon layer's ``GameScene.risks`` and the game's safety
profit.
"""

from __future__ import annotations

import math

from . import config


def _closing(d: float, rel: float) -> float:
    """Speed at which the gap along an axis shrinks, for the offset
    ``d = b − a`` and the relative speed ``rel = va − vb``; at ``d = 0``
    the gap can only open."""
    return rel if d > 0.0 else -rel if d < 0.0 else -abs(rel)


def _value(a, b) -> float:
    """The field of box b seen from box a, equal to that of a seen from b."""
    dx, dy = b.x - a.x, b.y - a.y
    cx = _closing(dx, a.speed * math.cos(a.heading) - b.speed * math.cos(b.heading))
    cy = _closing(dy, a.speed * math.sin(a.heading) - b.speed * math.sin(b.heading))
    if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError("non-finite risk-field input")
    gx = abs(dx) - 0.5 * (a.length + b.length)
    gy = abs(dy) - 0.5 * (a.width + b.width)
    if gx > 0.0:
        # gy·cx > cy·gx: still apart across the road when the gap along it closes
        if cx <= 0.0 or gy * cx > cy * gx:
            return 0.0
        return min(cx * cx / (2.0 * config.ACCEL_LIMIT * gx), 1.0)
    if gy > 0.0:
        return 0.0 if cy <= 0.0 else min(cy * cy / (2.0 * config.LAT_ACCEL_LIMIT * gy), 1.0)
    return 1.0


def risk_reward(ego, others) -> float:
    """The field at ego from the other vehicles, in [0, 1]."""
    return risk_at_point(ego, (o for o in others if o.id != ego.id))


def risk_at_point(probe, vehicles) -> float:
    """The field at ``probe``, a box with a velocity (a ``VehicleState`` or
    a ``Pose``), from ``vehicles``, in [0, 1]."""
    value = 0.0
    for v in vehicles:
        c = _value(probe, v)
        if c > value:
            value = c
    return value
