"""The risk field against ``field_of``, its law written out: the constant
deceleration that keeps two boxes apart, over its limit, capped at 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonreorg import config
from platoonreorg.riskfield import risk_at_point, risk_reward
from platoonreorg.world import Pose, VehicleState

L = config.VEHICLE_LENGTH


def veh(vid, x, y=0.0, speed=20.0, heading=0.0):
    return VehicleState(id=vid, x=x, y=y, speed=speed, heading=heading)


def field_of(b, a) -> float:
    """Oracle: b's field seen from a.  Per axis, the bumper gap and the speed
    at which it closes (at a zero offset it can only open).  In contact: 1.
    Side by side (no gap along the road): the lateral braking fraction
    cy²/(2·LAT_ACCEL_LIMIT·gy) while gy closes.  Otherwise the longitudinal
    fraction cx²/(2·ACCEL_LIMIT·gx) while gx closes and gy has closed when
    gx does, gy ≤ cy·(gx/cx); else 0.  Capped at 1."""
    va = (a.speed * math.cos(a.heading), a.speed * math.sin(a.heading))
    vb = (b.speed * math.cos(b.heading), b.speed * math.sin(b.heading))
    gaps, closing = [], []
    for d, size, rel in ((b.x - a.x, a.length + b.length, va[0] - vb[0]),
                         (b.y - a.y, a.width + b.width, va[1] - vb[1])):
        gaps.append(abs(d) - size / 2)
        closing.append(rel if d > 0 else -rel if d < 0 else -abs(rel))
    (gx, gy), (cx, cy) = gaps, closing
    if gx <= 0 and gy <= 0:
        return 1.0
    if gx <= 0:
        return min(cy ** 2 / (2 * config.LAT_ACCEL_LIMIT * gy), 1.0) if cy > 0 else 0.0
    if cx > 0 and gy * cx <= cy * gx:
        return min(cx ** 2 / (2 * config.ACCEL_LIMIT * gx), 1.0)
    return 0.0


boxes = st.builds(
    lambda x, y, speed, heading, length, width: Pose(x, y, speed, 0.0, heading, length, width,
                                                     "HDV"),
    st.floats(-80.0, 80.0), st.floats(-10.0, 10.0), st.floats(0.0, 40.0),
    st.floats(-0.3, 0.3), st.floats(3.0, 6.0), st.floats(1.5, 2.5))


class TestNormalization:
    def test_fixed_point(self):
        """A stopped car at exactly ego's braking distance at ``ACCEL_LIMIT``
        reads 1; any farther, less."""
        ego = veh(0, 0.0, speed=20.0)
        gap = 20.0 ** 2 / (2 * config.ACCEL_LIMIT)
        assert risk_reward(ego, [veh(1, gap + L, speed=0.0)]) == 1.0
        assert risk_reward(ego, [veh(1, gap + L + 1.0, speed=0.0)]) < 1.0

    def test_no_others_zero(self):
        ego = veh(0, 0.0)
        assert risk_reward(ego, []) == 0.0

    def test_stated_arithmetic(self):
        # along: 4 m/s onto a stopped car 10 m ahead, 4² / (2·4·10)
        assert risk_reward(veh(0, 0.0, speed=4.0), [veh(1, 10.0 + L, speed=0.0)]) == 0.2
        # across: side by side, 1 m apart, closing at 1.5 m/s, 1.5² / (2·3·1)
        ego = veh(0, 0.0, speed=20.0, heading=math.asin(1.5 / 20.0))
        other = veh(1, 2.0, y=config.VEHICLE_WIDTH + 1.0, speed=20.0 * math.cos(ego.heading))
        assert risk_reward(ego, [other]) == pytest.approx(0.375, rel=1e-12)

    @given(a=boxes, b=boxes)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_range_random(self, a, b):
        assert 0.0 <= risk_at_point(a, [b]) <= 1.0

    @given(a=boxes, b=boxes)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_one_value_per_pair(self, a, b):
        """Ego's value from o equals o's value from ego."""
        assert risk_at_point(a, [b]) == risk_at_point(b, [a])


class TestMonotonicity:
    def test_distance_monotone(self):
        """Onto a stopped car at 4 m/s, too slow for either to read the cap,
        3 m ahead reads higher than 10 m ahead, and the value falls with the
        gap."""
        ego = veh(0, 0.0, speed=4.0)
        near = risk_reward(ego, [veh(1, 3.0 + L, speed=0.0)])
        far = risk_reward(ego, [veh(1, 10.0 + L, speed=0.0)])
        assert 1.0 > near > far > 0.0
        values = [risk_reward(ego, [veh(1, g + L, speed=0.0)]) for g in np.linspace(1.0, 60.0, 80)]
        assert values == sorted(values, reverse=True)

    def test_speed_monotone(self):
        """At a fixed 30 m gap the value rises with the closing speed."""
        values = [risk_reward(veh(0, 0.0, speed=10.0 + c), [veh(1, 30.0 + L, speed=10.0)])
                  for c in np.linspace(0.5, 15.0, 60)]
        assert values[0] > 0.0
        assert all(b > a for a, b in zip(values, values[1:]) if b < 1.0)

    def test_opening_gap_reads_zero(self):
        ego = veh(0, 0.0, speed=20.0)
        assert risk_reward(ego, [veh(1, 8.0, speed=25.0)]) == 0.0    # ahead, pulling away
        assert risk_reward(ego, [veh(1, -8.0, speed=15.0)]) == 0.0   # behind, falling back

    def test_passed_car_in_next_lane_reads_zero(self):
        """A stopped car in the next lane is on no contact course, however
        fast ego passes it: the lateral gap never closes."""
        ego = veh(0, 0.0, speed=30.0)
        for dx in (3.0, 10.0, 40.0):
            assert risk_reward(ego, [veh(1, dx, y=config.LANE_WIDTH, speed=0.0)]) == 0.0

    def test_adding_vehicle_never_decreases(self):
        ego = veh(0, 0.0)
        others = [veh(1, 40.0, 0.0, 15.0)]
        base = risk_reward(ego, others)
        more = risk_reward(ego, others + [veh(2, 25.0, 4.0, 30.0)])
        assert base > 0.0
        assert more >= base


class TestGrid:
    def test_empty_scene_zero(self):
        assert all(risk_at_point(Pose(x, y, 20.0, 0.0, 0.0, L, 2.0, "CAV"), []) == 0.0
                   for x in range(0, 51, 10) for y in (0.0, 4.0, 8.0))

    def test_peak_at_obstacle(self):
        """Over a grid of probes at 10 m/s around a stopped car, the value
        reads 1 exactly where a probe touches it or cannot stop short of it."""
        obs = [veh(1, 25.0, 4.0, 0.0)]
        for y in np.linspace(0.0, 8.0, 17):
            for x in range(51):
                probe = Pose(float(x), float(y), 10.0, 0.0, 0.0, L, 2.0, "CAV")
                gx, gy = abs(25.0 - x) - L, abs(4.0 - y) - 2.0
                at_cap = gy <= 0.0 and (gx <= 0.0 or (x < 25.0 and gx <= 10.0 ** 2 / 8.0))
                assert (risk_at_point(probe, obs) == 1.0) == at_cap, (x, y)

    def test_monotone_along_ray(self):
        """Probes closing at 12 m/s on a stopped car along its lane read more
        the nearer they are."""
        obs = [veh(1, 0.0, 0.0, 0.0)]
        values = [risk_at_point(Pose(-r, 0.0, 12.0, 0.0, 0.0, L, 2.0, "CAV"), obs)
                  for r in np.linspace(80.0, 0.0, 60)]
        assert values == sorted(values)
        assert values[-1] == 1.0


# the draws of the vehicles around ego: one lane heading along the road, or
# three lanes, yawed
SCENES = [dict(y=0.0, heading=0.0), dict(y=2 * config.LANE_WIDTH, heading=0.2)]


class TestMaxOverVehicles:
    @pytest.mark.parametrize("params", SCENES)
    def test_equals_the_max_of_contributions(self, params):
        """The field at a probe is the oracle's largest value over the
        vehicles, bit for bit, touching vehicles included; ``risk_reward``
        skips ego itself."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(0, 12))
            others = [veh(k + 1, float(rng.uniform(-150, 150)),
                          float(rng.uniform(-params["y"], params["y"]) if params["y"] else 0.0),
                          float(rng.uniform(0, 40)),
                          float(rng.uniform(-params["heading"], params["heading"])))
                      for k in range(n)]
            ego = veh(0, float(rng.uniform(-5, 5)), float(rng.uniform(-2, 2)),
                      float(rng.uniform(0, 40)))
            if rng.random() < 0.3:
                others.append(veh(99, ego.x + float(rng.uniform(-1, 1)), ego.y,
                                  float(rng.uniform(0, 40))))
            want = max((field_of(o, ego) for o in others), default=0.0)
            assert risk_at_point(ego, others).hex() == want.hex()
            assert risk_reward(ego, [ego] + others).hex() == want.hex()


class TestValidation:
    def test_nonfinite_rejected(self):
        probe = Pose(0.0, 0.0, 10.0, 0.0, 0.0, L, 2.0, "CAV")
        for field in ("x", "y", "speed", "heading"):
            for value in (math.nan, math.inf):
                other = Pose(20.0, 0.0, 10.0, 0.0, 0.0, L, 2.0, "HDV")._replace(**{field: value})
                with pytest.raises(ValueError):
                    risk_at_point(probe, [other])
