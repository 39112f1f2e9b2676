import math
from dataclasses import replace

import numpy as np
import pytest

from platoonreorg import config
from platoonreorg.riskfield import (
    risk_at_point,
    risk_reward,
)
from platoonreorg.world import Point, VehicleState


def veh(vid, x, y=0.0, speed=20.0):
    return VehicleState(id=vid, x=x, y=y, speed=speed)


def risk_contribution(dx: float, dy: float, v_other: float, p: config.RiskFieldConfig) -> float:
    """Oracle: the normalized field intensity one vehicle contributes at
    offset (dx, dy), written out from the law."""
    d = min(max(math.hypot(dx, p.lateral_scale * dy), p.d_min), p.d_support)
    v = min(max(v_other, 0.0), p.v_max)
    norm = (p.grm / p.d_min ** p.k1) ** (p.k2 * p.v_max)
    return min((p.grm / d ** p.k1) ** (p.k2 * v) / norm, 1.0)


PARAMS = replace(config.DEFAULTS.risk, lateral_scale=1.0)  # isotropic for arithmetic checks


class TestNormalization:
    def test_fixed_point(self):
        # closest possible, fastest possible -> exactly 1
        v = risk_contribution(PARAMS.d_min, 0.0, PARAMS.v_max, PARAMS)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_no_others_zero(self):
        ego = veh(0, 0.0)
        assert risk_reward(ego, []) == 0.0

    def test_stated_arithmetic(self):
        # GRM=100, k1=1, k2=0.05, d_min=2, v_max=40; d=50, v=20
        v = risk_contribution(50.0, 0.0, 20.0, PARAMS)
        assert v == pytest.approx((100 / 50) ** 1 / (100 / 2) ** 2, rel=1e-12)
        assert v == pytest.approx(8.0e-4, rel=1e-9)

    def test_range_random(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            dx = rng.uniform(-300, 300)
            dy = rng.uniform(-20, 20)
            sp = rng.uniform(0, 60)
            v = risk_contribution(dx, dy, sp, PARAMS)
            assert 0.0 <= v <= 1.0


class TestMonotonicity:
    def test_distance_monotone(self):
        prev = 2.0
        last = math.inf
        for d in np.linspace(2.0, 120.0, 200):
            v = risk_contribution(d, 0.0, 25.0, PARAMS)
            assert v <= last + 1e-15
            last = v

    def test_speed_monotone(self):
        last = -1.0
        for sp in np.linspace(0.0, 45.0, 100):
            v = risk_contribution(30.0, 0.0, sp, PARAMS)
            assert v >= last - 1e-15
            last = v

    def test_adding_vehicle_never_decreases(self):
        ego = veh(0, 0.0)
        others = [veh(1, 40.0, 0.0, 20.0)]
        base = risk_reward(ego, others, PARAMS)
        more = risk_reward(ego, others + [veh(2, 25.0, 4.0, 30.0)], PARAMS)
        assert more >= base


class TestAnisotropy:
    def test_lateral_discounted(self):
        p = config.DEFAULTS.risk  # default lateral_scale = 3
        ahead = risk_contribution(12.0, 0.0, 25.0, p)
        beside = risk_contribution(0.0, 12.0, 25.0, p)
        assert ahead > beside


class TestGrid:
    def test_empty_scene_zero(self):
        assert all(risk_at_point(x, y, [], PARAMS) == 0.0
                   for x in range(0, 51, 10) for y in (0.0, 4.0, 8.0))

    def test_peak_at_obstacle(self):
        obs = [veh(1, 25.0, 4.0, 30.0)]
        rows = [(x, y, risk_at_point(x, y, obs, PARAMS))
                for y in range(9) for x in range(51)]
        best = max(rows, key=lambda r: r[2])
        # every cell inside the clamp floor ties at the same max value
        assert math.hypot(best[0] - 25.0, best[1] - 4.0) <= PARAMS.d_min + 1e-9
        assert best[2] == pytest.approx(
            risk_contribution(PARAMS.d_min, 0.0, 30.0, PARAMS), rel=1e-9)

    def test_monotone_along_ray(self):
        obs = [veh(1, 0.0, 0.0, 30.0)]
        last = math.inf
        for r in np.linspace(0.0, 80.0, 60):
            v = risk_at_point(r * 0.8, r * 0.6, obs, PARAMS)
            assert v <= last + 1e-15
            last = v


class TestMaxOverVehicles:
    @pytest.mark.parametrize("params", [PARAMS, config.DEFAULTS.risk])
    def test_equals_the_max_of_contributions(self, params):
        """Normalizing the max raw intensity once gives the max of the
        normalized contributions bit for bit, vehicles inside the d_min
        clamp included."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(0, 12))
            others = [veh(k + 1, float(rng.uniform(-150, 150)), float(rng.uniform(-12, 12)),
                          float(rng.uniform(0, 60))) for k in range(n)]
            x, y = float(rng.uniform(-5, 5)), float(rng.uniform(-2, 2))
            if rng.random() < 0.3:
                others.append(veh(99, x + float(rng.uniform(-1, 1)), y, float(rng.uniform(0, 60))))
            want = 0.0
            for o in others:
                want = max(want, risk_contribution(o.x - x, o.y - y, o.speed, params))
            assert risk_at_point(x, y, others, params).hex() == want.hex()
            ego = veh(0, x, y)
            assert risk_reward(ego, [ego] + others, params).hex() == want.hex()


class TestValidation:
    def test_invariant_guard(self):
        with pytest.raises(ValueError):
            config.RiskFieldConfig(grm=10.0, d_support=100.0)  # base < 1 at support edge

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            risk_at_point(0.0, 0.0, [Point(math.nan, 0.0, 10.0)], PARAMS)
