import math
from dataclasses import replace

import numpy as np
import pytest

from platoonreorg import config
from platoonreorg.riskfield import (
    risk_at_point,
    risk_contribution,
    risk_reward,
)
from platoonreorg.world import VehicleState


def veh(vid, x, y=0.0, speed=20.0):
    return VehicleState(id=vid, x=x, y=y, speed=speed)


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


class TestValidation:
    def test_invariant_guard(self):
        with pytest.raises(ValueError):
            config.RiskFieldConfig(grm=10.0, d_support=100.0)  # base < 1 at support edge

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            risk_contribution(math.nan, 0.0, 10.0, PARAMS)
