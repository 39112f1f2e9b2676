"""Construction-time checks of the game and control defaults classes."""

from __future__ import annotations

import math

import pytest

from platoonreorg import config


def test_defaults_hash_is_stable():
    assert config.config_hash(config.DEFAULTS) == "87bee14b0fd0888b"


GAME_WEIGHTS = ("w_s", "w_e", "w_it", "w_er", "k_tau", "k_d", "k_y", "k_v", "w_pdi",
                "w_lane_change")
GAME_SCALES = ("horizon", "ttc_cap", "dist_cap", "entropy_window", "collision_penalty")


@pytest.mark.parametrize("name", GAME_WEIGHTS)
@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
def test_game_weight_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ValueError):
        config.GameConfig(**{name: value})


@pytest.mark.parametrize("name", GAME_WEIGHTS)
def test_zero_game_weight_accepted(name):
    assert getattr(config.GameConfig(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("name", GAME_SCALES)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_game_scale_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError):
        config.GameConfig(**{name: value})


CONTROL_GAINS = ("lqr_q_gap", "lqr_q_speed", "lqr_r", "pid_kp", "pid_ki", "pid_kd")


@pytest.mark.parametrize("name", CONTROL_GAINS)
@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
def test_control_gain_must_be_finite_and_non_negative(name, value):
    """Refused when the config is built: a NaN LQR weight would otherwise
    surface only after 20000 Riccati steps in the first executor."""
    with pytest.raises(ValueError):
        config.ControlConfig(**{name: value})
