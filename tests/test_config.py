"""Construction-time checks of the validated defaults classes."""

from __future__ import annotations

import dataclasses
import math

import pytest

from platoonreorg import config


def test_defaults_hash_is_stable():
    assert config.config_hash(config.DEFAULTS) == "9a4b358771a457c1"


GAME_WEIGHTS = ("w_e", "w_it", "k_tau", "w_pdi", "w_lane_change")
GAME_SCALES = ("horizon", "ttc_cap", "entropy_window")
CONTROL_GAINS = ("lqr_q_gap", "lqr_q_speed", "lat_omega", "lat_zeta")


@pytest.mark.parametrize("cls,names", [(config.GameConfig, GAME_WEIGHTS + GAME_SCALES),
                                       (config.ControlConfig, CONTROL_GAINS)],
                         ids=["game", "control"])
def test_validation_lists_name_every_field(cls, names):
    """The lists the validation tests run over are exactly the class's
    fields, so a field can neither escape them nor outlive its deletion."""
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(cls))


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


@pytest.mark.parametrize("name", CONTROL_GAINS)
@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
def test_control_gain_must_be_finite_and_non_negative(name, value):
    """Refused when the config is built: a NaN LQR weight would otherwise
    surface only after 20000 Riccati steps in the first executor."""
    with pytest.raises(ValueError):
        config.ControlConfig(**{name: value})


@pytest.mark.parametrize("name", ["lat_omega", "lat_zeta"])
def test_lateral_law_needs_a_positive_frequency_and_damping(name):
    with pytest.raises(ValueError, match="lat_omega and lat_zeta"):
        config.ControlConfig(**{name: 0.0})


REWARD_WEIGHTS = tuple(f.name for f in dataclasses.fields(config.RewardConfig))


@pytest.mark.parametrize("name", REWARD_WEIGHTS)
@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
def test_reward_weight_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ValueError):
        config.RewardConfig(**{name: value})


@pytest.mark.parametrize("name", REWARD_WEIGHTS)
def test_zero_reward_weight_accepted(name):
    assert getattr(config.RewardConfig(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("name,value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-4), ("learning_rate", math.nan),
    ("gamma", 0.0), ("gamma", 1.01), ("gamma", math.nan),
    ("gae_lambda", -0.01), ("gae_lambda", 1.01), ("gae_lambda", math.nan),
    ("clip_epsilon", 0.0), ("clip_epsilon", -0.2), ("clip_epsilon", math.nan),
    ("batch_size", 0), ("batch_size", 64.0), ("batch_size", True),
    ("epochs", 0), ("epochs", 4.0), ("hidden_size", 0), ("hidden_size", "256"),
])
def test_bad_ppo_setting_rejected(name, value):
    with pytest.raises(ValueError):
        config.PpoConfig(**{name: value})


@pytest.mark.parametrize("name,value", [("gamma", 1.0), ("gae_lambda", 0.0),
                                        ("gae_lambda", 1.0), ("batch_size", 1),
                                        ("epochs", 1), ("hidden_size", 1)])
def test_ppo_setting_on_its_bound_accepted(name, value):
    assert getattr(config.PpoConfig(**{name: value}), name) == value
