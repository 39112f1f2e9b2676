import json

import numpy as np
import pytest

from platoonreorg import config
from platoonreorg.distribution import enumerate_configurations
from platoonreorg.ppo import (
    Mlp,
    PolicyNetwork,
    PpoTrainer,
    RolloutBuffer,
    clipped_surrogate,
    gae_advantages,
    select_configuration,
    softmax,
    surrogate_active_mask,
)

EPS = config.DEFAULTS.ppo.clip_epsilon


class ToyActor:
    """Three-parameter softmax actor over a 3-action space, obs-free.

    Exercises the same masked policy-gradient formula as the MLP path so the
    analytic gradient can be matched to central finite differences.
    """

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=np.float64)

    def probs(self):
        return softmax(self.theta[None, :])[0]

    def policy_loss(self, actions, advantages, old_probs, eps):
        p = self.probs()
        ratios = p[actions] / old_probs
        return -clipped_surrogate(ratios, advantages, eps)

    def policy_grad(self, actions, advantages, old_probs, eps):
        p = self.probs()
        ratios = p[actions] / old_probs
        active = surrogate_active_mask(ratios, advantages, eps)
        coeff = np.where(active, ratios * np.asarray(advantages), 0.0) / len(actions)
        onehot = np.eye(3)[actions]
        return -(coeff[:, None] * (onehot - p[None, :])).sum(axis=0)


class TestSurrogate:
    def test_identity_ratio_equals_mean_advantage(self):
        rng = np.random.default_rng(0)
        adv = rng.normal(size=64)
        ratios = np.ones(64)
        assert clipped_surrogate(ratios, adv, EPS) == pytest.approx(adv.mean(), abs=1e-9)

    def test_zero_advantage_zero_loss(self):
        ratios = np.linspace(0.5, 1.5, 10)
        assert clipped_surrogate(ratios, np.zeros(10), EPS) == 0.0

    def test_clip_engages(self):
        # ratio forced to 1 + 2 eps with positive advantage -> clipped value
        a = 0.7
        val = clipped_surrogate([1.0 + 2 * EPS], [a], EPS)
        assert val == pytest.approx((1.0 + EPS) * a, abs=1e-12)

    def test_negative_advantage_clip(self):
        a = -0.5
        val = clipped_surrogate([1.0 - 2 * EPS], [a], EPS)
        assert val == pytest.approx((1.0 - EPS) * a, abs=1e-12)


class TestToyGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        theta = np.array([0.3, -0.2, 0.5])
        actions = rng.integers(0, 3, size=32)
        advantages = rng.normal(scale=0.8, size=32)
        # old policy close to current so ratios stay off the clip kinks
        old_probs = ToyActor(theta).probs()[actions] * rng.uniform(0.97, 1.03, size=32)

        actor = ToyActor(theta)
        grad = actor.policy_grad(actions, advantages, old_probs, EPS)

        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            lp = ToyActor(tp).policy_loss(actions, advantages, old_probs, EPS)
            lm = ToyActor(tm).policy_loss(actions, advantages, old_probs, EPS)
            fd[i] = (lp - lm) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / denom < 1e-4


class TestMlpGradient:
    def test_actor_backprop_matches_fd(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 8, 8, 3], rng)
        obs = rng.normal(size=(5, 4))
        acts = rng.integers(0, 3, size=5)
        adv = rng.normal(size=5)

        def loss():
            logits, _ = net.forward(obs)
            p = softmax(logits)
            logp = np.log(p[np.arange(5), acts])
            return -float(np.mean(np.exp(logp - logp0) * adv))

        logits0, cache = net.forward(obs)
        p0 = softmax(logits0)
        logp0 = np.log(p0[np.arange(5), acts])

        # analytic gradient of -mean(ratio * adv) at ratio == 1
        coeff = (np.exp(0.0) * adv) / 5
        d_logits = -(coeff[:, None] * (np.eye(3)[acts] - p0))
        gw, gb = net.backward(cache, d_logits)

        h = 1e-6
        W = net.weights[0]
        for idx in [(0, 0), (1, 3), (3, 7)]:
            orig = W[idx]
            W[idx] = orig + h
            lp = loss()
            W[idx] = orig - h
            lm = loss()
            W[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert gw[0][idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestGae:
    def test_terminal_no_bootstrap(self):
        adv, ret = gae_advantages([1.0], [0.0], [True], last_value=99.0,
                                  gamma=0.85, lam=0.95)
        assert adv[0] == pytest.approx(1.0)
        assert ret[0] == pytest.approx(1.0)

    def test_constant_reward_geometric(self):
        n = 50
        adv, ret = gae_advantages([1.0] * n, [0.0] * n, [False] * n,
                                  last_value=0.0, gamma=0.85, lam=1.0)
        # lam=1: advantage at 0 is the full discounted return
        expected = (1 - 0.85 ** n) / (1 - 0.85)
        assert ret[0] == pytest.approx(expected, rel=1e-9)


class TestPolicyNetwork:
    def test_probs_normalized(self):
        net = PolicyNetwork(obs_dim=10, n_actions=4, hidden=16, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = net.action_probs(rng.normal(size=10))
            assert p.shape == (4,)
            assert p.sum() == pytest.approx(1.0, abs=1e-6)
            assert (p >= 0).all()

    def test_checkpoint_roundtrip(self, tmp_path):
        net = PolicyNetwork(obs_dim=6, n_actions=4, hidden=12, seed=3)
        path = tmp_path / "ckpt.npz"
        net.save(path, extra={"config_hash": "abc123"})
        loaded, header = PolicyNetwork.load(path)
        assert header["config_hash"] == "abc123"
        obs = np.linspace(-1, 1, 6)
        assert np.allclose(net.action_probs(obs), loaded.action_probs(obs))
        assert net.value(obs) == pytest.approx(loaded.value(obs))

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        """Every array comes from the file: a load makes no random generator."""
        net = PolicyNetwork(obs_dim=6, n_actions=4, hidden=12, seed=3)
        path = tmp_path / "ckpt.npz"
        net.save(path)

        def refuse(*args, **kwargs):
            raise AssertionError("load drew random weights")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded, _ = PolicyNetwork.load(path)
        for mine, theirs in ((net.actor, loaded.actor), (net.critic, loaded.critic)):
            assert len(theirs.params()) == len(mine.params())
            for a, b in zip(mine.params(), theirs.params()):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("key", ["version", "obs_dim", "n_actions", "hidden"])
    def test_save_refuses_extra_keys_that_overwrite_the_header(self, tmp_path, key):
        net = PolicyNetwork(obs_dim=6, n_actions=4, hidden=12, seed=3)
        with pytest.raises(ValueError, match="overwrite the checkpoint header"):
            net.save(tmp_path / "ckpt.npz", extra={key: 5})

    @pytest.mark.parametrize("key,value", [("obs_dim", 5), ("n_actions", 3), ("hidden", 16)])
    def test_load_checks_array_shapes_against_the_header(self, tmp_path, key, value):
        """A header that disagrees with the stored weights is refused, not
        loaded as a network whose sizes do not match its own arrays."""
        path = tmp_path / "ckpt.npz"
        PolicyNetwork(obs_dim=6, n_actions=4, hidden=12, seed=3).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["header"]).decode())
        header[key] = value
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="the header needs"):
            PolicyNetwork.load(path)


class TestSelection:
    def setup_method(self):
        self.actions = enumerate_configurations(3)

    def test_greedy_ties_break_low(self):
        class Uniform:
            def action_probs(self, obs):
                return np.full(4, 0.25)

        act, idx, _ = select_configuration(np.zeros(3), Uniform(), self.actions, "greedy")
        assert idx == 0
        assert act.single_group

    def test_sampling_reproducible(self):
        net = PolicyNetwork(obs_dim=5, n_actions=4, hidden=8, seed=1)
        obs = np.ones(5)
        a1 = select_configuration(obs, net, self.actions, "sample",
                                  np.random.default_rng(42))[1]
        a2 = select_configuration(obs, net, self.actions, "sample",
                                  np.random.default_rng(42))[1]
        assert a1 == a2


class TestTrainerUpdate:
    def test_update_runs_and_normalizes(self):
        net = PolicyNetwork(obs_dim=6, n_actions=4, hidden=16, seed=0)
        trainer = PpoTrainer(net, seed=0)
        rng = np.random.default_rng(0)
        buf = RolloutBuffer()
        for _ in range(128):
            obs = rng.normal(size=6)
            p = net.action_probs(obs)
            a = int(rng.choice(4, p=p))
            buf.add(obs, a, float(rng.normal()), False, float(np.log(p[a])),
                    net.value(obs))
        losses = trainer.update(buf, last_value=0.0)
        assert np.isfinite(losses["policy_loss"])
        assert np.isfinite(losses["value_loss"])
        for _ in range(10):
            p = net.action_probs(rng.normal(size=6))
            assert p.sum() == pytest.approx(1.0, abs=1e-6)

    def test_learns_bandit_preference(self):
        # action 2 pays 1, others 0: after a few updates its probability rises
        net = PolicyNetwork(obs_dim=4, n_actions=4, hidden=16, seed=0)
        trainer = PpoTrainer(net, seed=0)
        rng = np.random.default_rng(0)
        obs0 = np.zeros(4)
        before = net.action_probs(obs0)[2]
        for _round in range(30):
            buf = RolloutBuffer()
            for _ in range(128):
                p = net.action_probs(obs0)
                a = int(rng.choice(4, p=p))
                r = 1.0 if a == 2 else 0.0
                buf.add(obs0, a, r, True, float(np.log(p[a])), net.value(obs0))
            trainer.update(buf, last_value=0.0)
        after = net.action_probs(obs0)[2]
        assert after > max(before + 0.2, 0.5)
